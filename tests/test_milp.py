import random

import pytest

from janaka.errors import UnsupportedForExportError
from janaka.formulas import PropositionSet, format_formula
from janaka.milp import export_milp, lp_enumerate_optimum, lp_optimum, template_from_lp
from janaka.repair import enumerate_fillings
from janaka.semantics import DISCOUNTED, ROBUST, SemanticsParams, value_of
from janaka.templates import parse_template
from janaka.traces import Sample, Trace

from gen import random_trace

scipy = pytest.importorskip("scipy")

P = PropositionSet(["p"])
PQ = PropositionSet(["p", "q"])


def states(*sets):
    return tuple(frozenset(s) for s in sets)


def disc(alpha=0.9, beta=0.9):
    return SemanticsParams(alpha, beta, 0.1, DISCOUNTED)


def native_optimum(template, sample, params):
    """Exhaustive unfiltered optimum of the summed root scores."""
    best = None
    for filling in enumerate_fillings(template, sample.props):
        total = sum(value_of(filling.formula, w, params).value for w in sample.traces)
        if best is None or total > best:
            best = total
    return best


class TestExportShape:
    def test_leaf_hole_variable_counts(self):
        t = parse_template("G(?<1>)")
        sample = Sample((Trace(states({"p"}, set())),), P)
        lp = export_milp(t, sample, disc(), d=2)
        binary_section = lp.split("Binary\n", 1)[1]
        x_vars = {v for v in binary_section.split() if v.startswith("x_")}
        assert x_vars == {"x_2_lit_p", "x_2_nlit_p"}  # |holes| * |labels|
        y_vars = {tok for tok in lp.split() if tok.startswith("y_")}
        assert y_vars == {"y_1_0_0", "y_1_1_0", "y_2_0_0", "y_2_1_0"}
        assert lp.splitlines()[2].startswith("Maximize") or "Maximize" in lp

    def test_objective_sums_traces(self):
        t = parse_template("G(p)")
        sample = Sample((Trace(states({"p"})), Trace(states(set()))), P)
        lp = export_milp(t, sample, disc(), d=2)
        obj_line = [l for l in lp.splitlines() if l.strip().startswith("obj:")][0]
        assert "y_1_0_0" in obj_line and "y_1_0_1" in obj_line

    def test_robust_conjunction_emits_quadratic(self):
        t = parse_template("(p ? q)")
        sample = Sample((Trace(states({"p", "q"})),), PQ)
        lp = export_milp(t, sample, SemanticsParams(kind=ROBUST), d=2)
        assert "[" in lp and "*" in lp

    def test_true_label_unsupported(self):
        t = parse_template("G(true)")
        sample = Sample((Trace(states({"p"})),), P)
        with pytest.raises(UnsupportedForExportError):
            export_milp(t, sample, disc(), d=2)


class TestDiscountedCrossValidation:
    def check(self, template_text, sample, params):
        t = parse_template(template_text)
        lp = export_milp(t, sample, params, d=t.depth)
        want = native_optimum(t, sample, params)
        got_solver = lp_optimum(lp)
        assert got_solver == pytest.approx(want, abs=1e-6)
        got_enum = lp_enumerate_optimum(lp, sample, params)
        assert got_enum == pytest.approx(want, abs=1e-9)

    def test_no_hole_atoms(self):
        sample = Sample((Trace(states({"p"}, set(), {"p"})),), P)
        self.check("G(p)", sample, disc())
        self.check("F(p)", sample, disc())
        self.check("X(p)", sample, disc())
        self.check("(p U p)", sample, disc())

    def test_no_hole_booleans(self):
        sample = Sample(
            (Trace(states({"p"}, {"q"}, {"p", "q"})), Trace(states(set(), {"p"}))), PQ
        )
        self.check("(p & q)", sample, disc())
        self.check("(p | q)", sample, disc())
        self.check("(p -> q)", sample, disc())
        self.check("G((p -> F(q)))", sample, disc())
        self.check("(!p U q)", sample, disc())

    def test_one_hole_leaf(self):
        sample = Sample(
            (Trace(states({"p"}, {"q"})), Trace(states({"p", "q"}, set()))), PQ
        )
        self.check("G(?<1>)", sample, disc())
        self.check("F(?<1>)", sample, disc())

    def test_one_hole_binary_label(self):
        sample = Sample(
            (Trace(states({"p"}, {"q"}, {"q"})), Trace(states({"q"}, {"p"}))), PQ
        )
        self.check("(p ? q)", sample, disc())
        self.check("G((p ? q))", sample, disc(alpha=0.8, beta=1.0))

    def test_random_instances(self):
        rng = random.Random(2024)
        for _ in range(6):
            n_props = rng.randint(1, 2)
            props = PropositionSet(["p", "q"][:n_props])
            sample = Sample(
                tuple(random_trace(rng, rng.randint(1, 4), list(props))
                      for _ in range(rng.randint(1, 2))),
                props,
            )
            text = rng.choice(["G(?<1>)", "(p ? p)", "X(?<1>)", "(p ? ?<1>)"])
            if "q" in text and n_props == 1:
                continue
            params = disc(alpha=rng.choice([0.5, 0.9, 1.0]), beta=rng.choice([0.8, 1.0]))
            self.check(text, sample, params)


class TestTemplateRoundTrip:
    def test_rebuilt_template_enumerates_the_same_formulas(self):
        self.check_round_trip(disc())

    def test_robust_rebuilt_template_enumerates_the_same_formulas(self):
        self.check_round_trip(SemanticsParams(kind=ROBUST))

    def check_round_trip(self, params):
        t = parse_template("(p ? ?<1>)")
        sample = Sample((Trace(states({"p"}, {"q"})),), PQ)
        lp = export_milp(t, sample, params, d=t.depth)
        rebuilt = template_from_lp(lp)
        orig = {format_formula(f.formula) for f in enumerate_fillings(t, PQ)}
        back = {format_formula(f.formula) for f in enumerate_fillings(rebuilt, PQ)}
        assert orig == back

    def test_robust_enumeration_matches_native_optimum(self):
        # the robust model has quadratic rows: only the solver refuses it
        sample = Sample(
            (Trace(states({"p"}, {"q"}, {"p", "q"})), Trace(states({"q"}, set()))), PQ
        )
        params = SemanticsParams(kind=ROBUST)
        for text in ("(p ? q)", "G(?<1>)", "(p ? ?<1>)"):
            t = parse_template(text)
            lp = export_milp(t, sample, params, d=t.depth)
            assert lp_enumerate_optimum(lp, sample, params) == native_optimum(t, sample, params)
        assert "[" in lp
        with pytest.raises(UnsupportedForExportError):
            lp_optimum(lp)
