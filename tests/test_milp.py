import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from janaka.errors import UnsupportedForExportError
from janaka.formulas import PropositionSet, children, format_formula, is_literal, parse_formula
from janaka.milp import _Emitter, _parse_lp, export_milp, lp_optimum, template_from_lp
from janaka.ops import arity, evaluate, label_code, op_of
from janaka.repair import enumerate_fillings
from janaka.semantics import DISCOUNTED, ROBUST, SemanticsParams, value_of
from janaka.templates import Fixed, make_templates, parse_template
from janaka.traces import Sample, Trace

from gen import random_formula, random_trace

try:
    import numpy as np
    from scipy import optimize, sparse
except ImportError:
    np = optimize = sparse = None

# only the tests that solve a model need scipy; the export itself imports none
needs_scipy = pytest.mark.skipif(optimize is None, reason="scipy is not installed")

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
        with pytest.raises(UnsupportedForExportError):
            lp_optimum(lp)  # a QP solver's job

    def test_literal_labels_share_one_pair_per_position(self):
        t = parse_template("G(?<1>)")
        sample = Sample((Trace(states({"p"}, set(), {"p"})),), P)
        for params in (disc(), SemanticsParams(kind=ROBUST)):
            rows = export_milp(t, sample, params, d=2).split("Bounds\n")[0].splitlines()
            gated = [r for r in rows if "y_2_" in r and "x_2_" in r]
            assert len(gated) == 2 * 3
            assert all("x_2_lit_p" in r and "x_2_nlit_p" in r for r in gated)

    def test_closed_slots_are_constants(self):
        # slots 4 (U), 8 (p) and 9 (q) are closed; slot 1 is a Fixed G over
        # the hole at 2, and slot 5 is a hole
        t = parse_template("G(((p U q) ? ?<1>))")
        sample = Sample(
            (Trace(states({"p"}, {"q"}, set())), Trace(states({"p", "q"}, {"p"}))), PQ
        )
        closed = closed_formulas(t)
        assert sorted(closed) == [4, 8, 9]
        for params in (disc(), SemanticsParams(kind=ROBUST)):
            lp = export_milp(t, sample, params, d=t.depth)
            _, rows, bounds, binaries = _parse_lp(lp)
            assert not [b for b in binaries if slot_of(b) in closed]
            for k in closed:
                assert bounds[f"x_{k}_{label_code(t.slot_map[k].label)}"] == [1.0, 1.0]
            for coeffs, _, _, quad in rows:
                names = set(coeffs) | {v for _, va, vb in quad for v in (va, vb)}
                own = {v for v in names if slot_of(v) in closed}
                # only slot 2's rows read the closed slot 4: its label, score
                # and sign
                assert all(v.startswith(("x_4_", "y_4_", "s_4_")) for v in own), own
                assert not own or any(slot_of(v) == 2 for v in names), names
            for k, f in closed.items():
                for tr, trace in enumerate(sample.traces):
                    want = evaluate(f, trace.states, params.kind, params)
                    for pos, v in enumerate(want):
                        assert bounds[f"y_{k}_{pos}_{tr}"] == [float(_fmt(v))] * 2
            # the Fixed G over the hole keeps its rows
            assert any("y_1_0_0" in coeffs for coeffs, *_ in rows)

    def test_rows_over_fixed_binaries_only_are_dropped(self):
        t = parse_template("G((p -> ?<1>))")
        sample = Sample((Trace(states({"p"}, set())),), PQ)
        _, rows, bounds, _ = _parse_lp(export_milp(t, sample, disc(), d=t.depth))
        structure = [c for c, *_ in rows if all(v.startswith("x_") for v in c)]
        # each row reads the hole's binaries: slot 5's own, and its links to slot 2
        assert structure and all(any(v.startswith("x_5_") for v in c) for c in structure)
        assert bounds["x_1_g"] == bounds["x_2_imp"] == bounds["x_4_lit_p"] == [1.0, 1.0]

    def test_true_label_unsupported(self):
        t = parse_template("G(true)")
        sample = Sample((Trace(states({"p"})),), P)
        with pytest.raises(UnsupportedForExportError):
            export_milp(t, sample, disc(), d=2)


@needs_scipy
class TestDiscountedCrossValidation:
    def check(self, template_text, sample, params):
        t = parse_template(template_text)
        lp = export_milp(t, sample, params, d=t.depth)
        want = native_optimum(t, sample, params)
        assert lp_optimum(lp) == pytest.approx(want, abs=1e-6)

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


def slot_of(name: str) -> int:
    """The slot index in a model variable's name (``x_4_u``, ``y_4_0_1``)."""
    return int(name.split("_")[1])


def closed_formulas(t):
    """Slot index -> formula of every closed slot: Fixed, over closed children."""
    out = {}
    for i, slot in reversed(t.slots):
        if not isinstance(slot, Fixed):
            continue
        kids = [out.get(k) for k in (2 * i, 2 * i + 1)[: arity(slot.label)]]
        if None in kids:
            continue
        if len(kids) == 2:
            text = f"({kids[0]} {slot.label} {kids[1]})"
        else:
            text = f"{slot.label}({kids[0]})" if kids else slot.label
        out[i] = text
    return {i: parse_formula(text) for i, text in out.items()}


class TestClosedSubtrees:
    """Random templates from the template generator, under both semantics:
    each closed slot's scores are bounds equal to the kernels' values, its
    signs are exact, and the model still encodes the same template."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([DISCOUNTED, ROBUST]))
    def test_bounds_are_the_kernel_values(self, seed, kind):
        rng = random.Random(seed)
        f = random_formula(rng, rng.randint(2, 3), ["p", "q"], mode="nnf")
        t = make_templates(f, d=1, hole_prob=rng.choice([0.2, 0.5]), seed=seed)[0]
        closed = closed_formulas(t)
        assume(closed)
        sample = Sample(
            tuple(random_trace(rng, rng.randint(1, 4), ["p", "q"])
                  for _ in range(rng.randint(1, 2))),
            PQ,
        )
        params = SemanticsParams(rng.choice([0.5, 0.9, 1.0]), rng.choice([0.8, 1.0]),
                                 rng.choice([0.0, 0.1]), kind)
        lp = export_milp(t, sample, params, d=t.depth)
        _, _, bounds, binaries = _parse_lp(lp)
        for i, g in closed.items():
            for tr, trace in enumerate(sample.traces):
                for pos, v in enumerate(evaluate(g, trace.states, kind, params)):
                    assert bounds[f"y_{i}_{pos}_{tr}"] == [float(_fmt(v))] * 2
                    sign = bounds.get(f"s_{i}_{pos}_{tr}")
                    assert sign in (None, [float(v >= 0)] * 2)
        assert not [b for b in binaries if slot_of(b) in closed]
        orig = {format_formula(fl.formula) for fl in enumerate_fillings(t, PQ)}
        back = {format_formula(fl.formula) for fl in enumerate_fillings(template_from_lp(lp), PQ)}
        assert orig == back


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

    @needs_scipy
    def test_robust_enumeration_matches_native_optimum(self):
        # the robust model has quadratic rows, so no LP solver reads it; instead
        # enumerate the template rebuilt from the LP, fix the model to each
        # filling's native scores, and take the best objective value
        sample = Sample(
            (Trace(states({"p"}, {"q"}, {"p", "q"})), Trace(states({"q"}, set()))), PQ
        )
        params = SemanticsParams(kind=ROBUST)
        for text in ("(p ? q)", "G(?<1>)", "(p ? ?<1>)"):
            t = parse_template(text)
            lp = export_milp(t, sample, params, d=t.depth)
            obj = _parse_lp(lp)[0]
            best = None
            for filling in enumerate_fillings(template_from_lp(lp), PQ):
                model = ForcedModel(lp, filling, sample, params)
                assert model.feasible(), format_formula(filling.formula)
                total = sum(c * model.fixed[v] for v, c in obj.items())
                best = total if best is None else max(best, total)
            assert best == pytest.approx(native_optimum(t, sample, params), abs=1e-9)
        assert "[" in lp
        with pytest.raises(UnsupportedForExportError):
            lp_optimum(lp)


# --- the encodings against the semantics --------------------------------------------

FORCING_TEMPLATES = (
    "G(?<1>)", "F(?<1>)", "X(?<1>)", "(p ? ?<1>)", "(?<1> U ?<1>)", "G((p ? q))",
    "F((p ? ?<1>))",
    # a hole that admits operators and literals: its literal pair is slack
    # whenever an operator fills it
    "X(?<2>)",
    # a closed binary subtree beside a hole: constants read by open rows
    "G(((p U q) ? ?<1>))",
)


def slot_subformulas(f, i=1):
    """Slot index -> subformula of a decoded filling; a literal fills one slot,
    and slot i's children sit at 2i and 2i+1."""
    out = {i: f}
    if not is_literal(f):
        for k, child in enumerate(children(f)):
            out.update(slot_subformulas(child, 2 * i + k))
    return out


def slot_label(f):
    return format_formula(f) if is_literal(f) else op_of(f).label


class ForcedModel:
    """An exported model with every x fixed to one filling, and every used
    slot's y fixed to its native per-position values, except the slot a solve
    frees. Unused slots' y sit at their lower bound, so each quadratic term
    has at most one free factor and is substituted into a linear row."""

    def __init__(self, lp, filling, sample, params):
        _, self.rows, self.bounds, binaries = _parse_lp(lp)
        assert len(set(binaries)) == len(binaries), "duplicate binaries"
        self.binaries = set(binaries)
        names = set(self.bounds) | self.binaries
        for coeffs, _, _, quad in self.rows:
            names.update(coeffs)
            names.update(v for _, va, vb in quad for v in (va, vb))
        self.names = sorted(names)
        self.index = {v: k for k, v in enumerate(self.names)}
        subs = slot_subformulas(filling.formula)
        chosen = {f"x_{i}_{label_code(slot_label(f))}" for i, f in subs.items()}
        self.native: dict[int, dict[str, float]] = {i: {} for i in subs}
        self.fixed: dict[str, float] = {}
        for v in self.names:
            if v.startswith("x_"):
                self.fixed[v] = 1.0 if v in chosen else 0.0
            elif v.startswith("y_"):
                i, t, tr = map(int, v.split("_")[1:])
                if i in subs:
                    states = sample.traces[tr].states
                    value = evaluate(subs[i], states, params.kind, params)[t]
                    self.native[i][v] = self.fixed[v] = value
                else:
                    self.fixed[v] = self.bounds[v][0]

    def feasible(self) -> bool:
        return self._solve(set(), 0.0) is not None

    def extremes(self, slot) -> tuple[float, float]:
        """Min and max of the sum of the slot's y, the slot's y freed."""
        free = set(self.native[slot])
        return self._solve(free, 1.0), -self._solve(free, -1.0)

    def _solve(self, free, sense):
        """Optimal value of min sense * sum(free y), or None when infeasible."""
        fixed = {v: x for v, x in self.fixed.items() if v not in free}
        n = len(self.names)
        lo, hi = np.zeros(n), np.full(n, np.inf)
        for v, k in self.index.items():
            if v in fixed:
                lo[k] = hi[k] = fixed[v]
            elif v in self.bounds:
                lo[k], hi[k] = self.bounds[v]
            elif v in self.binaries:
                hi[k] = 1.0
        data, row_idx, col_idx, rlo, rhi = [], [], [], [], []
        for r, (coeffs, op, rhs, quad) in enumerate(self.rows):
            coeffs = dict(coeffs)
            for c, va, vb in quad:
                if va in fixed and vb in fixed:
                    rhs -= c * fixed[va] * fixed[vb]
                else:
                    var, other = (vb, va) if va in fixed else (va, vb)
                    assert other in fixed, "a quadratic term with two free factors"
                    coeffs[var] = coeffs.get(var, 0.0) + c * fixed[other]
            for v, c in coeffs.items():
                data.append(c)
                row_idx.append(r)
                col_idx.append(self.index[v])
            rlo.append(rhs if op in (">=", "=") else -np.inf)
            rhi.append(rhs if op in ("<=", "=") else np.inf)
        c = np.zeros(n)
        for v in free:
            c[self.index[v]] = sense
        res = optimize.milp(
            c,
            constraints=[optimize.LinearConstraint(
                sparse.csr_array((data, (row_idx, col_idx)), shape=(len(self.rows), n)),
                rlo, rhi,
            )],
            integrality=np.array([v in self.binaries for v in self.names], dtype=int),
            bounds=optimize.Bounds(lo, hi),
        )
        if res.status == 2:
            return None
        assert res.success, res.message
        return res.fun


def forcing_instances(kind, seed):
    """Every filling of each forcing template, over one seeded sample and
    parameter draw per template."""
    rng = random.Random(seed)
    for text in FORCING_TEMPLATES:
        sample = Sample(
            tuple(random_trace(rng, rng.randint(1, 4), ["p", "q"])
                  for _ in range(rng.randint(1, 2))),
            PQ,
        )
        params = SemanticsParams(
            rng.choice([0.5, 0.9, 1.0]), rng.choice([0.8, 0.9, 1.0]),
            rng.choice([0.0, 0.1, 0.3]), kind,
        )
        t = parse_template(text)
        lp = export_milp(t, sample, params, d=t.depth)
        for filling in enumerate_fillings(t, PQ):
            yield lp, filling, sample, params


@needs_scipy
class TestForcing:
    """With x fixed to a filling, the rows admit exactly the native scores: the
    native values are feasible, and freeing any one used slot's y, its rows
    force the native values (its sum's min and max equal the native sum)."""

    @pytest.mark.parametrize("kind", [DISCOUNTED, ROBUST])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_rows_force_the_native_scores(self, kind, seed):
        for lp, filling, sample, params in forcing_instances(kind, seed):
            model = ForcedModel(lp, filling, sample, params)
            where = f"{format_formula(filling.formula)} {params} {sample.traces}"
            assert model.feasible(), f"native scores infeasible: {where}"
            for i, ys in model.native.items():
                want = sum(ys.values())
                lo, hi = model.extremes(i)
                assert lo == pytest.approx(want, abs=1e-5), f"slot {i} min {lo}: {where}"
                assert hi == pytest.approx(want, abs=1e-5), f"slot {i} max {hi}: {where}"


# --- row text against the formatting it replaced ----------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class ReferenceEmitter:
    """`_Emitter.row` and `eq_gated` as they were before row text was built
    from interned pieces, verbatim."""

    def __init__(self):
        self.rows: list[str] = []
        self.quads: list[str] = []
        self._n = 0

    def row(self, terms: list[tuple[float, str]], op: str, rhs: float, quad=None):
        self._n += 1
        parts = []
        for coef, var in terms:
            sign = "+" if coef >= 0 else "-"
            parts.append(f"{sign} {_fmt(abs(coef))} {var}")
        if quad:
            qparts = []
            for coef, va, vb in quad:
                sign = "+" if coef >= 0 else "-"
                qparts.append(f"{sign} {_fmt(abs(coef))} {va} * {vb}")
            parts.append("+ [ " + " ".join(qparts) + " ]")
        line = f" c{self._n}: " + " ".join(parts) + f" {op} {_fmt(rhs)}"
        (self.quads if quad else self.rows).append(line)

    def eq_gated(self, yvar: str, terms: list[tuple[float, str]], const: float,
                 gates: list[str], m: float, off=()):
        """y = const + sum(terms) whenever every gate binary is 1 and every
        `off` binary is 0."""
        k = len(gates)
        gate_terms = [(m, g) for g in gates] + [(-m, b) for b in off]
        self.row([(1.0, yvar)] + [(-c, v) for c, v in terms] + gate_terms, "<=", const + m * k)
        self.row([(-1.0, yvar)] + [(c, v) for c, v in terms] + gate_terms, "<=", -const + m * k)


# signed zeros, values that need all 12 significant digits, then any value;
# integers as `_and_gate`'s right-hand sides are
NUMBER = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-5, 0.1 + 0.2, 1 / 3, -123456.789012345]),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
)
VAR = st.sampled_from(["y_1_0_0", "x_2_lit_p", "x_2_nlit_q", "s_3_1_0", "w_1_0_0_or"])
TERMS = st.lists(st.tuples(NUMBER, VAR), max_size=4)
ROW = st.tuples(
    st.just("row"), st.lists(st.tuples(NUMBER, VAR), min_size=1, max_size=4),
    st.sampled_from(["<=", ">=", "="]), NUMBER,
    st.one_of(st.none(), st.lists(st.tuples(NUMBER, VAR, VAR), min_size=1, max_size=2)),
)
EQ_GATED = st.tuples(
    st.just("eq_gated"), VAR, TERMS, NUMBER, st.lists(VAR, max_size=2), NUMBER,
    st.lists(VAR, max_size=2),
)


class TestRowText:
    """One emitter fed a sequence of rows renders each as the reference does,
    so a value interned by an earlier row (0.0 before -0.0, say) is never
    handed to a later one that formats differently."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(ROW, EQ_GATED), min_size=1, max_size=8))
    def test_interned_rows_render_as_the_reference(self, calls):
        got, want = _Emitter(), ReferenceEmitter()
        for kind, *args in calls:
            getattr(got, kind)(*args)
            getattr(want, kind)(*args)
        assert got.rows == want.rows
        assert got.quads == want.quads

    @given(st.lists(NUMBER, min_size=1, max_size=8))
    def test_numbers_format_as_fmt(self, xs):
        e = _Emitter()
        assert [e.number(x) for x in xs] == [_fmt(x) for x in xs]

    def test_signed_zero_rhs(self):
        e = _Emitter()
        e.row([(1.0, "y")], "<=", 0.0)
        e.row([(1.0, "y")], "<=", -0.0)
        e.row([(-0.0, "y")], "<=", 1.0)
        assert [r.split(": ", 1)[1] for r in e.rows] == ["+ 1 y <= 0", "+ 1 y <= -0", "+ 0 y <= 1"]
