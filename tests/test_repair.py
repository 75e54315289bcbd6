import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import janaka.repair as repair_module
from janaka.errors import EmptySampleError, NoTemplatesError, UnsupportedNegationError
from janaka.formulas import (
    Atom,
    Finally,
    Globally,
    Next,
    Not,
    PropositionSet,
    decode_label,
    format_formula,
    node_count,
    parse_formula,
)
from janaka.repair import (
    Filling,
    RepairOutcome,
    SearchBudget,
    SearchStats,
    _assignments,
    _SlotTable,
    _View,
    bound_mean_fitness,
    enumerate_fillings,
    repair,
    triviality_filter,
)
from janaka.ops import OPS, literal_values
from janaka.semantics import DISCOUNTED, ROBUST, SemanticsParams, sample_fitness, value_range
from janaka.templates import (
    RANDOM,
    STRATEGIES,
    Fixed,
    Hole,
    Template,
    make_templates,
    parse_template,
)
from janaka.traces import Sample, Trace

from gen import random_formula, random_trace

PQ = PropositionSet(["p", "q"])


def states(*sets):
    return tuple(frozenset(s) for s in sets)


def all_p_sample(n_traces=3, length=3, props=PropositionSet(["p"])):
    t = Trace(states(*([{"p"}] * length)))
    return Sample((t,) * n_traces, props)


class TestEnumerate:
    def test_leaf_hole_yields_literals(self):
        t = parse_template("G(?<1>)")
        fillings = list(enumerate_fillings(t, PQ))
        texts = [format_formula(f.formula) for f in fillings]
        assert texts == ["G(p)", "G(!p)", "G(q)", "G(!q)"]

    def test_binary_position_hole(self):
        t = parse_template("(p ? q)")
        texts = [format_formula(f.formula) for f in enumerate_fillings(t, PQ)]
        assert texts == ["(p & q)", "(p | q)", "(p -> q)", "(p U q)"]

    def test_no_hole_single_filling(self):
        t = parse_template("G((p -> F(q)))")
        fillings = list(enumerate_fillings(t, PQ))
        assert len(fillings) == 1
        assert format_formula(fillings[0].formula) == "G((p -> F(q)))"

    def test_unary_anchor_with_right_region(self):
        t = parse_template("(p ? ?<1>)")
        fillings = list(enumerate_fillings(t, PQ))
        # 4 binary ops x 4 literals for the region, then G/F/X with it unused
        assert len(fillings) == 19
        texts = [format_formula(f.formula) for f in fillings]
        assert texts[0] == "(p & p)"
        assert texts[-3:] == ["G(p)", "F(p)", "X(p)"]

    def test_restricted_hole(self):
        t = parse_template("?{G,F}(p U q)")
        texts = [format_formula(f.formula) for f in enumerate_fillings(t, PQ)]
        assert texts == ["G((p U q))", "F((p U q))"]

    def test_search_withholds_stacked_g_and_f(self):
        # a G/F hole over a fixed G, a fixed G over a G/F hole, and a fixed
        # G over a fixed G; enumerate_fillings keeps every filling
        stats = SearchStats()
        over = parse_template("?{G,F}(G(?<1>))")
        assert [a[1] for a in _assignments(_View(over, PQ), stats=stats)] == ["F"] * 4
        assert stats.cut_trivial == 1
        assert len(list(enumerate_fillings(over, PQ))) == 8
        under = parse_template("G(?{G,F,X}(p))")
        assert [a[2] for a in _assignments(_View(under, PQ))] == ["F", "X"]
        fixed = parse_template("G(G(?<1>))")
        assert list(_assignments(_View(fixed, PQ))) == []
        assert len(list(enumerate_fillings(fixed, PQ))) == 4

    def test_assignment_recorded(self):
        t = parse_template("G(?<1>)")
        first = next(enumerate_fillings(t, PQ))
        assert first.assignment == ((2, "p"),)


class TestTrivialityFilter:
    def test_spec_cases(self):
        p = Atom("p")
        assert triviality_filter(parse_formula("p | !p")) is True
        assert triviality_filter(parse_formula("p & !p")) is True
        assert triviality_filter(parse_formula("F(F(p))")) is True
        assert triviality_filter(parse_formula("G(G(p))")) is True
        assert triviality_filter(parse_formula("F(p) & F(p)")) is True
        assert triviality_filter(Next(Next(p))) is False
        assert triviality_filter(parse_formula("G(p -> F(q))")) is False

    def test_identical_children_any_binary(self):
        assert triviality_filter(parse_formula("p -> p")) is True
        assert triviality_filter(parse_formula("p U p")) is True

    def test_tautology_under_g_or_f(self):
        assert triviality_filter(parse_formula("G(p | (q | !p))")) is True
        assert triviality_filter(parse_formula("F(true)")) is True
        assert triviality_filter(parse_formula("G(p | q)")) is False
        # temporal children are not propositional, no tautology check
        assert triviality_filter(parse_formula("G(F(p) | !p)")) is False

    def test_nested_containment(self):
        assert triviality_filter(parse_formula("G(r U (p & !p))")) is True


def stacking_source(rng, props):
    """A random NNF source, half the time under G or F, so that the G/F
    holes of 'gtemp' and the pinned G/F nodes of 'withgf' stack on G or F."""
    f = random_formula(rng, depth=rng.randint(1, 3), atoms=list(props), mode="nnf")
    if rng.random() < 0.5:
        f = rng.choice([Globally, Finally])(f)
    return f


def brute_force(templates, sample, params):
    """Independent exhaustive optimum: same tie-break, no pruning."""
    best = None
    for t in templates:
        for filling in enumerate_fillings(t, sample.props):
            if triviality_filter(filling.formula):
                continue
            fit = sample_fitness(filling.formula, sample, params)
            key = (-fit, node_count(filling.formula), format_formula(filling.formula))
            if best is None or key < best[0]:
                best = (key, filling)
    return best


class TestRepair:
    def test_leaf_hole_over_all_p(self):
        t = parse_template("G(?<1>)")
        out = repair(all_p_sample(), [t], SemanticsParams(1.0, 1.0, kind=ROBUST), kappa=1.0)
        assert format_formula(out.best.formula) == "G(p)"
        assert out.threshold_met
        assert out.fitness == pytest.approx(3.0)
        assert out.total == pytest.approx(9.0)
        assert out.per_trace == [(3.0, True)] * 3

    def test_unreachable_kappa_still_reports_best(self):
        t = parse_template("G(?<1>)")
        out = repair(all_p_sample(), [t], SemanticsParams(1.0, 1.0, kind=ROBUST),
                     kappa=float("inf"))
        assert not out.threshold_met
        assert out.best is not None

    def test_no_templates(self):
        with pytest.raises(NoTemplatesError):
            repair(all_p_sample(), [], SemanticsParams(kind=ROBUST), kappa=0.0)

    def test_node_budget_expiry_keeps_incumbent(self):
        t = parse_template("G(?<1>)")
        out = repair(
            all_p_sample(), [t], SemanticsParams(1.0, 1.0, kind=ROBUST),
            kappa=0.0, budget=SearchBudget(node_limit=1),
        )
        assert out.budget_expired
        assert out.stats.stop == "nodes"
        assert out.explored == 1
        assert format_formula(out.best.formula) == "G(p)"

    def test_fitness_matches_recomputation(self):
        t = parse_template("(p ? ?<1>)")
        params = SemanticsParams(kind=DISCOUNTED)
        sample = all_p_sample()
        out = repair(sample, [t], params, kappa=0.0)
        assert out.fitness == sample_fitness(out.best.formula, sample, params)
        assert out.total == pytest.approx(sum(s for s, _ in out.per_trace))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from(STRATEGIES))
    def test_exactness_vs_brute_force(self, seed, strategy):
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        f = stacking_source(rng, props)
        templates = make_templates(
            f, d=rng.randint(1, 2), strategy=strategy,
            hole_prob=rng.choice([0.3, 0.6]), seed=seed, count=2,
        )
        templates = [t for t in templates if len(t.hole_indices) <= 3]
        if not templates:
            return
        sample = Sample(
            tuple(random_trace(rng, rng.randint(1, 8), list(props))
                  for _ in range(rng.randint(1, 5))),
            props,
        )
        params = SemanticsParams(
            alpha=rng.choice([0.5, 0.9, 1.0]),
            beta=rng.choice([0.8, 1.0]),
            gamma=rng.choice([0.0, 0.1]),
            kind=rng.choice([ROBUST, DISCOUNTED]),
        )
        out = repair(sample, templates, params, kappa=0.0,
                     budget=SearchBudget(time_limit=120.0))
        want = brute_force(templates, sample, params)
        if want is None:
            assert out.best is None
            return
        assert out.fitness == -want[0][0]
        assert format_formula(out.best.formula) == want[0][2]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from(STRATEGIES))
    def test_accepted_leaves_are_the_filtered_enumeration(self, seed, strategy):
        # with no incumbent pruning the search scores exactly the fillings
        # the reference filter keeps, in enumeration order
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        [template] = make_templates(
            stacking_source(rng, props), d=rng.randint(1, 2), strategy=strategy,
            hole_prob=0.6, seed=seed,
        )
        if len(template.hole_indices) > 4:
            return
        sample = random_sample(rng, props)
        scored = []
        fitness = _SlotTable.fitness

        def spy(table, assignment):
            scored.append(table.formula(assignment))
            return fitness(table, assignment)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repair_module, "bound_mean_fitness", lambda *args: float("inf"))
            mp.setattr(_SlotTable, "fitness", spy)
            repair(sample, [template], random_params(rng), kappa=0.0,
                   budget=SearchBudget(time_limit=120.0))
        want = [
            fl.formula for fl in enumerate_fillings(template, props)
            if not triviality_filter(fl.formula)
        ]
        assert scored == want

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_bound_is_admissible(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=2, atoms=["p", "q"], mode="nnf")
        [template] = make_templates(f, d=2, strategy=RANDOM, hole_prob=0.6, seed=seed)
        if len(template.hole_indices) > 3:
            return
        sample = Sample(
            tuple(random_trace(rng, rng.randint(1, 40), ["p", "q"]) for _ in range(3)),
            PQ,
        )
        params = SemanticsParams(
            alpha=rng.choice([0.5, 0.9, 0.97, 1.0]),
            beta=rng.choice([0.8, 1.0]),
            gamma=0.1,
            kind=rng.choice([ROBUST, DISCOUNTED]),
        )
        view = _View(template, PQ)
        fillings = list(enumerate_fillings(template, PQ))
        # bounds dominate in floats exactly: no slack
        # bound at the empty partial dominates every completion
        root_bound = bound_mean_fitness(view, {}, sample, params)
        for filling in fillings:
            fit = sample_fitness(filling.formula, sample, params)
            assert root_bound >= fit
        # bound after pinning the first hole dominates consistent completions
        first = template.hole_indices[0]
        for label in {dict(f_.assignment)[first] for f_ in fillings}:
            partial = {first: label}
            bnd = bound_mean_fitness(view, partial, sample, params)
            for filling in fillings:
                if dict(filling.assignment)[first] == label:
                    fit = sample_fitness(filling.formula, sample, params)
                    assert bnd >= fit
        # on a complete assignment the discounted bound is the fitness itself
        for filling in fillings:
            bnd = bound_mean_fitness(view, dict(filling.assignment), sample, params)
            fit = sample_fitness(filling.formula, sample, params)
            if params.kind == DISCOUNTED:
                assert bnd == fit
            else:
                assert bnd >= fit


# --- reference: the per-call recursions the slot tables replaced, verbatim -----


def _decode(m, assignment, i=1):
    slot = m[i]
    label = slot.label if isinstance(slot, Fixed) else assignment[i]
    op = OPS.get(label)
    if op is None:
        return decode_label(label)
    if op.arity == 2:
        return op.cls(_decode(m, assignment, 2 * i), _decode(m, assignment, 2 * i + 1))
    return op.cls(_decode(m, assignment, 2 * i))


def _intervals(view, assignment, states, p, i):
    """(lows, highs) of slot i's value at every position of one trace. Each
    slot of the tree is reached once, from its parent."""
    slot = view.m[i]
    # an unresolved hole is "?"; unused slots are never reached
    label = slot.label if isinstance(slot, Fixed) else assignment.get(i, "?")
    if label == "?":
        n = len(states)
        height = view.template.heights[i]
        los, his = [], []
        for t in range(n):
            lo, hi = value_range(height, n - t, p)
            los.append(lo)
            his.append(hi)
        return los, his
    op = OPS.get(label)
    if op is None:
        vals = literal_values(label, states, p)
        return vals, vals
    kids = [_intervals(view, assignment, states, p, 2 * i + k) for k in range(op.arity)]
    return op.interval(p, *kids)


def reference_bound(view, assignment, sample, p):
    total = 0.0
    for trace in sample.traces:
        total += _intervals(view, assignment, trace.states, p, 1)[1][0]  # root high at 0
    return total / len(sample.traces)


def random_params(rng, kind=None):
    return SemanticsParams(
        alpha=rng.choice([0.5, 0.9, 0.97, 1.0]),
        beta=rng.choice([0.8, 1.0]),
        gamma=rng.choice([0.0, 0.1]),
        kind=kind or rng.choice([ROBUST, DISCOUNTED]),
    )


def random_sample(rng, props):
    return Sample(
        tuple(random_trace(rng, rng.randint(1, 40), list(props))
              for _ in range(rng.randint(1, 4))),
        props,
    )


class TestSlotTables:
    """The per-slot tables against the per-call recursions they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]))
    def test_cached_results_equal_reference(self, seed, kind):
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        f = random_formula(rng, depth=rng.randint(2, 3), atoms=list(props), mode="nnf")
        [template] = make_templates(
            f, d=rng.randint(1, 2), strategy=RANDOM, hole_prob=0.6, seed=seed,
        )
        if len(template.hole_indices) > 5:
            return
        sample, params = random_sample(rng, props), random_params(rng, kind)
        view = _View(template, props)
        fillings = list(itertools.islice(enumerate_fillings(template, props), 2000))
        rng.shuffle(fillings)
        complete = [dict(fl.assignment) for fl in fillings[:60]]
        holes = list(template.hole_indices)
        # partial assignments: prefixes in slot order, as the search makes
        # them, and arbitrary subsets of the holes
        partial = []
        for a in complete:
            cut = rng.randint(0, len(holes))
            partial.append({i: a[i] for i in holes[:cut]})
            partial.append({i: a[i] for i in holes if rng.random() < 0.5})
        queries = complete + partial
        # out of search order, with revisits
        for _ in range(3 * len(queries)):
            a = rng.choice(queries)
            assert bound_mean_fitness(view, a, sample, params) == reference_bound(
                view, a, sample, params
            )
            if len(a) == len(holes):
                table = view.table(sample, params)
                formula = table.formula(a)
                assert formula == _decode(view.m, a)
                assert table.fitness(a) == sample_fitness(formula, sample, params)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]),
           st.sampled_from(STRATEGIES))
    def test_stamped_verdict_equals_filter(self, seed, kind, strategy):
        # every leaf the search reaches (GG/FF already cut), queried out of
        # order and with revisits, between bound and fitness queries that
        # move the same stamps
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        [template] = make_templates(
            stacking_source(rng, props), d=rng.randint(1, 2), strategy=strategy,
            hole_prob=0.6, seed=seed,
        )
        if len(template.hole_indices) > 7:
            return
        sample, params = random_sample(rng, props), random_params(rng, kind)
        view = _View(template, props)
        table = view.table(sample, params)
        leaves = [dict(a) for a in itertools.islice(_assignments(view), 2000)]
        if not leaves:
            return
        queries = rng.sample(leaves, min(60, len(leaves)))
        holes = list(template.hole_indices)
        for _ in range(3 * len(queries)):
            a = rng.choice(queries)
            if rng.random() < 0.3:
                bound_mean_fitness(view, {i: a[i] for i in holes if rng.random() < 0.5},
                                   sample, params)
            formula, _, trivial = table.verdict(a)
            assert formula == _decode(view.m, a)
            assert trivial == triviality_filter(formula)
            if rng.random() < 0.3:
                assert table.fitness(a) == sample_fitness(formula, sample, params)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_view_reused_with_another_sample_or_params(self, seed):
        rng = random.Random(seed)
        props = PropositionSet(["p", "q"])
        f = random_formula(rng, depth=3, atoms=list(props), mode="nnf")
        [template] = make_templates(f, d=2, strategy=RANDOM, hole_prob=0.6, seed=seed)
        if len(template.hole_indices) > 5:
            return
        view = _View(template, props)
        fillings = [
            dict(fl.assignment)
            for fl in itertools.islice(enumerate_fillings(template, props), 2000)
        ]
        kind = rng.choice([ROBUST, DISCOUNTED])
        first = (random_sample(rng, props), random_params(rng, kind))
        contexts = [
            first,
            (random_sample(rng, props), first[1]),  # another sample
            (first[0], random_params(rng, kind)),  # other params
            (first[0], random_params(rng, ROBUST if kind == DISCOUNTED else DISCOUNTED)),
            first,  # and back
        ]
        for a in rng.sample(fillings, min(8, len(fillings))):
            for sample, params in contexts:
                assert bound_mean_fitness(view, a, sample, params) == reference_bound(
                    view, a, sample, params
                )
                table = view.table(sample, params)
                assert table.sample is sample and table.params == params
                assert table.fitness(a) == sample_fitness(table.formula(a), sample, params)

    def test_negation_slot_is_refused(self):
        t = Template(2, ((1, Fixed("!")), (2, Fixed("p"))))
        with pytest.raises(UnsupportedNegationError):
            repair(all_p_sample(), [t], SemanticsParams(kind=ROBUST), kappa=0.0)


class TestNoCycles:
    """A finished search leaves nothing for the cyclic collector: its view and
    slot tables are freed by reference counting."""

    @pytest.mark.parametrize("budget", [SearchBudget(), SearchBudget(node_limit=2)])
    def test_no_view_outlives_repair(self, budget):
        t = parse_template("G((?<1> -> ?<1>))")
        sample = Sample(
            (Trace(states({"p"}, {"q"}, {"p", "q"})), Trace(states({"q"}, {"p"}))), PQ
        )
        gc.collect()
        gc.disable()
        try:
            out = repair(sample, [t, t], SemanticsParams(kind=ROBUST), kappa=100.0,
                         budget=budget)
            left = [o for o in gc.get_objects() if isinstance(o, _View)]
        finally:
            gc.enable()
        assert out.best is not None
        assert left == []
