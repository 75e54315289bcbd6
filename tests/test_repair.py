import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import janaka.repair as repair_module
from janaka.errors import (
    EmptySampleError,
    NoTemplatesError,
    UnknownAtomError,
    UnsupportedNegationError,
)
from janaka.formulas import (
    Atom,
    Finally,
    Globally,
    Next,
    Not,
    PropositionSet,
    decode_label,
    eval_qualitative,
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
from janaka.ops import FINALLY, IMPLIES, OPS, OR, UNTIL, arity, evaluate
from janaka.semantics import (
    DISCOUNTED,
    ROBUST,
    EvalStore,
    SemanticsParams,
    sample_fitness,
    value_of,
    value_range,
)
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


def walk(template, props=PQ, **kwargs):
    """The search's enumeration of a template, pushing to a table without a
    sample; with no bound callback, every hole's labels in offer order."""
    return _assignments(_View(template, props), _SlotTable(template), **kwargs)


def apply(table, assignment):
    """Set every hole of the table from an assignment; "?" where it has none."""
    for i in table.holes:
        table.set(i, assignment.get(i, "?"))


def bound_at(table, assignment):
    apply(table, assignment)
    return bound_mean_fitness(table)


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
        assert [a[1] for a in walk(over, stats=stats)] == ["F"] * 4
        assert stats.cut_trivial == 1
        assert len(list(enumerate_fillings(over, PQ))) == 8
        under = parse_template("G(?{G,F,X}(p))")
        assert [a[2] for a in walk(under)] == ["F", "X"]
        fixed = parse_template("G(G(?<1>))")
        assert list(walk(fixed)) == []
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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from(STRATEGIES))
    def test_result_does_not_depend_on_the_offer_order(self, seed, strategy):
        # the incumbent order (fitness, then the tie-break key) is total and
        # pruning is strict, so an exhausted search gives the same answer, the
        # brute-force one, whatever order each hole's labels are offered in
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        templates = make_templates(
            stacking_source(rng, props), d=rng.randint(1, 2), strategy=strategy,
            hole_prob=rng.choice([0.3, 0.6]), seed=seed, count=2,
        )
        templates = [t for t in templates if len(t.hole_indices) <= 5]
        if not templates:
            return
        sample = Sample(
            tuple(random_trace(rng, rng.randint(1, 6), list(props))
                  for _ in range(rng.randint(1, 4))),
            props,
        )
        params = random_params(rng)

        def search():
            return repair(sample, templates, params, kappa=0.0,
                          budget=SearchBudget(time_limit=120.0))

        out = search()
        labels_for = Template.labels_for
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Template, "labels_for",
                       lambda self, i, props: labels_for(self, i, props)[::-1])
            reversed_out = search()
        assert not out.budget_expired and not reversed_out.budget_expired
        assert reversed_out.best == out.best
        assert (reversed_out.fitness, reversed_out.total, reversed_out.per_trace) == (
            out.fitness, out.total, out.per_trace)
        want = brute_force(templates, sample, params)
        if want is None:
            assert out.best is None
            return
        assert out.fitness == -want[0][0]
        assert format_formula(out.best.formula) == want[0][2]

    def test_steps_are_taken_by_descending_bound(self):
        # (a & b) over p, q: the first hole is ranked by made-up bounds (!q
        # cut, !p and q tied), the last one taken in offer order; a ranked
        # label whose bound is below the incumbent is pruned when taken
        template = parse_template("(?<1> & ?<1>)")
        bounds = {"p": 1.0, "!p": 3.0, "q": 3.0, "!q": None}

        def firsts(floor):
            view, table = _View(template, PQ), _SlotTable(template)

            def bound(h, held=None):
                if held is not None:
                    return None if held < floor else held
                return bounds[table.label[2]] if h == 0 else float("inf")

            return [a[2] for a in _assignments(view, table, bound)]

        assert firsts(float("-inf")) == ["!p"] * 4 + ["q"] * 4 + ["p"] * 4
        assert firsts(2.0) == ["!p"] * 4 + ["q"] * 4
        # without a callback: offer order
        assert [a[2] for a in walk(template)] == [x for x in ("p", "!p", "q", "!q")
                                                  for _ in range(4)]

    def test_incumbent_history(self):
        # one row per incumbent change: (t, template index, scored, fitness),
        # fitness never falling, the last row the answer
        sample = all_p_sample(props=PQ)
        templates = [parse_template("G(?<1>)"), parse_template("(?<1> U ?<1>)")]
        out = repair(sample, templates, SemanticsParams(kind=DISCOUNTED), kappa=0.0)
        rows = out.stats.incumbents
        assert rows
        times, indices, scored, fits = zip(*rows)
        assert list(times) == sorted(times) and all(t >= 0.0 for t in times)
        assert set(indices) <= {0, 1} and list(indices) == sorted(indices)
        assert list(scored) == sorted(scored) and scored[-1] <= out.explored
        assert list(fits) == sorted(fits) and fits[-1] == out.fitness
        assert out.stats.prunes <= out.stats.bound_calls

    def test_per_template_stats(self):
        # one count-only entry per template searched, summing to the totals;
        # a node budget that runs out in the second template names it
        sample = all_p_sample(props=PQ)
        templates = [parse_template("G(?<1>)"), parse_template("(?<1> U ?<1>)"),
                     parse_template("F(?<1>)")]
        params = SemanticsParams(kind=DISCOUNTED)
        stats = repair(sample, templates, params, kappa=0.0).stats
        assert [(t.index, t.stop) for t in stats.templates] == [
            (0, "exhausted"), (1, "exhausted"), (2, "exhausted")]
        assert_templates_sum(stats)
        limit = stats.templates[0].scored + 1
        out = repair(sample, templates, params, kappa=0.0,
                     budget=SearchBudget(node_limit=limit))
        assert out.budget_expired
        assert [(t.index, t.stop) for t in out.stats.templates] == [
            (0, "exhausted"), (1, "nodes")]
        assert out.stats.templates[1].scored == 1
        assert_templates_sum(out.stats)
        # counts and the stop reason only, no times
        assert all(type(v) in (int, str) for t in out.stats.templates for v in vars(t).values())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]))
    def test_scores_equal_the_separate_evaluations(self, seed, kind):
        # repair's one walk per semantics over the flat layout gives the
        # fitness, per-trace values and satisfaction that sample_fitness,
        # value_of and eval_qualitative give, equal by repr
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        f = random_formula(rng, depth=rng.randint(1, 4), atoms=list(props), mode="nnf")
        sample, params = random_sample(rng, props), random_params(rng, kind)
        fitness, scores, sats = repair_module._scores(f, EvalStore(sample, params))
        assert repr(fitness) == repr(sample_fitness(f, sample, params))
        assert repr(list(zip(scores, sats))) == repr(
            [(value_of(f, w, params).value, eval_qualitative(f, w)) for w in sample.traces])
        # and through repair, on a hole-free template whose one filling is f
        if triviality_filter(f):
            return
        out = repair(sample, [parse_template(format_formula(f))], params, kappa=0.0)
        assert out.best.formula == f
        assert repr((out.fitness, out.per_trace)) == repr(
            (fitness, list(zip(scores, sats))))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]))
    def test_a_repeated_template_is_searched_once(self, seed, kind):
        # repair(sample, [t, t, u]) answers as repair(sample, [t, u]): the
        # copy of t is skipped, so it adds no leaf and no per-template entry
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        t, u = make_templates(
            stacking_source(rng, props), d=1, strategy=rng.choice(STRATEGIES),
            hole_prob=0.6, seed=seed, count=2,
        )
        sample, params = random_sample(rng, props), random_params(rng, kind)
        once = repair(sample, [t, u], params, kappa=0.0)
        twice = repair(sample, [t, t, u], params, kappa=0.0)
        assert (twice.best is None) == (once.best is None)
        if once.best is not None:
            assert twice.best.formula == once.best.formula
        assert repr((twice.fitness, twice.per_trace)) == repr((once.fitness, once.per_trace))
        assert twice.explored == once.explored
        assert [s.index for s in twice.stats.templates] == ([0] if t == u else [0, 2])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from(STRATEGIES))
    def test_accepted_leaves_are_the_filtered_enumeration(self, seed, strategy):
        # with no incumbent pruning, and every bound equal so that ranking
        # keeps the offer order, the search scores exactly the fillings the
        # reference filter keeps, in enumeration order
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

        def spy(table):
            scored.append(table.formula())
            return fitness(table)

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
        table = _SlotTable(template, sample, params)
        fillings = list(enumerate_fillings(template, PQ))
        # bounds dominate in floats exactly: no slack
        # bound at the empty partial dominates every completion
        root_bound = bound_at(table, {})
        for filling in fillings:
            fit = sample_fitness(filling.formula, sample, params)
            assert root_bound >= fit
        # bound after pinning the first hole dominates consistent completions
        first = template.hole_indices[0]
        for label in {dict(f_.assignment)[first] for f_ in fillings}:
            partial = {first: label}
            bnd = bound_at(table, partial)
            for filling in fillings:
                if dict(filling.assignment)[first] == label:
                    fit = sample_fitness(filling.formula, sample, params)
                    assert bnd >= fit
        # on a complete assignment the bound is the fitness itself: a decided
        # tree is a point
        for filling in fillings:
            bnd = bound_at(table, dict(filling.assignment))
            fit = sample_fitness(filling.formula, sample, params)
            assert bnd == fit


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
        # a literal's values, by the per-trace evaluator: an atom's kernel,
        # a negated one's under the negation kernel
        vals = evaluate(decode_label(label), states, p.kind, p)
        return vals, vals
    kids = [_intervals(view, assignment, states, p, 2 * i + k) for k in range(op.arity)]
    return op.interval(p, *kids)


def reference_bound(view, assignment, sample, p):
    total = 0.0
    for trace in sample.traces:
        total += _intervals(view, assignment, trace.states, p, 1)[1][0]  # root high at 0
    return total / len(sample.traces)


# --- reference: the bound of a decided subtree is its value -------------------


def _decided(m, assignment, i):
    """Whether every hole of slot i's subtree has a label."""
    slot = m[i]
    label = slot.label if isinstance(slot, Fixed) else assignment.get(i, "?")
    if label == "?":
        return False
    return all(_decided(m, assignment, 2 * i + k) for k in range(arity(label)))


def _points(view, assignment, states, p, i):
    """_intervals, except that a decided subtree is the point of its values:
    its low and its high are evaluate's values of its formula."""
    if _decided(view.m, assignment, i):
        vals = evaluate(_decode(view.m, assignment, i), states, p.kind, p)
        return vals, vals
    slot = view.m[i]
    label = slot.label if isinstance(slot, Fixed) else assignment.get(i, "?")
    if label == "?":
        n = len(states)
        height = view.template.heights[i]
        ranges = [value_range(height, n - t, p) for t in range(n)]
        return [lo for lo, _ in ranges], [hi for _, hi in ranges]
    op = OPS[label]
    kids = [_points(view, assignment, states, p, 2 * i + k) for k in range(op.arity)]
    return op.interval(p, *kids)


def point_bound(view, assignment, sample, p):
    total = 0.0
    for trace in sample.traces:
        total += _points(view, assignment, trace.states, p, 1)[1][0]  # root high at 0
    return total / len(sample.traces)


def assert_templates_sum(stats):
    """The per-template entries sum to the search's totals."""
    for name in ("leaves", "scored", "bound_calls", "prunes", "cut_closed"):
        assert sum(getattr(t, name) for t in stats.templates) == getattr(stats, name)
    assert stats.templates[-1].stop == stats.stop


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
        table = _SlotTable(template, sample, params)
        # out of search order, with revisits
        for _ in range(3 * len(queries)):
            a = rng.choice(queries)
            assert bound_at(table, a) == point_bound(view, a, sample, params)
            if len(a) == len(holes):
                formula = table.formula()
                assert formula == _decode(view.m, a)
                assert table.fitness() == sample_fitness(formula, sample, params)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]),
           st.sampled_from(STRATEGIES), st.booleans())
    def test_stamped_verdict_equals_filter(self, seed, kind, strategy, pre_interned):
        # every leaf the search reaches (GG/FF already cut), queried out of
        # order and with revisits, between bound and fitness queries that
        # drop the same entries; every closed cut the search reads on the
        # way, before the leaf's own verdict. Pre-interned, every leaf's
        # formula has an id in the store before the table reads a rule, as
        # the ranking of a run leaves it: the ids are judged on read
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
        leaves = [dict(a) for a in itertools.islice(walk(template, props), 2000)]
        if not leaves:
            return
        store = EvalStore(sample, params)
        if pre_interned:
            for a in leaves:
                store.formula_id(_decode(view.m, a))
        table = _SlotTable(template, store=store)
        queries = rng.sample(leaves, min(60, len(leaves)))
        holes = list(template.hole_indices)
        formulas, ids = {}, {}
        for _ in range(3 * len(queries)):
            a = rng.choice(queries)
            if rng.random() < 0.3:
                bound_at(table, {i: a[i] for i in holes if rng.random() < 0.5})
            apply(table, a)
            for closed in view.closing:
                slot = view.m.get(closed)
                if slot is None or (a[closed] if isinstance(slot, Hole) else slot.label) is None:
                    continue  # no closing slot, or an unused one
                cut = table.rule(table.verdict(closed)) is not None
                assert cut == triviality_filter(_decode(view.m, a, closed))
            vid = table.verdict()
            formula = table.decode(vid)
            assert formula == _decode(view.m, a)
            assert (table.rule(vid) is not None) == triviality_filter(formula)
            # equal ids are equal formulas, and the other way round
            assert formulas.setdefault(vid, formula) == formula
            assert ids.setdefault(formula, vid) == vid
            if rng.random() < 0.3:
                assert table.fitness() == sample_fitness(formula, sample, params)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_tables_of_other_samples_or_params_share_nothing(self, seed):
        # one view, one table per sample and parameters, queried in turn:
        # no table serves another's entries or memoised values
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
        tables = [_SlotTable(template, sample, params) for sample, params in contexts[:4]]
        tables.append(tables[0])
        for a in rng.sample(fillings, min(8, len(fillings))):
            for (sample, params), table in zip(contexts, tables):
                assert bound_at(table, a) == point_bound(view, a, sample, params)
                assert table.fitness() == sample_fitness(table.formula(), sample, params)

    def test_counters_split_recomputed_from_stamped_entries(self):
        # G at slot 1, -> at 2, holes at 4 and 5. recomputed counts kernel
        # calls, hits the entries a slot still held, shared the value vectors
        # served by id; leaves come from the table's caches and count in none
        template = parse_template("G((?<1> -> ?<1>))")
        sample = Sample((Trace(states({"p"}, {"q"})), Trace(states({"q"}))), PQ)
        table = _SlotTable(template, sample, SemanticsParams(kind=ROBUST))

        def counts():
            return table.recomputed, table.hits, table.shared

        apply(table, {4: "p", 5: "q"})
        table.fitness()
        assert counts() == (2, 0, 0)  # the values of 2 and 1
        table.fitness()
        assert counts() == (2, 1, 0)  # the root's value is held
        apply(table, {4: "p", 5: "!q"})
        table.fitness()
        assert counts() == (4, 2, 0)  # 2 and 1 again; 4's value is held
        apply(table, {4: "p", 5: "q"})
        table.fitness()
        assert counts() == (5, 2, 1)  # 2's id (p -> q) has a value: the root's only
        table.verdict()
        assert counts() == (5, 2, 1)  # ids are no kernel calls
        # the bound of a decided tree is its value: the root's, held
        table.bound()
        assert counts() == (5, 3, 1)
        # 5 open: the root's high and ->'s high, over 4's low (from the
        # literal cache) and 5's high (the open range)
        apply(table, {4: "p"})
        table.bound()
        assert counts() == (7, 3, 1)
        # 5 decided again: the root's value, over 2's (p -> q) from the memo
        table.set(5, "q")
        table.bound()
        assert counts() == (8, 3, 2)
        # 5 open again: 2's and 1's highs again; 4's low is held
        table.set(5, "?")
        table.bound()
        assert counts() == (10, 4, 2)
        stats = repair(sample, [template], SemanticsParams(kind=ROBUST), kappa=0.0).stats
        assert stats.slot_recomputed > 0 and stats.slot_hits > 0

    def test_value_shared_counted_by_hand(self):
        # (X(a) | X(b)) over p: of the four leaves, (X(p) | X(p)) and
        # (X(!p) | X(!p)) are rejected unscored; (X(p) | X(!p)) computes the
        # values of 2, 3 and the root, and (X(!p) | X(p)) finds both X
        # subtrees' ids in the memo and computes the root's only. The first
        # hole's two labels are ranked by one bound call each (equal bounds:
        # offer order); the last hole's are not bounded
        template = parse_template("(X(?<1>) | X(?<1>))")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repair_module, "bound_mean_fitness", lambda *args: float("inf"))
            out = repair(all_p_sample(), [template], SemanticsParams(kind=ROBUST), kappa=0.0)
        stats = out.stats
        assert (stats.leaves, stats.scored, stats.bound_calls) == (4, 2, 2)
        assert (stats.slot_recomputed, stats.value_shared, stats.slot_hits) == (4, 2, 0)

    @pytest.mark.parametrize("kind", [ROBUST, DISCOUNTED])
    def test_an_operator_flip_computes_the_missing_endpoint_only(self, kind):
        # a binary hole over X(?) at 2, open below, and X(p) at 3, decided:
        # 3's low and high are its value
        table = _SlotTable(parse_template("(X(?<1>) ? X(p))"), all_p_sample(props=PQ),
                           SemanticsParams(kind=kind))
        table.set(1, "&")
        table.bound()
        assert (table.recomputed, table.hits) == (3, 0)  # the highs of 1 and 2, 3's value
        table.set(1, "->")
        table.bound()
        assert (table.recomputed, table.hits) == (5, 1)  # 1's high and 2's low
        table.set(1, "&")
        table.bound()
        assert (table.recomputed, table.hits) == (6, 3)  # 1's high; 2 and 3 are held
        assert table._lows[2] is not None and table._highs[2] is not None
        assert table._highs[3] is table._values[3] and table._lows[3] is None
        # 2 decided: the tree is a point, 1's value over 2's and 3's
        table.set(4, "q")
        table.bound()
        assert (table.recomputed, table.hits) == (8, 4)

    def test_robust_until_never_bounds_its_left_subtree(self):
        template = parse_template("(?<2> U p)")
        sample = all_p_sample(props=PQ)
        table = _SlotTable(template, sample, SemanticsParams(kind=ROBUST))

        def bounded():
            return [i for i, (lo, hi) in enumerate(zip(table._lows, table._highs))
                    if lo is not None or hi is not None]

        for a in ({}, {2: "q"}, {2: "G"}, {2: "G", 4: "q"}, {2: "&", 4: "p"},
                  {2: "&", 4: "p", 5: "q"}, {}):
            apply(table, a)
            table.bound()
            assert bounded() == [1, 3]
        # an open left subtree: the root's high over 3's high, held after the
        # first (4 calls, 3 hits); a decided tree is a point: the root's value
        # over 3's value, held after the first, and the left subtree's values
        # where an operator computes them (5 calls, 2 hits)
        assert (table.recomputed, table.hits) == (9, 5)
        # the discounted U reads both children
        table = _SlotTable(template, sample, SemanticsParams(kind=DISCOUNTED))
        apply(table, {2: "G"})
        table.bound()
        assert bounded() == [1, 2, 3, 4]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]))
    def test_no_lows_outside_implication_left_sides(self, seed, kind):
        # the root reads its high; a low is read only through the left child
        # of an implication, so every low a bound computes lies in the left
        # subtree of a slot labelled ->
        rng = random.Random(seed)
        props = PropositionSet(["p", "q"])
        f = random_formula(rng, depth=rng.randint(2, 3), atoms=list(props), mode="nnf")
        [template] = make_templates(f, d=2, strategy=RANDOM, hole_prob=0.6, seed=seed)
        holes = list(template.hole_indices)
        leaves = [dict(a) for a in itertools.islice(walk(template, props), 500)]
        sample, params = random_sample(rng, props), random_params(rng, kind)
        for a in rng.sample(leaves, min(20, len(leaves))):
            table = _SlotTable(template, sample, params)
            apply(table, {i: a[i] for i in holes if rng.random() < 0.6})
            table.bound()
            computed = [(i, e) for e, entries in enumerate(table._entries)
                        for i, entry in enumerate(entries) if entry is not None]
            # one kernel call per operator slot reached, none served twice: an
            # open slot's endpoint, or a decided slot's value (its endpoint
            # too), which the memo may serve by id instead
            reached = {i for i, _ in computed if table.label[i] in OPS}
            assert table.recomputed + table.shared == len(reached)
            assert table.hits == 0
            for i, e in computed:
                if e != repair_module.LOW:
                    continue
                while i > 1 and not (i % 2 == 0 and table.label[i >> 1] == "->"):
                    i >>= 1
                assert i > 1, f"a low outside every -> left side in {template}"

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]),
           st.sampled_from(STRATEGIES),
           st.sampled_from([None, "(?<1> ? ?<1>)", "X((?<1> ? ?<1>))"]), st.booleans())
    def test_pushed_changes_equal_a_fresh_table(self, seed, kind, strategy, text, short):
        # one table driven in the search's push/backtrack order (labels
        # ranked by random bounds, with random cuts and prunes), then by
        # out-of-order assignments, operator flips and holes
        # reset to "?": every bound, score and verdict equals a fresh table's
        # and the references'. Besides made templates: a root hole, which
        # flips between elementwise, temporal and literal rows, and a unary
        # root; besides random samples, traces of one position each
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        if text is None:
            [template] = make_templates(
                stacking_source(rng, props), d=rng.randint(1, 2), strategy=strategy,
                hole_prob=0.6, seed=seed,
            )
        else:
            template = parse_template(text)
        if len(template.hole_indices) > 6:
            return
        sample, params = random_sample(rng, props), random_params(rng, kind)
        if short:
            sample = Sample(tuple(Trace(w.states[:1]) for w in sample.traces), props)
        view = _View(template, props)
        table = _SlotTable(template, sample, params)
        holes = list(template.hole_indices)

        def check(closed=0):
            labels = {i: table.label[i] for i in holes if table.label[i] != "?"}
            fresh = _SlotTable(template, sample, params)
            apply(fresh, labels)
            assert bound_mean_fitness(table) == fresh.bound() == point_bound(
                view, labels, sample, params)
            if closed:
                assert table.decode(table.verdict(closed)) == fresh.decode(fresh.verdict(closed))
            if len(labels) < len(holes):
                return
            vid = table.verdict()
            formula = table.decode(vid)
            assert formula == fresh.formula() == _decode(view.m, labels)
            assert table.rule(vid) == fresh.rule(fresh.verdict())
            assert table.fitness() == fresh.fitness() == sample_fitness(formula, sample, params)

        def bound(h, held=None):
            if held is not None:  # a ranked label is taken
                return None if rng.random() < 0.2 else held
            if rng.random() < 0.3:
                check(view.closing[h])
            return None if rng.random() < 0.2 else rng.random()

        leaves = []
        for a in itertools.islice(_assignments(view, table, bound), 100):
            check()
            leaves.append(dict(a))
        if not leaves:
            return
        for _ in range(40):
            move = rng.random()
            if move < 0.4:
                apply(table, rng.choice(leaves))
            elif move < 0.7:
                for i in holes:
                    if rng.random() < 0.4:
                        table.set(i, "?")
            else:
                # a label of the same arity keeps every child reached
                i = rng.choice(holes)
                label = table.label[i]
                if label not in (None, "?"):
                    table.set(i, rng.choice([
                        x for x in template.labels_for(i, props)
                        if repair_module.arity(x) == repair_module.arity(label)
                    ]))
            check()

    def test_negation_slot_is_refused(self):
        t = Template(2, ((1, Fixed("!")), (2, Fixed("p"))))
        with pytest.raises(UnsupportedNegationError):
            repair(all_p_sample(), [t], SemanticsParams(kind=ROBUST), kappa=0.0)

    @pytest.mark.parametrize("t", [
        parse_template("G((zz ? ?<1>))"),
        Template(2, ((1, Hole(("G", "F"))), (2, Hole(("p", "!zz"))))),
    ], ids=["fixed", "allowed"])
    def test_unknown_atom_is_refused(self, t):
        # one well-formed template first: the check reads every template
        # before the search starts
        templates = [parse_template("G(?<1>)"), t]
        with pytest.raises(UnknownAtomError):
            repair(all_p_sample(), templates, SemanticsParams(kind=ROBUST), kappa=0.0)


# robust labels whose interval rows widen a point (ops.py docstring)
WIDENING = {OR, IMPLIES, FINALLY, UNTIL}

# d=2 regions that close before the last hole, so that ranked bounds read
# them decided, under robust | -> F U inside or above them
DECIDED_REGIONS = ("G((?<2> -> F(?<1>)))", "((?<2> | q) U ?<1>)", "(F(?<2>) -> ?<1>)",
                   "(?<2> & X(?<1>))")


class TestPointBound:
    """A decided subtree's bound is its value (the repair module docstring)."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]))
    def test_bound_is_the_point_reference(self, seed, kind):
        # on random d=1/2 templates, at prefixes, subsets and complete
        # assignments: the table's bound is the point reference's bit for
        # bit, at most the interval reference's and at least every
        # completion's fitness; it is the interval reference's bit for bit
        # under discounted semantics and wherever no decided subtree holds a
        # robust | -> F U
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        f = random_formula(rng, depth=rng.randint(2, 3), atoms=list(props), mode="nnf")
        [template] = make_templates(
            f, d=rng.randint(1, 2), strategy=RANDOM, hole_prob=0.6, seed=seed,
        )
        if len(template.hole_indices) > 4:
            return
        sample, params = random_sample(rng, props), random_params(rng, kind)
        view = _View(template, props)
        table = _SlotTable(template, sample, params)
        fits = [(dict(fl.assignment), sample_fitness(fl.formula, sample, params))
                for fl in itertools.islice(enumerate_fillings(template, props), 400)]
        holes = list(template.hole_indices)
        for a, _ in rng.sample(fits, min(20, len(fits))):
            for partial in ({i: a[i] for i in holes[:rng.randint(0, len(holes))]},
                            {i: a[i] for i in holes if rng.random() < 0.5}, a):
                bound = bound_at(table, partial)
                old = reference_bound(view, partial, sample, params)
                assert bound == point_bound(view, partial, sample, params)
                assert bound <= old
                for b, fit in fits:
                    if all(b[i] == label for i, label in partial.items()):
                        assert bound >= fit
                widened = any(table.label[i] in WIDENING and _decided(view.m, partial, i)
                              for i in view.m)
                if kind == DISCOUNTED or not widened:
                    assert bound == old

    @pytest.mark.parametrize("text", DECIDED_REGIONS)
    def test_exact_where_decided_regions_are_points(self, text):
        # robust searches whose ranked bounds read decided regions under
        # | -> F U: the brute-force optimum on each of three samples, and
        # bounds strictly below the interval rows' on some sample
        template = parse_template(text)
        last = template.hole_indices[-1]
        below = False
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
            sample, params = random_sample(rng, props), random_params(rng, ROBUST)
            out = repair(sample, [template], params, kappa=0.0,
                         budget=SearchBudget(time_limit=120.0))
            want = brute_force([template], sample, params)
            assert not out.budget_expired and out.stats.bound_calls > 0
            assert out.fitness == -want[0][0]
            assert format_formula(out.best.formula) == want[0][2]
            # every seventh filling with its last hole open: the point bound
            # is never above the interval one
            view, table = _View(template, props), _SlotTable(template, sample, params)
            for fl in itertools.islice(enumerate_fillings(template, props), 0, None, 7):
                partial = {i: label for i, label in fl.assignment if i != last}
                bound = bound_at(table, partial)
                old = reference_bound(view, partial, sample, params)
                assert bound <= old
                below = below or bound < old
        assert below


# --- reference: the search loop without the closed-subtree cut ----------------


def reference_search(sample, templates, params):
    """repair's search without the closed-subtree cut, each step's labels
    ranked by the same bound and each distinct template searched once:
    (scored formulas in order, trivial leaves, best formula, best fitness)."""
    best, best_fit, best_key = None, float("-inf"), None
    scored, trivial_leaves = [], []
    for template in dict.fromkeys(templates):
        view = _View(template, sample.props)
        table = _SlotTable(template, sample, params)
        last = len(view.steps) - 1

        def bound(h, held=None):
            if held is not None:
                return None if held < best_fit else held
            return float("inf") if h == last else bound_mean_fitness(table)

        for assignment in _assignments(view, table, bound):
            vid = table.verdict()
            formula = table.decode(vid)
            if table.rule(vid) is not None:
                trivial_leaves.append(dict(assignment))
                continue
            scored.append(formula)
            fit = table.fitness()
            if not (fit > best_fit or (fit == best_fit and best is not None)):
                continue
            key = (node_count(formula), format_formula(formula))
            if fit > best_fit or key < best_key:
                best, best_fit, best_key = formula, fit, key
    return scored, trivial_leaves, best, best_fit


def search_with_spies(sample, templates, params):
    """repair, recording the scored formulas in order, the leaves rejected by
    their verdict and the partial assignments cut at a closed subtree."""
    scored, rejected, cuts = [], [], []
    fitness, verdict = _SlotTable.fitness, _SlotTable.verdict

    def spy_fitness(table):
        scored.append(table.formula())
        return fitness(table)

    def spy_verdict(table, i=1):
        out = verdict(table, i)
        if table.rule(out) is not None:
            # the decided holes: the search's assignment
            (rejected if i == 1 else cuts).append(
                {h: table.label[h] for h in table.holes if table.label[h] != "?"})
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_SlotTable, "fitness", spy_fitness)
        mp.setattr(_SlotTable, "verdict", spy_verdict)
        out = repair(sample, templates, params, kappa=0.0, budget=SearchBudget(time_limit=120.0))
    return out, scored, rejected, cuts


# templates with a ?<2> region that closes before the last hole is chosen, so
# that (p & p), (p | !p) and the like are cut there
CLOSING_EARLY = ("((q ? X(?<1>)) ? ?<2>)", "(?<2> ? X(?<1>))", "G((?<2> -> F(?<1>)))")


class TestClosedSubtreeCut:
    def check(self, sample, templates, params):
        ref_scored, ref_trivial, ref_best, ref_fit = reference_search(sample, templates, params)
        out, scored, rejected, cuts = search_with_spies(sample, templates, params)
        assert scored == ref_scored
        assert (out.best.formula if out.best else None) == ref_best
        if ref_best is not None:
            assert out.fitness == ref_fit
        stats = out.stats
        assert stats.cut_closed == len(cuts) and stats.rejected_trivial == len(rejected)
        assert stats.leaves == stats.scored + stats.rejected_trivial
        assert sum(stats.cut_by_rule.values()) == stats.cut_closed
        assert sum(stats.rejected_by_rule.values()) == stats.rejected_trivial
        assert [t.index for t in stats.templates] == [
            templates.index(t) for t in dict.fromkeys(templates)]
        assert_templates_sum(stats)
        # every trivial leaf of the reference is rejected at the leaf or lies
        # below a cut (a cut's holes are a prefix of the hole order)
        cut_prefixes = {tuple(sorted(cut.items())) for cut in cuts}
        below = [a for a in ref_trivial
                 if any(tuple(sorted(a.items()))[:n] in cut_prefixes for n in range(len(a)))]
        assert [a for a in ref_trivial if a not in below] == rejected
        assert len(below) + stats.rejected_trivial == len(ref_trivial)
        return stats

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]),
           st.sampled_from(STRATEGIES + CLOSING_EARLY))
    def test_same_search_as_without_the_cut(self, seed, kind, how):
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        if how in STRATEGIES:
            templates = make_templates(
                stacking_source(rng, props), d=2, strategy=how,
                hole_prob=rng.choice([0.3, 0.6]), seed=seed, count=2,
            )
            templates = [t for t in templates if len(t.hole_indices) <= 5]
        else:
            templates = [parse_template(how)]
        if not templates:
            return
        self.check(random_sample(rng, props), templates, random_params(rng, kind))

    @pytest.mark.parametrize("kind", [ROBUST, DISCOUNTED])
    @pytest.mark.parametrize("text", CLOSING_EARLY)
    def test_cuts_a_trivial_region_before_the_leaf(self, kind, text):
        rng = random.Random(3)
        stats = self.check(random_sample(rng, PQ), [parse_template(text)],
                           random_params(rng, kind))
        assert stats.cut_closed > 0


class TestRuleCounts:
    """Leaves rejected and branches cut, counted by the rule that fired."""

    @pytest.mark.parametrize("slots,rule", [
        # (p & p), (p & !p) and G((p | (p -> q))), forced by one-label holes
        (((1, Fixed("&")), (2, Fixed("p")), (3, Hole(("p",)))), "identical"),
        (((1, Fixed("&")), (2, Fixed("p")), (3, Hole(("!p",)))), "complement"),
        (((1, Fixed("G")), (2, Fixed("|")), (4, Fixed("p")), (5, Fixed("->")),
          (10, Fixed("p")), (11, Hole(("q",)))), "tautology"),
    ])
    def test_a_forced_trivial_leaf_counts_under_its_rule(self, slots, rule):
        template = Template(4, slots)
        sample = all_p_sample(props=PQ)
        out = repair(sample, [template], SemanticsParams(kind=ROBUST), kappa=0.0)
        assert out.best is None
        want = dict.fromkeys(repair_module.RULES, 0)
        want[rule] = 1
        assert out.stats.rejected_by_rule == want
        assert out.stats.rejected_trivial == 1
        assert out.stats.cut_by_rule == dict.fromkeys(repair_module.RULES, 0)

    def test_cuts_count_under_their_rule(self):
        # ?<2> closes before the last hole: (p & p) and (p | !p) are cut there
        rng = random.Random(3)
        out = repair(random_sample(rng, PQ), [parse_template(CLOSING_EARLY[0])],
                     random_params(rng, ROBUST), kappa=0.0)
        by_rule = out.stats.cut_by_rule
        assert by_rule["identical"] > 0 and by_rule["complement"] > 0
        assert sum(by_rule.values()) == out.stats.cut_closed


class TestNoCycles:
    """A finished search leaves nothing for the cyclic collector: its views
    and slot tables are freed by reference counting."""

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
            left = [o for o in gc.get_objects() if isinstance(o, (_View, _SlotTable))]
        finally:
            gc.enable()
        assert out.best is not None
        assert left == []
