"""The evaluation store: every store-backed evaluation equals its store-free
path, the templates of a run share ids and vectors, and a store lives no
longer than the run that made it."""

import gc
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka import pipeline
from janaka.errors import UnsupportedNegationError
from janaka.formulas import (
    PropositionSet,
    eval_qualitative,
    format_formula,
    is_nnf,
    node_count,
    parse_formula,
    to_nnf,
)
from janaka.ops import evaluate
from janaka.repair import _assignments, _scores, _SlotTable, _View, enumerate_fillings, repair
from janaka.semantics import (
    DISCOUNTED,
    ROBUST,
    EvalStore,
    SemanticsParams,
    sample_fitness,
    satisfies_all,
)
from janaka.templates import RANDOM, make_templates, parse_template
from janaka.traces import Sample, generate_traces, start_mean

from gen import random_formula, random_trace

PQ = PropositionSet(["p", "q"])
CASE5 = Path(__file__).resolve().parent.parent / "src" / "janaka" / "suites" / "table1" / "case5"


def random_params(rng, kind):
    return SemanticsParams(
        alpha=rng.choice([0.5, 0.9, 0.97, 1.0]),
        beta=rng.choice([0.8, 1.0]),
        gamma=rng.choice([0.0, 0.1]),
        kind=kind,
    )


def random_sample(rng, props):
    return Sample(
        tuple(random_trace(rng, rng.randint(1, 40), list(props))
              for _ in range(rng.randint(1, 4))),
        props,
    )


def apply(table, assignment):
    for i in table.holes:
        table.set(i, assignment.get(i, "?"))


# --- the store-free paths -------------------------------------------------------


def flat_fitness(f, sample, p):
    """sample_fitness as one evaluate walk per call, with no store."""
    g = to_nnf(f) if p.kind == ROBUST and not is_nnf(f) else f
    return start_mean(evaluate(g, sample.states, p.kind, p, sample.segments), sample.starts)


def per_trace_sat(f, sample):
    """satisfies_all as the per-trace eval_qualitative loop."""
    per_trace = [eval_qualitative(f, w) for w in sample.traces]
    return all(per_trace), per_trace


def flat_scores(f, sample, p):
    """repair's final scores as one evaluate walk per semantics."""
    vals = evaluate(f, sample.states, p.kind, p, sample.segments)
    sats = evaluate(f, sample.states, "qualitative", None, sample.segments)
    starts = sample.starts
    return start_mean(vals, starts), [vals[k] for k in starts], [sats[k] for k in starts]


class TestStoreFree:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]))
    def test_store_backed_evaluations_equal_the_store_free_paths(self, seed, kind):
        # one store over the sample serves the ranking, the sat rows, the
        # slot tables of two templates and the final scores, as in a run;
        # each equals its store-free path by repr
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        sample, params = random_sample(rng, props), random_params(rng, kind)
        store = EvalStore(sample, params)
        formulas = [
            random_formula(rng, depth=rng.randint(1, 4), atoms=list(props),
                           mode=rng.choice(["general", "nnf"]))
            for _ in range(6)
        ]
        for f in formulas:
            try:
                want = flat_fitness(f, sample, params)
            except UnsupportedNegationError:
                with pytest.raises(UnsupportedNegationError):
                    sample_fitness(f, sample, params, store)
            else:
                assert repr(sample_fitness(f, sample, params, store)) == repr(want)
            assert repr(satisfies_all(f, sample, store)) == repr(per_trace_sat(f, sample))

        source = next((f for f in formulas if is_nnf(f)), None) or random_formula(
            rng, depth=3, atoms=list(props), mode="nnf")
        templates = make_templates(source, d=rng.randint(1, 2), strategy=RANDOM,
                                   hole_prob=0.6, seed=seed, count=2)
        for template in templates:
            if len(template.hole_indices) > 4:
                continue
            shared = _SlotTable(template, store=store)
            fillings = list(itertools.islice(enumerate_fillings(template, props), 300))
            rng.shuffle(fillings)
            for fl in fillings[:25]:
                complete = dict(fl.assignment)
                partial = {i: complete[i] for i in template.hole_indices if rng.random() < 0.5}
                for assignment in (partial, complete):
                    fresh = _SlotTable(template, sample, params)
                    apply(shared, assignment)
                    apply(fresh, assignment)
                    assert repr(shared.bound()) == repr(fresh.bound())
                vid, fresh_vid = shared.verdict(), fresh.verdict()
                assert shared.decode(vid) == fresh.decode(fresh_vid) == fl.formula
                assert shared.rule(vid) == fresh.rule(fresh_vid)
                assert repr(shared.fitness()) == repr(fresh.fitness())
                assert repr(_scores(fl.formula, store)) == repr(
                    flat_scores(fl.formula, sample, params))

    def test_a_store_of_another_sample_or_params_is_refused(self):
        rng = random.Random(1)
        sample, params = random_sample(rng, PQ), random_params(rng, ROBUST)
        store = EvalStore(sample, params)
        f = parse_formula("G(p)", PQ)
        other = Sample(sample.traces, PQ)
        with pytest.raises(ValueError):
            sample_fitness(f, other, params, store)
        with pytest.raises(ValueError):
            sample_fitness(f, sample, random_params(random.Random(2), DISCOUNTED), store)
        with pytest.raises(ValueError):
            satisfies_all(f, other, store)
        t = parse_template("G(?<1>)")
        with pytest.raises(ValueError):
            repair(other, [t], params, kappa=0.0, store=store)


class TestIds:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_tie_key_is_the_node_count_and_the_text(self, seed):
        # the incumbent's key, which the search's slot table reads per id,
        # equals the one read off the decoded formula, for template fillings
        # and for any formula the store interned outside the table
        rng = random.Random(seed)
        props = PropositionSet(["p", "q", "r"][: rng.randint(2, 3)])
        source = random_formula(rng, depth=rng.randint(2, 3), atoms=list(props), mode="nnf")
        [template] = make_templates(source, d=rng.randint(1, 2), strategy=RANDOM,
                                    hole_prob=0.6, seed=seed)
        table = _SlotTable(template)
        store = table.store
        for _ in itertools.islice(_assignments(_View(template, props, cut=False), table), 200):
            vid = table.verdict()
            f = table.formula()
            assert table.tie_key(vid) == (node_count(f), format_formula(f))
        for _ in range(10):
            f = random_formula(rng, depth=rng.randint(1, 4), atoms=list(props))
            vid = store.formula_id(f)
            assert store.decode(vid) == f
            assert table.tie_key(vid) == (node_count(f), format_formula(f))

    def test_templates_of_one_run_share_ids(self):
        # (p -> q), interned and computed while template 0 is searched, is
        # served to template 1 from the store: one kernel call, its root's
        rng = random.Random(4)
        sample, params = random_sample(rng, PQ), random_params(rng, ROBUST)
        t0, t1 = parse_template("G((p -> ?<1>))"), parse_template("F((p -> ?<1>))")
        store = EvalStore(sample, params)
        first = _SlotTable(t0, store=store)
        apply(first, {t0.hole_indices[0]: "q"})
        first.fitness()
        second = _SlotTable(t1, store=store)
        apply(second, {t1.hole_indices[0]: "q"})
        second.fitness()
        assert second.verdict(2) == first.verdict(2)
        assert (second.shared, second.recomputed) == (1, 1)
        # through repair: every leaf of template 1 takes slot 2 from template 0
        alone = [repair(sample, [t], params, kappa=0.0) for t in (t0, t1)]
        both = repair(sample, [t0, t1], params, kappa=0.0)
        assert sum(out.stats.value_shared for out in alone) == 0
        assert both.stats.value_shared == both.stats.templates[1].scored > 0


def case5_sample():
    props = PropositionSet(["p", "q", "r", "s"])
    truth = parse_formula("G(p -> X(q U (r | s)))", props)
    return generate_traces(truth, props, count=10, min_len=3, max_len=6, seed=0, budget=500_000)


def case5_run(sample):
    """A mine with bundled case5's settings, explanation and responses;
    its templates repeat, and it repairs."""
    cfg = pipeline.RunConfig(
        semantics=SemanticsParams(0.9, 0.9, 0.1, ROBUST), kappa=2.0, depth=1, top=1,
        strategy="gtemp", hole_prob=0.25, seed=0, fixtures=str(CASE5 / "responses"),
        template_count=3,
    )
    return pipeline.janaka_run(cfg, sample=sample,
                               explanation=(CASE5 / "explanation.txt").read_text())


class TestLifetime:
    def test_two_runs_on_one_sample_report_the_same(self):
        # nothing a run computes is kept for the next one
        sample = case5_sample()
        first, second = case5_run(sample), case5_run(sample)
        assert first.repair is not None
        assert first.to_dict(zero_timings=True) == second.to_dict(zero_timings=True)

    def test_no_store_outlives_the_run(self):
        sample = case5_sample()
        gc.collect()
        gc.disable()
        try:
            report = case5_run(sample)
            left = [o for o in gc.get_objects() if isinstance(o, (EvalStore, _SlotTable, _View))]
        finally:
            gc.enable()
        assert report.repair is not None
        assert left == []
