"""The flat trace layout: every kernel over several traces concatenated, with
their (start, end) segments, against the same kernel called trace by trace,
and sample_fitness against the per-trace loop it replaced, kept here.

Results must be equal bit for bit: values are compared by repr, which tells
-0.0 from 0.0 and prints every float exactly."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka.errors import EmptySampleError, EmptyTraceError
from janaka.formulas import PropositionSet, evaluate_trace, is_nnf, to_nnf
from janaka.ops import OPS, evaluate
from janaka.semantics import DISCOUNTED, ROBUST, SemanticsParams, sample_fitness
from janaka.traces import Sample, Trace

from gen import random_formula, random_trace, random_word

KINDS = ("qualitative", ROBUST, DISCOUNTED)
OPERATORS = pytest.mark.parametrize(
    "op", OPS.values(), ids=lambda op: op.label,
)
ATOMS = ["p", "q", "r"]


def same(a, b):
    assert [repr(x) for x in a] == [repr(x) for x in b]


def segments_of(lengths):
    out, start = [], 0
    for n in lengths:
        out.append((start, start + n))
        start += n
    return out


def flat(per_trace):
    return [x for vector in per_trace for x in vector]


# robust values hit the sign tests at 0 and the gamma and -1 cases exactly
ROBUST_VALUE = st.one_of(
    st.sampled_from([-1.0, 0.0, 1.0, 0.1]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
VALUES = {
    "qualitative": st.booleans(),
    ROBUST: ROBUST_VALUE,
    DISCOUNTED: st.floats(0.0, 1.0),
}


def draw_params(data, kind):
    return SemanticsParams(
        alpha=data.draw(st.sampled_from([0.5, 0.9, 0.97, 1.0])),
        beta=data.draw(st.sampled_from([0.8, 1.0])),
        gamma=data.draw(st.sampled_from([0.0, 0.1])),
        kind=kind if kind != "qualitative" else ROBUST,
    )


def draw_vectors(data, lengths, elements):
    return [data.draw(st.lists(elements, min_size=n, max_size=n)) for n in lengths]


# traces of length 1 included: X's gamma case and the gamma term of F and U
# fire at each trace's end
LENGTHS = st.lists(st.integers(1, 6), min_size=1, max_size=5)


def check_kernel(kernel, p, per_trace_args, lengths):
    """kernel over the flat layout equals its per-trace calls concatenated;
    per_trace_args[k] holds argument k's per-trace vectors (or pairs)."""
    want = [kernel(p, *args) for args in zip(*per_trace_args)]
    flat_args = [join(arg) for arg in per_trace_args]
    got = kernel(p, *flat_args, segments=segments_of(lengths))
    if isinstance(got, tuple):
        for k in range(len(got)):
            same(got[k], flat([w[k] for w in want]))
    else:
        same(got, flat(want))


def join(per_trace):
    # per-trace vectors, or per-trace (first, second) pairs of vectors
    if isinstance(per_trace[0], tuple):
        return tuple(flat([x[k] for x in per_trace]) for k in range(len(per_trace[0])))
    return flat(per_trace)


class TestKernels:
    @OPERATORS
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(LENGTHS, st.data())
    def test_value_kernels(self, kind, op, lengths, data):
        p = draw_params(data, kind)
        args = [draw_vectors(data, lengths, VALUES[kind]) for _ in range(op.arity)]
        check_kernel(getattr(op, kind), p, args, lengths)

    @OPERATORS
    @settings(max_examples=20, deadline=None)
    @given(LENGTHS, st.data())
    def test_robust_flags_and_pairs(self, op, lengths, data):
        p = draw_params(data, ROBUST)
        args = []
        for _ in range(op.arity):
            vals = draw_vectors(data, lengths, ROBUST_VALUE)
            flags = draw_vectors(data, lengths, st.booleans())
            args.append(list(zip(vals, flags)))
        check_kernel(op.robust_flags, p, args, lengths)
        check_kernel(op.robust_pair, p, args, lengths)

    @OPERATORS
    @pytest.mark.parametrize("kind", [ROBUST, DISCOUNTED])
    @settings(max_examples=20, deadline=None)
    @given(LENGTHS, st.data())
    def test_interval(self, kind, op, lengths, data):
        p = draw_params(data, kind)
        args = []
        for _ in range(op.arity):
            a = draw_vectors(data, lengths, VALUES[kind])
            b = draw_vectors(data, lengths, VALUES[kind])
            lows = [[min(x, y) for x, y in zip(u, v)] for u, v in zip(a, b)]
            highs = [[max(x, y) for x, y in zip(u, v)] for u, v in zip(a, b)]
            args.append(list(zip(lows, highs)))
        check_kernel(op.interval, p, args, lengths)

    def test_without_segments_the_list_is_one_trace(self):
        p = SemanticsParams(0.5, 0.8, 0.1, ROBUST)
        cv = [-1.0, 2.0, -0.5]
        for op in OPS.values():
            args = [cv] * op.arity
            same(op.robust(p, *args), op.robust(p, *args, segments=[(0, 3)]))
        assert OPS["X"].robust(p, []) == []


class TestEvaluate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from(["qualitative", ROBUST, DISCOUNTED,
                                                     "robust_pair"]))
    def test_flat_walk_equals_per_trace_walks(self, seed, kind):
        rng = random.Random(seed)
        f = random_formula(rng, depth=rng.randint(1, 4), atoms=ATOMS, mode="nnf")
        words = [random_word(rng, rng.randint(1, 6), ATOMS) for _ in range(rng.randint(1, 5))]
        p = SemanticsParams(0.9, 0.8, 0.1, DISCOUNTED if kind == DISCOUNTED else ROBUST)
        sample = Sample(tuple(Trace(w) for w in words), PropositionSet(ATOMS))
        assert list(sample.segments) == segments_of([len(w) for w in words])
        want = [evaluate(f, w, kind, p) for w in words]
        got = evaluate(f, sample.states, kind, p, sample.segments)
        if kind == "robust_pair":
            same(got[0], flat([w[0] for w in want]))
            same(got[1], flat([w[1] for w in want]))
        else:
            same(got, flat(want))


# --- reference: sample_fitness before the flat layout ------------------------------
# verbatim but for the single-trace walk, which reads formulas.evaluate_trace


def per_trace_fitness(f, sample, p):
    """Mean valuation over the sample's traces (normalized by trace count)."""
    traces = list(getattr(sample, "traces", sample))
    if not traces:
        raise EmptySampleError("sample has no traces")
    g = to_nnf(f) if p.kind == ROBUST and not is_nnf(f) else f
    total = 0.0
    for w in traces:
        total += evaluate_trace(g, w, p.kind, p)[0]  # the values alone, without decisive flags
    return total / len(traces)


class TestSampleFitness:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]), st.booleans())
    def test_equals_per_trace_loop(self, seed, kind, raw):
        rng = random.Random(seed)
        mode = "no_not_until" if kind == ROBUST else "general"
        f = random_formula(rng, depth=rng.randint(1, 4), atoms=ATOMS, mode=mode)
        traces = tuple(random_trace(rng, rng.randint(1, 8), ATOMS)
                       for _ in range(rng.randint(1, 6)))
        sample = [t.states for t in traces] if raw else Sample(traces, PropositionSet(ATOMS))
        p = SemanticsParams(
            alpha=rng.choice([0.5, 0.9, 1.0]), beta=rng.choice([0.8, 1.0]),
            gamma=rng.choice([0.0, 0.1]), kind=kind,
        )
        same([sample_fitness(f, sample, p)], [per_trace_fitness(f, sample, p)])

    def test_empty_trace_in_a_raw_sample(self):
        f = random_formula(random.Random(1), depth=3, atoms=ATOMS, mode="nnf")
        p = SemanticsParams(kind=ROBUST)
        with pytest.raises(EmptyTraceError):
            sample_fitness(f, [[{"p"}], []], p)
        with pytest.raises(EmptyTraceError):
            per_trace_fitness(f, [[{"p"}], []], p)
        with pytest.raises(EmptySampleError):
            sample_fitness(f, [], p)
