import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka.errors import (
    BudgetExhaustedError,
    EmptySampleError,
    EmptyTraceError,
    MixedPaddingError,
    PadTooShortError,
    PartialAssignmentError,
    TraceSyntaxError,
    UnknownAtomError,
)
from janaka.formulas import And, Atom, Finally, Globally, Not, PropositionSet, eval_qualitative
from janaka.traces import (
    Sample,
    Trace,
    generate_traces,
    infer_props,
    parse_traces,
    serialize_sample,
)

from gen import random_trace

PQ = PropositionSet(["p", "q"])


def states(*sets):
    return tuple(frozenset(s) for s in sets)


class TestParse:
    def test_padding_truncated(self):
        s = parse_traces("p,!q;!p,q;1;1#", PQ)
        assert len(s) == 1
        assert s.traces[0].states == states({"p"}, {"q"})

    def test_single_state_after_truncation(self):
        props = PropositionSet(["p", "q", "r"])
        s = parse_traces("p,q,r;1#", props)
        assert s.traces[0].states == states({"p", "q", "r"})

    def test_mixed_padding_rejected(self):
        with pytest.raises(MixedPaddingError):
            parse_traces("p;1;q#", PQ)

    def test_partial_assignment(self):
        with pytest.raises(PartialAssignmentError):
            parse_traces("p#", PQ)
        with pytest.raises(PartialAssignmentError):
            parse_traces("p,!p#", PropositionSet(["p"]))

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError):
            parse_traces("p,!q,z#", PQ)

    def test_all_padding_is_empty(self):
        with pytest.raises(EmptyTraceError):
            parse_traces("1;1;1#", PQ)

    def test_unterminated_record(self):
        with pytest.raises(TraceSyntaxError):
            parse_traces("p,!q;!p,q", PQ)

    def test_multiple_records_and_whitespace(self):
        text = "p,!q ; !p,q#\n !p,!q#\n"
        s = parse_traces(text, PQ)
        assert len(s) == 2
        assert s.traces[1].states == states(set())

    def test_infer_props(self):
        assert list(infer_props("!p,q,!r;p,q,r#")) == ["p", "q", "r"]


class TestSerialize:
    def test_pad_round_trip(self):
        s = Sample((Trace(states({"p"}, {"q"})),), PQ)
        assert serialize_sample(s, pad_to=4) == "p,!q;!p,q;1;1#\n"
        assert serialize_sample(s) == "p,!q;!p,q#\n"

    def test_pad_too_short(self):
        s = Sample((Trace(states({"p"}, {"q"}, set())),), PQ)
        with pytest.raises(PadTooShortError):
            serialize_sample(s, pad_to=2)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySampleError):
            Sample((), PQ)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        traces = tuple(
            random_trace(rng, rng.randint(1, 6), list(PQ)) for _ in range(rng.randint(1, 5))
        )
        sample = Sample(traces, PQ)
        pad = max(len(t) for t in traces) + rng.randint(0, 3)
        assert parse_traces(serialize_sample(sample), PQ) == sample
        assert parse_traces(serialize_sample(sample, pad_to=pad), PQ) == sample


class TestLayout:
    """A Sample holds its traces' states concatenated, with each trace's
    (start, end) and start: the kernels' flat layout."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.integers(0, 10 ** 9))
    def test_layout_is_the_traces_concatenated(self, lengths, seed):
        rng = random.Random(seed)
        traces = tuple(random_trace(rng, n, list(PQ)) for n in lengths)
        sample = Sample(traces, PQ)
        assert sample.states == tuple(s for t in traces for s in t.states)
        ends = [sum(lengths[: k + 1]) for k in range(len(lengths))]
        assert sample.segments == tuple(zip([0] + ends[:-1], ends))
        assert sample.starts == tuple([0] + ends[:-1])
        for (start, end), t in zip(sample.segments, traces):
            assert sample.states[start:end] == t.states
            assert all(a is b for a, b in zip(sample.states[start:end], t.states))

    def test_layout_is_not_compared_or_printed(self):
        a = Sample((Trace(states({"p"}, {"q"})),), PQ)
        assert a == Sample((Trace(states({"p"}, {"q"})),), PQ)
        assert hash(a) == hash(Sample((Trace(states({"p"}, {"q"})),), PQ))
        assert "states=" not in repr(a).replace("Trace(states=", "")


class TestGenerate:
    def test_globally_forced(self):
        s = generate_traces(Globally(Atom("p")), PQ, count=3, min_len=3, max_len=3, seed=7)
        assert len(s) == 3
        for t in s.traces:
            assert all("p" in st_ for st_ in t.states)

    def test_finally_witness(self):
        s = generate_traces(Finally(Atom("q")), PQ, count=5, min_len=2, max_len=5, seed=1)
        for t in s.traces:
            assert any("q" in st_ for st_ in t.states)

    def test_unsatisfiable_exhausts_budget(self):
        contradiction = And(Atom("p"), Not(Atom("p")))
        with pytest.raises(BudgetExhaustedError):
            generate_traces(contradiction, PQ, count=1, min_len=1, max_len=3, seed=0, budget=500)

    def test_deterministic(self):
        a = generate_traces(Finally(Atom("p")), PQ, count=4, min_len=1, max_len=5, seed=42)
        b = generate_traces(Finally(Atom("p")), PQ, count=4, min_len=1, max_len=5, seed=42)
        assert a == b

    def test_distinct_traces(self):
        s = generate_traces(Atom("true"), PQ, count=8, min_len=1, max_len=2, seed=3)
        assert len(set(t.states for t in s.traces)) == 8

    def test_atoms_must_be_declared(self):
        with pytest.raises(UnknownAtomError):
            generate_traces(Atom("z"), PQ, count=1, min_len=1, max_len=2, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_soundness(self, seed):
        rng = random.Random(seed)
        from gen import random_formula

        f = random_formula(rng, depth=3, atoms=["p", "q"], mode="nnf")
        try:
            s = generate_traces(f, PQ, count=3, min_len=1, max_len=5, seed=seed, budget=3000)
        except BudgetExhaustedError:
            return
        for t in s.traces:
            assert eval_qualitative(f, t)
