import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka.errors import EmptySampleError, EmptyTraceError, NotInNNFError
from janaka.formulas import (
    And,
    Atom,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    PropositionSet,
    Until,
    eval_qualitative,
    parse_formula,
    to_nnf,
)
from janaka.semantics import (
    DISCOUNTED,
    ROBUST,
    SemanticsParams,
    discounted_value,
    robust_upper_bound,
    robust_value,
    sample_fitness,
    satisfies_all,
)
from janaka.traces import Sample, Trace

from gen import random_formula, random_word
from naive_semantics import naive_discounted, naive_robust

P = Atom("p")
Q = Atom("q")


def rob(alpha=0.9, beta=0.9, gamma=0.1):
    return SemanticsParams(alpha, beta, gamma, ROBUST)


def disc(alpha=0.9, beta=0.9, gamma=0.1):
    return SemanticsParams(alpha, beta, gamma, DISCOUNTED)


def states(*sets):
    return tuple(frozenset(s) for s in sets)


class TestRobustExamples:
    def test_atom(self):
        v = robust_value(P, states({"p"}), rob())
        assert v.value == 1.0 and v.decisive

    def test_finally_first_witness_at_seven(self):
        w = states(*([{"p"}] * 7 + [{"p", "q"}]))
        for alpha in (0.5, 0.9):
            v = robust_value(Finally(Q), w, rob(alpha=alpha, beta=1.0))
            assert v.value == pytest.approx(alpha ** 7, abs=1e-12)
            assert v.decisive

    def test_globally_sum_undiscounted(self):
        v = robust_value(Globally(P), states({"p"}, {"p"}), rob(1.0, 1.0))
        assert v.value == pytest.approx(2.0) and v.decisive

    def test_strong_next_gamma(self):
        v = robust_value(Next(P), states({"p"}), rob(gamma=0.1))
        assert v.value == pytest.approx(0.1)
        assert not v.decisive

    def test_globally_violation_is_minus_beta(self):
        v = robust_value(Globally(P), states({"p"}, set()), rob(beta=1.0))
        assert v.value == -1.0 and v.decisive

    def test_needs_nnf(self):
        with pytest.raises(NotInNNFError):
            robust_value(Not(Or(P, Q)), states({"p"}), rob())

    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            robust_value(P, states(), rob())


class TestDiscountedExamples:
    def test_finally_alpha_squared(self):
        w = states(set(), set(), {"p"})
        v = discounted_value(Finally(P), w, disc(alpha=0.5, beta=1.0))
        assert v.value == pytest.approx(0.25, abs=1e-12)
        assert v.decisive

    def test_globally_one_minus_alpha_n(self):
        for n in (1, 2, 3):
            w = states(*([{"p"}] * n + [set()] + [{"p"}]))
            v = discounted_value(Globally(P), w, disc(alpha=0.9, beta=1.0))
            assert v.value == pytest.approx(1 - 0.9 ** n, abs=1e-12)

    def test_atoms(self):
        assert discounted_value(P, states({"p"}), disc()).value == 1.0
        assert discounted_value(Not(P), states({"p"}), disc()).value == 0.0

    def test_general_negation_allowed(self):
        v = discounted_value(Not(Until(P, Q)), states({"p"}, {"q"}), disc(1.0, 1.0))
        assert v.value == 0.0


class TestSampleFitness:
    def test_mean(self):
        s = Sample((Trace(states({"p"})), Trace(states(set()))), PropositionSet(["p"]))
        assert sample_fitness(P, s, disc()) == pytest.approx(0.5)

    def test_singleton(self):
        s = Sample((Trace(states({"p"}, {"p"})),), PropositionSet(["p"]))
        assert sample_fitness(Globally(P), s, rob(1.0, 1.0)) == pytest.approx(2.0)

    def test_three_equal_traces(self):
        w = Trace(states({"p"}, {"p"}, {"p"}))
        s = Sample((w, w, w), PropositionSet(["p"]))
        assert sample_fitness(Globally(P), s, rob(1.0, 1.0)) == pytest.approx(3.0)

    def test_robust_converts_to_nnf(self):
        s = Sample((Trace(states({"p"})),), PropositionSet(["p"]))
        assert sample_fitness(Not(Globally(P)), s, rob()) == pytest.approx(
            sample_fitness(Finally(Not(P)), s, rob())
        )

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            sample_fitness(P, [], disc())


class TestSatisfiesAll:
    def test_examples(self):
        props = PropositionSet(["p"])
        all_p = Sample((Trace(states({"p"}, {"p"})),) * 2, props)
        ok, per = satisfies_all(Globally(P), all_p)
        assert ok and per == [True, True]
        broken = Sample((Trace(states({"p"}, set())),), props)
        ok, per = satisfies_all(Globally(P), broken)
        assert not ok and per == [False]

    def test_worked_prompt_trace(self):
        f = parse_formula("F(p & (q | r))", PropositionSet(["p", "q", "r"]))
        w = Trace(states({"p"}, set(), set(), {"p", "q"}))
        ok, per = satisfies_all(f, Sample((w,), PropositionSet(["p", "q", "r"])))
        assert ok and per == [True]


def _naive_nesting(f):
    """Suffix-scan nesting of the naive oracle: F and G rescan every suffix
    (1), the discounted U every pair of positions (2); X and the boolean
    connectives add none."""
    kids = [getattr(f, k) for k in ("child", "left", "right") if hasattr(f, k)]
    inner = max((_naive_nesting(k) for k in kids), default=0)
    if isinstance(f, Until):
        return inner + 2
    return inner + isinstance(f, (Finally, Globally))


def _long_case(rng, mode):
    """A depth-3 formula with at least one F, G or U that the naive oracle
    evaluates on a word of length 64-256 in well under a second, and such a
    word, with atoms true at rate 0.5, 0.9 or 1 so that long runs of
    satisfied suffixes occur."""
    f = random_formula(rng, depth=3, atoms=["p", "q", "r"], mode=mode)
    while not 1 <= _naive_nesting(f) <= 2:
        f = random_formula(rng, depth=3, atoms=["p", "q", "r"], mode=mode)
    w = random_word(rng, rng.randint(64, 256), ["p", "q", "r"], rng.choice([0.5, 0.9, 1.0]))
    return f, w


class TestOracleEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_matches_naive(self, seed):
        rng = random.Random(seed)
        p = rob(
            alpha=rng.choice([0.5, 0.9, 1.0]),
            beta=rng.choice([0.7, 0.9, 1.0]),
            gamma=rng.choice([0.0, 0.1, 0.5]),
        )
        f = random_formula(rng, depth=4, atoms=["p", "q", "r"], mode="nnf")
        w = random_word(rng, rng.randint(1, 9), ["p", "q", "r"])
        got = robust_value(f, w, p)
        want_value, want_flag = naive_robust(f, w, p)
        assert got.value == pytest.approx(want_value, abs=1e-12)
        assert got.decisive == want_flag

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_discounted_matches_naive(self, seed):
        rng = random.Random(seed)
        p = disc(alpha=rng.choice([0.5, 0.9, 1.0]), beta=rng.choice([0.7, 0.9, 1.0]))
        f = random_formula(rng, depth=4, atoms=["p", "q", "r"])
        w = random_word(rng, rng.randint(1, 9), ["p", "q", "r"])
        got = discounted_value(f, w, p)
        assert got.value == pytest.approx(naive_discounted(f, w, p), abs=1e-12)
        assert got.decisive

    # long words: a per-suffix rescan and the kernels' reverse scans round
    # differently, so values are held to 1e-12 relative
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_matches_naive_on_long_words(self, seed):
        rng = random.Random(seed)
        p = rob(
            alpha=rng.choice([0.5, 0.9, 0.97, 1.0]),
            beta=rng.choice([0.7, 0.9, 1.0]),
            gamma=rng.choice([0.0, 0.1, 0.5]),
        )
        f, w = _long_case(rng, "nnf")
        got = robust_value(f, w, p)
        want_value, want_flag = naive_robust(f, w, p)
        assert got.value == pytest.approx(want_value, rel=1e-12, abs=0.0)
        assert got.decisive == want_flag

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_discounted_matches_naive_on_long_words(self, seed):
        rng = random.Random(seed)
        p = disc(alpha=rng.choice([0.5, 0.9, 0.97, 1.0]), beta=rng.choice([0.7, 0.9, 1.0]))
        f, w = _long_case(rng, "general")
        got = discounted_value(f, w, p)
        assert got.value == pytest.approx(naive_discounted(f, w, p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("text", ["G((p | q))", "G(p)", "G((p & F(q)))", "G((q -> F(p)))"])
    @pytest.mark.parametrize("alpha", [1.0, 0.97])
    def test_robust_globally_over_satisfied_suffixes(self, text, alpha):
        # p holds everywhere, so G sums over every suffix: 256 terms at alpha 1
        rng = random.Random(f"{text}{alpha}")
        f = parse_formula(text)
        p = rob(alpha=alpha, beta=0.9)
        for n in (64, 200, 256):
            w = tuple(s | {"p"} for s in random_word(rng, n, ["q"]))
            got = robust_value(f, w, p)
            want_value, want_flag = naive_robust(f, w, p)
            assert want_value > 0
            assert got.value == pytest.approx(want_value, rel=1e-12, abs=0.0)
            assert got.decisive == want_flag


class TestInvariants:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_discounted_range(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q"])
        w = random_word(rng, rng.randint(1, 8), ["p", "q"])
        v = discounted_value(f, w, disc(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
        assert 0.0 <= v.value <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_lower_bound(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q"], mode="nnf")
        w = random_word(rng, rng.randint(1, 8), ["p", "q"])
        v = robust_value(f, w, rob(gamma=rng.choice([0.0, 0.3])))
        assert v.value >= -1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_upper_bound_holds(self, seed):
        rng = random.Random(seed)
        p = rob()
        f = random_formula(rng, depth=3, atoms=["p", "q"], mode="nnf")
        w = random_word(rng, rng.randint(1, 6), ["p", "q"])
        assert robust_value(f, w, p).value <= robust_upper_bound(3, len(w), p) + 1e-12

    def test_monotone_discounting_for_finally(self):
        p = rob(alpha=0.8, beta=1.0)
        values = []
        for first in range(5):
            w = states(*([set()] * first + [{"q"}] + [set()] * (5 - first)))
            values.append(robust_value(Finally(Q), w, p).value)
        assert values == sorted(values, reverse=True)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_discounted_collapse_at_one(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q", "r", "s"])
        w = random_word(rng, rng.randint(1, 12), ["p", "q", "r", "s"])
        v = discounted_value(f, w, disc(1.0, 1.0)).value
        assert v in (0.0, 1.0)
        assert (v == 1.0) == eval_qualitative(f, w)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_sign_agreement_when_decisive(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q"], mode="nnf")
        w = random_word(rng, rng.randint(1, 10), ["p", "q"])
        v = robust_value(f, w, rob(1.0, 1.0))
        if v.decisive:
            assert v.value != 0.0
            assert (v.value > 0) == eval_qualitative(f, w)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SemanticsParams(alpha=0.0)
        with pytest.raises(ValueError):
            SemanticsParams(beta=1.5)
        with pytest.raises(ValueError):
            SemanticsParams(gamma=1.0)
        with pytest.raises(ValueError):
            SemanticsParams(kind="fuzzy")
        with pytest.raises(ValueError):
            robust_value(P, states({"p"}), disc())
        with pytest.raises(ValueError):
            discounted_value(P, states({"p"}), rob())
