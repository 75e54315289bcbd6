"""The linear-time temporal kernels of the operator table against the
quadratic kernels they replaced, kept here verbatim as a reference.

The reference kernels rescan the suffix at every position; the table's make
one reverse pass. The pass changes the order of float operations, so values
are held to 1e-12 relative; the constant cases (-beta, -1, the interval lows)
must be equal.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka import ops
from janaka.semantics import DISCOUNTED, ROBUST, SemanticsParams

REL = 1e-12


# --- the quadratic kernels, verbatim ------------------------------------------------


def _rob_globally(p, cv):
    n = len(cv)
    a, b = p.alpha, p.beta
    vals = []
    for t in range(n):
        if all(cv[i] >= 0 for i in range(t, n)):
            vals.append(b * sum(a ** (i - t) * cv[i] for i in range(t, n)))
        else:
            vals.append(b * -1.0)
    return vals


def _rob_finally(p, cv):
    n = len(cv)
    a, b, g = p.alpha, p.beta, p.gamma
    vals = []
    for t in range(n):
        witness = next((i for i in range(t, n) if cv[i] >= 0), None)
        if witness is None:
            vals.append(b * g * a ** (n - t))
        else:
            vals.append(b * a ** (witness - t) * cv[witness])
    return vals


def _rob_until(p, lv, rv):
    n = len(lv)
    a, g = p.alpha, p.gamma
    vals = []
    for t in range(n):
        witness = next((i for i in range(t, n) if rv[i] >= 0), None)
        if witness is not None and all(lv[j] >= 0 for j in range(t, witness)):
            vals.append(a ** (witness - t) * rv[witness])
        elif witness is None and all(lv[j] >= 0 for j in range(t, n)):
            vals.append(g * a ** (n - t))
        else:
            vals.append(-1.0)
    return vals


def _disc_finally(p, cv):
    n = len(cv)
    a, b = p.alpha, p.beta
    return [b * max(a ** (i - t) * cv[i] for i in range(t, n)) for t in range(n)]


def _disc_globally(p, cv):
    n = len(cv)
    a, b = p.alpha, p.beta
    return [
        b * (1.0 - max(a ** (i - t) * (1.0 - cv[i]) for i in range(t, n)))
        for t in range(n)
    ]


def _disc_until(p, lv, rv):
    n = len(lv)
    a = p.alpha
    out = []
    for t in range(n):
        best = 0.0
        prefix = None  # min over alpha^(j-t) * lv[j] for j in [t, i)
        for i in range(t, n):
            term = a ** (i - t) * rv[i]
            if prefix is not None:
                term = min(term, prefix)
            if term > best:
                best = term
            step = a ** (i - t) * lv[i]
            prefix = step if prefix is None else min(prefix, step)
        out.append(best)
    return out


def _rob_finally_interval(p, child):
    _, ch = child
    n = len(ch)
    a, b, g = p.alpha, p.beta, p.gamma
    his = []
    for t in range(n):
        cands = [b * g * a ** (n - t)]
        cands.extend(b * a ** (i - t) * ch[i] for i in range(t, n) if ch[i] >= 0)
        his.append(max(cands))
    return [0.0] * n, his


def _rob_until_interval(p, left, right):
    _, rh = right
    n = len(rh)
    a = p.alpha
    his = []
    for t in range(n):
        cands = [p.gamma * a ** (n - t)]
        cands.extend(a ** (i - t) * rh[i] for i in range(t, n) if rh[i] >= 0)
        his.append(max(cands))
    return [-1.0] * n, his


# --- inputs ---------------------------------------------------------------------------


def _params(rng, kind):
    return SemanticsParams(
        alpha=rng.choice([0.5, 0.9, 0.97, 1.0]),
        beta=rng.choice([0.7, 0.9, 1.0]),
        gamma=rng.choice([0.0, 0.1, 0.5]),
        kind=kind,
    )


def _robust_vector(rng, n):
    """Robust-like values: -1, negative or non-negative magnitudes up to 3,
    with a negative share from none (long all-non-negative suffixes) to most."""
    neg = rng.choice([0.0, 0.01, 0.2, 0.5, 0.9])
    out = []
    for _ in range(n):
        r = rng.random()
        if r < neg:
            out.append(-1.0 if rng.random() < 0.5 else -rng.uniform(0.0, 3.0))
        else:
            out.append(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)]))
    return out


def _discounted_vector(rng, n):
    return [rng.choice([0.0, 1.0, rng.random(), rng.random()]) for _ in range(n)]


def _close(got, want):
    assert len(got) == len(want)
    assert got == pytest.approx(want, rel=REL, abs=0.0)


# --- tests ---------------------------------------------------------------------------


class TestLinearKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_values_match_quadratic(self, seed):
        rng = random.Random(seed)
        p = _params(rng, ROBUST)
        n = rng.randint(1, 260)
        lv, rv = _robust_vector(rng, n), _robust_vector(rng, n)
        _close(ops.OPS["G"].robust(p, rv), _rob_globally(p, rv))
        _close(ops.OPS["F"].robust(p, rv), _rob_finally(p, rv))
        _close(ops.OPS["U"].robust(p, lv, rv), _rob_until(p, lv, rv))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_interval_highs_match_quadratic(self, seed):
        rng = random.Random(seed)
        p = _params(rng, ROBUST)
        n = rng.randint(1, 260)
        left = ([-1.0] * n, _robust_vector(rng, n))
        right = ([-1.0] * n, _robust_vector(rng, n))
        for got, want in (
            (ops.OPS["F"].interval(p, right), _rob_finally_interval(p, right)),
            (ops.OPS["U"].interval(p, left, right), _rob_until_interval(p, left, right)),
        ):
            assert got[0] == want[0]
            _close(got[1], want[1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_robust_interval_highs_dominate_values_exactly(self, seed):
        # the repair bound's admissibility in floats: any values at or below
        # the child highs give F and U values at or below the interval highs
        rng = random.Random(seed)
        p = _params(rng, ROBUST)
        n = rng.randint(1, 260)
        lh, rh = _robust_vector(rng, n), _robust_vector(rng, n)
        lv = [h if rng.random() < 0.7 else h - rng.uniform(0.0, 1.0) for h in lh]
        rv = [h if rng.random() < 0.7 else h - rng.uniform(0.0, 1.0) for h in rh]
        highs = ops.OPS["F"].interval(p, ([-1.0] * n, rh))[1]
        assert all(v <= h for v, h in zip(ops.OPS["F"].robust(p, rv), highs))
        highs = ops.OPS["U"].interval(p, ([-1.0] * n, lh), ([-1.0] * n, rh))[1]
        assert all(v <= h for v, h in zip(ops.OPS["U"].robust(p, lv, rv), highs))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_discounted_values_match_quadratic(self, seed):
        rng = random.Random(seed)
        p = _params(rng, DISCOUNTED)
        n = rng.randint(1, 260)
        lv, rv = _discounted_vector(rng, n), _discounted_vector(rng, n)
        _close(ops.OPS["G"].discounted(p, rv), _disc_globally(p, rv))
        _close(ops.OPS["F"].discounted(p, rv), _disc_finally(p, rv))
        _close(ops.OPS["U"].discounted(p, lv, rv), _disc_until(p, lv, rv))

    def test_constant_cases_are_exact(self):
        p = SemanticsParams(0.9, 0.8, 0.1, ROBUST)
        # G fails everywhere up to the last negative position: exactly -beta
        assert ops.OPS["G"].robust(p, [2.0, -0.5, 1.0]) == [-0.8, -0.8, 0.8]
        # U fails where f < 0 before a witness, whatever lies beyond
        assert ops.OPS["U"].robust(p, [-1.0, 1.0, 1.0], [-1.0, -1.0, 0.5]) == [
            -1.0, 0.9 * 0.5, 0.5,
        ]
        # no witness and f non-negative to the end: the gamma case as before
        assert ops.OPS["U"].robust(p, [1.0, 1.0], [-1.0, -1.0]) == [
            0.1 * 0.9 ** 2, 0.1 * 0.9 ** 1,
        ]
        assert ops.OPS["F"].robust(p, [-1.0, -1.0]) == [
            0.8 * 0.1 * 0.9 ** 2, 0.8 * 0.1 * 0.9 ** 1,
        ]
