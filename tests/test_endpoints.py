"""The repair bound's one-endpoint form and the kernels' comparisons in place
of the max and min builtins, against the forms they replaced, kept here
verbatim: the two-sided interval kernels and the builtin value kernels.

Results must be equal bit for bit: values are compared by repr, which tells
-0.0 from 0.0 and prints every float exactly."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka import ops
from janaka.ops import IMPLIES, NEGATION, OPS
from janaka.semantics import DISCOUNTED, ROBUST, SemanticsParams

from test_layout import LENGTHS, draw_params, flat, segments_of, same

# negation is never a slot label; test_negation_swaps_the_endpoints
OPERATORS = pytest.mark.parametrize(
    "op", [op for op in OPS.values() if op.label != NEGATION], ids=lambda op: op.label,
)
KINDS = pytest.mark.parametrize("kind", [ROBUST, DISCOUNTED])

# signed zeros and the constants the kernels test against, then any value
ROBUST_VALUE = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 1.0, 0.1, -0.1]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
DISCOUNTED_VALUE = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 0.5]),
    st.floats(0.0, 1.0),
)
VALUES = {ROBUST: ROBUST_VALUE, DISCOUNTED: DISCOUNTED_VALUE}


# --- reference: the value kernels with builtin max and min, verbatim --------------


def _traces(segments, n):
    # the whole list is one trace unless segments say otherwise
    if segments is not None:
        return segments
    return ((0, n),) if n else ()


def _rob_or(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * ((x + y) / 2 if x >= 0 and y >= 0 else max(x, y)) for x, y in zip(lv, rv)]


def _rob_implies(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * ((-x + y) / 2 if x < 0 and y >= 0 else max(-x, y)) for x, y in zip(lv, rv)]


def _disc_and(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * min(x, y) for x, y in zip(lv, rv)]


def _disc_or(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * max(x, y) for x, y in zip(lv, rv)]


def _disc_implies(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * max(1.0 - x, y) for x, y in zip(lv, rv)]


def _disc_finally(p, cv, *, segments=None):
    # m = max_i alpha^(i-t) cv[i] over the suffix
    a, b = p.alpha, p.beta
    out = [0.0] * len(cv)
    for start, end in _traces(segments, len(cv)):
        m = float("-inf")
        for t in range(end - 1, start - 1, -1):
            m = max(cv[t], a * m)
            out[t] = b * m
    return out


def _disc_globally(p, cv, *, segments=None):
    # m = max_i alpha^(i-t) (1 - cv[i]) over the suffix
    a, b = p.alpha, p.beta
    out = [0.0] * len(cv)
    for start, end in _traces(segments, len(cv)):
        m = float("-inf")
        for t in range(end - 1, start - 1, -1):
            m = max(1.0 - cv[t], a * m)
            out[t] = b * (1.0 - m)
    return out


def _disc_until(p, lv, rv, *, segments=None):
    # alpha > 0 commutes with min and max, so the max-min over the suffix
    # obeys u_t = max(g_t, min(f_t, alpha*u_(t+1))) with u_n = 0
    a = p.alpha
    out = [0.0] * len(lv)
    for start, end in _traces(segments, len(lv)):
        u = 0.0
        for t in range(end - 1, start - 1, -1):
            u = max(rv[t], min(lv[t], a * u))
            out[t] = u
    return out


BUILTIN = {
    ("|", ROBUST): _rob_or,
    ("->", ROBUST): _rob_implies,
    ("&", DISCOUNTED): _disc_and,
    ("|", DISCOUNTED): _disc_or,
    ("->", DISCOUNTED): _disc_implies,
    ("F", DISCOUNTED): _disc_finally,
    ("G", DISCOUNTED): _disc_globally,
    ("U", DISCOUNTED): _disc_until,
}


# --- reference: the two-sided interval kernels, verbatim ----------------------------


def _rob_or_interval(p, left, right, *, segments=None):
    (ll, lh), (rl, rh) = left, right
    b = p.beta
    return [b * (x + y) / 2 for x, y in zip(ll, rl)], [b * max(x, y) for x, y in zip(lh, rh)]


def _rob_implies_interval(p, left, right, *, segments=None):
    # the envelope of f -> g is that of !f | g
    ll, lh = left
    return _rob_or_interval(p, ([-v for v in lh], [-v for v in ll]), right)


def _rob_witness_highs(p, hs, b, segments):
    # h_t = max(hs[t], alpha*h_(t+1)) with h = 0 at the trace end, so a
    # negative high never wins: the F and U value kernels' alpha-chain on the
    # highs, so the bound dominates their values in floats; then the max of
    # b*h with the gamma term b*gamma*alpha^(end-t) (b = 1.0 for U is exact)
    a, g = p.alpha, p.gamma
    out = [0.0] * len(hs)
    for start, end in _traces(segments, len(hs)):
        h = 0.0
        for t in range(end - 1, start - 1, -1):
            h = max(hs[t], a * h)
            out[t] = max(b * g * a ** (end - t), b * h)
    return out


def _rob_finally_interval(p, child, *, segments=None):
    return [0.0] * len(child[1]), _rob_witness_highs(p, child[1], p.beta, segments)


def _rob_until_interval(p, left, right, *, segments=None):
    return [-1.0] * len(right[1]), _rob_witness_highs(p, right[1], 1.0, segments)


ROBUST_INTERVAL = {
    "|": _rob_or_interval,
    "->": _rob_implies_interval,
    "U": _rob_until_interval,
    "F": _rob_finally_interval,
}


def reference_interval(op, p, *kids, segments=None):
    """(lows, highs) of this operator over its children's (lows, highs)."""
    if p.kind == ROBUST and op.label in ROBUST_INTERVAL:
        return ROBUST_INTERVAL[op.label](p, *kids, segments=segments)
    kernel = BUILTIN.get((op.label, p.kind), getattr(op, p.kind))
    lows = [lo for lo, _ in kids]
    highs = [hi for _, hi in kids]
    if op.label == IMPLIES:  # the one antitone_left row of that table
        lows[0], highs[0] = highs[0], lows[0]
    return kernel(p, *lows, segments=segments), kernel(p, *highs, segments=segments)


# --- inputs ---------------------------------------------------------------------------


def draw_intervals(data, kind, lengths):
    """Flat (lows, highs) over traces of the given lengths, lows <= highs."""
    lows, highs = [], []
    for n in lengths:
        for _ in range(n):
            x, y = data.draw(VALUES[kind]), data.draw(VALUES[kind])
            lows.append(min(x, y))
            highs.append(max(x, y))
    return lows, highs


class TestEndpoints:
    @OPERATORS
    @KINDS
    @settings(max_examples=30, deadline=None)
    @given(LENGTHS, st.data())
    def test_each_endpoint_equals_the_two_sided_kernel(self, kind, op, lengths, data):
        p = draw_params(data, kind)
        kids = [draw_intervals(data, kind, lengths) for _ in range(op.arity)]
        segments = segments_of(lengths)
        want = reference_interval(op, p, *kids, segments=segments)
        for high in (False, True):
            kernel, reads = op.endpoint(kind, high)
            # the kernel is handed only the endpoints it names
            same(kernel(p, *[kids[k][h] for k, h in reads], segments=segments), want[high])
        got = op.interval(p, *kids, segments=segments)
        same(got[0], want[0])
        same(got[1], want[1])

    @KINDS
    def test_what_each_endpoint_reads(self, kind):
        reads = {label: tuple(op.endpoint(kind, high).reads for high in (False, True))
                 for label, op in OPS.items()}
        lo, hi = False, True
        assert reads["&"] == reads["|"] == (((0, lo), (1, lo)), ((0, hi), (1, hi)))
        assert reads["->"] == (((0, hi), (1, lo)), ((0, lo), (1, hi)))
        assert reads["G"] == reads["X"] == (((0, lo),), ((0, hi),))
        assert reads["!"] == (((0, hi),), ((0, lo),))
        if kind == ROBUST:
            # the lows are constants; U's left child is never read
            assert reads["F"] == ((), ((0, hi),))
            assert reads["U"] == ((), ((1, hi),))
        else:
            assert reads["F"] == (((0, lo),), ((0, hi),))
            assert reads["U"] == (((0, lo), (1, lo)), ((0, hi), (1, hi)))

    @KINDS
    def test_negation_swaps_the_endpoints(self, kind):
        p = SemanticsParams(0.9, 0.8, 0.1, kind)
        lows, highs = [-1.0, 0.25, 0.0], [1.0, 0.5, 0.0]
        got = OPS["!"].interval(p, (lows, highs))
        want = OPS["!"].discounted if kind == DISCOUNTED else OPS["!"].robust
        same(got[0], want(p, highs))
        same(got[1], want(p, lows))

    def test_constant_lows_without_segments(self):
        p = SemanticsParams(0.9, 0.8, 0.1, ROBUST)
        assert OPS["F"].interval(p, ([-1.0, 2.0], [1.0, 2.0]))[0] == [0.0, 0.0]
        assert OPS["U"].interval(p, ([], []), ([], [])) == ([], [])


class TestGammaTable:
    """The witness highs read their gamma terms from a table built once per
    (alpha, gamma, b, list length) with the expression the scan above writes
    per position."""

    @pytest.mark.parametrize("alpha", [0.5, 0.97])
    def test_witness_highs_over_lengths_1_to_300(self, alpha):
        ops._gamma_terms.cache_clear()
        rng = random.Random(alpha)
        special = [-1.0, -0.0, 0.0, 1.0, 0.1, -0.1]
        # single traces of rising length, each needing a table longer than
        # any built before, then samples mixing long and short traces
        samples = [[n] for n in range(1, 301)] + [[300, 1, 37], [5, 299, 2], [1, 1, 1]]
        for beta in (0.8, 1.0):
            for gamma in (0.0, 0.1):
                p = SemanticsParams(alpha, beta, gamma, ROBUST)
                for lengths in samples:
                    hs = [rng.choice(special) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
                          for _ in range(sum(lengths))]
                    # without segments the list is one trace
                    for segments in (segments_of(lengths), None)[:len(lengths)]:
                        for b in (beta, 1.0):
                            same(ops._rob_witness_highs(p, hs, b, segments),
                                 _rob_witness_highs(p, hs, b, segments))


class TestComparisonsForBuiltins:
    @pytest.mark.parametrize("label,kind", BUILTIN, ids=lambda x: str(x))
    @settings(max_examples=40, deadline=None)
    @given(LENGTHS, st.data())
    def test_same_operand_as_the_builtin(self, label, kind, lengths, data):
        p = draw_params(data, kind)
        op = OPS[label]
        args = [flat(data.draw(st.lists(VALUES[kind], min_size=n, max_size=n)) for n in lengths)
                for _ in range(op.arity)]
        segments = segments_of(lengths)
        same(getattr(op, kind)(p, *args, segments=segments),
             BUILTIN[label, kind](p, *args, segments=segments))

    def test_signed_zero_ties(self):
        # max and min return their first operand on a tie: -0.0 and 0.0 are
        # equal, so the order of the operands decides the sign of the result
        p = SemanticsParams(1.0, 1.0, 0.0, DISCOUNTED)
        zeros, signed = [0.0, -0.0], [-0.0, 0.0]
        for label in ("&", "|"):
            got = getattr(OPS[label], DISCOUNTED)(p, zeros, signed)
            same(got, BUILTIN[label, DISCOUNTED](p, zeros, signed))
        assert [repr(x) for x in OPS["&"].discounted(p, zeros, signed)] == ["0.0", "-0.0"]
        r = SemanticsParams(1.0, 1.0, 0.0, ROBUST)
        # f -> g at f = g = 0.0 is the max of -0.0 and 0.0
        assert [repr(x) for x in OPS["->"].robust(r, [0.0], [0.0])] == ["-0.0"]
        same(OPS["->"].robust(r, [0.0], [0.0]), _rob_implies(r, [0.0], [0.0]))
        lows = [-1.0, -1.0]
        got = OPS["|"].interval(r, (lows, signed), (lows, zeros))[1]
        assert [repr(x) for x in got] == ["-0.0", "0.0"]
        same(got, _rob_or_interval(r, (lows, signed), (lows, zeros))[1])
