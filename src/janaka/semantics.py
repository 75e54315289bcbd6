"""Robust and discounted quantitative valuations over finite traces.

Both valuations walk the formula bottom-up (:func:`janaka.ops.evaluate`): for
each subformula they compute the value at every suffix position of the word,
so the value of ``f`` on ``w`` is the root vector at position 0. The cases of
each operator are the kernels of the operator table, whose docstring
(:mod:`janaka.ops`) summarizes both semantics.

:func:`sample_fitness`, which ranks candidates and scores results, makes one
such walk over the whole sample in the flat layout the
:class:`~janaka.traces.Sample` holds (its traces' states concatenated, with
each trace's ``(start, end)`` segment), so every kernel runs once per node
rather than once per node and trace. The repair search and the MILP export
read the same layout from the Sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyTraceError, NotInNNFError
from .formulas import Formula, _states_of, eval_qualitative, is_nnf, to_nnf
from .ops import DISCOUNTED, ROBUST, evaluate
from .traces import Sample, Trace, start_mean


@dataclass(frozen=True)
class SemanticsParams:
    """alpha: temporal discount, beta: nesting discount, gamma: inconclusive reward."""

    alpha: float = 0.9
    beta: float = 0.9
    gamma: float = 0.1
    kind: str = ROBUST

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.kind not in (ROBUST, DISCOUNTED):
            raise ValueError(f"unknown semantics kind {self.kind!r}")


@dataclass(frozen=True)
class Valuation:
    value: float
    decisive: bool


def _vector(f: Formula, w, kind: str, p: SemanticsParams):
    states = _states_of(w)
    if not states:
        raise EmptyTraceError("cannot evaluate on an empty trace")
    return evaluate(f, states, kind, p)


def robust_value(f: Formula, w, p: SemanticsParams) -> Valuation:
    """Robust valuation of an NNF formula at position 0 of a non-empty trace."""
    if p.kind != ROBUST:
        raise ValueError("params.kind must be 'robust'")
    if not is_nnf(f):
        raise NotInNNFError(f"not in negation normal form: {f}")
    vals, flags = _vector(f, w, "robust_pair", p)
    return Valuation(vals[0], flags[0])


def discounted_value(f: Formula, w, p: SemanticsParams) -> Valuation:
    """Discounted valuation in [0,1]; general negation allowed; always decisive."""
    if p.kind != DISCOUNTED:
        raise ValueError("params.kind must be 'discounted'")
    return Valuation(_vector(f, w, DISCOUNTED, p)[0], True)


# --- sample-level fitness -------------------------------------------------------


def value_of(f: Formula, w, p: SemanticsParams) -> Valuation:
    """Valuation under the selected semantics; converts to NNF for robust."""
    if p.kind == ROBUST:
        return robust_value(f if is_nnf(f) else to_nnf(f), w, p)
    return discounted_value(f, w, p)


def sample_fitness(f: Formula, sample, p: SemanticsParams) -> float:
    """Mean valuation over the sample's traces (normalized by trace count).

    One evaluation covers the whole sample in its flat layout, read at the
    trace starts by :func:`janaka.traces.start_mean`, so the result equals
    summing each trace's own valuation bit for bit. A plain sequence of
    traces (Traces or state sequences) is laid out as a Sample first;
    fitness reads no proposition set, so it is given none."""
    if not isinstance(sample, Sample):
        sample = Sample(tuple(Trace(getattr(w, "states", w)) for w in sample), None)
    g = to_nnf(f) if p.kind == ROBUST and not is_nnf(f) else f
    # the values alone, without decisive flags
    vals = evaluate(g, sample.states, p.kind, p, sample.segments)
    return start_mean(vals, sample.starts)


def satisfies_all(f: Formula, sample) -> tuple[bool, list[bool]]:
    """Qualitative satisfaction of every trace, and the conjunction."""
    traces = list(getattr(sample, "traces", sample))
    per_trace = [eval_qualitative(f, w) for w in traces]
    return all(per_trace), per_trace


# --- value-range bound for the robust semantics ---------------------------------


@lru_cache(maxsize=None)
def _robust_bound(depth: int, length: int, a: float, b: float, g: float) -> float:
    if depth <= 1 or length <= 0:
        return 1.0
    h = _robust_bound(depth - 1, length, a, b, g)
    sub = [_robust_bound(depth - 1, length - i, a, b, g) for i in range(length)]
    g_sum = b * sum(a ** i * s for i, s in enumerate(sub))
    fu_max = max(g * a ** length, max(a ** i * s for i, s in enumerate(sub)))
    x_term = _robust_bound(depth - 1, length - 1, a, b, g) if length >= 2 else g
    return max(1.0, b * h * h, g_sum, fu_max, x_term)


def robust_upper_bound(depth: int, length: int, p: SemanticsParams) -> float:
    """Sound upper bound on the robust value of any formula of the given tree
    depth over a suffix of the given length."""
    return _robust_bound(depth, length, p.alpha, p.beta, p.gamma)


def value_range(depth: int, length: int, p: SemanticsParams) -> tuple[float, float]:
    """The values any formula of the given tree depth can take on a suffix of
    the given length: the repair bound's range for an open hole and the MILP
    export's score bounds and big-M constants."""
    if p.kind == DISCOUNTED:
        return 0.0, 1.0
    return -1.0, robust_upper_bound(depth, length, p)
