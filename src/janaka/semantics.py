"""Robust and discounted quantitative valuations over finite traces.

Both valuations walk the formula bottom-up (:func:`janaka.ops.evaluate`, over
one trace through :func:`janaka.formulas.evaluate_trace`, which refuses an
empty one): for each subformula they compute the value at every suffix
position of the word, so the value of ``f`` on ``w`` is the root vector at
position 0. The cases of each operator are the kernels of the operator
table, whose docstring (:mod:`janaka.ops`) summarizes both semantics.

:func:`sample_fitness`, which ranks candidates and scores results, makes one
such walk over the whole sample in the flat layout the
:class:`~janaka.traces.Sample` holds (its traces' states concatenated, with
each trace's ``(start, end)`` segment), so every kernel runs once per node
rather than once per node and trace. The repair search and the MILP export
read the same layout from the Sample.

An :class:`EvalStore` holds one run's evaluations over one sample under one
set of parameters, so that each is computed once however many stages ask for
it: the ranking of the candidates, their satisfaction rows, every template's
search and the final scores; the MILP export makes one per model. It interns
each distinct subformula once, as a hash-consed id (Filliâtre and Conchon, ML
Workshop 2006): a literal's key is its label, an operator node's its label
and its children's ids, so equal ids are equal formulas. Each id's vector
over the whole sample is computed once and read by every formula that holds
it, as Scarlet (Raha, Roy, Fijalkow and Neider, TACAS 2022) combines stored
subformula vectors. A store lives as long as the run that made it; nothing
is kept on the Sample, in the module or from one run to the next. The store
interns and evaluates, and judges nothing: which formulas are trivial, and
how incumbents tie, is decided by the repair search, on read
(:mod:`janaka.repair`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotInNNFError
from .formulas import (
    Atom,
    Formula,
    children,
    decode_label,
    eval_qualitative,  # noqa: F401  (kept for perfbench's span tracer, which wraps it here)
    evaluate_trace,
    is_nnf,
    to_nnf,
)
from .ops import (
    DISCOUNTED,
    NEGATION,
    NOT,
    OPS,
    ROBUST,
    LITERAL,
    op_of,
)
from .traces import Sample, Trace, start_mean

QUALITATIVE = "qualitative"


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


def robust_value(f: Formula, w, p: SemanticsParams) -> Valuation:
    """Robust valuation of an NNF formula at position 0 of a non-empty trace."""
    if p.kind != ROBUST:
        raise ValueError("params.kind must be 'robust'")
    if not is_nnf(f):
        raise NotInNNFError(f"not in negation normal form: {f}")
    vals, flags = evaluate_trace(f, w, "robust_pair", p)
    return Valuation(vals[0], flags[0])


def discounted_value(f: Formula, w, p: SemanticsParams) -> Valuation:
    """Discounted valuation in [0,1]; general negation allowed; always decisive."""
    if p.kind != DISCOUNTED:
        raise ValueError("params.kind must be 'discounted'")
    return Valuation(evaluate_trace(f, w, DISCOUNTED, p)[0], True)


# --- sample-level fitness -------------------------------------------------------


def value_of(f: Formula, w, p: SemanticsParams) -> Valuation:
    """Valuation under the selected semantics; converts to NNF for robust."""
    if p.kind == ROBUST:
        return robust_value(f if is_nnf(f) else to_nnf(f), w, p)
    return discounted_value(f, w, p)


def store_for(store: EvalStore | None, sample, p: SemanticsParams | None = None) -> EvalStore:
    """`store`, which must be the one made for this sample and these
    parameters (ValueError otherwise), or, given None, a new store over the
    sample. A plain sequence of traces (Traces or state sequences) is laid
    out as a Sample first, with no proposition set: evaluations read none."""
    if store is None:
        if not isinstance(sample, Sample):
            sample = Sample(tuple(Trace(getattr(w, "states", w)) for w in sample), None)
        return EvalStore(sample, p)
    if store.sample is not sample or p is not None and store.params != p:
        raise ValueError("the store was made for another sample or parameters")
    return store


def sample_fitness(f: Formula, sample, p: SemanticsParams,
                   store: EvalStore | None = None) -> float:
    """Mean valuation over the sample's traces (normalized by trace count).

    The store's one walk covers the whole sample in its flat layout, read at
    the trace starts by :func:`janaka.traces.start_mean`, so the result
    equals summing each trace's own valuation bit for bit. A call given no
    store makes its own over the sample, which may then also be a plain
    sequence of traces (Traces or state sequences); a store given must be
    the one made for this sample and these parameters."""
    store = store_for(store, sample, p)
    g = to_nnf(f) if p.kind == ROBUST and not is_nnf(f) else f
    return start_mean(store.vector(store.formula_id(g)), store.starts)


def satisfies_all(f: Formula, sample, store: EvalStore | None = None) -> tuple[bool, list[bool]]:
    """Qualitative satisfaction of every trace, and the conjunction: one
    qualitative walk over the sample's flat layout, read at the trace starts,
    through the store (one made for the call when none is given, as in
    :func:`sample_fitness`)."""
    store = store_for(store, sample)
    sats = store.vector(store.formula_id(f), QUALITATIVE)
    per_trace = [bool(sats[k]) for k in store.starts]
    return all(per_trace), per_trace


# --- the evaluation store -------------------------------------------------------


class EvalStore:
    """One run's evaluations over one sample under one set of parameters
    (module docstring), each computed once.

    Ids. :meth:`intern` gives a key its id, and :meth:`formula_id` interns a
    formula's subformulas bottom-up. ``ids`` maps each key to its id and
    ``keys`` holds each id's key; the repair slot tables read both directly.
    An id's formula (:meth:`decode`) is made when first asked for, once. The
    store judges nothing: which ids are trivial, and how incumbents tie, is
    the repair search's to decide (:mod:`janaka.repair`).

    Vectors. A literal's vector over the sample is made once per (label,
    kind) and an unresolved hole's (lows, highs) once per height, with
    :func:`value_range` once per remaining length. ``values`` holds value
    vectors under ``params.kind`` by id: :meth:`vector` and the repair slot
    tables (which skip their roots) fill it, and both read it. Qualitative
    vectors are kept by id apart from them. A vector kept by id takes one
    double (``array('d')``), or one byte for a qualitative one, per
    position, so a run's store stays small next to the kernels' own lists;
    so does a qualitative literal's. A literal's values stay the kernel's
    list, which the slot tables' kernels read on every recompute. Without a
    sample the store interns and decodes only."""

    def __init__(self, sample: Sample | None = None, p: SemanticsParams | None = None):
        self.sample, self.params = sample, p
        if sample is None:
            self.states = self.segments = self.starts = ()
        else:
            self.states, self.segments, self.starts = sample.states, sample.segments, sample.starts
        self.ids: dict = {}
        self.keys: list = []
        self._formulas: dict[int, Formula] = {}
        self.values: dict[int, array] = {}
        self._truths: dict[int, bytes] = {}
        self._literals: dict[tuple[str, str], list | bytes] = {}
        self._ranges: dict[int, tuple[list, list]] = {}

    # --- ids

    def intern(self, key) -> int:
        """The id of a key: a literal's label (``p`` or ``!p``), or an
        operator node's label and its children's ids, as a tuple."""
        vid = self.ids.get(key)
        if vid is None:
            vid = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return vid

    def formula_id(self, f: Formula) -> int:
        """The id of a formula, its subformulas interned bottom-up; a negated
        atom is a literal."""
        op = op_of(f)
        if op.arity == 0:
            return self.intern(f.name)
        if op is NOT and isinstance(f.child, Atom):
            return self.intern(NEGATION + f.child.name)
        return self.intern((op.label, *map(self.formula_id, children(f))))

    def decode(self, vid: int) -> Formula:
        """The formula of an id."""
        out = self._formulas.get(vid)
        if out is None:
            key = self.keys[vid]
            if isinstance(key, str):
                out = decode_label(key)
            else:
                out = OPS[key[0]].cls(*[self.decode(k) for k in key[1:]])
            self._formulas[vid] = out
        return out

    # --- vectors

    def literal(self, label: str, kind: str | None = None) -> list | bytes:
        """A literal label's vector over the sample under `kind`,
        ``params.kind`` by default."""
        kind = kind or self.params.kind
        out = self._literals.get((label, kind))
        if out is None:
            # a negated atom from the atom's
            if label.startswith(NEGATION):
                out = getattr(NOT, kind)(self.params, self.literal(label[1:], kind))
            else:
                out = getattr(LITERAL, kind)(self.params, label, self.states)
            if kind == QUALITATIVE:
                out = bytes(out)
            self._literals[label, kind] = out
        return out

    def open_range(self, height: int) -> tuple[list, list]:
        """(lows, highs) over the sample of an unresolved hole of the given
        height: the values any formula that fits there can take."""
        out = self._ranges.get(height)
        if out is None:
            lengths = [end - start for start, end in self.segments]
            # entry j of each list is the range over a suffix of longest - j states
            longest = max(lengths, default=0)
            ranges = [value_range(height, n, self.params) for n in range(longest, 0, -1)]
            low_by, high_by = [lo for lo, _ in ranges], [hi for _, hi in ranges]
            lows, highs = [], []
            for n in lengths:
                lows += low_by[longest - n:]
                highs += high_by[longest - n:]
            out = self._ranges[height] = (lows, highs)
        return out

    def vector(self, vid: int, kind: str | None = None):
        """An id's per-position vector over the sample under `kind`:
        ``params.kind`` (the default) or ``"qualitative"``. Each subformula's
        is computed once, by its operator's kernel over its children's."""
        kind = kind or self.params.kind
        qualitative = kind == QUALITATIVE
        memo = self._truths if qualitative else self.values
        out = memo.get(vid)
        if out is None:
            key = self.keys[vid]
            if isinstance(key, str):
                return self.literal(key, kind)
            kids = [self.vector(k, kind) for k in key[1:]]
            out = getattr(OPS[key[0]], kind)(self.params, *kids, segments=self.segments)
            memo[vid] = bytes(out) if qualitative else array("d", out)
        return out


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
