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

An :class:`EvalStore` holds one run's evaluations over one sample under one
set of parameters, so that each is computed once however many stages ask for
it: the ranking of the candidates, their satisfaction rows, every template's
search and the final scores. It interns each distinct subformula once, as a
hash-consed id (Filliâtre and Conchon, ML Workshop 2006): a literal's key is
its label, an operator node's its label and its children's ids, so equal ids
are equal formulas. Each id's vector over the whole sample is computed once
and read by every formula that holds it, as Scarlet (Raha, Roy, Fijalkow and
Neider, TACAS 2022) combines stored subformula vectors. A store lives as
long as the run that made it; nothing is kept on the Sample, in the module or
from one run to the next.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyTraceError, NotInNNFError
from .formulas import (
    TRUE_ATOM,
    Atom,
    Formula,
    _states_of,
    atoms_of,
    children,
    decode_label,
    eval_qualitative,  # noqa: F401  (kept for perfbench's span tracer, which wraps it here)
    format_formula,
    is_nnf,
    node_count,
    satisfaction_vector,
    to_nnf,
)
from .ops import (
    AND,
    DISCOUNTED,
    FINALLY,
    GLOBALLY,
    NEGATION,
    NEXT,
    NOT,
    OPS,
    OR,
    ROBUST,
    UNTIL,
    LITERAL,
    Op,
    evaluate,
    op_of,
)
from .traces import Sample, Trace, start_mean

QUALITATIVE = "qualitative"
STACKING = (GLOBALLY, FINALLY)  # directly nested, these are degenerate
_TEMPORAL = (NEXT, FINALLY, GLOBALLY, UNTIL)

# the closed-subtree triviality rules: identical children of a binary node,
# x & !x or x | !x, and G or F over a propositional tautology
IDENTICAL, COMPLEMENT, TAUTOLOGY = "identical", "complement", "tautology"
RULES = (IDENTICAL, COMPLEMENT, TAUTOLOGY)


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


def _tautology(f: Formula) -> bool:
    """Whether a formula without temporal operators holds under every truth
    assignment of its atoms; one with more than ten atoms counts as not."""
    atoms = sorted(atoms_of(f) - {TRUE_ATOM})
    if len(atoms) > 10:
        return False
    # one state per truth assignment; f has no temporal operator, so its
    # truth at each position is its truth under that assignment
    states = [
        frozenset(a for a, bit in zip(atoms, bits) if bit)
        for bits in itertools.product((False, True), repeat=len(atoms))
    ]
    return all(satisfaction_vector(f, states))


class EvalStore:
    """One run's evaluations over one sample under one set of parameters
    (module docstring), each computed once.

    Ids. :meth:`literal_id`, :meth:`node_id` (:meth:`judge` for a key not
    yet interned) and :meth:`formula_id` intern a subformula. Per id the
    store keeps its key, whether it has no temporal operator and the
    closed-subtree rule that makes it trivial, or None: identical children
    of a binary node, ``x & !x`` or ``x | !x``, and G or F over a
    propositional tautology, as :func:`janaka.repair.triviality_filter`
    judges them; GG and FF nesting are left to the repair enumeration, which
    never offers them. Each id is judged once, when it is interned, the
    tautology test of a G or F child cached per id. ``ids`` maps each key to
    its id and ``rules`` holds each id's rule; the repair slot tables read
    both directly. An id's formula (:meth:`decode`) and its tie-break key
    (:meth:`tie_key`) are made when first asked for, once.

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
        self._keys: list = []
        self._propositional: list[bool] = []
        self.rules: list[str | None] = []
        self._tautologies: dict[int, bool] = {}
        self._formulas: dict[int, Formula] = {}
        self._tie_keys: dict[int, tuple[int, str]] = {}
        self.values: dict[int, array] = {}
        self._truths: dict[int, bytes] = {}
        self._literals: dict[tuple[str, str], list | bytes] = {}
        self._ranges: dict[int, tuple[list, list]] = {}

    # --- ids

    def _intern(self, key, propositional: bool, rule: str | None) -> int:
        vid = self.ids[key] = len(self._keys)
        self._keys.append(key)
        self._propositional.append(propositional)
        self.rules.append(rule)
        return vid

    def literal_id(self, label: str) -> int:
        """The id of a literal label, ``p`` or ``!p``."""
        vid = self.ids.get(label)
        if vid is None:
            vid = self._intern(label, True, None)
        return vid

    def node_id(self, op: Op, key: tuple) -> int:
        """The id of an operator node's key, (label, *child ids)."""
        vid = self.ids.get(key)
        return self.judge(op, key) if vid is None else vid

    def judge(self, op: Op, key: tuple) -> int:
        """Interns an operator node's key that has no id yet, judged by the
        closed-subtree rules."""
        kids = key[1:]
        props, rules = self._propositional, self.rules
        propositional, rule = op.label not in _TEMPORAL, None
        for k in kids:
            propositional = propositional and props[k]
            rule = rule or rules[k]  # the first trivial child's
        if rule is None:
            if op.arity == 2:
                left, right = kids
                if left == right:
                    rule = IDENTICAL
                elif op.label in (AND, OR) and self._complementary(left, right):
                    rule = COMPLEMENT
            elif op.label in STACKING and props[kids[0]] and self._tautology(kids[0]):
                rule = TAUTOLOGY
        return self._intern(key, propositional, rule)

    def formula_id(self, f: Formula) -> int:
        """The id of a formula, its subformulas interned bottom-up; a negated
        atom is a literal."""
        op = op_of(f)
        if op.arity == 0:
            return self.literal_id(f.name)
        if op is NOT and isinstance(f.child, Atom):
            return self.literal_id(NEGATION + f.child.name)
        return self.node_id(op, (op.label, *map(self.formula_id, children(f))))

    def _complementary(self, a: int, b: int) -> bool:
        # x and !x are literals: only a literal's key is its label
        x, y = self._keys[a], self._keys[b]
        return isinstance(x, str) and isinstance(y, str) and (
            y == NEGATION + x or x == NEGATION + y)

    def _tautology(self, vid: int) -> bool:
        out = self._tautologies.get(vid)
        if out is None:
            out = self._tautologies[vid] = _tautology(self.decode(vid))
        return out

    def decode(self, vid: int) -> Formula:
        """The formula of an id."""
        out = self._formulas.get(vid)
        if out is None:
            key = self._keys[vid]
            if isinstance(key, str):
                out = decode_label(key)
            else:
                out = OPS[key[0]].cls(*[self.decode(k) for k in key[1:]])
            self._formulas[vid] = out
        return out

    def tie_key(self, vid: int) -> tuple[int, str]:
        """The repair incumbent's tie-break key of an id's formula: its node
        count, then its canonical text, made once per id."""
        out = self._tie_keys.get(vid)
        if out is None:
            f = self.decode(vid)
            out = self._tie_keys[vid] = (node_count(f), format_formula(f))
        return out

    # --- vectors

    def literal(self, label: str, kind: str | None = None) -> list | bytes:
        """A literal label's vector over the sample under `kind`,
        ``params.kind`` by default."""
        kind = kind or self.params.kind
        out = self._literals.get((label, kind))
        if out is None:
            # as janaka.ops.literal_values, a negated atom from the atom's
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
            key = self._keys[vid]
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
