"""Filling template holes to maximize sample fitness.

The optimizer is a native branch-and-bound over hole labels: given a complete
filling, every node score is determined by the semantics recursion, so the
problem is purely discrete. A partial assignment is pruned when an admissible
upper bound on the mean fitness of its completions falls strictly below the
incumbent (strict, so equal-fitness optima survive for the deterministic
tie-break: fewer nodes, then canonical text).

Enumeration. Each template is compiled once (:class:`_View`) into its holes in
index (breadth-first) order and, per hole and per label of its parent, the
labels the hole may take: operators before literals, in the order of
:meth:`janaka.templates.Template.labels_for`, or only "unused" (None) where
the parent's arity does not reach the hole. Labels that would leave a fixed
slot below them unreached are dropped when compiling, so no branch dies
later. One explicit stack walks the hole decisions (:func:`_assignments`);
fixed slots take no step.

Branching is best bound first, per hole. When the search reaches a hole that
is not the last one and has more to offer than "unused", it sets each offered
label in turn, reads the closed-subtree verdict (below) and then the bound,
and descends into the labels that survive by descending bound; equal bounds
keep their offer order, so the order is deterministic. Bounds are computed
before the first incumbent exists too. A label's bound is stored with it,
and when the search reaches the label it compares that bound with the
incumbent as it then stands: strictly below, the branch is pruned with no
new bound call. The last hole's labels are taken in offer order, since every
leaf there is scored anyway. The order cannot change the result of an
exhausted search: the incumbent order is total (higher fitness first, then
the tie-break key) and every prune is admissible and strict, so the chosen
formula, its fitness and its per-trace scores are the same in any order;
only which leaves are scored (``explored``) and the counts of
:class:`SearchStats` depend on it. :func:`enumerate_fillings` passes no
bound and gets the offer order.

Triviality. A filling is rejected exactly when :func:`triviality_filter`
rejects its formula, but the search never walks a leaf to decide it:

* GG and FF are cut when the label is chosen. A hole under a slot labelled
  G (F) is never offered G (F), nor is a hole whose fixed left child is G (F);
  a fixed G (F) over a fixed G (F) leaves the template nothing to enumerate.
* Identical children, ``x & !x`` / ``x | !x``, and G or F over a
  propositional tautology are closed-subtree rules (:data:`RULES`). Every
  slot's table entry carries the verdict of its subtree: an id interned per
  table, keyed by the literal's label or by the operator's label and its
  children's ids, so equal ids are equal formulas. Each id is judged once,
  when it is interned: identical children are equal ids, ``x & !x`` compares
  two literal labels, and the tautology test of a G or F child is cached per
  id. The rule that fired (or None) is kept per id, and a formula is decoded
  from its id only where one is needed: the incumbent's tie-break key,
  :meth:`_SlotTable.formula` and :func:`enumerate_fillings`. A trivial
  verdict makes every subtree above it trivial, so a branch is cut as soon as
  the last hole below some slot is chosen and that slot's verdict is trivial
  (``_View.closing`` names the slot per hole); a leaf whose root verdict is
  trivial is rejected unscored. Both are counted per rule in
  :class:`SearchStats`.

The bound propagates per-position value intervals through the template, one
endpoint at a time: the root's high is asked for, and each slot computes an
endpoint from the children's endpoints that its operator's endpoint kernel
reads (:meth:`janaka.ops.Op.endpoint`), so a low is computed only below the
left side of an implication, and robust U never bounds its left child.
Unresolved holes contribute the full value range of any formula fitting
their remaining depth (:func:`janaka.semantics.value_range`). A slot whose
subtree has no unresolved hole is a point: its low and its high are its
value vector, the one leaf scoring computes (and shares by id), and no
endpoint kernel runs for it. That is admissible because every endpoint row
holds for any child interval that contains the child's values, and
``[v, v]`` contains ``v``; it is tighter than the interval rows wherever a
decided subtree holds a robust ``|``, ``->``, F or U, whose rows widen a
point (``|``'s high is beta times the max of the highs where its value is
beta times their mean), and equal to them bit for bit elsewhere, under
discounted semantics always. So each bound is at most the interval rows'
and at least the fitness of each completion, and the bound of a complete
filling is its fitness.

A search keeps one per-slot table (:class:`_SlotTable`) for its template,
sample and semantics parameters. For every slot it holds flat entries over
the whole sample, in the layout the :class:`~janaka.traces.Sample` holds (the
traces' positions concatenated, with each trace's segment): the low and the
high of the bound, each kept on its own, and the value vector of leaf
scoring, each made by one kernel call for all traces, and the slot's
interned id. The enumeration pushes every label a hole takes, and the "?" it
returns to on backtracking, to the table (:meth:`_SlotTable.set`); a label
that differs from the hole's last one drops the entries of that hole and of
every ancestor (``i, i >> 1, ..., 1``), so exactly the entries whose subtree
changed are recomputed, when they are next read. A slot whose parent's
operator flips keeps its entries: the endpoint it holds is served and only
a missing one is computed. Value vectors are also kept per id: equal ids
are equal formulas, so a non-root slot whose id already has a vector takes
it and calls no kernel (the root's ids rarely repeat and are not kept).
Fixed subtrees, literal vectors and the value ranges of open holes are
computed once per table.

The table is a compiled recompute plan: a slot labelled with an operator
holds that label's :class:`_Row`, compiled the first time the slot takes the
label, with its children's slots and, per entry, the kernel and the
children's entries it reads. Recomputing an entry or an id takes each
child's where it lies and recurses only into a child without one. The bound
and the leaf score read the root at the trace starts only, with
:func:`janaka.traces.start_mean`, as :func:`janaka.semantics.sample_fitness`
does, so leaf scores equal it bit for bit; a root labelled ``&``, ``|`` or
``->``, whose kernels read each position alone, computes its entries at the
trace starts only.

What a search did is counted in :class:`SearchStats`.
"""

from __future__ import annotations

import itertools
import logging
import time
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter, sub
from typing import NamedTuple

from .errors import (
    NoTemplatesError,
    UnknownAtomError,
    UnsupportedNegationError,
)
from .formulas import (
    TRUE_ATOM,
    And,
    Finally,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    PropositionSet,
    Until,
    atoms_of,
    children,
    decode_label,
    eval_qualitative,  # noqa: F401  (kept for perfbench's span tracer, which wraps it here)
    format_formula,
    node_count,
    satisfaction_vector,
)
from .ops import (
    AND,
    BINARY_OPS,
    FINALLY,
    GLOBALLY,
    IMPLIES,
    NEGATION,
    NEXT,
    OPS,
    OR,
    UNARY_OPS,
    UNTIL,
    Op,
    arity,
    evaluate,
    literal_values,
)
from .semantics import (
    SemanticsParams,
    sample_fitness,  # noqa: F401  (as eval_qualitative above)
    value_range,
)
from .templates import Fixed, Hole, Template
from .traces import Sample, start_mean

log = logging.getLogger("janaka.repair")

_STACKING = (GLOBALLY, FINALLY)  # directly nested, these are degenerate
_TEMPORAL = (NEXT, FINALLY, GLOBALLY, UNTIL)
_ELEMENTWISE = (AND, OR, IMPLIES)  # their kernels read each position alone

# why a search stopped
EXHAUSTED, TIME, NODES = "exhausted", "time", "nodes"

# the closed-subtree triviality rules: identical children of a binary node,
# x & !x or x | !x, and G or F over a propositional tautology
IDENTICAL, COMPLEMENT, TAUTOLOGY = "identical", "complement", "tautology"
RULES = (IDENTICAL, COMPLEMENT, TAUTOLOGY)


def _per_rule() -> dict[str, int]:
    return dict.fromkeys(RULES, 0)


@dataclass(frozen=True)
class Filling:
    """Label choice for every hole slot (None = unused) plus the decoded formula."""

    assignment: tuple[tuple[int, str | None], ...]
    formula: Formula


@dataclass(frozen=True)
class SearchBudget:
    time_limit: float = 60.0
    node_limit: int = 1_000_000

    def __post_init__(self):
        if self.time_limit <= 0 or self.node_limit <= 0:
            raise ValueError("budget fields must be positive")


@dataclass
class TemplateStats:
    """One template's share of a search's counts (:class:`SearchStats`):
    its index in the list searched and why its search stopped."""

    index: int
    leaves: int = 0
    scored: int = 0
    bound_calls: int = 0
    prunes: int = 0
    cut_closed: int = 0
    stop: str = EXHAUSTED


_PER_TEMPLATE = attrgetter("leaves", "scored", "bound_calls", "prunes", "cut_closed")


@dataclass
class SearchStats:
    """What one repair call's search did, summed over its templates.

    ``slot_recomputed`` counts the slot table's kernel calls: each endpoint
    of the bound (a slot's low or its high) of a slot with an unresolved hole
    below it, and each value vector computed by an operator's kernel. A
    decided slot's endpoints are its value vector (module docstring), so
    bounding it counts as computing its value, once for both endpoints.
    ``slot_hits`` counts the endpoints and value vectors served as a slot
    still held them, and ``value_shared`` the value vectors served by their
    subtree's id from the memo, with no kernel call.
    ``cut_by_rule`` and ``rejected_by_rule`` split ``cut_closed`` and
    ``rejected_trivial`` by the triviality rule that fired (:data:`RULES`).

    ``bound_calls`` counts the bounds that rank a hole's labels (module
    docstring, "Branching"): one per label offered at every hole but the
    last, that the closed-subtree cut keeps. ``prunes`` counts the ranked
    labels abandoned when reached, their stored bound strictly below the
    incumbent; each was one bound call, so ``prunes <= bound_calls``. The
    order of the ranking changes these counts, never the answer.
    ``incumbents`` lists ``(t, template index, scored, fitness)`` for each
    change of the incumbent: the seconds since the search began, the
    template's index in the list searched, the leaves scored so far and the
    new incumbent's fitness (a change at equal fitness is a smaller
    tie-break key).

    ``templates`` lists one :class:`TemplateStats` per template searched, in
    search order: its leaves, scored leaves, bound calls, prunes and closed
    cuts, which sum over the entries to the totals above, and why its search
    stopped (the last entry's ``stop`` is the search's). It holds counts
    only, no times."""

    leaves: int = 0  # complete fillings reached
    cut_trivial: int = 0  # G/F labels withheld by the GG/FF cut
    cut_closed: int = 0  # branches abandoned when a closed subtree's verdict is trivial
    rejected_trivial: int = 0  # leaves whose verdict is trivial
    scored: int = 0  # leaves scored; equals RepairOutcome.explored
    bound_calls: int = 0
    prunes: int = 0  # ranked labels abandoned on their stored bound
    slot_recomputed: int = 0  # kernel calls of the slot tables
    slot_hits: int = 0  # slot-table entries served as held
    value_shared: int = 0  # value vectors served by id, no kernel call
    stop: str = EXHAUSTED  # exhausted | time | nodes
    cut_by_rule: dict[str, int] = field(default_factory=_per_rule)
    rejected_by_rule: dict[str, int] = field(default_factory=_per_rule)
    incumbents: list[tuple[float, int, int, float]] = field(default_factory=list)
    templates: list[TemplateStats] = field(default_factory=list)


@dataclass
class RepairOutcome:
    best: Filling | None
    fitness: float
    total: float
    per_trace: list[tuple[float, bool]]
    explored: int
    elapsed: float
    threshold_met: bool
    budget_expired: bool = False
    strategy: str | None = None
    stats: SearchStats = field(default_factory=SearchStats)


class _View:
    """A template compiled for the enumeration (module docstring).

    ``steps`` holds, per hole in index order, ``(slot, parent, offer,
    unused)``. When the parent slot is a hole, ``offer`` maps its label to
    the hole's ``(labels, cut)`` pair and ``unused`` is the pair for any
    other label; when it is fixed or absent, ``parent`` is 0 and ``offer``
    is the one pair. A pair's count is the number of labels the GG/FF cut
    withholds there; with ``cut=False`` nothing is withheld, so that every
    structurally valid filling is enumerated.

    ``closing`` holds, per step, the topmost slot whose subtree's last hole
    that step decides, or 0 where that is no slot, a lone slot (a literal's
    verdict is never trivial) or the root (the leaf's verdict reads it). The
    search reads that slot's verdict whenever the step takes a label."""

    def __init__(self, template: Template, props: PropositionSet, cut: bool = True):
        self.template = template
        self.m = m = template.slot_map
        # a fixed slot without a parent is never reached; a fixed G (F) over
        # a fixed G (F) makes every filling trivial
        self.dead = any(
            isinstance(slot, Fixed) and (
                i > 1 and i >> 1 not in m
                or cut and slot.label in _STACKING and m.get(2 * i) == slot
            )
            for i, slot in template.slots
        )
        step_of = {i: h for h, i in enumerate(template.hole_indices)}
        fixed_below: dict[int, bool] = {}
        last_step: dict[int, int] = {}  # the step of the last hole in each subtree
        for i in sorted(m, reverse=True):
            fixed_below[i] = (isinstance(m[i], Fixed) or fixed_below.get(2 * i, False)
                              or fixed_below.get(2 * i + 1, False))
            last_step[i] = max(step_of.get(i, -1), last_step.get(2 * i, -1),
                               last_step.get(2 * i + 1, -1))
        self.closing = []
        for h, i in enumerate(template.hole_indices):
            if last_step[i] != h:  # a hole below it comes later
                self.closing.append(0)
                continue
            while i > 1 and last_step.get(i >> 1) == h:
                i >>= 1
            self.closing.append(i if i > 1 and 2 * i in m else 0)
        self.steps = []
        for i in template.hole_indices:
            # a label must reach every child that has a fixed slot below it
            own = [
                lbl for lbl in template.labels_for(i, props)
                if (arity(lbl) >= 1 or not fixed_below.get(2 * i, False))
                and (arity(lbl) == 2 or not fixed_below.get(2 * i + 1, False))
            ]
            withheld = 0
            below = m.get(2 * i)
            if cut and isinstance(below, Fixed) and below.label in _STACKING and below.label in own:
                own.remove(below.label)
                withheld = 1
            unused = ((), 0) if fixed_below[i] else ((None,), 0)

            def offer(parent_label):
                # the root is always reached, a left child by any operator,
                # a right child by a binary one
                if i > 1 and arity(parent_label) < (2 if i % 2 else 1):
                    return unused
                if cut and i % 2 == 0 and parent_label in _STACKING and parent_label in own:
                    return tuple(x for x in own if x != parent_label), withheld + 1
                return tuple(own), withheld

            parent = m.get(i >> 1)
            if isinstance(parent, Hole):
                by_label = {lbl: offer(lbl) for lbl in BINARY_OPS + UNARY_OPS}
                self.steps.append((i, i >> 1, by_label, unused))
            else:
                self.steps.append((i, 0, offer(getattr(parent, "label", None)), unused))


LOW, HIGH, VALUE = 0, 1, 2  # a slot's entries: the bound's low and high, the value vector
_OPEN = -1  # the id of a subtree with an unresolved hole; interned ids are >= 0


class _Row(NamedTuple):
    """A slot's compiled recompute plan under one operator label: the
    operator, its children's slots, and per entry (:data:`LOW`, :data:`HIGH`,
    :data:`VALUE`) the kernel that computes it with the (child slot, entry)
    pairs it reads, the endpoints' from :meth:`janaka.ops.Op.endpoint`.
    ``at`` lists where the slot's entries hold the trace starts."""

    op: Op
    kids: tuple[int, ...]
    steps: tuple[tuple[Callable, tuple[tuple[int, int], ...]], ...]
    at: Sequence[int]


def _at_starts(kernel, starts):
    # an elementwise kernel over its arguments at the trace starts only;
    # itemgetter of a single index returns the item, not a 1-tuple
    pick = itemgetter(*starts) if len(starts) > 1 else lambda v: (v[starts[0]],)

    def run(p, *vectors, segments):
        return kernel(p, *map(pick, vectors))
    return run


class _SlotTable:
    """Per-slot bound endpoints, value vectors and verdict ids of one template
    over one sample under one set of parameters (module docstring). Holes get
    their labels through :meth:`set`, which drops the entries of the hole and
    of its ancestors; :meth:`bound`, :meth:`fitness` and :meth:`verdict` read
    the labels as they stand. Without a sample it decodes formulas and
    verdicts only.

    :meth:`_entry` and :meth:`_id` read an operator slot's :class:`_Row`;
    the root's under ``& | ->`` reads its children at the trace starts only.

    ``recomputed`` counts kernel calls: a slot's value vector or endpoint
    computed by its operator's kernel (leaves are read from the per-table
    literal and open-range caches). ``hits`` counts value vectors and
    endpoints served as the slot still held them, and ``shared`` the value
    vectors of non-root slots served by their id from the memo."""

    def __init__(self, template: Template, sample: Sample | None = None,
                 p: SemanticsParams | None = None):
        self.params = p
        if sample is not None:
            self.states, self.segments, self.starts = sample.states, sample.segments, sample.starts
        else:
            self.states = self.segments = self.starts = ()
        self.heights = template.heights
        self.holes = template.hole_indices
        size = max(template.slot_map, default=0) + 1
        # per slot index: an unresolved hole is "?", an unused one None, and
        # an operator label's row
        self.label: list = [None] * size
        self._rows: list = [None] * size
        self._compiled: list[dict] = [{} for _ in range(size)]  # per slot: label -> row
        for i, slot in template.slots:
            label = self.label[i] = slot.label if isinstance(slot, Fixed) else "?"
            self._rows[i] = self._compiled[i][label] = self._compile(i, label)
        # per hole, the slots whose subtree holds it: i, i >> 1, ..., 1
        self._paths = {i: tuple(i >> k for k in range(i.bit_length())) for i in self.holes}
        # per slot: the bound's low and high, the value vector and the id
        self._lows: list = [None] * size
        self._highs: list = [None] * size
        self._values: list = [None] * size
        self._entries = (self._lows, self._highs, self._values)  # by LOW, HIGH, VALUE
        self._vids: list = [None] * size
        self._memo: dict[int, array] = {}  # non-root value vectors by id
        self._literals: dict = {}
        self._ranges: dict = {}
        # interned ids: a literal's key is its label, an operator node's
        # (label, *child ids); per id its key, whether its formula has no
        # temporal operator, and the triviality rule that fired (or None)
        self._ids: dict = {}
        self._keys: list = []
        self._propositional: list[bool] = []
        self._rules: list[str | None] = []
        self._tautologies: dict[int, bool] = {}
        self._formulas: dict[int, Formula] = {}
        self.recomputed = self.hits = self.shared = 0

    def set(self, i: int, label: str | None) -> None:
        """Give hole i a label ("?" unresolved, None unused); a new label
        drops the entries of i and of every ancestor."""
        if self.label[i] == label:
            return
        self.label[i] = label
        try:
            self._rows[i] = self._compiled[i][label]
        except KeyError:
            self._rows[i] = self._compiled[i][label] = self._compile(i, label)
        lows, highs, values, vids = self._lows, self._highs, self._values, self._vids
        for j in self._paths[i]:
            lows[j] = highs[j] = values[j] = vids[j] = None

    def _compile(self, i: int, label: str | None) -> _Row | None:
        """Slot i's row under an operator label; None under any other."""
        op = OPS.get(label)
        if op is None:
            return None
        kids = tuple(2 * i + k for k in range(op.arity))
        p, at = self.params, self.starts
        if p is None:  # decoding only
            return _Row(op, kids, (), at)
        steps = [*(op.endpoint(p.kind, high) for high in (False, True)),
                 (getattr(op, p.kind), tuple((k, VALUE) for k in range(op.arity)))]
        if i == 1 and label in _ELEMENTWISE:
            # the root is read at the trace starts only
            steps = [(_at_starts(kernel, at), reads) for kernel, reads in steps]
            at = range(len(at))
        steps = [(kernel, tuple((2 * i + k, e) for k, e in reads)) for kernel, reads in steps]
        return _Row(op, kids, tuple(steps), at)

    def _entry(self, i, e: int):
        """Slot i's entry e (:data:`LOW`, :data:`HIGH` or :data:`VALUE`),
        from the children's entries its row reads; a non-root slot whose id
        has a value vector in the memo takes it, and calls no kernel."""
        entries = self._entries[e]
        out = entries[i]
        if out is not None:
            self.hits += 1
            return out
        row = self._rows[i]
        if row is None:
            label = self.label[i]
            if label != "?":
                out = self._literal(label)
            elif e == VALUE:
                raise ValueError(f"slot {i} is unassigned")
            else:
                out = self._open(self.heights[i])[e]
        elif e != VALUE and self._id(i) != _OPEN:
            # a decided subtree is a point: its low and high are its values
            out = self._entry(i, VALUE)
        elif e == VALUE and i > 1 and (out := self._memo.get(self._id(i))) is not None:
            self.shared += 1
        else:
            self.recomputed += 1
            kernel, reads = row.steps[e]
            args = []
            for j, k in reads:
                got = self._entries[k][j]
                if got is None:
                    got = self._entry(j, k)
                else:
                    self.hits += 1
                args.append(got)
            out = kernel(self.params, *args, segments=self.segments)
            if e == VALUE and i > 1:
                self._memo[self._vids[i]] = array("d", out)
        entries[i] = out
        return out

    def _literal(self, label: str):
        out = self._literals.get(label)
        if out is None:
            out = self._literals[label] = literal_values(label, self.states, self.params)
        return out

    def _open(self, height: int):
        # (lows, highs) of an unresolved hole of the given height
        out = self._ranges.get(height)
        if out is None:
            p = self.params
            ranges = [value_range(height, end - t, p)
                      for start, end in self.segments for t in range(start, end)]
            out = self._ranges[height] = ([lo for lo, _ in ranges], [hi for _, hi in ranges])
        return out

    def _id(self, i) -> int:
        """Slot i's interned id, or :data:`_OPEN` where a hole below it is
        unresolved; kept until :meth:`set` drops it."""
        vids = self._vids
        vid = vids[i]
        if vid is not None:
            return vid
        row = self._rows[i]
        if row is None:
            label = self.label[i]
            if label == "?":
                vid = _OPEN
            else:
                vid = self._ids.get(label)
                if vid is None:
                    vid = self._intern(label, True, None)
        else:
            # loops here, not comprehensions: before CPython 3.12 each
            # comprehension is a call of its own
            key = [row.op.label]
            for j in row.kids:
                k = vids[j]
                if k is None:
                    k = self._id(j)
                if k == _OPEN:
                    vid = _OPEN
                    break
                key.append(k)
            else:
                key = tuple(key)
                vid = self._ids.get(key)
                if vid is None:
                    vid = self._judge(row.op, key)
        vids[i] = vid
        return vid

    def _intern(self, key, propositional: bool, rule: str | None) -> int:
        vid = self._ids[key] = len(self._keys)
        self._keys.append(key)
        self._propositional.append(propositional)
        self._rules.append(rule)
        return vid

    def _judge(self, op, key) -> int:
        """Interns a new operator node's key, (label, *child ids), judged by
        the closed-subtree rules of :func:`triviality_filter`; GG and FF are
        the enumeration's cut."""
        kids = key[1:]
        props, rules = self._propositional, self._rules
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
            elif op.label in _STACKING and props[kids[0]] and self._tautology(kids[0]):
                rule = TAUTOLOGY
        return self._intern(key, propositional, rule)

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

    def bound(self) -> float:
        """Mean over the traces of the root's high at each trace start."""
        return self._mean(self._entry(1, HIGH))

    def fitness(self) -> float:
        """sample_fitness of the formula of the labels as they stand, every
        hole of which must be decided."""
        return self._mean(self._entry(1, VALUE))

    def _mean(self, entry) -> float:
        # the root's entry where it holds the trace starts
        row = self._rows[1]
        return start_mean(entry, self.starts if row is None else row.at)

    def verdict(self, i: int = 1) -> int:
        """The interned id of slot i's subtree, every hole of which must be
        decided (ValueError otherwise; the root's: the whole formula). Equal
        ids are equal formulas; :meth:`rule` and :meth:`decode` read an id."""
        vid = self._id(i)
        if vid == _OPEN:
            raise ValueError(f"slot {i} has an unassigned hole below it")
        return vid

    def rule(self, vid: int) -> str | None:
        """The closed-subtree rule that makes the id's formula trivial, or
        None; GG and FF nesting are not judged here (the enumeration cuts
        them)."""
        return self._rules[vid]

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

    def formula(self) -> Formula:
        """The formula of the labels as they stand, every hole decided."""
        return self.decode(self.verdict())


def _offered(step, assignment, stats):
    """The labels of a hole, given its parent's label."""
    _, parent, offer, unused = step
    labels, cut = offer.get(assignment[parent], unused) if parent else offer
    if cut and stats is not None:
        stats.cut_trivial += cut
    return labels


_DONE = object()
_UNBOUNDED = float("inf")


def _assignments(view: _View, table: _SlotTable, bound=None,
                 stats: SearchStats | None = None):
    """Yield complete hole assignments in enumeration order (module
    docstring), None marking an unused hole. The same dict is yielded every
    time, updated in place: read it before resuming. Every label a hole
    takes, and its "?" on backtracking, is pushed to the table
    (:meth:`_SlotTable.set`), so the table holds the yielded assignment.

    ``bound(h, held=None)`` is the search's one callback. Called as
    ``bound(h)`` right after the h-th hole (in index order) takes a label,
    it returns None to abandon that branch, else an upper bound on its
    leaves. Every step but the last, and but one whose only label is
    "unused", is ranked when it is reached: each label is set and bounded
    in turn, and those kept are taken by descending bound, ties in offer
    order. When a ranked label is taken, ``bound(h, held)`` is called with
    the bound it was ranked by and returns None to abandon the branch. The
    last step takes its labels in offer order, each checked by
    ``bound(h)``. Without ``bound`` every step takes its labels in offer
    order. The labels the GG/FF cut withholds are counted in
    ``stats.cut_trivial``.
    """
    if view.dead:
        return
    steps = view.steps
    assignment: dict = {}
    if not steps:
        yield assignment
        return
    last = len(steps) - 1
    set_label = table.set

    def branches(h):
        # step h's (bound, label) pairs, ranked or in offer order
        labels = _offered(steps[h], assignment, stats)
        if bound is None or h == last or labels == (None,):
            return ((None, label) for label in labels)
        slot, kept = steps[h][0], []
        for label in labels:
            set_label(slot, label)
            b = bound(h)
            if b is not None:
                kept.append((b, label))
        kept.sort(key=itemgetter(0), reverse=True)  # stable: ties keep offer order
        return iter(kept)

    stack = [branches(0)]  # per decided hole, its (bound, label) pairs left
    while stack:
        h = len(stack) - 1
        slot = steps[h][0]
        held, label = next(stack[h], (None, _DONE))
        if label is _DONE:
            assignment.pop(slot, None)
            set_label(slot, "?")
            stack.pop()
            continue
        assignment[slot] = label
        set_label(slot, label)
        if label is not None and bound is not None and bound(h, held) is None:
            continue
        if h < last:
            stack.append(branches(h + 1))
        else:
            yield assignment


def enumerate_fillings(template: Template, props: PropositionSet):
    """All structurally valid fillings, trivial ones included, operators
    before literals, both in declared order; a hole-free template yields
    exactly its source formula."""
    view = _View(template, props, cut=False)
    table = _SlotTable(template)
    for assignment in _assignments(view, table):
        holes = tuple((i, assignment[i]) for i in sorted(assignment))
        yield Filling(holes, table.formula())


# --- triviality filter ----------------------------------------------------------


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


def _degenerate(f: Formula) -> tuple[bool, bool]:
    """(f has a degenerate node, f has no temporal operator), bottom-up."""
    kids = [_degenerate(c) for c in children(f)]
    propositional = not isinstance(f, (Next, Finally, Globally, Until)) and all(
        prop for _, prop in kids
    )
    bad = (
        any(b for b, _ in kids)
        or isinstance(f, (And, Or, Implies, Until)) and f.left == f.right
        or isinstance(f, (And, Or)) and (f.right == Not(f.left) or f.left == Not(f.right))
        or isinstance(f, Finally) and isinstance(f.child, Finally)
        or isinstance(f, Globally) and isinstance(f.child, Globally)
        or isinstance(f, (Finally, Globally)) and kids[0][1] and _tautology(f.child)
    )
    return bad, propositional


def triviality_filter(f: Formula) -> bool:
    """True (reject) for degenerate synthesized formulas: a binary node with
    syntactically identical children, x|!x or x&!x, directly nested FF or GG
    (XX stays, it is not idempotent), and G/F applied to a propositional
    tautology.

    This is the reference definition: the search's choice-time GG/FF cut and
    its per-slot verdicts must reject exactly the fillings this rejects, and
    the tests hold them to it. The search never calls it; it stays public
    for the benchmark's brute-force optimum and for the tests."""
    return _degenerate(f)[0]


# --- admissible interval bound ---------------------------------------------------


def bound_mean_fitness(table: _SlotTable) -> float:
    """Admissible upper bound on the mean fitness of any completion of the
    table's holes as they stand (each trace maximized independently)."""
    return table.bound()


# --- the search -------------------------------------------------------------------


def _validate_templates(templates, props):
    for t in templates:
        for _, slot in t.slots:
            labels = ()
            if isinstance(slot, Fixed):
                if slot.label == NEGATION:
                    # the slot tables evaluate the tree as given, never its NNF
                    raise UnsupportedNegationError("templates carry literal negation only")
                labels = (slot.label,)
            elif slot.allowed:
                labels = slot.allowed
            for lbl in labels:
                if lbl in OPS:
                    continue
                name = lbl[1:] if lbl.startswith("!") else lbl
                if name != TRUE_ATOM and name not in props:
                    raise UnknownAtomError(name, list(props))


def _scores(f: Formula, sample: Sample, params: SemanticsParams):
    """(fitness, per-trace values, per-trace satisfaction) of an NNF formula:
    one walk per semantics over the sample's layout, read at the trace
    starts, the fitness as :func:`janaka.semantics.sample_fitness` reads it."""
    vals = evaluate(f, sample.states, params.kind, params, sample.segments)
    sats = evaluate(f, sample.states, "qualitative", None, sample.segments)
    starts = sample.starts
    return start_mean(vals, starts), [vals[k] for k in starts], [sats[k] for k in starts]


class _Stop(Exception):
    """A budget ended the search; args[0] is the stop reason."""


def repair(
    sample: Sample,
    templates: list[Template],
    params: SemanticsParams,
    kappa: float,
    budget: SearchBudget = SearchBudget(),
) -> RepairOutcome:
    """Branch-and-bound over every template's fillings; returns the best
    non-trivial formula found within budget and whether its mean fitness
    reaches kappa. On budget expiry the incumbent so far is returned with
    budget_expired set (never worse than any earlier incumbent)."""
    if not templates:
        raise NoTemplatesError("repair needs at least one template")
    _validate_templates(templates, sample.props)

    deadline = time.monotonic() + budget.time_limit
    start = time.monotonic()
    best: Filling | None = None
    best_fit = float("-inf")
    best_key = None
    stats = SearchStats()

    for index, template in enumerate(templates):
        before = _PER_TEMPLATE(stats)
        view = _View(template, sample.props)
        table = _SlotTable(template, sample, params)
        last = len(view.steps) - 1
        closing = view.closing

        def bound(h, held=None):
            if held is not None:
                # a ranked label is taken: its bound against the incumbent
                # as it now stands
                if held < best_fit:
                    stats.prunes += 1
                    return None
                return held
            if time.monotonic() > deadline:
                raise _Stop(TIME)
            # a trivial subtree makes every leaf below the branch trivial
            closed = closing[h]
            if closed:
                rule = table.rule(table.verdict(closed))
                if rule is not None:
                    stats.cut_closed += 1
                    stats.cut_by_rule[rule] += 1
                    return None
            if h == last:  # every leaf is scored: no bound
                return _UNBOUNDED
            stats.bound_calls += 1
            return bound_mean_fitness(table)

        try:
            for assignment in _assignments(view, table, bound, stats):
                if time.monotonic() > deadline:
                    raise _Stop(TIME)
                if stats.scored >= budget.node_limit:
                    raise _Stop(NODES)
                stats.leaves += 1
                vid = table.verdict()
                rule = table.rule(vid)
                if rule is not None:
                    stats.rejected_trivial += 1
                    stats.rejected_by_rule[rule] += 1
                    continue
                stats.scored += 1
                fit = table.fitness()
                if not (fit > best_fit or (fit == best_fit and best is not None)):
                    continue
                # the formula and its tie-break key only for leaves that can
                # become the incumbent
                formula = table.decode(vid)
                key = (node_count(formula), format_formula(formula))
                if fit > best_fit or key < best_key:
                    holes = tuple((i, assignment[i]) for i in sorted(assignment))
                    best = Filling(holes, formula)
                    best_fit = fit
                    best_key = key
                    stats.incumbents.append(
                        (time.monotonic() - start, index, stats.scored, fit))
                    log.debug(
                        "incumbent fitness=%.9f explored=%d prunes=%d formula=%s",
                        fit, stats.scored, stats.prunes, format_formula(formula),
                    )
        except _Stop as stop:
            stats.stop = stop.args[0]
        stats.slot_recomputed += table.recomputed
        stats.slot_hits += table.hits
        stats.value_shared += table.shared
        stats.templates.append(
            TemplateStats(index, *map(sub, _PER_TEMPLATE(stats), before), stats.stop))
        if stats.stop != EXHAUSTED:
            break

    elapsed = time.monotonic() - start
    explored, expired = stats.scored, stats.stop != EXHAUSTED
    if best is None:
        log.info("repair found no admissible filling (%s)", stats)
        return RepairOutcome(
            None, float("-inf"), float("-inf"), [], explored, elapsed, False, expired,
            stats=stats,
        )
    fitness, scores, sats = _scores(best.formula, sample, params)
    log.info(
        "repair done: fitness=%.9f total=%.9f elapsed=%.3fs %s",
        fitness, sum(scores), elapsed, stats,
    )
    return RepairOutcome(
        best=best,
        fitness=fitness,
        total=sum(scores),
        per_trace=list(zip(scores, sats)),
        explored=explored,
        elapsed=elapsed,
        threshold_met=fitness >= kappa,
        budget_expired=expired,
        stats=stats,
    )
