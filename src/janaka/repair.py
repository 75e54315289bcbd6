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

Triviality. A filling is rejected exactly when :func:`triviality_filter`
rejects its formula, but the search never walks a leaf to decide it:

* GG and FF are cut when the label is chosen. A hole under a slot labelled
  G (F) is never offered G (F), nor is a hole whose fixed left child is G (F);
  a fixed G (F) over a fixed G (F) leaves the template nothing to enumerate.
* Identical children, ``x & !x`` / ``x | !x``, and G or F over a
  propositional tautology are closed-subtree rules. Every slot's table entry
  carries the verdict ``(formula, propositional, trivial)`` of its subtree,
  recomputed from its children's like the other entries below, and a leaf
  whose root verdict is trivial is rejected unscored.

The bound propagates per-position value intervals through the template:
fixed or assigned labels combine child intervals through their operator's
interval kernel (:meth:`janaka.ops.Op.interval`); unresolved holes contribute
the full value range of any formula fitting their remaining depth
(:func:`janaka.semantics.value_range`).

A search keeps one per-slot table (:class:`_SlotTable`) for its template,
sample and semantics parameters. For every slot it holds, per trace, the
interval vectors of the bound and the value vectors of leaf scoring, and the
slot's verdict. Each entry carries the slot's stamp at the time it was
computed. Whenever the label of a hole differs from the one the table last
saw, the stamps of that hole and of every ancestor (``i, i >> 1, ..., 1``)
go up, so exactly the entries whose subtree changed are recomputed, in
whatever order assignments arrive. Fixed subtrees, literal vectors and the
value ranges of open holes are computed once per table. Leaf scores use the
kernels, the per-trace summation and the division of
:func:`janaka.semantics.sample_fitness`, so they equal it bit for bit.

What a search did is counted in :class:`SearchStats`.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field

from .errors import (
    EmptySampleError,
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
    eval_qualitative,
    format_formula,
    node_count,
    satisfaction_vector,
)
from .ops import (
    AND,
    BINARY_OPS,
    FINALLY,
    GLOBALLY,
    NEGATION,
    NEXT,
    OPS,
    OR,
    UNARY_OPS,
    UNTIL,
    arity,
    literal_values,
)
from .semantics import SemanticsParams, sample_fitness, value_of, value_range
from .templates import Fixed, Hole, Template
from .traces import Sample

log = logging.getLogger("janaka.repair")

_STACKING = (GLOBALLY, FINALLY)  # directly nested, these are degenerate
_TEMPORAL = (NEXT, FINALLY, GLOBALLY, UNTIL)

# why a search stopped
EXHAUSTED, TIME, NODES = "exhausted", "time", "nodes"


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
class SearchStats:
    """What one repair call's search did, summed over its templates."""

    leaves: int = 0  # complete fillings reached
    cut_trivial: int = 0  # G/F labels withheld by the GG/FF cut
    rejected_trivial: int = 0  # leaves whose stamped verdict is trivial
    scored: int = 0  # leaves scored; equals RepairOutcome.explored
    bound_calls: int = 0
    prunes: int = 0  # bound calls that abandoned a branch
    stop: str = EXHAUSTED  # exhausted | time | nodes


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
    """A template compiled for the enumeration (module docstring), and the
    per-slot table of the sample and parameters last asked for.

    ``steps`` holds, per hole in index order, ``(slot, parent, offer,
    unused)``. When the parent slot is a hole, ``offer`` maps its label to
    the hole's ``(labels, cut)`` pair and ``unused`` is the pair for any
    other label; when it is fixed or absent, ``parent`` is 0 and ``offer``
    is the one pair. A pair's count is the number of labels the GG/FF cut
    withholds there; with ``cut=False`` nothing is withheld, so that every
    structurally valid filling is enumerated."""

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
        fixed_below: dict[int, bool] = {}
        for i in sorted(m, reverse=True):
            fixed_below[i] = (isinstance(m[i], Fixed) or fixed_below.get(2 * i, False)
                              or fixed_below.get(2 * i + 1, False))
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
        self._table: _SlotTable | None = None

    def table(self, sample: Sample, p: SemanticsParams) -> "_SlotTable":
        """The per-slot table of this sample and these parameters; a table
        built for another sample or parameters is replaced, never reused."""
        t = self._table
        if t is None or t.sample is not sample or t.params != p:
            t = self._table = _SlotTable(self.template, sample, p)
        return t


class _SlotTable:
    """Per-slot intervals, values and verdicts of one template over one
    sample under one set of parameters, recomputed only where a hole label
    below the slot changed (module docstring). Without a sample it decodes
    formulas and verdicts only."""

    def __init__(self, template: Template, sample: Sample | None = None,
                 p: SemanticsParams | None = None):
        self.sample, self.params = sample, p
        self.states = [trace.states for trace in sample.traces] if sample is not None else []
        self.heights = template.heights
        self.holes = template.hole_indices
        # an unresolved hole is "?", an unused one None
        self.label = {
            i: slot.label if isinstance(slot, Fixed) else "?"
            for i, slot in template.slots
        }
        self.stamp = dict.fromkeys(self.label, 0)
        self._bounds: dict = {}
        self._values: dict = {}
        self._verdicts: dict = {}
        self._literals: dict = {}
        self._ranges: dict = {}

    def _sync(self, assignment) -> None:
        label, stamp = self.label, self.stamp
        for i in self.holes:
            new = assignment.get(i, "?")
            if label[i] != new:
                label[i] = new
                while i:
                    stamp[i] += 1
                    i >>= 1

    def _entry(self, cache, leaf, combine, i):
        """Slot i's cached entry, recomputed from its children's when the
        stamp moved; unused slots are never reached."""
        stamp = self.stamp[i]
        hit = cache.get(i)
        if hit is not None and hit[0] == stamp:
            return hit[1]
        label = self.label[i]
        op = OPS.get(label)
        if op is None:
            out = leaf(label, i)
        else:
            out = combine(op, *[self._entry(cache, leaf, combine, 2 * i + k)
                                for k in range(op.arity)])
        cache[i] = (stamp, out)
        return out

    def _literal(self, label: str):
        out = self._literals.get(label)
        if out is None:
            p = self.params
            out = self._literals[label] = [literal_values(label, s, p) for s in self.states]
        return out

    def _open(self, height: int):
        # (lows, highs) per trace of an unresolved hole of the given height
        out = self._ranges.get(height)
        if out is None:
            p = self.params
            out = self._ranges[height] = []
            for states in self.states:
                n = len(states)
                ranges = [value_range(height, n - t, p) for t in range(n)]
                out.append(([lo for lo, _ in ranges], [hi for _, hi in ranges]))
        return out

    def _bound_leaf(self, label, i):
        if label == "?":
            return self._open(self.heights[i])
        return [(vals, vals) for vals in self._literal(label)]

    def _bound_combine(self, op, *kids):
        p = self.params
        return [op.interval(p, *per_trace) for per_trace in zip(*kids)]

    def _value_leaf(self, label, i):
        if label == "?":
            raise ValueError(f"slot {i} is unassigned")
        return self._literal(label)

    def _value_combine(self, op, *kids):
        p = self.params
        kernel = getattr(op, p.kind)
        return [kernel(p, *per_trace) for per_trace in zip(*kids)]

    @staticmethod
    def _verdict_leaf(label, i):
        if label == "?":
            raise ValueError(f"slot {i} is unassigned")
        return decode_label(label), True, False

    @staticmethod
    def _verdict_combine(op, *kids):
        """The closed-subtree rules of :func:`triviality_filter` at one node,
        given its children's verdicts; GG and FF are the enumeration's cut."""
        formula = op.cls(*[f for f, _, _ in kids])
        propositional = op.label not in _TEMPORAL and all(prop for _, prop, _ in kids)
        if any(trivial for _, _, trivial in kids):
            return formula, propositional, True
        if op.arity == 2:
            (left, _, _), (right, _, _) = kids
            trivial = left == right or op.label in (AND, OR) and (
                isinstance(right, Not) and right.child == left
                or isinstance(left, Not) and left.child == right
            )
        else:
            [(child, child_propositional, _)] = kids
            trivial = op.label in _STACKING and child_propositional and _tautology(child)
        return formula, propositional, trivial

    def bound(self, assignment) -> float:
        """Mean over the traces of the root's high at position 0."""
        self._sync(assignment)
        total = 0.0
        for _, highs in self._entry(self._bounds, self._bound_leaf, self._bound_combine, 1):
            total += highs[0]
        return total / len(self.states)

    def fitness(self, assignment) -> float:
        """sample_fitness of the complete assignment's formula."""
        self._sync(assignment)
        total = 0.0
        for vals in self._entry(self._values, self._value_leaf, self._value_combine, 1):
            total += vals[0]
        return total / len(self.states)

    def verdict(self, assignment) -> tuple[Formula, bool, bool]:
        """(formula, propositional, trivial) of a complete assignment; GG and
        FF nesting are not judged here (the enumeration cuts them)."""
        self._sync(assignment)
        return self._entry(self._verdicts, self._verdict_leaf, self._verdict_combine, 1)

    def formula(self, assignment) -> Formula:
        """The formula of a complete assignment."""
        return self.verdict(assignment)[0]


def _offered(step, assignment, stats):
    """An iterator over the labels of a hole, given its parent's label."""
    _, parent, offer, unused = step
    labels, cut = offer.get(assignment[parent], unused) if parent else offer
    if cut and stats is not None:
        stats.cut_trivial += cut
    return iter(labels)


_DONE = object()


def _assignments(view: _View, prune=None, stats: SearchStats | None = None):
    """Yield complete hole assignments in enumeration order (module
    docstring), None marking an unused hole. The same dict is yielded every
    time, updated in place: read it before resuming.

    ``prune(assignment, h)`` is consulted right after the h-th hole (in index
    order) gets a label; returning True abandons that branch. The labels the
    GG/FF cut withholds are counted in ``stats.cut_trivial``.
    """
    if view.dead:
        return
    steps = view.steps
    assignment: dict = {}
    if not steps:
        yield assignment
        return
    last = len(steps) - 1
    stack = [_offered(steps[0], assignment, stats)]  # per decided hole, its labels left
    while stack:
        h = len(stack) - 1
        slot = steps[h][0]
        label = next(stack[h], _DONE)
        if label is _DONE:
            assignment.pop(slot, None)
            stack.pop()
            continue
        assignment[slot] = label
        if label is not None and prune is not None and prune(assignment, h):
            continue
        if h < last:
            stack.append(_offered(steps[h + 1], assignment, stats))
        else:
            yield assignment


def enumerate_fillings(template: Template, props: PropositionSet):
    """All structurally valid fillings, trivial ones included, operators
    before literals, both in declared order; a hole-free template yields
    exactly its source formula."""
    view = _View(template, props, cut=False)
    table = _SlotTable(template)
    for assignment in _assignments(view):
        holes = tuple((i, assignment[i]) for i in sorted(assignment))
        yield Filling(holes, table.formula(assignment))


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
    its stamped verdicts must reject exactly the fillings this rejects, and
    the tests hold them to it. The search never calls it; it stays public
    for the benchmark's brute-force optimum and for the tests."""
    return _degenerate(f)[0]


# --- admissible interval bound ---------------------------------------------------


def bound_mean_fitness(view: _View, assignment, sample: Sample, p: SemanticsParams) -> float:
    """Admissible upper bound on the mean fitness of any completion of the
    partial assignment (each trace maximized independently)."""
    return view.table(sample, p).bound(assignment)


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
    traces = getattr(sample, "traces", sample)
    if not traces:
        raise EmptySampleError("repair needs a non-empty sample")
    _validate_templates(templates, sample.props)

    deadline = time.monotonic() + budget.time_limit
    start = time.monotonic()
    best: Filling | None = None
    best_fit = float("-inf")
    best_key = None
    stats = SearchStats()

    for template in templates:
        view = _View(template, sample.props)
        table = view.table(sample, params)
        last = len(view.steps) - 1

        def prune(assignment, h):
            if time.monotonic() > deadline:
                raise _Stop(TIME)
            if best is None or h == last:
                return False
            stats.bound_calls += 1
            if bound_mean_fitness(view, assignment, sample, params) < best_fit:
                stats.prunes += 1
                return True
            return False

        try:
            for assignment in _assignments(view, prune, stats):
                if time.monotonic() > deadline:
                    raise _Stop(TIME)
                if stats.scored >= budget.node_limit:
                    raise _Stop(NODES)
                stats.leaves += 1
                formula, _, trivial = table.verdict(assignment)
                if trivial:
                    stats.rejected_trivial += 1
                    continue
                stats.scored += 1
                fit = table.fitness(assignment)
                if not (fit > best_fit or (fit == best_fit and best is not None)):
                    continue
                # the tie-break key only for leaves that can become the incumbent
                key = (node_count(formula), format_formula(formula))
                if fit > best_fit or key < best_key:
                    holes = tuple((i, assignment[i]) for i in sorted(assignment))
                    best = Filling(holes, formula)
                    best_fit = fit
                    best_key = key
                    log.debug(
                        "incumbent fitness=%.9f explored=%d prunes=%d formula=%s",
                        fit, stats.scored, stats.prunes, format_formula(formula),
                    )
        except _Stop as stop:
            stats.stop = stop.args[0]
            break

    elapsed = time.monotonic() - start
    explored, expired = stats.scored, stats.stop != EXHAUSTED
    if best is None:
        log.info("repair found no admissible filling (%s)", stats)
        return RepairOutcome(
            None, float("-inf"), float("-inf"), [], explored, elapsed, False, expired,
            stats=stats,
        )
    fitness = sample_fitness(best.formula, sample, params)
    scores = [value_of(best.formula, w, params).value for w in sample.traces]
    sats = [eval_qualitative(best.formula, w) for w in sample.traces]
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
