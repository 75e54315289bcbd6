"""Filling template holes to maximize sample fitness.

The optimizer is a native branch-and-bound over hole labels: given a complete
filling, every node score is determined by the semantics recursion, so the
problem is purely discrete. Holes are assigned in slot-index order; a partial
assignment is pruned when an admissible upper bound on the mean fitness of
its completions falls strictly below the incumbent (strict, so equal-fitness
optima survive for the deterministic tie-break: fewer nodes, then canonical
text).

The bound propagates per-position value intervals through the template:
fixed or assigned labels combine child intervals through their operator's
interval kernel (:meth:`janaka.ops.Op.interval`); unresolved holes contribute
the full value range of any formula fitting their remaining depth
(:func:`janaka.semantics.value_range`).

A search keeps one per-slot table (:class:`_SlotTable`) for its template,
sample and semantics parameters. For every slot it holds, per trace, the
interval vectors of the bound and the value vectors of leaf scoring, and the
slot's decoded subformula. Each entry carries the slot's stamp at the time it was
computed. Whenever the label of a hole differs from the one the table last
saw, the stamps of that hole and of every ancestor (``i, i >> 1, ..., 1``)
go up, so exactly the entries whose subtree changed are recomputed, in
whatever order assignments arrive. Fixed subtrees, literal vectors and the
value ranges of open holes are computed once per table. Leaf scores use the
kernels, the per-trace summation and the division of
:func:`janaka.semantics.sample_fitness`, so they equal it bit for bit.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

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
from .ops import NEGATION, OPS, arity, literal_values
from .semantics import SemanticsParams, sample_fitness, value_of, value_range
from .templates import Fixed, Hole, Template
from .traces import Sample

log = logging.getLogger("janaka.repair")

_LABELED, _UNUSED = "labeled", "unused"


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


class _View:
    """Precomputed per-template search tables, and the per-slot table of the
    sample and parameters last asked for."""

    def __init__(self, template: Template, props: PropositionSet):
        self.template = template
        self.m = template.slot_map
        self.order = sorted(self.m)
        self.labels = {i: template.labels_for(i, props) for i in template.hole_indices}
        self.hole_after = self._holes_after()
        self._table: _SlotTable | None = None

    def _holes_after(self):
        flags = [isinstance(self.m[i], Hole) for i in self.order]
        out = []
        acc = 0
        for flag in reversed(flags):
            out.append(acc)
            acc += flag
        return list(reversed(out))

    def table(self, sample: Sample, p: SemanticsParams) -> "_SlotTable":
        """The per-slot table of this sample and these parameters; a table
        built for another sample or parameters is replaced, never reused."""
        t = self._table
        if t is None or t.sample is not sample or t.params != p:
            t = self._table = _SlotTable(self.template, sample, p)
        return t


class _SlotTable:
    """Per-slot intervals, values and subformulas of one template over one
    sample under one set of parameters, recomputed only where a hole label
    below the slot changed (module docstring). Without a sample it decodes
    formulas only."""

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
        self._formulas: dict = {}
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

    def _formula_leaf(self, label, i):
        if label == "?":
            raise ValueError(f"slot {i} is unassigned")
        return decode_label(label)

    @staticmethod
    def _formula_combine(op, *kids):
        return op.cls(*kids)

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

    def formula(self, assignment) -> Formula:
        """The formula of a complete assignment."""
        self._sync(assignment)
        return self._entry(self._formulas, self._formula_leaf, self._formula_combine, 1)


def _child_demands(demand, m, i, label):
    """Set demands implied by labeling slot i; returns undo list."""
    n_children = arity(label)
    if n_children == 2:
        wants = (_LABELED, _LABELED)
    elif n_children == 1:
        wants = (_LABELED, _UNUSED)
    else:  # literal or unused
        wants = (_UNUSED, _UNUSED)
    undo = []
    for j, want in zip((2 * i, 2 * i + 1), wants):
        if j in m:
            undo.append((j, demand.get(j)))
            demand[j] = want
    return undo


def _restore(demand, undo):
    for j, old in undo:
        if old is None:
            demand.pop(j, None)
        else:
            demand[j] = old


def _assignments(view: _View, prune=None):
    """Yield complete hole assignments in deterministic order.

    `prune(assignment, demand, next_pos)` is consulted right after each hole
    label choice; returning True abandons that branch.
    """
    yield from _fill(view, prune, {1: _LABELED}, {}, 0)


def _fill(view: _View, prune, demand, assignment, k):
    # module-level, not a nested closure: a recursive closure refers to
    # itself through its cell, a cycle that keeps the view and its slot
    # table alive until the cyclic collector runs
    order = view.order
    if k == len(order):
        yield dict(assignment)
        return
    m = view.m
    i = order[k]
    want = demand.get(i, _UNUSED)
    slot = m[i]
    if want == _UNUSED:
        if isinstance(slot, Fixed):
            return  # a fixed node cannot be erased; dead branch
        assignment[i] = None
        undo = _child_demands(demand, m, i, None)
        yield from _fill(view, prune, demand, assignment, k + 1)
        _restore(demand, undo)
        del assignment[i]
        return
    if isinstance(slot, Fixed):
        undo = _child_demands(demand, m, i, slot.label)
        yield from _fill(view, prune, demand, assignment, k + 1)
        _restore(demand, undo)
        return
    for label in view.labels[i]:
        assignment[i] = label
        undo = _child_demands(demand, m, i, label)
        if prune is None or not prune(assignment, demand, k + 1):
            yield from _fill(view, prune, demand, assignment, k + 1)
        _restore(demand, undo)
        del assignment[i]


def enumerate_fillings(template: Template, props: PropositionSet):
    """All structurally valid fillings, operators before literals, both in
    declared order; a hole-free template yields exactly its source formula."""
    view = _View(template, props)
    table = _SlotTable(template)
    for assignment in _assignments(view):
        holes = tuple((i, assignment[i]) for i in sorted(assignment))
        yield Filling(holes, table.formula(assignment))


# --- triviality filter ----------------------------------------------------------


def _walk(f: Formula):
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def _is_propositional(f: Formula) -> bool:
    return all(
        not isinstance(node, (Next, Finally, Globally, Until)) for node in _walk(f)
    )


def _propositional_tautology(f: Formula) -> bool:
    if not _is_propositional(f):
        return False
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


def triviality_filter(f: Formula) -> bool:
    """True (reject) for degenerate synthesized formulas: a binary node with
    syntactically identical children, x|!x or x&!x, directly nested FF or GG
    (XX stays, it is not idempotent), and G/F applied to a propositional
    tautology."""
    for node in _walk(f):
        if isinstance(node, (And, Or, Implies, Until)) and node.left == node.right:
            return True
        if isinstance(node, (And, Or)):
            if node.right == Not(node.left) or node.left == Not(node.right):
                return True
        if isinstance(node, Finally) and isinstance(node.child, Finally):
            return True
        if isinstance(node, Globally) and isinstance(node.child, Globally):
            return True
        if isinstance(node, (Finally, Globally)) and _propositional_tautology(node.child):
            return True
    return False


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
    explored = 0
    prunes = 0
    expired = False

    class _Expired(Exception):
        pass

    for template in templates:
        view = _View(template, sample.props)
        table = view.table(sample, params)

        def prune(assignment, demand, k):
            nonlocal prunes
            if time.monotonic() > deadline:
                raise _Expired
            if best is None or view.hole_after[k - 1] < 1:
                return False
            ub = bound_mean_fitness(view, assignment, sample, params)
            if ub < best_fit:
                prunes += 1
                return True
            return False

        try:
            for assignment in _assignments(view, prune=prune):
                if time.monotonic() > deadline or explored >= budget.node_limit:
                    raise _Expired
                formula = table.formula(assignment)
                if triviality_filter(formula):
                    continue
                explored += 1
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
                        fit, explored, prunes, format_formula(formula),
                    )
        except _Expired:
            expired = True
            break

    elapsed = time.monotonic() - start
    if best is None:
        log.info("repair found no admissible filling (explored=%d)", explored)
        return RepairOutcome(
            None, float("-inf"), float("-inf"), [], explored, elapsed, False, expired
        )
    fitness = sample_fitness(best.formula, sample, params)
    scores = [value_of(best.formula, w, params).value for w in sample.traces]
    sats = [eval_qualitative(best.formula, w) for w in sample.traces]
    log.info(
        "repair done: fitness=%.9f total=%.9f explored=%d prunes=%d elapsed=%.3fs",
        fitness, sum(scores), explored, prunes, elapsed,
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
    )
