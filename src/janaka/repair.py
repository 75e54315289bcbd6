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
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

from .errors import EmptySampleError, NoTemplatesError, UnknownAtomError
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
from .ops import OPS, arity, literal_values
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
    """Precomputed per-template search tables."""

    def __init__(self, template: Template, props: PropositionSet):
        self.template = template
        self.m = template.slot_map
        self.order = sorted(self.m)
        self.labels = {i: template.labels_for(i, props) for i in template.hole_indices}
        self.hole_after = self._holes_after()

    def _holes_after(self):
        flags = [isinstance(self.m[i], Hole) for i in self.order]
        out = []
        acc = 0
        for flag in reversed(flags):
            out.append(acc)
            acc += flag
        return list(reversed(out))


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


def _decode(m, assignment, i=1) -> Formula:
    slot = m[i]
    label = slot.label if isinstance(slot, Fixed) else assignment[i]
    op = OPS.get(label)
    if op is None:
        return decode_label(label)
    if op.arity == 2:
        return op.cls(_decode(m, assignment, 2 * i), _decode(m, assignment, 2 * i + 1))
    return op.cls(_decode(m, assignment, 2 * i))


def _assignments(view: _View, prune=None):
    """Yield complete hole assignments in deterministic order.

    `prune(assignment, demand, next_pos)` is consulted right after each hole
    label choice; returning True abandons that branch.
    """
    m, order = view.m, view.order
    demand = {1: _LABELED}
    assignment: dict[int, str | None] = {}

    def rec(k):
        if k == len(order):
            yield dict(assignment)
            return
        i = order[k]
        want = demand.get(i, _UNUSED)
        slot = m[i]
        if want == _UNUSED:
            if isinstance(slot, Fixed):
                return  # a fixed node cannot be erased; dead branch
            assignment[i] = None
            undo = _child_demands(demand, m, i, None)
            yield from rec(k + 1)
            _restore(demand, undo)
            del assignment[i]
            return
        if isinstance(slot, Fixed):
            undo = _child_demands(demand, m, i, slot.label)
            yield from rec(k + 1)
            _restore(demand, undo)
            return
        for label in view.labels[i]:
            assignment[i] = label
            undo = _child_demands(demand, m, i, label)
            if prune is None or not prune(assignment, demand, k + 1):
                yield from rec(k + 1)
            _restore(demand, undo)
            del assignment[i]

    yield from rec(0)


def enumerate_fillings(template: Template, props: PropositionSet):
    """All structurally valid fillings, operators before literals, both in
    declared order; a hole-free template yields exactly its source formula."""
    view = _View(template, props)
    for assignment in _assignments(view):
        holes = tuple((i, assignment[i]) for i in sorted(assignment))
        yield Filling(holes, _decode(view.m, assignment))


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


def _intervals(view: _View, assignment, states, p: SemanticsParams, i: int):
    """(lows, highs) of slot i's value at every position of one trace. Each
    slot of the tree is reached once, from its parent."""
    slot = view.m[i]
    # an unresolved hole is "?"; unused slots are never reached
    label = slot.label if isinstance(slot, Fixed) else assignment.get(i, "?")
    if label == "?":
        n = len(states)
        height = view.template.heights[i]
        los, his = [], []
        for t in range(n):
            lo, hi = value_range(height, n - t, p)
            los.append(lo)
            his.append(hi)
        return los, his
    op = OPS.get(label)
    if op is None:
        vals = literal_values(label, states, p)
        return vals, vals
    kids = [_intervals(view, assignment, states, p, 2 * i + k) for k in range(op.arity)]
    return op.interval(p, *kids)


def bound_mean_fitness(view: _View, assignment, sample: Sample, p: SemanticsParams) -> float:
    """Admissible upper bound on the mean fitness of any completion of the
    partial assignment (each trace maximized independently)."""
    total = 0.0
    for trace in sample.traces:
        total += _intervals(view, assignment, trace.states, p, 1)[1][0]  # root high at 0
    return total / len(sample.traces)


# --- the search -------------------------------------------------------------------


def _validate_templates(templates, props):
    for t in templates:
        for _, slot in t.slots:
            labels = ()
            if isinstance(slot, Fixed):
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
                formula = _decode(view.m, assignment)
                if triviality_filter(formula):
                    continue
                explored += 1
                fit = sample_fitness(formula, sample, params)
                key = (node_count(formula), format_formula(formula))
                if fit > best_fit or (fit == best_fit and best is not None and key < best_key):
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
