"""Template generation: formulas with bounded-depth holes.

A template is an indexed complete-binary-tree whose slots are Fixed(label),
Hole(allowed-labels), or absent (unused). A Hole may be filled by any label
its position's structural constraints admit, or left unused when the parent's
arity does not reach it; `allowed` restricts the label alphabet (None = any).

Hole-producing rules, applied to a visited node of the source tree:

* unary node:  its label becomes a hole and a fresh all-hole region of depth
  <= d is grafted as its right child (so the filling may turn it binary);
* binary node: its label becomes a hole (children stay);
* leaf:        the slot becomes the root of a fresh all-hole region of depth
  <= d (the filling may grow a subtree where the literal was).

Strategies: 'random' applies the rules with probability hole_prob per node in
breadth-first order; 'withgf' additionally pins G/F-labelled nodes
(never replaced); 'gtemp' first wraps the source under a root hole restricted
to {G, F}, then runs 'random' over the original nodes.

Text form: the formula grammar extended with ``?<k>`` (free region of depth
<= k), ``?(A)`` / ``(A ? B)`` (label holes over existing children), and an
optional allowed-set suffix as in ``?{G,F}(A)``. Infix label holes require
parentheses. A bare ``?`` is accepted as ``?<1>``. The formula parser reads it
in its hole mode (:func:`janaka.formulas.parse_holes`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import DepthExceededError, FormulaSyntaxError, UnsupportedNegationError
from .formulas import (
    Formula,
    HoleNode,
    PropositionSet,
    formula_depth,
    format_formula,
    is_literal,
    parse_holes,
)
from .ops import BINARY_OPS, NOT, UNARY_OPS, arity, children, op_of

RANDOM = "random"
WITH_GF = "withgf"
GTEMP = "gtemp"
STRATEGIES = (RANDOM, WITH_GF, GTEMP)

# The complete-binary-tree representation is dense; keep it sane.
MAX_TREE_DEPTH = 12


@dataclass(frozen=True)
class Fixed:
    label: str


@dataclass(frozen=True)
class Hole:
    allowed: tuple[str, ...] | None = None


Slot = Fixed | Hole


def _level(index: int) -> int:
    return index.bit_length()


def literal_labels(props: PropositionSet) -> list[str]:
    """The literal alphabet of a hole: every atom, then its negation."""
    out = []
    for name in props:
        out.extend((name, "!" + name))
    return out


@dataclass(frozen=True)
class Template:
    """Sparse slot map over indices 1..2^depth-1; absent indices are unused."""

    depth: int
    slots: tuple[tuple[int, Slot], ...]

    def __post_init__(self):
        entries = tuple(sorted(self.slots))
        object.__setattr__(self, "slots", entries)
        indices = [i for i, _ in entries]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate slot index")
        if not entries or entries[0][0] != 1:
            raise ValueError("root slot must be present")
        if any(i < 1 for i in indices):
            raise ValueError("slot indices start at 1")
        if self.depth < 1 or self.depth > MAX_TREE_DEPTH:
            raise DepthExceededError(f"tree depth {self.depth} outside 1..{MAX_TREE_DEPTH}")
        if max(_level(i) for i in indices) > self.depth:
            raise ValueError("slot index outside the depth bound")
        m = dict(entries)
        for i, slot in entries:
            if not isinstance(slot, Fixed):
                continue
            left, right = m.get(2 * i), m.get(2 * i + 1)
            n_children = arity(slot.label)
            if n_children == 2:
                if left is None or right is None:
                    raise ValueError(f"binary slot {i} is missing a child")
            elif n_children == 1:
                if left is None:
                    raise ValueError(f"unary slot {i} is missing its left child")
                if isinstance(right, Fixed):
                    raise ValueError(f"unary slot {i} has a fixed right child")
            else:
                if isinstance(left, Fixed) or isinstance(right, Fixed):
                    raise ValueError(f"literal slot {i} has fixed children")

    @cached_property
    def slot_map(self) -> dict[int, Slot]:
        return dict(self.slots)

    @cached_property
    def hole_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in self.slots if isinstance(s, Hole))

    @property
    def has_holes(self) -> bool:
        return bool(self.hole_indices)

    @cached_property
    def heights(self) -> dict[int, int]:
        """Per slot, the tree depth of the deepest formula that fits there:
        the levels from the slot down to the lowest slot beneath it."""
        out: dict[int, int] = {}
        for i in sorted(self.slot_map, reverse=True):
            out[i] = 1 + max(out.get(2 * i, 0), out.get(2 * i + 1, 0))
        return out

    def labels_for(self, i: int, props: PropositionSet) -> list[str]:
        """Labels hole i admits, in enumeration order: binary operators when
        both child slots exist, unary ones when the left exists and the right
        is a hole or absent, literals when both are; then only those in the
        hole's allowed set."""
        m = self.slot_map
        left, right = m.get(2 * i), m.get(2 * i + 1)
        left_open = left is None or isinstance(left, Hole)
        right_open = right is None or isinstance(right, Hole)
        out = []
        if left is not None and right is not None:
            out.extend(BINARY_OPS)
        if left is not None and right_open:
            out.extend(UNARY_OPS)
        if left_open and right_open:
            out.extend(literal_labels(props))
        allowed = m[i].allowed
        if allowed is not None:
            out = [lbl for lbl in out if lbl in allowed]
        return out


def _embed(f, index: int, slots: dict[int, Slot], nodes: list):
    """Place f's nodes as Fixed slots rooted at the given index, and record
    each as (index, label, arity) in `nodes`; the holes of parsed template
    text become Hole slots."""
    if _level(index) > MAX_TREE_DEPTH:
        raise DepthExceededError("template exceeds the tree bound")
    if isinstance(f, HoleNode):
        if f.region:
            if _level(index) + f.region - 1 > MAX_TREE_DEPTH:
                raise DepthExceededError(
                    f"a region of depth {f.region} at level {_level(index)} exceeds "
                    f"the tree bound {MAX_TREE_DEPTH}"
                )
            _add_region(slots, index, f.region)
            return
        slots[index] = Hole(f.allowed)
        for child, ci in zip(f.children, (2 * index, 2 * index + 1)):
            _embed(child, ci, slots, nodes)
        return
    if is_literal(f):
        label = format_formula(f)  # a literal's label is its text
        slots[index] = Fixed(label)
        nodes.append((index, label, 0))
        return
    op = op_of(f)
    if op is NOT:
        raise UnsupportedNegationError(
            "templates carry literal negation only; normalize the source first"
        )
    slots[index] = Fixed(op.label)
    nodes.append((index, op.label, op.arity))
    for child, ci in zip(children(f), (2 * index, 2 * index + 1)):
        _embed(child, ci, slots, nodes)


def _add_region(slots: dict[int, Slot], root: int, depth: int):
    """Graft a complete all-hole region of the given depth rooted at `root`."""
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for i in frontier:
            slots[i] = Hole()
            nxt.extend((2 * i, 2 * i + 1))
        frontier = nxt


def _apply_rule(slots: dict[int, Slot], index: int, n_children: int, d: int):
    if n_children == 0:
        _add_region(slots, index, d)
    elif n_children == 1:
        slots[index] = Hole()
        _add_region(slots, 2 * index + 1, d)
    else:
        slots[index] = Hole()


def make_templates(
    f: Formula,
    d: int,
    strategy: str = RANDOM,
    hole_prob: float = 0.2,
    seed: int = 0,
    count: int = 1,
) -> list[Template]:
    """Generate `count` templates from f under the given strategy.

    Deterministic for a fixed argument tuple. Passes that produce no hole are
    retried with fresh randomness up to 20 times, then one hole is forced at
    a uniformly chosen eligible node.
    """
    if d < 1:
        raise ValueError("hole depth d must be >= 1")
    if not 0.0 < hole_prob <= 1.0:
        raise ValueError("hole_prob must be in (0, 1]")
    if count < 1:
        raise ValueError("count must be >= 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    base = 2 if strategy == GTEMP else 1
    needed = (1 if strategy == GTEMP else 0) + formula_depth(f) + d
    if needed > MAX_TREE_DEPTH:
        raise DepthExceededError(
            f"formula depth {formula_depth(f)} with hole depth {d} exceeds the "
            f"tree bound {MAX_TREE_DEPTH}"
        )

    base_slots: dict[int, Slot] = {}
    nodes: list = []
    _embed(f, base, base_slots, nodes)
    if strategy == GTEMP:
        base_slots[1] = Hole(("G", "F"))
    nodes.sort(key=lambda n: n[0])  # heap order == breadth-first order
    eligible = [
        (i, lbl, ar)
        for i, lbl, ar in nodes
        if not (strategy == WITH_GF and lbl in ("G", "F"))
    ]

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        trial: dict[int, Slot] = {}
        for _attempt in range(20):
            trial = dict(base_slots)
            for i, _lbl, ar in eligible:
                if rng.random() < hole_prob:
                    _apply_rule(trial, i, ar, d)
            if any(isinstance(s, Hole) for s in trial.values()):
                break
        else:
            trial = dict(base_slots)
            i, _lbl, ar = eligible[rng.randrange(len(eligible))]
            _apply_rule(trial, i, ar, d)
        depth = max(_level(i) for i in trial)
        out.append(Template(depth, tuple(trial.items())))
    return out


# --- textual round-trip -------------------------------------------------------


def _region_depth(t: Template, root: int) -> int | None:
    """Depth k when the subtree at root is exactly a complete unrestricted
    hole region, else None."""
    k = t.heights[root]
    for level in range(k):
        for i in range(root << level, (root + 1) << level):
            if t.slot_map.get(i) != Hole():
                return None
    return k


def format_template(t: Template) -> str:
    """Canonical text using the '?' / '?<k>' hole syntax."""

    def fmt(i: int) -> str:
        slot = t.slot_map[i]
        left, right = t.slot_map.get(2 * i), t.slot_map.get(2 * i + 1)
        if isinstance(slot, Fixed):
            n_children = arity(slot.label)
            if n_children == 2:
                return f"({fmt(2 * i)} {slot.label} {fmt(2 * i + 1)})"
            if n_children == 1:
                return f"{slot.label}({fmt(2 * i)})"
            return slot.label
        k = _region_depth(t, i)
        if k is not None:
            return f"?<{k}>"
        mark = "?" if slot.allowed is None else "?{" + ",".join(slot.allowed) + "}"
        if right is not None:
            return f"({fmt(2 * i)} {mark} {fmt(2 * i + 1)})"
        if left is not None:
            return f"{mark}({fmt(2 * i)})"
        return "?<1>"

    return fmt(1)


def parse_template(text: str) -> Template:
    """Parse template text back into a Template."""
    if not text or not text.strip():
        raise FormulaSyntaxError("empty template text", 0)
    slots: dict[int, Slot] = {}
    _embed(parse_holes(text), 1, slots, [])
    depth = max(_level(i) for i in slots)
    return Template(depth, tuple(slots.items()))
