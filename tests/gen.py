"""Seeded random generators for formulas and traces, shared across tests."""

import random

from janaka.formulas import (
    And,
    Atom,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Until,
)
from janaka.traces import Trace

UNARY = (Next, Finally, Globally)
BINARY = (And, Or, Implies, Until)


def random_formula(rng: random.Random, depth: int, atoms, mode: str = "general"):
    """mode: 'general' (negation anywhere), 'nnf' (literals only, the synthesis
    alphabet), 'no_not_until' (negation allowed, but never above an Until or a
    Next, the two operators whose negation duals are missing or end-inexact)."""
    return _gen(rng, depth, tuple(atoms), mode, under_not=False)


def _gen(rng, depth, atoms, mode, under_not):
    if depth <= 1:
        atom = Atom(rng.choice(atoms))
        if mode != "general" and rng.random() < 0.5:
            return Not(atom)
        if mode == "general" and rng.random() < 0.25:
            return Not(atom)
        return atom
    ops = list(UNARY + BINARY)
    if mode == "general" or (mode == "no_not_until" and not under_not):
        ops.append(Not)
    if under_not and mode == "no_not_until":
        ops = [op for op in ops if op is not Until and op is not Next]
    if rng.random() < 0.2:
        return _gen(rng, 1, atoms, mode, under_not)
    op = rng.choice(ops)
    if op is Not:
        return Not(_gen(rng, depth - 1, atoms, mode, True))
    if op in UNARY:
        return op(_gen(rng, depth - 1, atoms, mode, under_not))
    return op(
        _gen(rng, depth - 1, atoms, mode, under_not),
        _gen(rng, depth - 1, atoms, mode, under_not),
    )


def random_word(rng: random.Random, length: int, atoms, p_true: float = 0.5):
    """Each atom holds at each position with probability p_true."""
    return tuple(frozenset(a for a in atoms if rng.random() < p_true) for _ in range(length))


def random_trace(rng: random.Random, length: int, atoms) -> Trace:
    return Trace(random_word(rng, length, atoms))
