"""LTL concrete syntax, negation normal form and qualitative finite-trace
satisfaction. The node classes and the operator table live in :mod:`.ops`.

Grammar (whitespace insignificant)::

    formula := implies
    implies := or ("->" implies)?
    or      := and ("|" and)*
    and     := until ("&" until)*
    until   := unary ("U" until)?
    unary   := ("!"|"G"|"F"|"X") unary | atom | "(" formula ")"
    atom    := [a-z][a-z0-9_]*

Precedence: unary > U > & > | > ->, with U and -> right-associative.

The reserved atom ``true`` is satisfied by every state and never needs to be
declared in a :class:`PropositionSet`.

Template text (:func:`janaka.templates.parse_template`) is parsed by the same
parser in its hole mode, which adds the hole tokens ``?``, ``?<k>`` and the
allowed-set syntax ``{l1,...}`` and restricts negation to atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyInputError,
    EmptyTraceError,
    FormulaSyntaxError,
    UnknownAtomError,
    UnsupportedNegationError,
)
from .ops import (  # noqa: F401  (the node classes are re-exported)
    AND,
    IMPLIES,
    NEGATION,
    NOT,
    OPS,
    OR,
    TRUE_ATOM,
    UNTIL,
    And,
    Atom,
    Finally,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Until,
    children,
    evaluate,
    op_of,
)

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class PropositionSet:
    """Ordered set of distinct atom names; the ordering is used for
    deterministic enumeration and serialization."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("proposition set must be non-empty")
        seen = set()
        for n in names:
            if not _ATOM_RE.fullmatch(n):
                raise ValueError(f"invalid atom name {n!r}")
            if n == TRUE_ATOM:
                raise ValueError(f"{TRUE_ATOM!r} is reserved and cannot be declared")
            if n in seen:
                raise ValueError(f"duplicate atom name {n!r}")
            seen.add(n)
        object.__setattr__(self, "names", names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


def is_literal(f: Formula) -> bool:
    """Atoms and negated atoms; these occupy a single slot in the tree encoding."""
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.child, Atom))


def is_nnf(f: Formula) -> bool:
    """True when every negation applies directly to an atom."""
    if isinstance(f, Not):
        return isinstance(f.child, Atom)
    return all(is_nnf(c) for c in children(f))


def formula_depth(f: Formula) -> int:
    """Tree height with literals (including negated atoms) counting as one level."""
    if is_literal(f):
        return 1
    return 1 + max(formula_depth(c) for c in children(f))


def node_count(f: Formula) -> int:
    """Number of slots the formula occupies in the tree encoding (literal = 1)."""
    if is_literal(f):
        return 1
    return 1 + sum(node_count(c) for c in children(f))


def atoms_of(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    out: set[str] = set()
    for c in children(f):
        out |= atoms_of(c)
    return out


def format_formula(f: Formula) -> str:
    """Fully parenthesized canonical text; round-trips through parse_formula."""
    op = op_of(f)
    if op.arity == 0:
        return f.name
    if op is NOT:
        return NEGATION + format_formula(f.child)
    if op.arity == 1:
        return f"{op.label}({format_formula(f.child)})"
    return f"({format_formula(f.left)} {op.label} {format_formula(f.right)})"


# --- tokenizer / parser -----------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<region>\?<\d+>)
  | (?P<hole>\?)
  | (?P<arrow>->)
  | (?P<op>[&|!()])
  | (?P<set>[{},])
  | (?P<modal>[GFXU])
  | (?P<atom>[a-z][a-z0-9_]*)
    """,
    re.VERBOSE,
)
_HOLE_KINDS = ("region", "hole", "set")  # tokens of the hole mode only

# binary operators from the loosest to the tightest; True: right-associative
_LEVELS = ((IMPLIES, True), (OR, False), (AND, False), (UNTIL, True))


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split formula text into (kind, text, position) tokens.

    Kinds: 'arrow', 'op' (one of ``& | ! ( )``), 'modal' (G F X U), 'atom'.
    Raises FormulaSyntaxError on any character outside the grammar.
    """
    return _tokens(text, holes=False)


def _tokens(text: str, holes: bool) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or (not holes and m.lastgroup in _HOLE_KINDS):
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


@dataclass(frozen=True)
class HoleNode:
    """A hole in template text: a label hole over `children`, restricted to
    `allowed` when given, or (region > 0) a free all-hole region that deep."""

    allowed: tuple[str, ...] | None = None
    children: tuple = ()
    region: int = 0


class _Parser:
    def __init__(self, text: str, props: PropositionSet | None, holes: bool):
        self.tokens = _tokens(text, holes)
        self.props = props
        self.holes = holes
        self.i = 0
        self.length = len(text)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def peek_text(self) -> str | None:
        tok = self.peek()
        return tok[1] if tok else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok[1] != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok[1]!r}", tok[2])

    def parse(self):
        node = self.parse_level(0)
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def parse_level(self, k: int):
        if k == len(_LEVELS):
            return self.parse_unary()
        label, right_assoc = _LEVELS[k]
        node = self.parse_level(k + 1)
        while self.peek_text() == label:
            self.take()
            if right_assoc:
                return OPS[label].cls(node, self.parse_level(k))
            node = OPS[label].cls(node, self.parse_level(k + 1))
        return node

    def parse_unary(self):
        kind, text, pos = self.take()
        if text == NEGATION and self.holes:
            kind, text, pos = self.take()
            if kind != "atom":
                raise FormulaSyntaxError("template negation applies to atoms only", pos)
            return Not(Atom(text))
        op = OPS.get(text)
        if op is not None and op.arity == 1:
            return op.cls(self.parse_unary())
        if text == "(":
            inner = self.parse_level(0)
            if (tok := self.peek()) and tok[0] == "hole":  # (A ? B)
                self.take()
                inner = HoleNode(self.parse_allowed(), (inner, self.parse_level(0)))
            self.expect(")")
            return inner
        if kind == "region":
            depth = int(text[2:-1])
            if depth < 1:
                raise FormulaSyntaxError("region depth must be >= 1", pos)
            return HoleNode(region=depth)
        if kind == "hole":
            allowed = self.parse_allowed()
            if self.peek_text() == "(":
                self.take()
                child = self.parse_level(0)
                self.expect(")")
                return HoleNode(allowed, (child,))
            if allowed is not None:
                raise FormulaSyntaxError("restricted hole needs a child", pos)
            return HoleNode(region=1)
        if kind == "atom":
            if text != TRUE_ATOM and self.props is not None and text not in self.props:
                raise UnknownAtomError(text, list(self.props))
            return Atom(text)
        raise FormulaSyntaxError(f"unexpected token {text!r}", pos)

    def parse_allowed(self) -> tuple[str, ...] | None:
        """The allowed-label set after a hole, None when there is none."""
        if self.peek_text() != "{":
            return None
        self.take()
        labels = []
        while True:
            tok = self.take()
            if tok[0] not in ("modal", "arrow", "atom") and tok[1] not in (AND, OR, NEGATION):
                raise FormulaSyntaxError(f"bad label {tok[1]!r} in allowed set", tok[2])
            label = tok[1]
            if label == NEGATION:
                atom = self.take()
                if atom[0] != "atom":
                    raise FormulaSyntaxError("'!' in allowed set needs an atom", atom[2])
                label = NEGATION + atom[1]
            labels.append(label)
            tok = self.take()
            if tok[1] == "}":
                return tuple(labels)
            if tok[1] != ",":
                raise FormulaSyntaxError(f"expected ',' or '}}', found {tok[1]!r}", tok[2])


def parse_formula(text: str, props: PropositionSet | None = None) -> Formula:
    """Parse formula text; atoms are checked against `props` when given."""
    if not text or not text.strip():
        raise EmptyInputError("empty formula text")
    return _Parser(text, props, holes=False).parse()


def parse_holes(text: str):
    """Parse template text in the hole mode: a formula tree whose holes are
    :class:`HoleNode` objects. :func:`janaka.templates.parse_template` places it."""
    return _Parser(text, None, holes=True).parse()


# --- negation normal form ---------------------------------------------------

def to_nnf(f: Formula) -> Formula:
    """Push negations down to atoms.

    !(a U b) has no dual in this grammar (no Release operator) and raises
    UnsupportedNegationError. Note !X f -> X !f keeps qualitative equivalence
    only away from the trace end; synthesized formulas never produce the
    asymmetric case because the label alphabet carries literal negation only.
    """
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        g = f.child
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return to_nnf(g.child)
        if isinstance(g, And):
            return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Or):
            return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Implies):
            return And(to_nnf(g.left), to_nnf(Not(g.right)))
        if isinstance(g, Globally):
            return Finally(to_nnf(Not(g.child)))
        if isinstance(g, Finally):
            return Globally(to_nnf(Not(g.child)))
        if isinstance(g, Next):
            return Next(to_nnf(Not(g.child)))
        raise UnsupportedNegationError(
            f"cannot negate {format_formula(g)}: the grammar has no Release operator"
        )
    return type(f)(*(to_nnf(c) for c in children(f)))


# --- qualitative finite-trace satisfaction ----------------------------------

def satisfaction_vector(f: Formula, states: Sequence[frozenset]) -> list[bool]:
    """v[i] == (suffix of the word starting at i satisfies f).

    X is strong next (false at the last position); U needs a witness inside
    the word.
    """
    return evaluate(f, states, "qualitative")


def evaluate_trace(f: Formula, w, kind: str, p=None):
    """:func:`janaka.ops.evaluate` of f over one Trace or sequence of states
    (frozen here); an empty trace raises EmptyTraceError."""
    states = getattr(w, "states", None)
    if states is None:
        states = tuple(frozenset(s) for s in w)
    if not states:
        raise EmptyTraceError("cannot evaluate on an empty trace")
    return evaluate(f, states, kind, p)


def eval_qualitative(f: Formula, w) -> bool:
    """w |= f at position 0, under the finite-domain reading."""
    return evaluate_trace(f, w, "qualitative")[0]


def decode_label(label: str) -> Formula:
    """Literal label text ('p' or '!p') to its formula."""
    if label.startswith("!"):
        return Not(Atom(label[1:]))
    return Atom(label)
