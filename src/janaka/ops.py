"""LTL abstract syntax and the operator table.

Every layer that needs to know what an operator is or how it evaluates reads
:data:`OPS`: the parser and formatter, the evaluators (one bottom-up walker,
:func:`evaluate`), the repair search (decoding and the interval bound) and the
MILP export (variable-name codes). Each entry holds, for one label:

* ``arity``: 0 for literals, 1 for ``! G F X``, 2 for ``& | -> U``;
* ``cls``: the AST node class;
* ``code``: the label's code in MILP variable names;
* ``qualitative``, ``robust``, ``discounted``: value kernels;
* ``robust_flags``: the decisive flags of a robust value (below);
* ``robust_interval``: the kernel of the repair bound for the operators that
  are not monotone under the robust semantics (``| -> F U``). Every other
  operator is monotone in each child under both semantics (``->`` antitone
  on the left under the discounted one), so the bound applies its value
  kernel to the interval endpoints (:meth:`Op.interval`).

Kernels take the semantics parameters and their children's results, plain
lists indexed by suffix position, and return the node's; the literal entry's
kernels take an atom name and the trace states instead. The flag kernels take
(values, flags) pairs and interval kernels (lows, highs) pairs. Kernels do no
validation; the public entry points do.

Qualitative (finite traces): X is strong next (false at the last position);
U needs a witness inside the word.

Robust semantics (negation on literals only):

* literal: +1 / -1 at the first state
* f & g:  beta*f*g when both >= 0, else -1
* f | g:  beta*avg when both >= 0, else beta*max
* f -> g: beta*avg(-f, g) when f < 0 <= g, else beta*max(-f, g)
* G f:    beta*sum_i alpha^i f_i when f is non-negative on every suffix, else -beta
* F f:    beta*alpha^t f_t at the first non-negative suffix t, else beta*gamma*alpha^|w|
* X f:    f at the next suffix when non-negative, gamma at the last position, else -1
* f U g:  alpha^t g_t at the first non-negative g with f non-negative before it;
          gamma*alpha^|w| when f is non-negative everywhere and g never is; else -1

A decisive flag is False when any gamma case fired anywhere the recursion
looked: boolean connectives combine their children's flags, X reads the flag
of the next position, and G/F/U combine the child flags over the entire
suffix they scan.

Discounted semantics (general negation, values in [0,1], always decisive):

* atom 1/0; !f = 1 - f; & = beta*min; | = beta*max; -> = beta*max(1-f, g)
* X f = alpha*f@next (0 past the end)
* F f = beta*max_i alpha^i f_i;  G f = beta*(1 - max_i alpha^i (1 - f_i))
* f U g = max_i min(alpha^i g_i, min_{j<i} alpha^j f_j)   (no beta)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

TRUE_ATOM = "true"
ROBUST = "robust"
DISCOUNTED = "discounted"

AND, OR, IMPLIES, UNTIL = "&", "|", "->", "U"
GLOBALLY, FINALLY, NEXT = "G", "F", "X"
NEGATION = "!"
# the operator labels a template slot can carry, in enumeration order
BINARY_OPS = (AND, OR, IMPLIES, UNTIL)
UNARY_OPS = (GLOBALLY, FINALLY, NEXT)


class _Node:
    """Mixin giving every formula node the canonical text as str()."""

    __slots__ = ()

    def __str__(self) -> str:
        from .formulas import format_formula

        return format_formula(self)


@dataclass(frozen=True)
class Atom(_Node):
    name: str


@dataclass(frozen=True)
class Not(_Node):
    child: "Formula"


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Next(_Node):
    child: "Formula"


@dataclass(frozen=True)
class Finally(_Node):
    child: "Formula"


@dataclass(frozen=True)
class Globally(_Node):
    child: "Formula"


@dataclass(frozen=True)
class Until(_Node):
    left: "Formula"
    right: "Formula"


Formula = Atom | Not | And | Or | Implies | Next | Finally | Globally | Until


@dataclass(frozen=True)
class Op:
    """One row of the operator table; the fields are described above."""

    label: str
    arity: int
    cls: type
    code: str
    qualitative: Callable
    robust: Callable
    discounted: Callable
    robust_flags: Callable
    robust_interval: Callable | None = None
    antitone_left: bool = False

    def robust_pair(self, p, *kids):
        """Robust (values, decisive flags) over the children's pairs."""
        if self.arity == 0:
            return self.robust(p, *kids), self.robust_flags(p, *kids)
        return self.robust(p, *(vals for vals, _ in kids)), self.robust_flags(p, *kids)

    def interval(self, p, *kids):
        """(lows, highs) of this operator over its children's (lows, highs)."""
        if p.kind == ROBUST and self.robust_interval is not None:
            return self.robust_interval(p, *kids)
        kernel = getattr(self, p.kind)
        lows = [lo for lo, _ in kids]
        highs = [hi for _, hi in kids]
        if self.antitone_left:
            lows[0], highs[0] = highs[0], lows[0]
        return kernel(p, *lows), kernel(p, *highs)


# --- literals and negation ---------------------------------------------------


def _qual_atom(p, name, states):
    if name == TRUE_ATOM:
        return [True] * len(states)
    return [name in s for s in states]


def _rob_atom(p, name, states):
    if name == TRUE_ATOM:
        return [1.0] * len(states)
    return [1.0 if name in s else -1.0 for s in states]


def _flags_atom(p, name, states):
    return [True] * len(states)


def _disc_atom(p, name, states):
    if name == TRUE_ATOM:
        return [1.0] * len(states)
    return [1.0 if name in s else 0.0 for s in states]


def _qual_not(p, cv):
    return [not v for v in cv]


def _rob_not(p, cv):
    return [-v for v in cv]


def _flags_not(p, child):
    return child[1]


def _disc_not(p, cv):
    return [1.0 - v for v in cv]


# --- boolean connectives -----------------------------------------------------


def _qual_and(p, lv, rv):
    return [x and y for x, y in zip(lv, rv)]


def _qual_or(p, lv, rv):
    return [x or y for x, y in zip(lv, rv)]


def _qual_implies(p, lv, rv):
    return [(not x) or y for x, y in zip(lv, rv)]


def _rob_and(p, lv, rv):
    b = p.beta
    return [b * x * y if x >= 0 and y >= 0 else -1.0 for x, y in zip(lv, rv)]


def _rob_or(p, lv, rv):
    b = p.beta
    return [b * ((x + y) / 2 if x >= 0 and y >= 0 else max(x, y)) for x, y in zip(lv, rv)]


def _rob_implies(p, lv, rv):
    b = p.beta
    return [b * ((-x + y) / 2 if x < 0 and y >= 0 else max(-x, y)) for x, y in zip(lv, rv)]


def _flags_both(p, left, right):
    return _qual_and(p, left[1], right[1])


def _disc_and(p, lv, rv):
    b = p.beta
    return [b * min(x, y) for x, y in zip(lv, rv)]


def _disc_or(p, lv, rv):
    b = p.beta
    return [b * max(x, y) for x, y in zip(lv, rv)]


def _disc_implies(p, lv, rv):
    b = p.beta
    return [b * max(1.0 - x, y) for x, y in zip(lv, rv)]


def _rob_or_interval(p, left, right):
    (ll, lh), (rl, rh) = left, right
    b = p.beta
    return [b * (x + y) / 2 for x, y in zip(ll, rl)], [b * max(x, y) for x, y in zip(lh, rh)]


def _rob_implies_interval(p, left, right):
    # the envelope of f -> g is that of !f | g
    ll, lh = left
    return _rob_or_interval(p, ([-v for v in lh], [-v for v in ll]), right)


# --- temporal operators ------------------------------------------------------


def _qual_next(p, cv):
    n = len(cv)
    return [cv[i + 1] if i + 1 < n else False for i in range(n)]


def _qual_finally(p, cv):
    out = [False] * len(cv)
    acc = False
    for i in range(len(cv) - 1, -1, -1):
        acc = acc or cv[i]
        out[i] = acc
    return out


def _qual_globally(p, cv):
    out = [False] * len(cv)
    acc = True
    for i in range(len(cv) - 1, -1, -1):
        acc = acc and cv[i]
        out[i] = acc
    return out


def _qual_until(p, lv, rv):
    out = [False] * len(lv)
    acc = False
    for i in range(len(lv) - 1, -1, -1):
        acc = rv[i] or (lv[i] and acc)
        out[i] = acc
    return out


def _rob_next(p, cv):
    n = len(cv)
    return [(cv[t + 1] if cv[t + 1] >= 0 else -1.0) if t + 1 < n else p.gamma for t in range(n)]


def _rob_globally(p, cv):
    n = len(cv)
    a, b = p.alpha, p.beta
    vals = []
    for t in range(n):
        if all(cv[i] >= 0 for i in range(t, n)):
            vals.append(b * sum(a ** (i - t) * cv[i] for i in range(t, n)))
        else:
            vals.append(b * -1.0)
    return vals


def _rob_finally(p, cv):
    n = len(cv)
    a, b, g = p.alpha, p.beta, p.gamma
    vals = []
    for t in range(n):
        witness = next((i for i in range(t, n) if cv[i] >= 0), None)
        if witness is None:
            vals.append(b * g * a ** (n - t))
        else:
            vals.append(b * a ** (witness - t) * cv[witness])
    return vals


def _rob_until(p, lv, rv):
    n = len(lv)
    a, g = p.alpha, p.gamma
    vals = []
    for t in range(n):
        witness = next((i for i in range(t, n) if rv[i] >= 0), None)
        if witness is not None and all(lv[j] >= 0 for j in range(t, witness)):
            vals.append(a ** (witness - t) * rv[witness])
        elif witness is None and all(lv[j] >= 0 for j in range(t, n)):
            vals.append(g * a ** (n - t))
        else:
            vals.append(-1.0)
    return vals


# The gamma cases fire at the last position (X), where no suffix position is
# non-negative (F), and where none of g is while all of f is (U).


def _flags_next(p, child):
    return _qual_next(p, child[1])


def _flags_globally(p, child):
    return _qual_globally(p, child[1])


def _flags_finally(p, child):
    cv, cf = child
    return _qual_and(p, _qual_finally(p, [v >= 0 for v in cv]), _qual_globally(p, cf))


def _flags_until(p, left, right):
    (lv, lf), (rv, rf) = left, right
    scanned = _qual_and(p, _qual_globally(p, lf), _qual_globally(p, rf))
    witness = _qual_finally(p, [v >= 0 for v in rv])
    steady = _qual_globally(p, [v >= 0 for v in lv])
    return [s and (w or not st) for s, w, st in zip(scanned, witness, steady)]


def _disc_next(p, cv):
    n = len(cv)
    a = p.alpha
    return [a * cv[t + 1] if t + 1 < n else 0.0 for t in range(n)]


def _disc_finally(p, cv):
    n = len(cv)
    a, b = p.alpha, p.beta
    return [b * max(a ** (i - t) * cv[i] for i in range(t, n)) for t in range(n)]


def _disc_globally(p, cv):
    n = len(cv)
    a, b = p.alpha, p.beta
    return [
        b * (1.0 - max(a ** (i - t) * (1.0 - cv[i]) for i in range(t, n)))
        for t in range(n)
    ]


def _disc_until(p, lv, rv):
    n = len(lv)
    a = p.alpha
    out = []
    for t in range(n):
        best = 0.0
        prefix = None  # min over alpha^(j-t) * lv[j] for j in [t, i)
        for i in range(t, n):
            term = a ** (i - t) * rv[i]
            if prefix is not None:
                term = min(term, prefix)
            if term > best:
                best = term
            step = a ** (i - t) * lv[i]
            prefix = step if prefix is None else min(prefix, step)
        out.append(best)
    return out


def _rob_finally_interval(p, child):
    _, ch = child
    n = len(ch)
    a, b, g = p.alpha, p.beta, p.gamma
    his = []
    for t in range(n):
        cands = [b * g * a ** (n - t)]
        cands.extend(b * a ** (i - t) * ch[i] for i in range(t, n) if ch[i] >= 0)
        his.append(max(cands))
    return [0.0] * n, his


def _rob_until_interval(p, left, right):
    _, rh = right
    n = len(rh)
    a = p.alpha
    his = []
    for t in range(n):
        cands = [p.gamma * a ** (n - t)]
        cands.extend(a ** (i - t) * rh[i] for i in range(t, n) if rh[i] >= 0)
        his.append(max(cands))
    return [-1.0] * n, his


# --- the table ---------------------------------------------------------------

LITERAL = Op("", 0, Atom, "lit", _qual_atom, _rob_atom, _disc_atom, _flags_atom)
NOT = Op(NEGATION, 1, Not, "nlit", _qual_not, _rob_not, _disc_not, _flags_not)
OPS: dict[str, Op] = {
    op.label: op
    for op in (
        Op(AND, 2, And, "and", _qual_and, _rob_and, _disc_and, _flags_both),
        Op(OR, 2, Or, "or", _qual_or, _rob_or, _disc_or, _flags_both, _rob_or_interval),
        Op(IMPLIES, 2, Implies, "imp", _qual_implies, _rob_implies, _disc_implies,
           _flags_both, _rob_implies_interval, antitone_left=True),
        Op(UNTIL, 2, Until, "u", _qual_until, _rob_until, _disc_until, _flags_until,
           _rob_until_interval),
        Op(GLOBALLY, 1, Globally, "g", _qual_globally, _rob_globally, _disc_globally,
           _flags_globally),
        Op(FINALLY, 1, Finally, "f", _qual_finally, _rob_finally, _disc_finally,
           _flags_finally, _rob_finally_interval),
        Op(NEXT, 1, Next, "x", _qual_next, _rob_next, _disc_next, _flags_next),
        NOT,
    )
}
_BY_CLASS = {op.cls: op for op in (LITERAL, *OPS.values())}


def op_of(f: Formula) -> Op:
    """The table entry of a formula node (LITERAL for an atom)."""
    try:
        return _BY_CLASS[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


def arity(label: str | None) -> int:
    """Children a slot label demands: 0 for a literal or an unused slot."""
    op = OPS.get(label)
    return op.arity if op is not None else 0


def children(f: Formula) -> tuple[Formula, ...]:
    n = op_of(f).arity
    if n == 0:
        return ()
    if n == 1:
        return (f.child,)
    return (f.left, f.right)


def evaluate(f: Formula, states, kind: str, p=None):
    """Per-position results of f over the states under `kind`: "qualitative",
    "robust" or "discounted" values, or "robust_pair" (values, flags) pairs."""
    op = op_of(f)
    kernel = getattr(op, kind)
    if op.arity == 0:
        return kernel(p, f.name, states)
    if op.arity == 1:
        return kernel(p, evaluate(f.child, states, kind, p))
    return kernel(p, evaluate(f.left, states, kind, p), evaluate(f.right, states, kind, p))


def literal_values(label: str, states, p) -> list:
    """Per-position values of a literal label (``p`` or ``!p``) under p.kind."""
    neg = label.startswith(NEGATION)
    out = getattr(LITERAL, p.kind)(p, label[1:] if neg else label, states)
    return getattr(NOT, p.kind)(p, out) if neg else out


def label_code(label: str) -> str:
    """The label's code in MILP variable names: the operator's code, or
    ``lit_<atom>`` / ``nlit_<atom>`` for a literal."""
    if label in OPS:
        return OPS[label].code
    if label.startswith(NEGATION):
        return f"{NOT.code}_{label[1:]}"
    return f"{LITERAL.code}_{label}"


def code_label(code: str) -> str:
    """Inverse of :func:`label_code`."""
    for label in BINARY_OPS + UNARY_OPS:
        if OPS[label].code == code:
            return label
    prefix, sep, name = code.partition("_")
    if sep and prefix == LITERAL.code:
        return name
    if sep and prefix == NOT.code:
        return NEGATION + name
    raise ValueError(f"unknown label code {code!r}")
