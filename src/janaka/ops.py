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
* ``robust_bounds``: the (low, high) :class:`Endpoint` pair of the repair
  bound for the operators whose robust value kernel is not monotone in each
  child (``| -> F U``);
* ``antitone_left``: the operator falls as its left (only) child rises
  (``->`` under both semantics, ``!``).

The repair bound carries per-position (lows, highs) intervals, one endpoint
at a time: each endpoint of an operator is a kernel over the endpoints of its
children that it names (:meth:`Op.endpoint`), so a caller computes only the
endpoints it reads. A monotone operator's endpoint applies its value kernel
to the same endpoint of each child, except that an antitone left child is
read at the opposite one. The robust rows state their own:

* ``|``: high = beta*max over the highs, low = beta*avg over the lows;
* ``->``: as ``!f | g``, reading f's low (negated) for the high and f's high
  (negated) for the low;
* F and U: the high is the witness chain over the child's high (U: the right
  child's; see the scans below); the low is the constant 0 (F) or -1 (U) and
  reads no child, so U's left child is never bounded.

:meth:`Op.interval` is the pair of the two endpoints.

Kernels take the semantics parameters and their children's results and
return the node's. A result is one flat list over the whole sample: the
traces' suffix positions, concatenated in trace order, as the
:class:`~janaka.traces.Sample` lays its states out once, when it is made.
Every kernel but the literal entry's takes a keyword-only ``segments``, the
``(start, end)`` of each trace in that list (the Sample's ``segments``), and
each temporal kernel makes its right-to-left pass trace by trace, resetting
its state at each trace end; without segments the whole list is one trace.
The connectives and negation are elementwise and ignore the segments. The
literal entry's kernels take an atom name and the states instead. The flag
kernels take (values, flags) pairs. An endpoint kernel takes the endpoint
vectors it reads; one that reads none learns the list's length from the
segments, which it needs. Kernels do no validation; the public entry points
do.

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

Every temporal kernel makes one right-to-left pass over each trace's positions
and carries O(1) state from position t+1 to t (n is the trace's end, so n - t
is the suffix length; v the child values, f and g the left and right ones, h
the child highs):

* robust G: ok_t = (v_t >= 0 and ok_{t+1}), S_t = v_t + alpha*S_{t+1}
  (Horner); the value is beta*S_t where ok_t, else -beta.
* robust F: the witness chain r_t = v_t where v_t >= 0, else alpha*r_{t+1};
  the value is beta*r_t, or beta*gamma*alpha^(n-t) while no witness is seen.
* robust U: r_t = g_t where g_t >= 0, else fail where f_t < 0, else
  alpha*r_{t+1} (fail and the gamma state carry over); the value is r_t, -1 on
  fail, gamma*alpha^(n-t) in the gamma state (no witness, f never < 0).
* robust F/U highs: H_t = max(h_t, alpha*H_{t+1}) with H_n = 0, then
  the max with the gamma term (times beta for F). This is the value kernels'
  alpha-chain: float multiplication by alpha and max are monotone, so the
  highs dominate the values of any child values at or below h exactly.
* discounted F: M_t = max(v_t, alpha*M_{t+1}); G: the same on 1 - v, giving
  beta*(1 - M_t); U: V_t = max(g_t, min(f_t, alpha*V_{t+1})) with V_n = 0,
  the max-min above because a positive alpha commutes with min and max.

Every max and min of two floats is written as the comparison the builtin
makes, ``max(x, y)`` as ``y if y > x else x`` and ``min(x, y)`` as
``y if y < x else x``: it returns the builtin's operand, so ties between 0.0
and -0.0 come out the same, without a builtin call per position.

The scans round differently from a per-position rescan of the suffix that
sums the alpha^i terms as written above; tests/test_kernels.py keeps such
rescans as the reference and holds the scans to 1e-12 relative of them.
Equal bit for bit: robust G's -beta case and its flag, the gamma cases of F
and U, the bound's constant lows, the F and U highs' gamma terms (read from a
table built once per (alpha, gamma, b, list length) with the expression
``b*gamma*alpha**(n-t)`` that the scan would write per position), and every
kernel of X, the literals, the boolean connectives, the qualitative semantics
and the decisive flags. The MILP export (:mod:`janaka.milp`) encodes the same
robust and discounted scans: each position's rows read only the next
position's auxiliaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

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


class Endpoint(NamedTuple):
    """One endpoint of an operator's bound: ``kernel(p, *vectors, segments=)``
    over the children's endpoints that ``reads`` names, as (child, high)
    pairs in argument order."""

    kernel: Callable
    reads: tuple[tuple[int, bool], ...]


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
    robust_bounds: tuple[Endpoint, Endpoint] | None = None
    antitone_left: bool = False

    def robust_pair(self, p, *kids, segments=None):
        """Robust (values, decisive flags) over the children's pairs."""
        if self.arity == 0:
            return self.robust(p, *kids), self.robust_flags(p, *kids)
        return (self.robust(p, *(vals for vals, _ in kids), segments=segments),
                self.robust_flags(p, *kids, segments=segments))

    def endpoint(self, kind: str, high: bool) -> Endpoint:
        """The low (high=False) or the high of this operator's bound under
        the robust or discounted semantics."""
        return self._endpoints[kind][high]

    @cached_property
    def _endpoints(self) -> dict:
        # a monotone operator reads each child's same endpoint, an antitone
        # left child its opposite one
        same = tuple(
            tuple((k, high != (k == 0 and self.antitone_left)) for k in range(self.arity))
            for high in (False, True)
        )
        return {
            kind: (self.robust_bounds if kind == ROBUST and self.robust_bounds is not None
                   else tuple(Endpoint(getattr(self, kind), reads) for reads in same))
            for kind in (ROBUST, DISCOUNTED)
        }

    def interval(self, p, *kids, segments=None):
        """(lows, highs) of this operator over its children's (lows, highs):
        its two endpoints."""
        segments = _traces(segments, len(kids[0][1]))
        return tuple(kernel(p, *[kids[k][h] for k, h in reads], segments=segments)
                     for kernel, reads in self._endpoints[p.kind])


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


def _qual_not(p, cv, *, segments=None):
    return [not v for v in cv]


def _rob_not(p, cv, *, segments=None):
    return [-v for v in cv]


def _flags_not(p, child, *, segments=None):
    return child[1]


def _disc_not(p, cv, *, segments=None):
    return [1.0 - v for v in cv]


# --- boolean connectives -----------------------------------------------------


def _qual_and(p, lv, rv, *, segments=None):
    return [x and y for x, y in zip(lv, rv)]


def _qual_or(p, lv, rv, *, segments=None):
    return [x or y for x, y in zip(lv, rv)]


def _qual_implies(p, lv, rv, *, segments=None):
    return [(not x) or y for x, y in zip(lv, rv)]


def _rob_and(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * x * y if x >= 0 and y >= 0 else -1.0 for x, y in zip(lv, rv)]


def _rob_or(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * ((x + y) / 2 if x >= 0 and y >= 0 else y if y > x else x)
            for x, y in zip(lv, rv)]


def _rob_implies(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * ((-x + y) / 2 if x < 0 and y >= 0 else y if y > -x else -x)
            for x, y in zip(lv, rv)]


def _flags_both(p, left, right, *, segments=None):
    return _qual_and(p, left[1], right[1])


def _disc_and(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * (y if y < x else x) for x, y in zip(lv, rv)]


def _disc_or(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * (y if y > x else x) for x, y in zip(lv, rv)]


def _disc_implies(p, lv, rv, *, segments=None):
    b = p.beta
    return [b * (y if y > 1.0 - x else 1.0 - x) for x, y in zip(lv, rv)]


def _rob_or_low(p, ll, rl, *, segments=None):
    b = p.beta
    return [b * (x + y) / 2 for x, y in zip(ll, rl)]


def _rob_or_high(p, lh, rh, *, segments=None):
    b = p.beta
    return [b * (y if y > x else x) for x, y in zip(lh, rh)]


# the envelope of f -> g is that of !f | g: f's high negated is !f's low


def _rob_implies_low(p, lh, rl, *, segments=None):
    b = p.beta
    return [b * (-x + y) / 2 for x, y in zip(lh, rl)]


def _rob_implies_high(p, ll, rh, *, segments=None):
    b = p.beta
    return [b * (y if y > -x else -x) for x, y in zip(ll, rh)]


# --- temporal operators ------------------------------------------------------


def _traces(segments, n):
    # the whole list is one trace unless segments say otherwise
    if segments is not None:
        return segments
    return ((0, n),) if n else ()


def _qual_next(p, cv, *, segments=None):
    out = [False] * len(cv)
    out[:-1] = cv[1:]
    for _, end in _traces(segments, len(cv)):
        out[end - 1] = False
    return out


def _qual_finally(p, cv, *, segments=None):
    out = [False] * len(cv)
    for start, end in _traces(segments, len(cv)):
        acc = False
        for i in range(end - 1, start - 1, -1):
            acc = acc or cv[i]
            out[i] = acc
    return out


def _qual_globally(p, cv, *, segments=None):
    out = [False] * len(cv)
    for start, end in _traces(segments, len(cv)):
        acc = True
        for i in range(end - 1, start - 1, -1):
            acc = acc and cv[i]
            out[i] = acc
    return out


def _qual_until(p, lv, rv, *, segments=None):
    out = [False] * len(lv)
    for start, end in _traces(segments, len(lv)):
        acc = False
        for i in range(end - 1, start - 1, -1):
            acc = rv[i] or (lv[i] and acc)
            out[i] = acc
    return out


def _rob_next(p, cv, *, segments=None):
    out = [p.gamma] * len(cv)
    out[:-1] = [v if v >= 0 else -1.0 for v in cv[1:]]
    for _, end in _traces(segments, len(cv)):
        out[end - 1] = p.gamma
    return out


def _rob_globally(p, cv, *, segments=None):
    # ok: the suffix from t on is non-negative; s = sum_i alpha^(i-t) cv[i] (Horner)
    a, b = p.alpha, p.beta
    out = [0.0] * len(cv)
    for start, end in _traces(segments, len(cv)):
        ok, s = True, 0.0
        for t in range(end - 1, start - 1, -1):
            v = cv[t]
            ok = ok and v >= 0
            s = v + a * s
            out[t] = b * s if ok else b * -1.0
    return out


def _rob_finally(p, cv, *, segments=None):
    # r: alpha^(w-t) cv[w] at the first non-negative w >= t, chained as alpha*r;
    # None while no suffix position is non-negative
    a, b, g = p.alpha, p.beta, p.gamma
    out = [0.0] * len(cv)
    for start, end in _traces(segments, len(cv)):
        r = None
        for t in range(end - 1, start - 1, -1):
            v = cv[t]
            if v >= 0:
                r = v
            elif r is not None:
                r = a * r
            out[t] = b * g * a ** (end - t) if r is None else b * r
    return out


def _rob_until(p, lv, rv, *, segments=None):
    # r as in F; it turns to -1 (fail) where f < 0 before any witness, and
    # stays None (the gamma case) while neither a witness nor a failure is seen
    a, g = p.alpha, p.gamma
    out = [0.0] * len(lv)
    for start, end in _traces(segments, len(lv)):
        r = None
        for t in range(end - 1, start - 1, -1):
            if rv[t] >= 0:
                r = rv[t]
            elif lv[t] < 0:
                r = -1.0
            elif r is not None and r >= 0:
                r = a * r
            out[t] = g * a ** (end - t) if r is None else r
    return out


# The gamma cases fire at the last position (X), where no suffix position is
# non-negative (F), and where none of g is while all of f is (U).


def _flags_next(p, child, *, segments=None):
    return _qual_next(p, child[1], segments=segments)


def _flags_globally(p, child, *, segments=None):
    return _qual_globally(p, child[1], segments=segments)


def _flags_finally(p, child, *, segments=None):
    cv, cf = child
    return _qual_and(p, _qual_finally(p, [v >= 0 for v in cv], segments=segments),
                     _qual_globally(p, cf, segments=segments))


def _flags_until(p, left, right, *, segments=None):
    (lv, lf), (rv, rf) = left, right
    scanned = _qual_and(p, _qual_globally(p, lf, segments=segments),
                        _qual_globally(p, rf, segments=segments))
    witness = _qual_finally(p, [v >= 0 for v in rv], segments=segments)
    steady = _qual_globally(p, [v >= 0 for v in lv], segments=segments)
    return [s and (w or not st) for s, w, st in zip(scanned, witness, steady)]


def _disc_next(p, cv, *, segments=None):
    a = p.alpha
    out = [0.0] * len(cv)
    out[:-1] = [a * v for v in cv[1:]]
    for _, end in _traces(segments, len(cv)):
        out[end - 1] = 0.0
    return out


def _disc_finally(p, cv, *, segments=None):
    # m = max_i alpha^(i-t) cv[i] over the suffix
    a, b = p.alpha, p.beta
    out = [0.0] * len(cv)
    for start, end in _traces(segments, len(cv)):
        m = float("-inf")
        for t in range(end - 1, start - 1, -1):
            v, am = cv[t], a * m
            m = am if am > v else v
            out[t] = b * m
    return out


def _disc_globally(p, cv, *, segments=None):
    # m = max_i alpha^(i-t) (1 - cv[i]) over the suffix
    a, b = p.alpha, p.beta
    out = [0.0] * len(cv)
    for start, end in _traces(segments, len(cv)):
        m = float("-inf")
        for t in range(end - 1, start - 1, -1):
            v, am = 1.0 - cv[t], a * m
            m = am if am > v else v
            out[t] = b * (1.0 - m)
    return out


def _disc_until(p, lv, rv, *, segments=None):
    # alpha > 0 commutes with min and max, so the max-min over the suffix
    # obeys u_t = max(g_t, min(f_t, alpha*u_(t+1))) with u_n = 0
    a = p.alpha
    out = [0.0] * len(lv)
    for start, end in _traces(segments, len(lv)):
        u = 0.0
        for t in range(end - 1, start - 1, -1):
            f, g, au = lv[t], rv[t], a * u
            m = au if au < f else f
            u = m if m > g else g
            out[t] = u
    return out


@lru_cache(maxsize=256, typed=True)
def _gamma_terms(a, g, b, n):
    # b*gamma*alpha^(end-t) at t = end-1, end-2, ..., end-n, by the same
    # expression, so the terms are bit-identical to per-position ones; typed,
    # so an int parameter's terms stay ints
    return tuple(b * g * a ** k for k in range(1, n + 1))


def _rob_witness_highs(p, hs, b, segments):
    # h_t = max(hs[t], alpha*h_(t+1)) with h = 0 at the trace end, so a
    # negative high never wins: the F and U value kernels' alpha-chain on the
    # highs, so the bound dominates their values in floats; then the max of
    # b*h with the gamma term b*gamma*alpha^(end-t) (b = 1.0 for U is exact),
    # read from one table per (alpha, gamma, b, list length), which covers
    # the longest trace
    a, g = p.alpha, p.gamma
    out = [0.0] * len(hs)
    terms = _gamma_terms(a, g, b, len(hs))
    for start, end in _traces(segments, len(hs)):
        h = 0.0
        for t, gt in zip(range(end - 1, start - 1, -1), terms):
            v, ah = hs[t], a * h
            h = ah if ah > v else v
            bh = b * h
            out[t] = bh if bh > gt else gt
    return out


def _length(segments):
    return segments[-1][1] if segments else 0


def _rob_finally_low(p, *, segments=None):
    return [0.0] * _length(segments)


def _rob_finally_high(p, ch, *, segments=None):
    return _rob_witness_highs(p, ch, p.beta, segments)


def _rob_until_low(p, *, segments=None):
    return [-1.0] * _length(segments)


def _rob_until_high(p, rh, *, segments=None):
    return _rob_witness_highs(p, rh, 1.0, segments)


# --- the table ---------------------------------------------------------------

LO, HI = False, True  # the endpoint a bound reads of a child
LITERAL = Op("", 0, Atom, "lit", _qual_atom, _rob_atom, _disc_atom, _flags_atom)
NOT = Op(NEGATION, 1, Not, "nlit", _qual_not, _rob_not, _disc_not, _flags_not,
         antitone_left=True)
OPS: dict[str, Op] = {
    op.label: op
    for op in (
        Op(AND, 2, And, "and", _qual_and, _rob_and, _disc_and, _flags_both),
        Op(OR, 2, Or, "or", _qual_or, _rob_or, _disc_or, _flags_both,
           (Endpoint(_rob_or_low, ((0, LO), (1, LO))),
            Endpoint(_rob_or_high, ((0, HI), (1, HI))))),
        Op(IMPLIES, 2, Implies, "imp", _qual_implies, _rob_implies, _disc_implies,
           _flags_both,
           (Endpoint(_rob_implies_low, ((0, HI), (1, LO))),
            Endpoint(_rob_implies_high, ((0, LO), (1, HI)))),
           antitone_left=True),
        Op(UNTIL, 2, Until, "u", _qual_until, _rob_until, _disc_until, _flags_until,
           (Endpoint(_rob_until_low, ()), Endpoint(_rob_until_high, ((1, HI),)))),
        Op(GLOBALLY, 1, Globally, "g", _qual_globally, _rob_globally, _disc_globally,
           _flags_globally),
        Op(FINALLY, 1, Finally, "f", _qual_finally, _rob_finally, _disc_finally,
           _flags_finally,
           (Endpoint(_rob_finally_low, ()), Endpoint(_rob_finally_high, ((0, HI),)))),
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


def evaluate(f: Formula, states, kind: str, p=None, segments=None):
    """Per-position results of f over the states under `kind`: "qualitative",
    "robust" or "discounted" values, or "robust_pair" (values, flags) pairs.
    The states are one trace, or several concatenated with their (start, end)
    segments given."""
    op = op_of(f)
    kernel = getattr(op, kind)
    if op.arity == 0:
        return kernel(p, f.name, states)
    if op.arity == 1:
        return kernel(p, evaluate(f.child, states, kind, p, segments), segments=segments)
    return kernel(p, evaluate(f.left, states, kind, p, segments),
                  evaluate(f.right, states, kind, p, segments), segments=segments)


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
