"""MILP export of the template + trace constraint system, in LP text format.

The native repair search is the reference optimizer; this export exists for
interoperability and cross-validation. The model has one binary x_{i,label}
per slot and admissible label, continuous scores y_{i,t,trace}, and the
objective maximizes the summed root scores over the sample. Label-to-equation
linking is indicator-style, realized as big-M inequality pairs gated on
binaries that must be 1 and binaries that must be 0, so no complement binary
is ever made; min/max terms are linearized with selector binaries; big-M
constants are derived per node from the proven value ranges ([0,1]
discounted, [-1, robust_upper_bound] robust).

A closed slot is Fixed, and so is every child its label reads: its subtree has
no hole, so its scores are the same under every filling. The encoder computes
them once, bottom-up with the kernels over the Sample's layout (one kernel call
per closed slot), and writes each y_{i,t,trace} as a fixed bound. A closed
slot has no literal, case or sign rows, no auxiliaries and no selector or gate
binaries. Where an open parent reads its sign, the sign is the fixed bound
s = 1 exactly when the score is >= 0, so a constant has no EPS band. What
remains: the structure rows that read some hole's binary (a row over Fixed
slots' binaries alone, all bounded to 1, always holds), and the rows of the
open slots, which read a closed child's y as they read any other. Every
Fixed slot keeps its x = 1 bound, so `template_from_lp` still rebuilds the
template.

A slot's literal labels share one gated pair per position. At most one of the
slot's binaries is 1, so the sum of its literal binaries is the gate, and with
v_l the literal's value and M above |y| (2 discounted, the slot's absolute
bound plus 1 robust):

    y + sum_l (M - v_l) x_l <= M,    -y + sum_l (M + v_l) x_l <= M

force y = v_l when x_l = 1 and leave |y| <= M when no literal is chosen.

The robust encoding splits operator cases on score signs, one sign binary
per score, with a margin below zero of EPS times the split's big-M (scores
in that band are not representable; synthesized scores stay far outside it
at desk scale), and emits the conjunction's bilinear score product as a
quadratic constraint row.

The temporal operators are encoded by the kernels' right-to-left scans
(:mod:`janaka.ops`): each position's rows read only the auxiliaries of the
next position, so the model grows linearly with the trace length. With v the
child scores, f and g the left and right ones, s the sign binaries and n the
word length:

* discounted F: w_t = max(v_t, alpha*w_{t+1}), y = beta*w_t; G: the same on
  1 - v, y = beta*(1 - w_t); U: u_t = min(f_t, alpha*V_{t+1}),
  V_t = max(g_t, u_t), V_n = 0, y = V_t.
* robust G: ok_t = s_t and ok_{t+1}, S_t = v_t + alpha*S_{t+1};
  y = beta*S_t where ok_t, else -beta.
* robust F: the witness chain r_t = v_t where s_t, else alpha*r_{t+1}
  (r_n = 0), and none_t = not s_t and none_{t+1}; y = beta*gamma*alpha^(n-t)
  where none_t, else beta*r_t.
* robust U: the chain on g, and three exclusive states:
  fail_t = not s^g_t and (not s^f_t or fail_{t+1}),
  none_t = not s^g_t and s^f_t and none_{t+1}, the witness otherwise;
  y = -1 on fail, gamma*alpha^(n-t) on none, r_t on the witness.

What verifies both encodings against the semantics is the forcing check in
tests/test_milp.py: with x fixed to a filling and every other used slot's
scores fixed to their native values, each slot's rows (a closed slot's
bounds) admit exactly its native scores.

Row text is built from interned pieces: each distinct coefficient's signed
"± c " prefix and each distinct number is formatted once per model, and
`value_range` is looked up once per (height, remaining length).

`lp_optimum` parses the emitted subset back and solves it with scipy's MILP
solver (linear models only: it refuses the robust encoding's quadratic rows);
`template_from_lp` reads only the bounds and binaries, so it rebuilds the
template of robust models as well as discounted ones.
"""

from __future__ import annotations

import io
from math import copysign

from .errors import DepthExceededError, UnsupportedForExportError
from .formulas import TRUE_ATOM
from .ops import BINARY_OPS, OPS, UNARY_OPS, code_label, label_code, literal_values
from .semantics import DISCOUNTED, SemanticsParams, value_range
from .templates import Fixed, Hole, Template
from .traces import Sample

# The sign split's margin below zero, per unit of the split's big-M. A solver
# takes a binary within its integrality tolerance (1e-6 in HiGHS) of 0 or 1
# as integral, which moves a big-M row by up to M*1e-6; a margin under that
# lets a zero score read as negative.
EPS = 1e-5


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Emitter:
    def __init__(self):
        self.obj: list[str] = []
        self.rows: list[str] = []
        self.quads: list[str] = []
        self.bounds: list[str] = []
        self.binaries: list[str] = []
        self.comments: list[str] = []
        self._n = 0
        # formatted once per distinct value: a coefficient's "± c " prefix
        # (0.0 and -0.0 both read "+ 0 ") and a nonzero number
        self._prefixes: dict[float, str] = {}
        self._numbers: dict[float, str] = {}

    def _prefix(self, coef: float) -> str:
        text = self._prefixes[coef] = f"{'+' if coef >= 0 else '-'} {_fmt(abs(coef))} "
        return text

    def number(self, x: float) -> str:
        """``_fmt(x)``, formatted once per distinct nonzero value."""
        if not x:  # one key for 0.0 and -0.0, which _fmt tells apart
            return "-0" if copysign(1.0, x) < 0 else "0"
        text = self._numbers.get(x)
        if text is None:
            text = self._numbers[x] = _fmt(x)
        return text

    def line(self, terms: list[str], op: str, rhs: float, quad: bool = False):
        """Append a row of rendered terms."""
        self._n += 1
        text = f" c{self._n}: " + " ".join(terms) + f" {op} {self.number(rhs)}"
        (self.quads if quad else self.rows).append(text)

    def row(self, terms: list[tuple[float, str]], op: str, rhs: float, quad=None):
        get, prefix = self._prefixes.get, self._prefix
        parts = [(get(c) or prefix(c)) + v for c, v in terms]
        if quad:
            qparts = [(get(c) or prefix(c)) + f"{va} * {vb}" for c, va, vb in quad]
            parts.append("+ [ " + " ".join(qparts) + " ]")
        self.line(parts, op, rhs, bool(quad))

    def eq_gated(self, yvar: str, terms: list[tuple[float, str]], const: float,
                 gates: list[str], m: float, off=()):
        """y = const + sum(terms) whenever every gate binary is 1 and every
        `off` binary is 0."""
        get, prefix = self._prefixes.get, self._prefix
        k = len(gates)
        on, neg = get(m) or prefix(m), get(-m) or prefix(-m)
        gate_terms = [on + g for g in gates] + [neg + b for b in off]
        self.line([(get(1.0) or prefix(1.0)) + yvar]
                  + [(get(-c) or prefix(-c)) + v for c, v in terms] + gate_terms,
                  "<=", const + m * k)
        self.line([(get(-1.0) or prefix(-1.0)) + yvar]
                  + [(get(c) or prefix(c)) + v for c, v in terms] + gate_terms,
                  "<=", -const + m * k)

    def render(self) -> str:
        out = io.StringIO()
        for c in self.comments:
            out.write(f"\\ {c}\n")
        out.write("Maximize\n obj: " + " + ".join(self.obj) + "\n")
        out.write("Subject To\n")
        for r in self.rows:
            out.write(r + "\n")
        for r in self.quads:
            out.write(r + "\n")
        out.write("Bounds\n")
        for b in self.bounds:
            out.write(" " + b + "\n")
        if self.binaries:
            out.write("Binary\n")
            for i in range(0, len(self.binaries), 8):
                out.write(" " + " ".join(self.binaries[i : i + 8]) + "\n")
        out.write("End\n")
        return out.getvalue()


class _Encoder:
    def __init__(self, template: Template, sample: Sample, params: SemanticsParams):
        self.t = template
        self.sample = sample
        self.p = params
        self.m = template.slot_map
        self.e = _Emitter()
        self.labels: dict[int, list[str]] = {}
        for i, slot in template.slots:
            if isinstance(slot, Hole):
                self.labels[i] = template.labels_for(i, sample.props)
            elif slot.label.lstrip("!") == TRUE_ATOM:
                raise UnsupportedForExportError("the constraint alphabet has no 'true' label")
            else:
                self.labels[i] = [slot.label]
        self.signs: dict[tuple, str] = {}
        self._ranges: dict[tuple[int, int], tuple[float, float]] = {}
        self.consts = self._closed_values()

    def _closed_values(self) -> dict[int, list]:
        """Each closed slot's scores over the flat sample, children first:
        one kernel call per slot. A slot is closed when it is Fixed and every
        child its label reads is closed."""
        p, states, segments = self.p, self.sample.states, self.sample.segments
        values: dict[int, list] = {}
        for i, slot in reversed(self.t.slots):
            if not isinstance(slot, Fixed):
                continue
            op = OPS.get(slot.label)
            if op is None:
                values[i] = literal_values(slot.label, states, p)
                continue
            kids = (2 * i, 2 * i + 1)[: op.arity]
            if all(k in values for k in kids):
                values[i] = getattr(op, p.kind)(p, *(values[k] for k in kids),
                                                segments=segments)
        return values

    # --- variable helpers ---------------------------------------------------

    def x(self, i: int, label: str) -> str:
        return f"x_{i}_{label_code(label)}"

    def y(self, i: int, t: int, tr: int) -> str:
        return f"y_{i}_{t}_{tr}"

    def ybound(self, i: int, t: int, n: int) -> tuple[float, float]:
        key = (self.t.heights[i], n - t)
        bound = self._ranges.get(key)
        if bound is None:
            bound = self._ranges[key] = value_range(*key, self.p)
        return bound

    def absbound(self, i: int, t: int, n: int) -> float:
        lo, hi = self.ybound(i, t, n)
        return max(abs(lo), abs(hi), 1.0)

    def sign(self, i: int, t: int, tr: int, n: int) -> str:
        """Binary s with s=1 <-> y_{i,t,tr} >= 0 (eps margin below zero)."""
        key = (i, t, tr)
        if key in self.signs:
            return self.signs[key]
        s = self.signs[key] = f"s_{i}_{t}_{tr}"
        if i in self.consts:
            # a constant's sign is exact: a fixed bound, no rows, no band
            self.e.bounds.append(f"{s} = {int(self.consts[i][self.sample.starts[tr] + t] >= 0)}")
            return s
        m = self.absbound(i, t, n) + 1.0
        yv = self.y(i, t, tr)
        self.e.row([(1.0, yv), (-m, s)], ">=", -m)
        self.e.row([(1.0, yv), (-m, s)], "<=", -EPS * m)
        self.e.binaries.append(s)
        return s

    def fresh_binary(self, name: str) -> str:
        self.e.binaries.append(name)
        return name

    # --- structure ------------------------------------------------------------

    def encode_structure(self):
        """A Fixed slot's binary is bounded to 1; the rows are the ones that
        read a hole's binary (a row over Fixed slots' binaries alone always
        holds)."""
        e = self.e
        fixed = {i for i, slot in self.m.items() if isinstance(slot, Fixed)}
        for i, labels in sorted(self.labels.items()):
            if i in fixed:
                e.bounds.append(f"{self.x(i, labels[0])} = 1")
                continue
            if not labels:
                raise UnsupportedForExportError(f"slot {i} admits no label")
            e.row([(1.0, self.fresh_binary(self.x(i, lbl))) for lbl in labels],
                  "=" if i == 1 else "<=", 1.0)
        for i, labels in sorted(self.labels.items()):
            bins = [self.x(i, lbl) for lbl in labels if lbl in BINARY_OPS]
            uns = [self.x(i, lbl) for lbl in labels if lbl in UNARY_OPS]
            # left labeled only under a binary or unary parent, right only
            # under a binary one; such a parent forces a labeled child
            for child, parents in ((2 * i, bins + uns), (2 * i + 1, bins)):
                if child not in self.labels or (i in fixed and child in fixed):
                    continue
                lab = [(1.0, self.x(child, lbl)) for lbl in self.labels[child]]
                e.row(lab + [(-1.0, v) for v in parents], "<=", 0.0)
                for v in parents:
                    e.row([(1.0, v)] + [(-1.0, x) for _, x in lab], "<=", 0.0)

    # --- scores ------------------------------------------------------------------

    def encode_scores(self):
        e = self.e
        case = self._disc_case if self.p.kind == DISCOUNTED else self._rob_case
        open_slots = [(i, lbls) for i, lbls in sorted(self.labels.items())
                      if i not in self.consts]
        for tr, trace in enumerate(self.sample.traces):
            n = len(trace.states)
            start = self.sample.starts[tr]
            for i in sorted(self.labels):
                values = self.consts.get(i)
                for t in range(n):
                    if values is None:
                        lo, hi = self.ybound(i, t, n)
                        e.bounds.append(f"{e.number(lo)} <= {self.y(i, t, tr)} <= {e.number(hi)}")
                    else:  # a closed slot's scores are constants, with no rows
                        e.bounds.append(f"{self.y(i, t, tr)} = {e.number(values[start + t])}")
            for i, labels in open_slots:
                literals = [lbl for lbl in labels if lbl not in OPS]
                if literals:
                    self._literals(i, literals, tr, trace.states)
                for lbl in labels:
                    if lbl in OPS:
                        # right to left, as the kernels scan: a temporal case
                        # returns the auxiliaries position t-1 reads
                        nxt = None
                        for t in range(n - 1, -1, -1):
                            nxt = case(i, lbl, t, tr, n, nxt)

    def _literals(self, i, literals, tr, states):
        """y = v_l wherever literal label l fills slot i: one pair per
        position, gated on the sum of the slot's literal binaries (see the
        module docstring)."""
        e = self.e
        n = len(states)
        xs = [self.x(i, lbl) for lbl in literals]
        values = [literal_values(lbl, states, self.p) for lbl in literals]
        discounted = self.p.kind == DISCOUNTED
        for t in range(n):
            m = 2.0 if discounted else self.absbound(i, t, n) + 1.0
            yv = self.y(i, t, tr)
            e.row([(1.0, yv)] + [(m - v[t], x) for v, x in zip(values, xs)], "<=", m)
            e.row([(-1.0, yv)] + [(m + v[t], x) for v, x in zip(values, xs)], "<=", m)

    # discounted cases ---------------------------------------------------------

    def _minmax(self, wname, terms, consts, kind, m):
        """w = kind(term_k + const_k) via selector binaries; terms linear.

        The non-selector rows pin w on the kind's side of every term; the
        selected term's row turns tight, forcing equality with the extremum.
        A single term needs no selector: w equals it.
        """
        e = self.e
        e.bounds.append(f"{e.number(-m)} <= {wname} <= {e.number(m)}")
        if len(terms) == 1:
            e.row([(1.0, wname)] + [(-c, v) for c, v in terms[0]], "=", consts[0])
            return
        sel = []
        for k, (term, const) in enumerate(zip(terms, consts)):
            z = self.fresh_binary(f"{wname}_z{k}")
            sel.append(z)
            if kind == "max":
                e.row([(1.0, wname)] + [(-c, v) for c, v in term], ">=", const)
                e.row([(1.0, wname)] + [(-c, v) for c, v in term] + [(m, z)], "<=", const + m)
            else:
                e.row([(1.0, wname)] + [(-c, v) for c, v in term], "<=", const)
                e.row([(1.0, wname)] + [(-c, v) for c, v in term] + [(-m, z)], ">=", const - m)
        e.row([(1.0, z) for z in sel], "=", 1.0)

    def _disc_case(self, i, lbl, t, tr, n, nxt):
        e = self.e
        p = self.p
        xv = self.x(i, lbl)
        yv = self.y(i, t, tr)
        j, jr = 2 * i, 2 * i + 1
        m = 2.0
        if lbl == "X":
            if t + 1 < n:
                e.eq_gated(yv, [(p.alpha, self.y(j, t + 1, tr))], 0.0, [xv], m)
            else:
                e.eq_gated(yv, [], 0.0, [xv], m)
            return None
        w = f"w_{i}_{t}_{tr}_{label_code(lbl)}"
        if lbl in ("&", "|", "->"):
            # beta*min(f, g), beta*max(f, g), beta*max(1 - f, g)
            imp = lbl == "->"
            self._minmax(
                w,
                [[(-1.0 if imp else 1.0, self.y(j, t, tr))], [(1.0, self.y(jr, t, tr))]],
                [1.0 if imp else 0.0, 0.0],
                "min" if lbl == "&" else "max",
                m,
            )
            e.eq_gated(yv, [(p.beta, w)], 0.0, [xv], m)
            return None
        carry = [[(p.alpha, nxt)]] if nxt else []
        if lbl == "F":
            # w_t = max(v_t, alpha*w_{t+1})
            self._minmax(w, [[(1.0, self.y(j, t, tr))]] + carry, [0.0, 0.0], "max", m)
            e.eq_gated(yv, [(p.beta, w)], 0.0, [xv], m)
            return w
        if lbl == "G":
            # w_t = max(1 - v_t, alpha*w_{t+1}); y = beta*(1 - w_t)
            self._minmax(w, [[(-1.0, self.y(j, t, tr))]] + carry, [1.0, 0.0], "max", m)
            e.eq_gated(yv, [(-p.beta, w)], p.beta, [xv], m)
            return w
        if lbl == "U":
            # V_t = max(g_t, u_t), u_t = min(f_t, alpha*V_{t+1}); at the last
            # position V_n = 0 and f >= 0 make V = g
            terms = [[(1.0, self.y(jr, t, tr))]]
            if nxt:
                u = f"w_{i}_{t}_{tr}_umin"
                self._minmax(u, [[(1.0, self.y(j, t, tr))]] + carry, [0.0, 0.0], "min", m)
                terms.append([(1.0, u)])
            self._minmax(w, terms, [0.0, 0.0], "max", m)
            e.eq_gated(yv, [(1.0, w)], 0.0, [xv], m)
            return w
        raise UnsupportedForExportError(f"label {lbl!r}")

    # robust cases ---------------------------------------------------------------

    def _and_gate(self, name, parts, off=()):
        """Binary equal to the conjunction of the `parts` binaries and the
        negations of the `off` binaries."""
        g = self.fresh_binary(name)
        for b in parts:
            self.e.row([(1.0, g), (-1.0, b)], "<=", 0.0)
        for b in off:
            self.e.row([(1.0, g), (1.0, b)], "<=", 1.0)
        self.e.row(
            [(1.0, g)] + [(-1.0, b) for b in parts] + [(1.0, b) for b in off],
            ">=",
            1 - len(parts),
        )
        return g

    def _witness_chain(self, name, child, t, tr, n, nxt):
        """r_t = v_t where v_t >= 0, else alpha*r_{t+1} (r_n = 0), the robust
        F and U kernels' chain; returns the sign binary of v_t and r_t's high."""
        s = self.sign(child, t, tr, n)
        r_next, hi_next = nxt if nxt else (None, 0.0)
        hi = max(self.absbound(child, t, n), self.p.alpha * hi_next)
        m = 2 * hi
        self.e.eq_gated(name, [(1.0, self.y(child, t, tr))], 0.0, [s], m)
        carry = [(self.p.alpha, r_next)] if r_next else []
        self.e.eq_gated(name, carry, 0.0, [], m, off=[s])
        self.e.bounds.append(f"0 <= {name} <= {self.e.number(hi)}")
        return s, hi

    def _rob_case(self, i, lbl, t, tr, n, nxt):
        e = self.e
        p = self.p
        xv = self.x(i, lbl)
        yv = self.y(i, t, tr)
        j, jr = 2 * i, 2 * i + 1
        m_i = self.absbound(i, t, n) + 1.0
        if lbl == "X":
            if t + 1 >= n:
                e.eq_gated(yv, [], p.gamma, [xv], m_i)
                return None
            s = self.sign(j, t + 1, tr, n)
            m = m_i + self.absbound(j, t + 1, n)
            e.eq_gated(yv, [(1.0, self.y(j, t + 1, tr))], 0.0, [xv, s], m)
            e.eq_gated(yv, [], -1.0, [xv], m, off=[s])
            return None
        if lbl in ("&",):
            sl, sr = self.sign(j, t, tr, n), self.sign(jr, t, tr, n)
            both = self._and_gate(f"b_{i}_{t}_{tr}_and", [sl, sr])
            m = m_i + p.beta * self.absbound(j, t, n) * self.absbound(jr, t, n)
            # product case, quadratic rows gated on x and both
            e.row(
                [(1.0, yv), (m, xv), (m, both)],
                "<=",
                2 * m,
                quad=[(-p.beta, self.y(j, t, tr), self.y(jr, t, tr))],
            )
            e.row(
                [(-1.0, yv), (m, xv), (m, both)],
                "<=",
                2 * m,
                quad=[(p.beta, self.y(j, t, tr), self.y(jr, t, tr))],
            )
            e.eq_gated(yv, [], -1.0, [xv], m, off=[both])
            return None
        if lbl in ("|", "->"):
            sl, sr = self.sign(j, t, tr, n), self.sign(jr, t, tr, n)
            yl, yr = self.y(j, t, tr), self.y(jr, t, tr)
            m = m_i + self.absbound(j, t, n) + self.absbound(jr, t, n)
            if lbl == "|":
                gate = self._and_gate(f"b_{i}_{t}_{tr}_or", [sl, sr])
                avg_terms = [(p.beta / 2, yl), (p.beta / 2, yr)]
                max_terms = [[(1.0, yl)], [(1.0, yr)]]
            else:
                # avg case requires left < 0 and right >= 0
                gate = self._and_gate(f"b_{i}_{t}_{tr}_imp", [sr], off=[sl])
                avg_terms = [(-p.beta / 2, yl), (p.beta / 2, yr)]
                max_terms = [[(-1.0, yl)], [(1.0, yr)]]
            e.eq_gated(yv, avg_terms, 0.0, [xv, gate], m)
            w = f"w_{i}_{t}_{tr}_{label_code(lbl)}"
            self._minmax(w, max_terms, [0.0, 0.0], "max", m)
            e.eq_gated(yv, [(p.beta, w)], 0.0, [xv], m, off=[gate])
            return None
        if lbl == "G":
            # ok_t = s_t and ok_{t+1}; S_t = v_t + alpha*S_{t+1} (Horner)
            s = self.sign(j, t, tr, n)
            lo, hi = self.ybound(j, t, n)
            s_sum = f"S_{i}_{t}_{tr}"
            horner = [(1.0, s_sum), (-1.0, self.y(j, t, tr))]
            ok = s
            if nxt:
                ok_next, s_next, lo_next, hi_next = nxt
                lo, hi = lo + p.alpha * lo_next, hi + p.alpha * hi_next
                horner.append((-p.alpha, s_next))
                ok = self._and_gate(f"ok_{i}_{t}_{tr}", [s, ok_next])
            e.row(horner, "=", 0.0)
            e.bounds.append(f"{e.number(lo)} <= {s_sum} <= {e.number(hi)}")
            m = m_i + p.beta * max(-lo, hi)
            e.eq_gated(yv, [(p.beta, s_sum)], 0.0, [xv, ok], m)
            e.eq_gated(yv, [], -p.beta, [xv], m, off=[ok])
            return ok, s_sum, lo, hi
        if lbl == "F":
            # none_t = not s_t and none_{t+1}, none_n true, as (binaries that
            # must be 1, binaries that must be 0): at the last position it is
            # not s_t itself
            chain_next, none_next = nxt if nxt else (None, None)
            r = f"r_{i}_{t}_{tr}_f"
            s, hi = self._witness_chain(r, j, t, tr, n, chain_next)
            if none_next is None:
                none = ([], [s])
            else:
                on, off = none_next
                none = ([self._and_gate(f"none_{i}_{t}_{tr}_f", on, [s] + off)], [])
            m = m_i + p.beta * hi
            e.eq_gated(yv, [(p.beta, r)], 0.0, [xv] + none[1], m, off=none[0])
            e.eq_gated(yv, [], p.beta * p.gamma * p.alpha ** (n - t), [xv] + none[0], m,
                       off=none[1])
            return (r, hi), none
        if lbl == "U":
            # fail_t = not s^g_t and (not s^f_t or fail_{t+1}), fail_n false;
            # none_t = not s^g_t and s^f_t and none_{t+1}, none_n true
            chain_next, fail_next, none_next = nxt if nxt else (None, None, None)
            r = f"r_{i}_{t}_{tr}_u"
            sg, hi = self._witness_chain(r, jr, t, tr, n, chain_next)
            sf = self.sign(j, t, tr, n)
            keep = sf
            if fail_next:
                keep = self._and_gate(f"keep_{i}_{t}_{tr}", [sf], [fail_next])
            fail = self._and_gate(f"fail_{i}_{t}_{tr}", [], [sg, keep])
            none = self._and_gate(
                f"none_{i}_{t}_{tr}_u", [sf] + ([none_next] if none_next else []), [sg]
            )
            m = m_i + hi
            e.eq_gated(yv, [(1.0, r)], 0.0, [xv], m, off=[fail, none])
            e.eq_gated(yv, [], -1.0, [xv, fail], m)
            e.eq_gated(yv, [], p.gamma * p.alpha ** (n - t), [xv, none], m)
            return (r, hi), fail, none
        raise UnsupportedForExportError(f"label {lbl!r}")


def export_milp(template: Template, sample: Sample, params: SemanticsParams, d: int) -> str:
    """Emit the LP-format model for the template over the sample.

    `d` is the tree-depth bound of the encoding and must accommodate the
    template. The objective is the sum of root scores over all traces.
    """
    if d < template.depth:
        raise DepthExceededError(
            f"encoding depth {d} is below the template depth {template.depth}"
        )
    enc = _Encoder(template, sample, params)
    e = enc.e
    e.comments.append(
        f"semantics={params.kind} alpha={params.alpha} beta={params.beta} "
        f"gamma={params.gamma} depth={d}"
    )
    e.comments.append(f"slots={len(enc.m)} traces={len(sample.traces)}")
    for tr in range(len(sample.traces)):
        e.obj.append(enc.y(1, 0, tr))
    enc.encode_structure()
    enc.encode_scores()
    return e.render()


# --- reading the emitted subset back ------------------------------------------------


_SECTIONS = {"maximize": "obj", "subject to": "rows", "bounds": "bounds", "binary": "bin"}


def _parse_lp(text: str):
    """Parse the LP subset emitted above into (objective, rows, bounds,
    binaries); each row is (coefficients, op, rhs, quadratic terms), the
    last a list of (coef, var, var) triples, empty for a linear row."""
    section = None
    obj: dict[str, float] = {}
    rows = []
    bounds: dict[str, list] = {}
    binaries: list[str] = []
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        if line.lower() == "end":
            break
        if line.lower() in _SECTIONS:
            section = _SECTIONS[line.lower()]
        elif section == "obj":
            for var in line.split(":", 1)[-1].replace("+", " ").split():
                obj[var] = obj.get(var, 0.0) + 1.0
        elif section == "rows":
            # " cK: <sign coef var>... [+ [ <sign coef var * var>... ]] op rhs"
            lhs, op, rhs = line.split(":", 1)[1].rsplit(None, 2)
            linear, _, quadratic = lhs.partition("+ [")
            tokens = linear.split()
            coeffs: dict[str, float] = {}
            for k in range(0, len(tokens), 3):
                sign, coef, var = tokens[k : k + 3]
                coeffs[var] = coeffs.get(var, 0.0) + float(sign + coef)
            tokens = quadratic.replace("]", " ").split()
            quad = [
                (float(tokens[k] + tokens[k + 1]), tokens[k + 2], tokens[k + 4])
                for k in range(0, len(tokens), 5)
            ]
            rows.append((coeffs, op, float(rhs), quad))
        elif section == "bounds":
            parts = line.split()
            if "<=" in parts:
                lo, var, hi = float(parts[0]), parts[2], float(parts[4])
                bounds[var] = [lo, hi]
            elif "=" in parts:
                var, val = parts[0], float(parts[2])
                bounds[var] = [val, val]
        elif section == "bin":
            binaries.extend(line.split())
    return obj, rows, bounds, binaries


def lp_optimum(lp_text: str) -> float:
    """Solve the (linear) exported model with scipy's MILP solver and return
    the optimal objective value. Raises UnsupportedForExportError on a model
    with quadratic rows, scipy or not, and ImportError when scipy is absent."""
    obj, rows, bounds, binaries = _parse_lp(lp_text)
    if any(quad for *_, quad in rows):
        raise UnsupportedForExportError("quadratic rows need a QP solver")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    names = list(dict.fromkeys(
        [*obj, *(v for coeffs, *_ in rows for v in coeffs), *bounds, *binaries]
    ))
    index = {v: k for k, v in enumerate(names)}
    binset = set(binaries)
    data, row_idx, col_idx = [], [], []
    lo = np.full(len(rows), -np.inf)
    hi = np.full(len(rows), np.inf)
    for r, (coeffs, op, rhs, _) in enumerate(rows):
        for v, c in coeffs.items():
            data.append(c)
            row_idx.append(r)
            col_idx.append(index[v])
        if op in ("<=", "="):
            hi[r] = rhs
        if op in (">=", "="):
            lo[r] = rhs
    a = csr_array((data, (row_idx, col_idx)), shape=(len(rows), len(names)))
    var_bounds = [bounds.get(v, (0.0, 1.0 if v in binset else np.inf)) for v in names]
    c = np.zeros(len(names))
    for v, coef in obj.items():
        c[index[v]] = -coef  # maximize
    res = milp(
        c=c,
        constraints=[LinearConstraint(a, lo, hi)],
        integrality=np.array([1 if v in binset else 0 for v in names]),
        bounds=Bounds(*zip(*var_bounds)),
    )
    if not res.success:
        raise RuntimeError(f"MILP solve failed: {res.message}")
    return -res.fun


def template_from_lp(lp_text: str) -> Template:
    """Rebuild the encoded template from the model's structural binaries."""
    _, _, bounds, binaries = _parse_lp(lp_text)
    candidates: dict[int, list[str]] = {}
    fixed: dict[int, str] = {}
    for var, (lo, hi) in bounds.items():
        if var.startswith("x_") and lo == hi == 1.0:
            _, i, code = var.split("_", 2)
            fixed[int(i)] = code_label(code)
    for var in binaries:
        if var.startswith("x_"):
            _, i, code = var.split("_", 2)
            candidates.setdefault(int(i), []).append(code_label(code))
    slots: dict[int, object] = {}
    for i, lbl in fixed.items():
        slots[i] = Fixed(lbl)
    for i, labels in candidates.items():
        slots[i] = Hole(tuple(labels))
    depth = max(i.bit_length() for i in slots)
    return Template(depth, tuple(slots.items()))
