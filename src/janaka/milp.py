"""MILP export of the template + trace constraint system, in LP text format.

The native repair search is the reference optimizer; this export exists for
interoperability and cross-validation. The model has one binary x_{i,label}
per slot and admissible label, continuous scores y_{i,t,trace}, and the
objective maximizes the summed root scores over the sample. Label-to-equation
linking is indicator-style, realized as big-M inequality pairs; min/max terms
are linearized with selector binaries; big-M constants are derived per node
from the proven value ranges ([0,1] discounted, [-1, robust_upper_bound]
robust).

The robust encoding splits operator cases on score signs using an epsilon
margin (scores in (-eps, 0) are not representable; synthesized scores stay
far outside that band at desk scale) and emits the conjunction's bilinear
score product as a quadratic constraint row.

Two solution paths are provided for cross-checks: `lp_optimum` parses the
emitted subset back and solves it with scipy's MILP solver (linear models
only: it refuses the robust encoding's quadratic rows), and
`lp_enumerate_optimum` rebuilds the template from the encoded binaries and
exhaustively scores every structural assignment, as a solver-free fallback.
The fallback and `template_from_lp` read only the bounds and binaries, so
they serve robust models as well as discounted ones.
"""

from __future__ import annotations

import io

from .errors import DepthExceededError, UnsupportedForExportError
from .formulas import TRUE_ATOM
from .ops import BINARY_OPS, OPS, UNARY_OPS, code_label, label_code, literal_values
from .semantics import DISCOUNTED, SemanticsParams, value_of, value_range
from .templates import Fixed, Hole, Template
from .traces import Sample

EPS = 1e-9


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

    def row(self, terms: list[tuple[float, str]], op: str, rhs: float, quad=None):
        self._n += 1
        parts = []
        for coef, var in terms:
            sign = "+" if coef >= 0 else "-"
            parts.append(f"{sign} {_fmt(abs(coef))} {var}")
        if quad:
            qparts = []
            for coef, va, vb in quad:
                sign = "+" if coef >= 0 else "-"
                qparts.append(f"{sign} {_fmt(abs(coef))} {va} * {vb}")
            parts.append("+ [ " + " ".join(qparts) + " ]")
        line = f" c{self._n}: " + " ".join(parts) + f" {op} {_fmt(rhs)}"
        (self.quads if quad else self.rows).append(line)

    def eq_gated(self, yvar: str, terms: list[tuple[float, str]], const: float,
                 gates: list[str], m: float):
        """y = const + sum(terms) whenever all gate binaries are 1."""
        k = len(gates)
        gate_terms = [(m, g) for g in gates]
        self.row([(1.0, yvar)] + [(-c, v) for c, v in terms] + gate_terms, "<=", const + m * k)
        self.row([(-1.0, yvar)] + [(c, v) for c, v in terms] + gate_terms, "<=", -const + m * k)

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

    # --- variable helpers ---------------------------------------------------

    def x(self, i: int, label: str) -> str:
        return f"x_{i}_{label_code(label)}"

    def y(self, i: int, t: int, tr: int) -> str:
        return f"y_{i}_{t}_{tr}"

    def ybound(self, i: int, t: int, n: int) -> tuple[float, float]:
        return value_range(self.t.heights[i], n - t, self.p)

    def absbound(self, i: int, t: int, n: int) -> float:
        lo, hi = self.ybound(i, t, n)
        return max(abs(lo), abs(hi), 1.0)

    def sign(self, i: int, t: int, tr: int, n: int) -> str:
        """Binary s with s=1 <-> y_{i,t,tr} >= 0 (eps margin below zero)."""
        key = (i, t, tr)
        if key in self.signs:
            return self.signs[key]
        s = f"s_{i}_{t}_{tr}"
        m = self.absbound(i, t, n) + 1.0
        yv = self.y(i, t, tr)
        self.e.row([(1.0, yv), (-m, s)], ">=", -m)
        self.e.row([(1.0, yv), (-m, s)], "<=", -EPS)
        self.e.binaries.append(s)
        self.signs[key] = s
        return s

    def fresh_binary(self, name: str) -> str:
        self.e.binaries.append(name)
        return name

    # --- structure ------------------------------------------------------------

    def encode_structure(self):
        e = self.e
        for i, labels in sorted(self.labels.items()):
            xs = [(1.0, self.x(i, lbl)) for lbl in labels]
            if not xs:
                raise UnsupportedForExportError(f"slot {i} admits no label")
            if i == 1:
                e.row(xs, "=", 1.0)
            else:
                e.row(xs, "<=", 1.0)
            slot = self.m[i]
            for lbl in labels:
                if isinstance(slot, Fixed):
                    e.bounds.append(f"{self.x(i, lbl)} = 1")
                else:
                    self.fresh_binary(self.x(i, lbl))
        for i, labels in sorted(self.labels.items()):
            bins = [(lbl, self.x(i, lbl)) for lbl in labels if lbl in BINARY_OPS]
            uns = [(lbl, self.x(i, lbl)) for lbl in labels if lbl in UNARY_OPS]
            left, right = 2 * i, 2 * i + 1
            if left in self.labels:
                lab_left = [(1.0, self.x(left, lbl)) for lbl in self.labels[left]]
                # left labeled only under a binary or unary parent
                e.row(lab_left + [(-1.0, v) for _, v in bins + uns], "<=", 0.0)
                # binary / unary parents force a labeled left child
                for _, v in bins + uns:
                    e.row([(1.0, v)] + [(-1.0, lv) for _, lv in lab_left], "<=", 0.0)
            if right in self.labels:
                lab_right = [(1.0, self.x(right, lbl)) for lbl in self.labels[right]]
                e.row(lab_right + [(-1.0, v) for _, v in bins], "<=", 0.0)
                for _, v in bins:
                    e.row([(1.0, v)] + [(-1.0, rv) for _, rv in lab_right], "<=", 0.0)

    # --- scores ------------------------------------------------------------------

    def encode_scores(self):
        for tr, trace in enumerate(self.sample.traces):
            n = len(trace.states)
            for i in sorted(self.labels):
                for t in range(n):
                    lo, hi = self.ybound(i, t, n)
                    self.e.bounds.append(
                        f"{_fmt(lo)} <= {self.y(i, t, tr)} <= {_fmt(hi)}"
                    )
            for i, labels in sorted(self.labels.items()):
                for lbl in labels:
                    for t in range(n):
                        if self.p.kind == DISCOUNTED:
                            self._disc_case(i, lbl, t, tr, trace)
                        else:
                            self._rob_case(i, lbl, t, tr, trace, n)

    # discounted cases ---------------------------------------------------------

    def _minmax(self, wname, terms, consts, kind, m):
        """w = kind(term_k + const_k) via selector binaries; terms linear.

        The non-selector rows pin w on the kind's side of every term; the
        selected term's row turns tight, forcing equality with the extremum.
        """
        e = self.e
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
        e.bounds.append(f"{_fmt(-m)} <= {wname} <= {_fmt(m)}")

    def _disc_case(self, i, lbl, t, tr, trace):
        e = self.e
        p = self.p
        n = len(trace.states)
        xv = self.x(i, lbl)
        yv = self.y(i, t, tr)
        j, jr = 2 * i, 2 * i + 1
        m = 2.0
        if lbl not in OPS:  # literal
            e.eq_gated(yv, [], literal_values(lbl, trace.states[t : t + 1], p)[0], [xv], m)
            return
        if lbl == "X":
            if t + 1 < n:
                e.eq_gated(yv, [(p.alpha, self.y(j, t + 1, tr))], 0.0, [xv], m)
            else:
                e.eq_gated(yv, [], 0.0, [xv], m)
            return
        if lbl in ("&", "|"):
            w = f"w_{i}_{t}_{tr}_{label_code(lbl)}"
            kind = "min" if lbl == "&" else "max"
            self._minmax(
                w,
                [[(1.0, self.y(j, t, tr))], [(1.0, self.y(jr, t, tr))]],
                [0.0, 0.0],
                kind,
                m,
            )
            e.eq_gated(yv, [(p.beta, w)], 0.0, [xv], m)
            return
        if lbl == "->":
            w = f"w_{i}_{t}_{tr}_imp"
            self._minmax(
                w,
                [[(-1.0, self.y(j, t, tr))], [(1.0, self.y(jr, t, tr))]],
                [1.0, 0.0],
                "max",
                m,
            )
            e.eq_gated(yv, [(p.beta, w)], 0.0, [xv], m)
            return
        if lbl == "F":
            w = f"w_{i}_{t}_{tr}_f"
            terms = [[(p.alpha ** (k - t), self.y(j, k, tr))] for k in range(t, n)]
            self._minmax(w, terms, [0.0] * len(terms), "max", m)
            e.eq_gated(yv, [(p.beta, w)], 0.0, [xv], m)
            return
        if lbl == "G":
            w = f"w_{i}_{t}_{tr}_g"
            terms = [[(-(p.alpha ** (k - t)), self.y(j, k, tr))] for k in range(t, n)]
            consts = [p.alpha ** (k - t) for k in range(t, n)]
            self._minmax(w, terms, consts, "max", m)
            e.eq_gated(yv, [(-p.beta, w)], p.beta, [xv], m)
            return
        if lbl == "U":
            vs = []
            for w_i in range(t, n):
                v = f"w_{i}_{t}_{tr}_u{w_i}"
                terms = [[(p.alpha ** (w_i - t), self.y(jr, w_i, tr))]]
                consts = [0.0]
                for k in range(t, w_i):
                    terms.append([(p.alpha ** (k - t), self.y(j, k, tr))])
                    consts.append(0.0)
                self._minmax(v, terms, consts, "min", m)
                vs.append(v)
            w = f"w_{i}_{t}_{tr}_umax"
            self._minmax(w, [[(1.0, v)] for v in vs], [0.0] * len(vs), "max", m)
            e.eq_gated(yv, [(1.0, w)], 0.0, [xv], m)
            return
        raise UnsupportedForExportError(f"label {lbl!r}")

    # robust cases ---------------------------------------------------------------

    def _and_gate(self, name, parts):
        """Binary equal to the conjunction of the given binaries."""
        g = self.fresh_binary(name)
        for b in parts:
            self.e.row([(1.0, g), (-1.0, b)], "<=", 0.0)
        self.e.row([(1.0, g)] + [(-1.0, b) for b in parts], ">=", 1 - len(parts))
        return g

    def _first_witness(self, base, child, t, tr, n):
        """Selectors z_t'..z_{n-1}, z_none: first position >= t with a
        non-negative child score (exactly one fires)."""
        sel = []
        for k in range(t, n):
            z = self.fresh_binary(f"{base}_w{k}")
            s_k = self.sign(child, k, tr, n)
            self.e.row([(1.0, z), (-1.0, s_k)], "<=", 0.0)
            for before in range(t, k):
                s_b = self.sign(child, before, tr, n)
                self.e.row([(1.0, z), (1.0, s_b)], "<=", 1.0)
            sel.append(z)
        z_none = self.fresh_binary(f"{base}_wnone")
        for k in range(t, n):
            s_k = self.sign(child, k, tr, n)
            self.e.row([(1.0, z_none), (1.0, s_k)], "<=", 1.0)
        self.e.row([(1.0, z) for z in sel] + [(1.0, z_none)], "=", 1.0)
        return sel, z_none

    def _rob_case(self, i, lbl, t, tr, trace, n):
        e = self.e
        p = self.p
        xv = self.x(i, lbl)
        yv = self.y(i, t, tr)
        j, jr = 2 * i, 2 * i + 1
        m_i = self.absbound(i, t, n) + 1.0
        if lbl not in OPS:  # literal
            e.eq_gated(yv, [], literal_values(lbl, trace.states[t : t + 1], p)[0], [xv], m_i)
            return
        if lbl == "X":
            if t + 1 >= n:
                e.eq_gated(yv, [], p.gamma, [xv], m_i)
                return
            s = self.sign(j, t + 1, tr, n)
            m = m_i + self.absbound(j, t + 1, n)
            e.eq_gated(yv, [(1.0, self.y(j, t + 1, tr))], 0.0, [xv, s], m)
            ns = self.fresh_binary(f"nsx_{i}_{t}_{tr}")
            e.row([(1.0, ns), (1.0, s)], "=", 1.0)
            e.eq_gated(yv, [], -1.0, [xv, ns], m)
            return
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
            nboth = self.fresh_binary(f"nb_{i}_{t}_{tr}_and")
            e.row([(1.0, nboth), (1.0, both)], "=", 1.0)
            e.eq_gated(yv, [], -1.0, [xv, nboth], m)
            return
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
                nl = self.fresh_binary(f"ns_{i}_{t}_{tr}")
                e.row([(1.0, nl), (1.0, sl)], "=", 1.0)
                gate = self._and_gate(f"b_{i}_{t}_{tr}_imp", [nl, sr])
                avg_terms = [(-p.beta / 2, yl), (p.beta / 2, yr)]
                max_terms = [[(-1.0, yl)], [(1.0, yr)]]
            e.eq_gated(yv, avg_terms, 0.0, [xv, gate], m)
            w = f"w_{i}_{t}_{tr}_{label_code(lbl)}"
            self._minmax(w, max_terms, [0.0, 0.0], "max", m)
            ngate = self.fresh_binary(f"n{gate}")
            e.row([(1.0, ngate), (1.0, gate)], "=", 1.0)
            e.eq_gated(yv, [(p.beta, w)], 0.0, [xv, ngate], m)
            return
        if lbl == "G":
            parts = [self.sign(j, k, tr, n) for k in range(t, n)]
            allpos = self._and_gate(f"b_{i}_{t}_{tr}_g", parts)
            terms = [(p.beta * p.alpha ** (k - t), self.y(j, k, tr)) for k in range(t, n)]
            m = m_i + sum(abs(c) * self.absbound(j, k, n) for (c, _), k in zip(terms, range(t, n)))
            e.eq_gated(yv, terms, 0.0, [xv, allpos], m)
            nall = self.fresh_binary(f"nb_{i}_{t}_{tr}_g")
            e.row([(1.0, nall), (1.0, allpos)], "=", 1.0)
            e.eq_gated(yv, [], -p.beta, [xv, nall], m)
            return
        if lbl == "F":
            sel, z_none = self._first_witness(f"fw_{i}_{t}_{tr}", j, t, tr, n)
            m = m_i + max(self.absbound(j, k, n) for k in range(t, n))
            for z, k in zip(sel, range(t, n)):
                e.eq_gated(
                    yv, [(p.beta * p.alpha ** (k - t), self.y(j, k, tr))], 0.0, [xv, z], m
                )
            e.eq_gated(yv, [], p.beta * p.gamma * p.alpha ** (n - t), [xv, z_none], m)
            return
        if lbl == "U":
            sel, z_none = self._first_witness(f"uw_{i}_{t}_{tr}", jr, t, tr, n)
            m = m_i + max(
                self.absbound(jr, k, n) for k in range(t, n)
            ) + max(self.absbound(j, k, n) for k in range(t, n))
            for z, k in zip(sel, range(t, n)):
                prefix = [self.sign(j, b, tr, n) for b in range(t, k)]
                if prefix:
                    pref = self._and_gate(f"up_{i}_{t}_{tr}_{k}", prefix)
                    npref = self.fresh_binary(f"nup_{i}_{t}_{tr}_{k}")
                    e.row([(1.0, npref), (1.0, pref)], "=", 1.0)
                    e.eq_gated(
                        yv,
                        [(p.alpha ** (k - t), self.y(jr, k, tr))],
                        0.0,
                        [xv, z, pref],
                        m,
                    )
                    e.eq_gated(yv, [], -1.0, [xv, z, npref], m)
                else:
                    e.eq_gated(
                        yv, [(p.alpha ** (k - t), self.y(jr, k, tr))], 0.0, [xv, z], m
                    )
            allpos = self._and_gate(
                f"ua_{i}_{t}_{tr}", [self.sign(j, k, tr, n) for k in range(t, n)]
            )
            nall = self.fresh_binary(f"nua_{i}_{t}_{tr}")
            e.row([(1.0, nall), (1.0, allpos)], "=", 1.0)
            e.eq_gated(yv, [], p.gamma * p.alpha ** (n - t), [xv, z_none, allpos], m)
            e.eq_gated(yv, [], -1.0, [xv, z_none, nall], m)
            return
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


def _parse_lp(text: str):
    """Parse the LP subset emitted above; quadratic rows are counted, not read."""
    section = None
    obj: dict[str, float] = {}
    rows = []  # (coeffs dict, op, rhs)
    bounds: dict[str, list] = {}
    binaries: list[str] = []
    quadratic = 0
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("maximize", "minimize"):
            section = "obj"
            continue
        if low == "subject to":
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low == "binary":
            section = "bin"
            continue
        if low == "end":
            break
        if section == "obj":
            line = line.split(":", 1)[1] if ":" in line else line
            for var in line.replace("+", " ").split():
                obj[var] = obj.get(var, 0.0) + 1.0
        elif section == "rows":
            if "[" in line:
                quadratic += 1
                continue
            body = line.split(":", 1)[1].strip()
            for op in ("<=", ">=", "="):
                if f" {op} " in body:
                    lhs, rhs = body.rsplit(f" {op} ", 1)
                    break
            else:
                raise ValueError(f"bad row: {line}")
            coeffs: dict[str, float] = {}
            tokens = lhs.split()
            sign, k = 1.0, 0
            while k < len(tokens):
                tok = tokens[k]
                if tok == "+":
                    sign = 1.0
                elif tok == "-":
                    sign = -1.0
                else:
                    coef = sign * float(tok)
                    var = tokens[k + 1]
                    coeffs[var] = coeffs.get(var, 0.0) + coef
                    k += 1
                    sign = 1.0
                k += 1
            rows.append((coeffs, op, float(rhs)))
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
    return obj, rows, bounds, binaries, quadratic


def lp_optimum(lp_text: str) -> float:
    """Solve the (linear) exported model with scipy's MILP solver and return
    the optimal objective value. Raises ImportError when scipy is absent."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    obj, rows, bounds, binaries, quadratic = _parse_lp(lp_text)
    if quadratic:
        raise UnsupportedForExportError("quadratic rows need a QP solver")
    names: list[str] = []
    index: dict[str, int] = {}

    def idx(v):
        if v not in index:
            index[v] = len(names)
            names.append(v)
        return index[v]

    for v in obj:
        idx(v)
    for coeffs, _, _ in rows:
        for v in coeffs:
            idx(v)
    for v in list(bounds) + binaries:
        idx(v)

    nvars = len(names)
    a = lil_matrix((len(rows), nvars))
    lo = np.full(len(rows), -np.inf)
    hi = np.full(len(rows), np.inf)
    for r, (coeffs, op, rhs) in enumerate(rows):
        for v, c in coeffs.items():
            a[r, idx(v)] = c
        if op in ("<=", "="):
            hi[r] = rhs
        if op in (">=", "="):
            lo[r] = rhs
    var_lo = np.zeros(nvars)
    var_hi = np.full(nvars, np.inf)
    binset = set(binaries)
    for v in names:
        k = idx(v)
        if v in bounds:
            var_lo[k], var_hi[k] = bounds[v]
        elif v in binset:
            var_lo[k], var_hi[k] = 0.0, 1.0
    integrality = np.array([1 if v in binset else 0 for v in names])
    c = np.zeros(nvars)
    for v, coef in obj.items():
        c[idx(v)] = -coef  # maximize
    res = milp(
        c=c,
        constraints=[LinearConstraint(a.tocsr(), lo, hi)],
        integrality=integrality,
        bounds=Bounds(var_lo, var_hi),
    )
    if not res.success:
        raise RuntimeError(f"MILP solve failed: {res.message}")
    return -res.fun


def template_from_lp(lp_text: str) -> Template:
    """Rebuild the encoded template from the model's structural binaries."""
    _, _, bounds, binaries, _ = _parse_lp(lp_text)
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


def lp_enumerate_optimum(lp_text: str, sample: Sample, params: SemanticsParams) -> float:
    """Solver-free fallback: enumerate assignments of the encoded structural
    binaries, score each decoded formula, and return the best summed root
    score. No triviality filtering (the LP has none either)."""
    from .repair import enumerate_fillings

    template = template_from_lp(lp_text)
    best = None
    for filling in enumerate_fillings(template, sample.props):
        total = sum(value_of(filling.formula, w, params).value for w in sample.traces)
        if best is None or total > best:
            best = total
    if best is None:
        raise ValueError("the encoded model admits no structural assignment")
    return best
