"""Output checks made apart from the program under test.

Fitness values and per-trace satisfaction are recomputed with the naive
reference evaluators in ``tests/naive_semantics.py`` (imported, never
changed). Each check returns a list of failure causes; an empty list means
the output passed.
"""

from __future__ import annotations

import importlib.util
import sys

TOL = 1e-9


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def load_naive(root):
    """Import the naive oracles from the checkout's test helpers."""
    path = root / "tests" / "naive_semantics.py"
    spec = importlib.util.spec_from_file_location("naive_semantics", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["naive_semantics"] = module
    spec.loader.exec_module(module)
    return module


class Oracle:
    """Naive fitness and satisfaction, written against the janaka formula
    classes currently loaded (``J`` is the namespace of janaka modules)."""

    def __init__(self, J, naive):
        self.J = J
        self.naive = naive

    def values(self, f, sample, params) -> list[float]:
        if params.kind == "robust":
            g = f if self.J.formulas.is_nnf(f) else self.J.formulas.to_nnf(f)
            return [self.naive.naive_robust(g, w.states, params)[0] for w in sample.traces]
        return [self.naive.naive_discounted(f, w.states, params) for w in sample.traces]

    def fitness(self, f, sample, params) -> float:
        vals = self.values(f, sample, params)
        return sum(vals) / len(vals)

    def sat(self, f, sample) -> list[bool]:
        return [self.naive.naive_qualitative(f, w.states) for w in sample.traces]


def _violated(sats) -> str:
    return ", ".join(str(i) for i, ok in enumerate(sats) if not ok)


def check_per_trace(oracle, f, sample, params, per_trace, what) -> list[str]:
    causes = []
    vals = oracle.values(f, sample, params)
    sats = oracle.sat(f, sample)
    if len(per_trace) != len(vals):
        return [f"{what}: {len(per_trace)} per-trace rows for {len(vals)} traces"]
    for i, ((score, sat), v, s) in enumerate(zip(per_trace, vals, sats)):
        if not close(score, v):
            causes.append(f"{what}: trace {i} score {score!r}, oracle {v!r}")
        if bool(sat) != s:
            causes.append(f"{what}: trace {i} sat {sat}, oracle {s}")
    return causes


def check_mine(report, inst, oracle) -> list[str]:
    """A janaka_run report against the oracle, the path rule and the case's
    own sat / improvement checks."""
    J = oracle.J
    props, sample, params, kappa = inst.props, inst.sample, inst.params, inst.kappa
    causes = []
    for row in report.candidates:
        f = J.formulas.parse_formula(row["formula"], props)
        fit = oracle.fitness(f, sample, params)
        if not close(row["fitness"], fit):
            causes.append(f"candidate {row['formula']}: fitness {row['fitness']!r}, oracle {fit!r}")
        if bool(row["sat"]) != all(oracle.sat(f, sample)):
            causes.append(f"candidate {row['formula']}: sat {row['sat']}, oracle disagrees")
    top = report.candidates[0]
    rep = report.repair
    if rep is not None and rep["budget_expired"]:
        causes.append("budget_expired set: a budget ended the search")
    repaired = rep is not None and rep["formula"] is not None
    if top["fitness"] >= kappa:
        expected = "llm-direct"
    elif repaired and rep["fitness"] >= kappa:
        expected = "repaired"
    else:
        expected = "failed"
    if report.path != expected:
        causes.append(f"path {report.path!r}, kappa {kappa} implies {expected!r}")

    final = J.formulas.parse_formula(report.formula, props)
    final_fit = oracle.fitness(final, sample, params)
    sats = oracle.sat(final, sample)
    if repaired and report.path != "llm-direct":
        if report.formula != rep["formula"]:
            causes.append(f"reported {report.formula}, repair chose {rep['formula']}")
        if not close(rep["fitness"], final_fit):
            causes.append(f"final {report.formula}: fitness {rep['fitness']!r}, oracle {final_fit!r}")
        per_trace = [(row["score"], row["sat"]) for row in rep["per_trace"]]
        causes += check_per_trace(oracle, final, sample, params, per_trace, "final")
    if inst.expect_sat and not all(sats):
        causes.append(f"sat: {report.formula} violates trace(s) {_violated(sats)}")
    if inst.expect_improvement and final_fit < top["fitness"] - TOL:
        causes.append(
            f"improvement: {report.formula} at {final_fit:.6f} is below the "
            f"top candidate's {top['fitness']:.6f}"
        )
    return causes


def check_repair(outcome, inst, oracle, expected) -> list[str]:
    """A repair outcome against the oracle, kappa and the stored brute-force
    optimum ``expected`` ({"optimum": float, "optimal": [formula texts]})."""
    J = oracle.J
    if outcome.budget_expired:
        return ["budget_expired set: a budget ended the search"]
    if outcome.best is None:
        return ["repair returned no formula"]
    f = outcome.best.formula
    text = J.formulas.format_formula(f)
    causes = []
    fit = oracle.fitness(f, inst.sample, inst.params)
    if not close(outcome.fitness, fit):
        causes.append(f"{text}: fitness {outcome.fitness!r}, oracle {fit!r}")
    causes += check_per_trace(oracle, f, inst.sample, inst.params, outcome.per_trace, text)
    if outcome.threshold_met != (outcome.fitness >= inst.kappa):
        causes.append(f"threshold_met {outcome.threshold_met} disagrees with kappa {inst.kappa}")
    if not close(outcome.fitness, expected["optimum"]):
        causes.append(
            f"optimum: repair {outcome.fitness!r}, brute force {expected['optimum']!r}"
        )
    elif text not in expected["optimal"]:
        causes.append(f"optimum: {text} is not among the brute-force optima")
    return causes


def brute_force_depth2(J, oracle, template, sample, params) -> dict:
    """Optimum of repair's objective by exhaustion: every filling, the
    triviality filter, then naive scoring."""
    best = float("-inf")
    scored = {}
    fillings = 0
    for filling in J.repair.enumerate_fillings(template, sample.props):
        fillings += 1
        if J.repair.triviality_filter(filling.formula):
            continue
        fit = oracle.fitness(filling.formula, sample, params)
        scored[J.formulas.format_formula(filling.formula)] = fit
        best = max(best, fit)
    optimal = sorted(t for t, v in scored.items() if close(v, best))
    return {"optimum": best, "optimal": optimal, "fillings": fillings, "nontrivial": len(scored)}


def unfiltered_optimum(J, oracle, template, sample, params) -> float:
    """Best summed root score over every filling, as the LP objective has it."""
    best = float("-inf")
    for filling in J.repair.enumerate_fillings(template, sample.props):
        best = max(best, sum(oracle.values(filling.formula, sample, params)))
    return best


def fillings_of(J, template, props) -> set[str]:
    return {
        J.formulas.format_formula(fl.formula)
        for fl in J.repair.enumerate_fillings(template, props)
    }


def check_lp(lp, inst, oracle, solve: bool) -> list[str]:
    """An exported LP: the template it encodes must have the same fillings,
    and a discounted (linear) model, when ``solve`` is set, must solve to the
    unfiltered optimum."""
    J = oracle.J
    causes = []
    # template_from_lp reads only bounds and binaries, but its parser raises
    # on quadratic rows, so they are dropped before it reads the model.
    linear = "\n".join(line for line in lp.splitlines() if "[" not in line) + "\n"
    rebuilt = J.milp.template_from_lp(linear)
    if fillings_of(J, rebuilt, inst.sample.props) != fillings_of(J, inst.template, inst.sample.props):
        causes.append("template_from_lp gives a template with other fillings")
    if solve:
        got = J.milp.lp_optimum(lp)
        want = unfiltered_optimum(J, oracle, inst.template, inst.sample, inst.params)
        if abs(got - want) > 1e-6:
            causes.append(f"lp_optimum {got!r}, brute force {want!r}")
    return causes
