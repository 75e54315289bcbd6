"""End-to-end orchestration: candidates -> fitness gate -> templates -> repair.

A run asks the provider for candidate formulas, accepts the fittest one when
it clears kappa (path "llm-direct"), and otherwise turns the top-k candidates
into templates and repairs them, iterating the strategies GTemp, Random,
WithGF (in that order, under one shared budget) until the threshold is met
(path "repaired") or the options run out (path "failed", best effort still
reported: the repair incumbent, or the top candidate when that scores
strictly higher).
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError, JanakaError, NoTemplatesError, UnsupportedNegationError
from .formulas import (
    Atom,
    Formula,
    PropositionSet,
    children,
    format_formula,
    is_nnf,
    parse_formula,
    to_nnf,
)
from .llm import (
    MULTISHOT,
    ONESHOT,
    HttpChatProvider,
    MockChatProvider,
    build_prompt,
    request_candidates,
    top_k,
)
from .ops import evaluate
from .repair import RepairOutcome, SearchBudget, repair
from .semantics import (
    DISCOUNTED,
    ROBUST,
    EvalStore,
    SemanticsParams,
    sample_fitness,
    satisfies_all,
)
from .templates import GTEMP, RANDOM, WITH_GF, make_templates
from .traces import Sample, generate_traces, infer_props, parse_traces, start_mean

AUTO = "auto"
STRATEGY_ORDER = (GTEMP, RANDOM, WITH_GF)
# the values RunConfig.validate accepts for each named setting
CHOICES = {
    "strategy": (AUTO, *STRATEGY_ORDER),
    "mode": (ONESHOT, MULTISHOT),
    "provider": ("mock", "http"),
}


def setting_cast(cls, name: str):
    """How a settings text becomes field `name` of the dataclass `cls`: by
    int or float when the field is annotated so (``| None`` aside), else it
    stays text."""
    annotation = cls.__dataclass_fields__[name].type
    return {"int": int, "float": float}.get(annotation.split(" ")[0], str)


def cast_setting(key: str, text: str, cast):
    """The settings text given under `key`, through `cast`; text the cast
    refuses raises ConfigError naming the key."""
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"{key} = {text!r} is not a valid {cast.__name__}") from None


def checked(make, *args, **given):
    """make(*args, **given), with a ValueError from its argument checks raised
    as a ConfigError naming the settings given."""
    try:
        return make(*args, **given)
    except ValueError as exc:
        named = ", ".join(f"{k}={v!r}" for k, v in given.items())
        raise ConfigError(f"{exc} ({named})") from None


@dataclass
class RunConfig:
    traces_path: str | None = None
    explanation_path: str | None = None
    props: list[str] | None = None
    semantics: SemanticsParams = field(default_factory=SemanticsParams)
    kappa: float = 0.5
    depth: int = 1
    top: int = 3
    strategy: str = AUTO
    hole_prob: float = 0.2
    provider: str = "mock"
    endpoint: str | None = None
    model: str | None = None
    temperature: float | None = None
    fixtures: str | None = None
    seed: int = 0
    budget: SearchBudget = field(default_factory=SearchBudget)
    n_candidates: int = 5
    mode: str = ONESHOT
    template_count: int = 4
    max_retries: int = 2

    def validate(self):
        """Refuse a setting no run could use; `janaka_run` calls this before
        it reads an input or asks the provider."""
        if not math.isfinite(self.kappa):
            raise ConfigError("kappa must be finite")
        if self.semantics.kind == DISCOUNTED and self.kappa > 1.0:
            # discounted fitness lies in [0, 1]: such a mine could only fail
            raise ConfigError(f"kappa {self.kappa} is above 1, which no discounted fitness reaches")
        for name in ("depth", "top", "n_candidates", "template_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 < self.hole_prob <= 1.0:
            raise ConfigError("hole_prob must be in (0, 1]")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")


@dataclass
class RunReport:
    formula: str | None
    path: str  # llm-direct | repaired | failed
    candidates: list[dict]
    repair: dict | None
    params: dict
    timings: dict
    notes: list[str]

    def to_dict(self, zero_timings: bool = False) -> dict:
        out = {
            "formula": self.formula,
            "path": self.path,
            "candidates": self.candidates,
            "repair": self.repair,
            "params": self.params,
            "timings": {k: 0.0 for k in self.timings} if zero_timings else self.timings,
            "notes": self.notes,
        }
        if zero_timings and out["repair"] is not None:
            stats = out["repair"]["stats"]
            incumbents = [(0.0, *row[1:]) for row in stats["incumbents"]]
            out["repair"] = dict(out["repair"], elapsed=0.0,
                                 stats=dict(stats, incumbents=incumbents))
        return out

    def to_json(self, zero_timings: bool = False) -> str:
        return json.dumps(self.to_dict(zero_timings), indent=2, sort_keys=True) + "\n"


# where a run's inputs come from is not echoed in the report
_UNECHOED = ("traces_path", "explanation_path", "props", "endpoint", "fixtures")


def _params_echo(cfg: RunConfig) -> dict:
    echo = {k: v for k, v in asdict(cfg).items() if k not in _UNECHOED}
    echo.update(echo.pop("semantics"))
    echo["semantics"] = echo.pop("kind")
    return echo


def outcome_dict(outcome: RepairOutcome) -> dict:
    """A repair outcome as the reports print it."""
    return {
        "formula": format_formula(outcome.best.formula) if outcome.best else None,
        "fitness": outcome.fitness if outcome.best else None,
        "total": outcome.total if outcome.best else None,
        "per_trace": [{"score": s, "sat": sat} for s, sat in outcome.per_trace],
        "explored": outcome.explored,
        "elapsed": outcome.elapsed,
        "threshold_met": outcome.threshold_met,
        "budget_expired": outcome.budget_expired,
        "strategy": outcome.strategy,
        "stats": asdict(outcome.stats),
    }


def make_provider(cfg: RunConfig):
    if cfg.provider == "mock":
        if not cfg.fixtures:
            raise ConfigError("the mock provider needs --fixtures (a directory of responses)")
        return checked(MockChatProvider, fixture_dir=cfg.fixtures)
    if not cfg.endpoint or not cfg.model:
        raise ConfigError("the http provider needs --endpoint and --model")
    return HttpChatProvider(cfg.endpoint, cfg.model, temperature=cfg.temperature)


def load_sample(cfg: RunConfig) -> Sample:
    """The traces file, read with the configured atoms, else those it uses."""
    if not cfg.traces_path:
        raise ConfigError("no trace file configured")
    text = Path(cfg.traces_path).read_text()
    props = PropositionSet(cfg.props) if cfg.props else infer_props(text)
    return parse_traces(text, props)


def janaka_run(
    cfg: RunConfig,
    sample: Sample | None = None,
    explanation: str | None = None,
    provider=None,
) -> RunReport:
    """Run the full mining pipeline; inputs may be injected to bypass files.

    ``cfg.budget.time_limit`` bounds the whole run: the search gets what the
    provider phase, its pauses between retries included, left of it. One
    :class:`~janaka.semantics.EvalStore` over the sample serves the ranking,
    the candidates' satisfaction rows and every repair call of the run, and
    is dropped when the run ends."""
    cfg.validate()
    t_start = time.perf_counter()
    deadline = time.monotonic() + cfg.budget.time_limit
    notes: list[str] = []
    if sample is None:
        sample = load_sample(cfg)
    if explanation is None:
        if not cfg.explanation_path:
            raise ConfigError("no explanation file configured")
        explanation = Path(cfg.explanation_path).read_text()
    if provider is None:
        provider = make_provider(cfg)

    bundle = build_prompt(sample, explanation, mode=cfg.mode, n=cfg.n_candidates)
    cands = request_candidates(provider, bundle, cfg.max_retries, deadline)
    t_llm = time.perf_counter()

    store = EvalStore(sample, cfg.semantics)
    ranked = top_k(cands, sample, cfg.semantics, k=len(cands.formulas), store=store)
    cand_rows = []
    for f, fit in ranked:
        ok, _ = satisfies_all(f, sample, store)
        cand_rows.append({"formula": format_formula(f), "fitness": fit, "sat": ok})

    best_fit = ranked[0][1]
    best_outcome: RepairOutcome | None = None
    chosen = cand_rows[0]["formula"]
    if best_fit >= cfg.kappa:
        path = "llm-direct"
    else:
        # normalize the top-k candidates for template generation
        sources: list[Formula] = []
        for f, _fit in ranked[: cfg.top]:
            try:
                sources.append(f if is_nnf(f) else to_nnf(f))
            except UnsupportedNegationError:
                notes.append(f"skipped un-normalizable candidate: {format_formula(f)}")
        if not sources:
            raise NoTemplatesError("no top candidate could be normalized for templates")

        strategies = STRATEGY_ORDER if cfg.strategy == AUTO else (cfg.strategy,)
        nodes_left = cfg.budget.node_limit
        for si, strategy in enumerate(strategies):
            templates = []
            for fi, source in enumerate(sources):
                templates.extend(
                    make_templates(
                        source,
                        d=cfg.depth,
                        strategy=strategy,
                        hole_prob=cfg.hole_prob,
                        seed=cfg.seed + 10007 * si + 101 * fi,
                        count=cfg.template_count,
                    )
                )
            outcome = repair(
                sample,
                templates,
                cfg.semantics,
                cfg.kappa,
                budget=SearchBudget(
                    time_limit=max(deadline - time.monotonic(), 0.01),
                    node_limit=max(nodes_left, 1),
                ),
                store=store,
            )
            outcome.strategy = strategy
            nodes_left -= outcome.explored
            # an outcome with no formula has fitness -inf
            if best_outcome is None or outcome.fitness > best_outcome.fitness:
                best_outcome = outcome
            if outcome.threshold_met or time.monotonic() >= deadline or nodes_left <= 0:
                break

        path = "repaired" if best_outcome.threshold_met else "failed"
        if best_outcome.best is None:
            notes.append("repair produced no admissible formula; reporting top candidate")
        elif path == "failed" and best_fit > best_outcome.fitness:
            notes.append(
                f"top candidate fitness {best_fit:.6g} beats the repair incumbent's "
                f"{best_outcome.fitness:.6g}; reporting top candidate"
            )
        else:
            chosen = format_formula(best_outcome.best.formula)

    t_end = time.perf_counter()
    return RunReport(
        formula=chosen,
        path=path,
        candidates=cand_rows,
        repair=outcome_dict(best_outcome) if best_outcome else None,
        params=_params_echo(cfg),
        timings={
            "llm_seconds": t_llm - t_start,
            "repair_seconds": t_end - t_llm if best_outcome else 0.0,
            "total_seconds": t_end - t_start,
        },
        notes=notes,
    )


# --- standalone scoring ---------------------------------------------------------


def eval_formula(
    formula_text: str, sample: Sample, params: SemanticsParams, both: bool = False
) -> dict:
    """Per-trace and mean scores for one formula, optionally under both
    semantics (the robust side evaluates the NNF). Each semantics makes one
    walk over the sample's layout, and satisfaction one more, all read at
    the trace starts."""
    f = parse_formula(formula_text, sample.props)
    states, segments, starts = sample.states, sample.segments, sample.starts
    sats = evaluate(f, states, "qualitative", None, segments)

    def table(p: SemanticsParams) -> dict:
        if p.kind == ROBUST:
            vals, flags = evaluate(f if is_nnf(f) else to_nnf(f), states, "robust_pair", p,
                                   segments)
        else:
            vals, flags = evaluate(f, states, DISCOUNTED, p, segments), None
        rows = [{"score": vals[k], "decisive": flags is None or flags[k], "sat": bool(sats[k])}
                for k in starts]
        return {"mean": start_mean(vals, starts), "per_trace": rows}

    out = {"formula": format_formula(f), "props": list(sample.props)}
    if both:
        robust = SemanticsParams(params.alpha, params.beta, params.gamma, ROBUST)
        disc = SemanticsParams(params.alpha, params.beta, params.gamma, DISCOUNTED)
        out["robust"] = table(robust)
        out["discounted"] = table(disc)
    else:
        out[params.kind] = table(params)
    return out


# --- benchmark harness ------------------------------------------------------------


def atoms_in_order(f: Formula) -> list[str]:
    """Atom names in first-occurrence (left-to-right) order."""
    out: list[str] = []

    def walk(g):
        if isinstance(g, Atom):
            if g.name != "true" and g.name not in out:
                out.append(g.name)
            return
        for c in children(g):
            walk(c)

    walk(f)
    return out


def _case_config(path: Path) -> dict:
    parser = configparser.ConfigParser()
    parser.read(path)
    if "case" not in parser:
        raise ConfigError(f"{path} has no [case] section")
    if "formula" not in parser["case"]:
        raise ConfigError(f"{path} sets no formula")
    return dict(parser["case"])


def run_case(case_dir: Path) -> dict:
    """Execute one benchmark case; raises on setup errors."""
    case_dir = Path(case_dir)
    c = _case_config(case_dir / "case.ini")
    formula_text = c["formula"]
    atoms = atoms_in_order(parse_formula(formula_text))
    if not atoms:
        raise ConfigError(f"formula = {formula_text!r} names no atom")
    props = PropositionSet(atoms)
    ground_truth = parse_formula(formula_text, props)

    def given(cls, *names, **keys) -> dict:
        """The fields of `cls` the case sets: each of `names` under its own
        key, each of `keys` under the key it maps to."""
        keys.update(zip(names, names))
        return {n: cast_setting(k, c[k], setting_cast(cls, n)) for n, k in keys.items() if k in c}

    def integer(key: str, default: int) -> int:
        return cast_setting(key, c[key], int) if key in c else default

    def expect(key: str) -> bool:
        text = c.get(key, "true")
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"{key} = {text!r} is neither true nor false")
        return text.lower() == "true"

    expect_sat, expect_improvement = expect("expect_sat"), expect("expect_improvement")
    params = checked(SemanticsParams,
                     **given(SemanticsParams, "alpha", "beta", "gamma", kind="semantics"))
    sample = checked(
        generate_traces,
        ground_truth,
        props,
        count=integer("count", 10),
        min_len=integer("min_len", 3),
        max_len=integer("max_len", 6),
        seed=integer("gen_seed", 7),
        budget=integer("gen_budget", 200000),
    )
    cfg = RunConfig(
        semantics=params,
        fixtures=str(case_dir / "responses"),
        budget=checked(SearchBudget,
                       **given(SearchBudget, "node_limit", time_limit="budget_seconds")),
        **given(RunConfig, "kappa", "depth", "top", "strategy", "hole_prob", "seed",
                "n_candidates", "template_count"),
    )
    explanation = (case_dir / "explanation.txt").read_text()
    t0 = time.perf_counter()
    report = janaka_run(cfg, sample=sample, explanation=explanation)
    runtime = time.perf_counter() - t0

    llm = report.candidates[0]
    final_text = report.formula
    final = parse_formula(final_text, props)
    final_sat, _ = satisfies_all(final, sample)
    final_fit = sample_fitness(final, sample, params)
    checks = {}
    if expect_sat:
        checks["sat"] = final_sat
    if expect_improvement:
        checks["improvement"] = final_fit >= llm["fitness"]
    return {
        "case": case_dir.name,
        "ground_truth": format_formula(ground_truth),
        "semantics": params.kind,
        "traces": len(sample.traces),
        "llm": llm,
        "final": {"formula": final_text, "fitness": final_fit, "sat": final_sat},
        "path": report.path,
        "runtime": runtime,
        "checks": checks,
        "ok": all(checks.values()),
    }


def bench_run(suite_dir, out_dir=None) -> dict:
    """Run every case directory under the suite; per-case failures (an
    error of janaka's or a file that cannot be read) are isolated into their
    row and the suite continues."""
    suite_dir = Path(suite_dir)
    cases = sorted(p for p in suite_dir.iterdir() if (p / "case.ini").exists())
    if not cases:
        raise ConfigError(f"no cases under {suite_dir}")
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    def one(case_dir: Path) -> dict:
        try:
            return run_case(case_dir)
        except (JanakaError, OSError) as exc:
            return {"case": case_dir.name, "error": f"{type(exc).__name__}: {exc}", "ok": False}

    rows = [one(c) for c in cases]

    suite = {
        "suite": suite_dir.name,
        "cases": rows,
        "ok": all(r.get("ok", False) for r in rows),
    }
    if out:
        for row in rows:
            tmp = out / f".{row['case']}.json.tmp"
            tmp.write_text(json.dumps(row, indent=2, sort_keys=True) + "\n")
            tmp.replace(out / f"{row['case']}.json")
        (out / "suite.json").write_text(json.dumps(suite, indent=2, sort_keys=True) + "\n")
    return suite


def format_bench_table(suite: dict) -> str:
    lines = [
        f"{'case':<18} {'LLM formula':<42} {'SAT':<4} {'FIT':>8}   "
        f"{'repaired formula':<46} {'SAT':<4} {'FIT':>8} {'time':>7}"
    ]
    for row in suite["cases"]:
        if "error" in row:
            lines.append(f"{row['case']:<18} ERROR: {row['error']}")
            continue
        llm, fin = row["llm"], row["final"]
        lines.append(
            f"{row['case']:<18} {llm['formula']:<42} {'yes' if llm['sat'] else 'no':<4} "
            f"{llm['fitness']:>8.3f}   {fin['formula']:<46} "
            f"{'yes' if fin['sat'] else 'no':<4} {fin['fitness']:>8.3f} "
            f"{row['runtime']:>6.1f}s"
        )
    lines.append(f"suite ok: {suite['ok']}")
    return "\n".join(lines)
