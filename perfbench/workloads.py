"""The four workloads: how each builds its inputs, what one op is, and how
an op's output is checked.

Inputs do not depend on the run's ``--seed``; the seed only orders the ops
inside a round. Every round performs the same ops on the same inputs, so the
work per round, the exact counts and the share of failed ops are the same in
every run. Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import configparser
import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from checks import brute_force_depth2, check_lp, check_mine, check_repair

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
DEPTH2_ORACLE = DATA / "depth2_oracle.json"

MODULES = ("formulas", "semantics", "traces", "templates", "llm", "repair", "milp", "pipeline")

# Budgets far above need: a search must end because it ran out of work.
TIME_LIMIT = 1e6
NODE_LIMIT = 10**12

TABLE1_TRACE_SEEDS = tuple(range(4))
SUITE = Path("src") / "janaka" / "suites" / "table1"


def janaka_modules() -> dict:
    """The loaded janaka modules by name."""
    return {m: mod for m, mod in sys.modules.items() if m == "janaka" or m.startswith("janaka.")}


def load_janaka():
    """Import janaka afresh (dropping any loaded copy) and return its modules."""
    for name in janaka_modules():
        del sys.modules[name]
    importlib.import_module("janaka")
    return SimpleNamespace(**{
        m: importlib.import_module(f"janaka.{m}") for m in MODULES
    })


def trace_points(J):
    """(owner, attribute, span name, work, rename) for every traced call."""
    f = J.formulas
    lengths: dict[int, int] = {}

    def sample_len(sample):
        key = id(sample)
        if key not in lengths:
            lengths[key] = sum(len(w) for w in getattr(sample, "traces", sample))
        return lengths[key]

    def fitness_tpn(args, kwargs, result):
        return f.node_count(args[0]) * sample_len(args[1])

    def fitness_kind(args, kwargs):
        return "semantics.sample_fitness." + args[2].kind

    def qual_tpn(args, kwargs, result):
        return f.node_count(args[0]) * len(args[1])

    def holes(args, kwargs, result):
        return sum(len(t.hole_indices) for t in result)

    def explored(args, kwargs, result):
        return result.explored

    return [
        (J.pipeline, "janaka_run", "pipeline.janaka_run", None, None),
        (J.pipeline, "build_prompt", "llm.build_prompt", None, None),
        (J.pipeline, "request_candidates", "llm.request_candidates", None, None),
        (J.llm.MockChatProvider, "complete", "llm.complete", None, None),
        (J.pipeline, "top_k", "llm.top_k", None, None),
        (J.pipeline, "make_templates", "templates.make_templates", holes, None),
        (J.pipeline, "satisfies_all", "semantics.satisfies_all", None, None),
        (J.pipeline, "repair", "repair.repair", explored, None),
        (J.repair, "repair", "repair.repair", explored, None),
        (J.repair, "triviality_filter", "repair.triviality_filter", None, None),
        (J.repair, "bound_mean_fitness", "repair.bound_mean_fitness", None, None),
        (J.repair, "sample_fitness", "semantics.sample_fitness", fitness_tpn, fitness_kind),
        (J.llm, "sample_fitness", "semantics.sample_fitness", fitness_tpn, fitness_kind),
        (J.repair, "eval_qualitative", "formulas.eval_qualitative", qual_tpn, None),
        (J.semantics, "eval_qualitative", "formulas.eval_qualitative", qual_tpn, None),
        (J.traces, "generate_traces", "traces.generate_traces", None, None),
        (J.traces, "eval_qualitative", "traces.draw", qual_tpn, None),
        (J.milp, "export_milp", "milp.export_milp", None, None),
    ]


@dataclass
class Instance:
    name: str
    props: object
    sample: object
    params: object
    kappa: float
    expect_sat: bool = True
    expect_improvement: bool = True
    cfg: object = None
    explanation: str = ""
    template: object = None
    extra: dict = field(default_factory=dict)


def read_case(case_dir: Path) -> dict:
    parser = configparser.ConfigParser()
    parser.read(case_dir / "case.ini")
    return dict(parser["case"])


def case_basics(J, c: dict):
    formula = J.formulas.parse_formula(c["formula"])
    props = J.formulas.PropositionSet(J.pipeline.atoms_in_order(formula))
    ground_truth = J.formulas.parse_formula(c["formula"], props)
    params = J.semantics.SemanticsParams(
        float(c["alpha"]), float(c["beta"]), float(c["gamma"]), c["semantics"]
    )
    return props, ground_truth, params


def case_sample(J, c, props, ground_truth, seed):
    return J.traces.generate_traces(
        ground_truth, props,
        count=int(c["count"]),
        min_len=int(c["min_len"]), max_len=int(c["max_len"]),
        seed=seed, budget=int(c["gen_budget"]),
    )


def run_config(J, params, kappa, depth, strategy, hole_prob, seed, fixtures, top=1, template_count=3):
    return J.pipeline.RunConfig(
        semantics=params, kappa=kappa, depth=depth, top=top, strategy=strategy,
        hole_prob=hole_prob, provider="mock", fixtures=str(fixtures), seed=seed,
        budget=J.repair.SearchBudget(time_limit=TIME_LIMIT, node_limit=NODE_LIMIT),
        template_count=template_count,
    )


def top_candidate(J, case_dir, sample, params):
    """The case's top-ranked LLM candidate in NNF, as the pipeline ranks it."""
    provider = J.llm.MockChatProvider(fixture_dir=case_dir / "responses")
    explanation = (case_dir / "explanation.txt").read_text()
    bundle = J.pipeline.build_prompt(sample, explanation)
    cands = J.pipeline.request_candidates(provider, bundle)
    best = J.pipeline.top_k(cands, sample, params, k=len(cands.formulas))[0][0]
    return best if J.formulas.is_nnf(best) else J.formulas.to_nnf(best)


class Workload:
    name = ""
    tail_pct = None  # percentile reported as op_tail_s; None: report the median

    def warm_up(self, insts) -> list:
        """Instances run once, untimed, before the first round."""
        return []

    def build(self, J, root: Path) -> list[Instance]:
        raise NotImplementedError

    def run_op(self, J, inst):
        raise NotImplementedError

    def signature(self, J, out) -> str:
        """Text that identifies an output; equal signatures get one check."""
        raise NotImplementedError

    def check(self, oracle, inst, out) -> list[str]:
        raise NotImplementedError

    def check_inputs(self, oracle, insts) -> list[str]:
        return []


class _Mine(Workload):
    def run_op(self, J, inst):
        return J.pipeline.janaka_run(inst.cfg, sample=inst.sample, explanation=inst.explanation)

    def signature(self, J, out):
        return out.to_json(zero_timings=True)

    def check(self, oracle, inst, out):
        return check_mine(out, inst, oracle)


class Table1(_Mine):
    """The five bundled cases as shipped, over fixed trace seeds."""

    name = "table1"
    tail_pct = 75

    def warm_up(self, insts):
        # one short mine per case: the first round's short mines otherwise run
        # 30-80% slower than later rounds' and move the median
        return [inst for inst in insts if inst.name.endswith(f"/traces{TABLE1_TRACE_SEEDS[0]}")]

    def build(self, J, root):
        insts = []
        for case_dir in sorted((root / SUITE).iterdir()):
            c = read_case(case_dir)
            props, ground_truth, params = case_basics(J, c)
            explanation = (case_dir / "explanation.txt").read_text()
            cfg = run_config(
                J, params, float(c["kappa"]), int(c["depth"]), c["strategy"],
                float(c["hole_prob"]), int(c["seed"]), case_dir / "responses",
                top=int(c["top"]), template_count=int(c["template_count"]),
            )
            for seed in TABLE1_TRACE_SEEDS:
                sample = case_sample(J, c, props, ground_truth, seed)
                insts.append(Instance(
                    f"{case_dir.name}/traces{seed}", props, sample, params, cfg.kappa,
                    expect_sat=c.get("expect_sat", "true") == "true",
                    expect_improvement=c.get("expect_improvement", "true") == "true",
                    cfg=cfg, explanation=explanation,
                ))
        return insts


# name, ground truth, case directory under data/long-traces, semantics, kappa
LONG_TRACES = (
    ("gf-robust", "G(p -> F(q))", "gf", "robust", 7.8),
    ("fpq-robust", "F(p & q) & F(r)", "fpq", "robust", 7.8),
    ("gf-discounted", "G(p -> F(q))", "gf", "discounted", 0.92),
    ("fpq-discounted", "F(p & q) & F(r)", "fpq", "discounted", 0.92),
)
LONG_PROPS = ("p", "q", "r")
LONG_LEN = (64, 256)
LONG_COUNT = 10
LONG_TRACE_SEED = 1


class LongTraces(_Mine):
    """d=1 mines on traces of length 64-256, half robust, half discounted."""

    name = "long-traces"

    def build(self, J, root):
        props = J.formulas.PropositionSet(LONG_PROPS)
        insts = []
        for name, gt_text, case, kind, kappa in LONG_TRACES:
            ground_truth = J.formulas.parse_formula(gt_text, props)
            sample = J.traces.generate_traces(
                ground_truth, props, count=LONG_COUNT, min_len=LONG_LEN[0],
                max_len=LONG_LEN[1], seed=LONG_TRACE_SEED, budget=100_000,
            )
            params = J.semantics.SemanticsParams(0.9, 0.9, 0.1, kind)
            case_dir = DATA / "long-traces" / case
            cfg = run_config(J, params, kappa, 1, "random", 0.3, 0, case_dir / "responses")
            insts.append(Instance(
                name, props, sample, params, kappa, cfg=cfg,
                explanation=(case_dir / "explanation.txt").read_text(),
                extra={"ground_truth": ground_truth},
            ))
        return insts

    def check_inputs(self, oracle, insts):
        causes = []
        for inst in insts:
            sats = oracle.sat(inst.extra["ground_truth"], inst.sample)
            if not all(sats):
                causes.append(f"{inst.name}: generated trace(s) {sats} violate the ground truth")
        return causes


# name, case, how the template is made: ("make", strategy, seed) from the
# case's top candidate at d=2, or ("text", template)
DEPTH2 = (
    ("filter-bound", "case1", ("make", "gtemp", 12)),
    ("bound-bound-a", "case2", ("text", "((q ? X(?<1>)) ? ?<2>)")),
    ("bound-bound-b", "case2", ("text", "((q ? X(?<2>)) ? ?<1>)")),
)


class Depth2(Workload):
    """repair calls with depth-2 holes under robust semantics."""

    name = "depth2"

    def build(self, J, root):
        insts = self.instances(J, root)
        stored = json.loads(DEPTH2_ORACLE.read_text())
        for inst in insts:
            inst.extra["expected"] = stored.get(inst.name)
            inst.extra["key"] = depth2_key(J, inst)
        return insts

    def instances(self, J, root):
        insts = []
        for name, case, how in DEPTH2:
            case_dir = root / SUITE / case
            c = read_case(case_dir)
            props, ground_truth, params = case_basics(J, c)
            sample = case_sample(J, c, props, ground_truth, int(c["gen_seed"]))
            if how[0] == "make":
                source = top_candidate(J, case_dir, sample, params)
                template, = J.templates.make_templates(
                    source, d=2, strategy=how[1], hole_prob=float(c["hole_prob"]), seed=how[2],
                )
            else:
                template = J.templates.parse_template(how[1])
            insts.append(Instance(
                name, props, sample, params, float(c["kappa"]), template=template,
            ))
        return insts

    def run_op(self, J, inst):
        return J.repair.repair(
            inst.sample, [inst.template], inst.params, inst.kappa,
            budget=J.repair.SearchBudget(time_limit=TIME_LIMIT, node_limit=NODE_LIMIT),
        )

    def signature(self, J, out):
        best = J.formulas.format_formula(out.best.formula) if out.best else None
        return repr((best, out.fitness, out.per_trace, out.explored,
                     out.threshold_met, out.budget_expired))

    def check_inputs(self, oracle, insts):
        causes = []
        for inst in insts:
            expected = inst.extra["expected"]
            if expected is None or expected["key"] != inst.extra["key"]:
                causes.append(
                    f"{inst.name}: {DEPTH2_ORACLE.name} does not match this instance; "
                    "regenerate it with `python3 perfbench/run.py --regen-oracle`"
                )
        return causes

    def check(self, oracle, inst, out):
        return check_repair(out, inst, oracle, inst.extra["expected"])


def depth2_key(J, inst) -> dict:
    """What the stored brute-force optimum was computed from."""
    return {
        "template": J.templates.format_template(inst.template),
        "traces": J.traces.serialize_sample(inst.sample),
        "params": [inst.params.alpha, inst.params.beta, inst.params.gamma, inst.params.kind],
    }


def regen_depth2_oracle(J, oracle, root) -> dict:
    out = {}
    for inst in Depth2().instances(J, root):
        result = brute_force_depth2(J, oracle, inst.template, inst.sample, inst.params)
        result["key"] = depth2_key(J, inst)
        out[inst.name] = result
    return out


# Discounted LPs that scipy solves in under a second on the reference
# machine; the other six take 1.7-16 s each and are not solved.
MILP_SOLVED = {
    "case2/t0", "case2/t2", "case3/t0", "case3/t1", "case3/t2",
    "case4/t1", "case5/t0", "case5/t1", "case5/t2",
}


class MilpExport(Workload):
    """export_milp of the table1 candidates' d=1 templates, both semantics."""

    name = "milp-export"
    tail_pct = 99
    TRACES = 3

    def warm_up(self, insts):
        return insts

    def build(self, J, root):
        insts = []
        for case_dir in sorted((root / SUITE).iterdir()):
            c = read_case(case_dir)
            props, ground_truth, params = case_basics(J, c)
            shipped = case_sample(J, c, props, ground_truth, int(c["gen_seed"]))
            source = top_candidate(J, case_dir, shipped, params)
            templates = J.templates.make_templates(
                source, d=1, strategy=c["strategy"], hole_prob=float(c["hole_prob"]),
                seed=int(c["seed"]), count=int(c["template_count"]),
            )
            sample = J.traces.Sample(shipped.traces[: self.TRACES], props)
            for kind in ("robust", "discounted"):
                p = J.semantics.SemanticsParams(params.alpha, params.beta, params.gamma, kind)
                for i, template in enumerate(templates):
                    name = f"{case_dir.name}/t{i}"
                    insts.append(Instance(
                        f"{name}/{kind}", props, sample, p, 0.0, template=template,
                        extra={"solve": kind == "discounted" and name in MILP_SOLVED},
                    ))
        return insts

    def run_op(self, J, inst):
        return J.milp.export_milp(inst.template, inst.sample, inst.params, d=inst.template.depth)

    def signature(self, J, out):
        return out

    def check(self, oracle, inst, out):
        return check_lp(out, inst, oracle, inst.extra["solve"])


WORKLOADS = {w.name: w for w in (Table1(), LongTraces(), Depth2(), MilpExport())}
