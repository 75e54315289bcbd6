"""Per-layer metrics from the spans of a traced run.

Counts and times are per traced round (every round does the same ops), the
``traces.*`` metrics per set-up, and ``*_ns_per_tpn`` per unit of
trace x position x formula node evaluated. A layer that a workload does not
call reads 0.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

FILTER = "repair.triviality_filter"
BOUND = "repair.bound_mean_fitness"
REPAIR = "repair.repair"
ROBUST_FIT = "semantics.sample_fitness.robust"
DISC_FIT = "semantics.sample_fitness.discounted"
QUAL = ("formulas.eval_qualitative", "traces.draw")

# Counts that must repeat exactly from round to round (and from run to run).
EXACT = ("repair.decoded", "repair.scored", "repair.bound_calls", "llm.attempts")


def lp_shape(lp: str) -> tuple[int, int]:
    """(constraint rows, binary variables) of an exported LP text."""
    section, rows, binaries = None, 0, 0
    for line in lp.splitlines():
        word = line.strip()
        if word in ("Subject To", "Bounds", "Binary", "End"):
            section = word
        elif section == "Subject To" and word:
            rows += 1
        elif section == "Binary":
            binaries += len(word.split())
    return rows, binaries


def layer_metrics(tracer, records, walls, insts, workload):
    """Returns ({metric: (value, unit)}, problems)."""
    names = tracer.names
    dur = tracer.durations_ns()
    self_ns = tracer.self_ns()
    rounds = sorted({rec.round for rec in records if rec.traced})
    n_rounds = len(rounds)
    count = defaultdict(Counter)  # round -> span name -> calls
    work = defaultdict(Counter)  # round -> span name -> work units
    total_ns: Counter = Counter()
    total_self_ns: Counter = Counter()
    total_work: Counter = Counter()
    setup_count = defaultdict(Counter)
    setup_gen_ns: Counter = Counter()
    qual_ns = qual_work = 0.0
    for i in range(len(tracer)):
        name = names[tracer.name[i]]
        if name in QUAL:
            qual_ns += dur[i]
            qual_work += tracer.work[i]
        op = tracer.op[i]
        if op < 0:
            setup_count[op][name] += 1
            if name == "traces.generate_traces":
                setup_gen_ns[op] += dur[i]
            continue
        r = records[op].round
        count[r][name] += 1
        work[r][name] += tracer.work[i]
        total_ns[name] += dur[i]
        total_self_ns[name] += self_ns[i]
        total_work[name] += tracer.work[i]

    def calls(name):
        return sum(count[r][name] for r in rounds) / n_rounds

    def secs(name):
        return total_ns[name] * 1e-9 / n_rounds

    def ns_per(name):
        return total_ns[name] / total_work[name] if total_work[name] else 0.0

    decoded = calls(FILTER)
    scored = total_work[REPAIR] / n_rounds
    bound_calls = calls(BOUND)
    search_s = secs(REPAIR)
    lps = [rec.out for rec in records if isinstance(rec.out, str) and rec.same]
    shapes = [lp_shape(lp) for lp in lps]
    traced = [w for t, w in walls if t]
    untraced = [w for t, w in walls if not t]
    draws = [c["traces.draw"] for c in setup_count.values()]
    metrics = {
        "repair.decoded": (decoded, "count"),
        "repair.useful_ratio": (scored / decoded if decoded else 0.0, "ratio"),
        "repair.filter_s": (secs(FILTER), "s"),
        "repair.bound_calls": (bound_calls, "count"),
        "repair.bound_us": (total_ns[BOUND] / 1e3 / (bound_calls * n_rounds) if bound_calls else 0.0, "us"),
        "repair.scored": (scored, "count"),
        "repair.scored_per_s": (scored / search_s if search_s else 0.0, "1/s"),
        "repair.search_s": (search_s, "s"),
        "semantics.fitness_calls": (calls(ROBUST_FIT) + calls(DISC_FIT), "count"),
        "semantics.fitness_s": (secs(ROBUST_FIT) + secs(DISC_FIT), "s"),
        "semantics.robust_ns_per_tpn": (ns_per(ROBUST_FIT), "ns"),
        "semantics.discounted_ns_per_tpn": (ns_per(DISC_FIT), "ns"),
        "formulas.qual_ns_per_tpn": (qual_ns / qual_work if qual_work else 0.0, "ns"),
        "llm.prompt_s": (secs("llm.build_prompt"), "s"),
        "llm.request_s": (secs("llm.request_candidates"), "s"),
        "llm.attempts": (calls("llm.complete"), "count"),
        "llm.rank_s": (secs("llm.top_k"), "s"),
        "templates.make_s": (secs("templates.make_templates"), "s"),
        "templates.holes": (total_work["templates.make_templates"] / n_rounds, "count"),
        "traces.generate_s": (statistics.median(setup_gen_ns.values()) * 1e-9 if setup_gen_ns else 0.0, "s"),
        "traces.draws": (statistics.median(draws) if draws else 0, "count"),
        "milp.export_s": (secs("milp.export_milp"), "s"),
        "milp.rows": (sum(r for r, _ in shapes), "count"),
        "milp.binaries": (sum(b for _, b in shapes), "count"),
        "milp.lp_mb": (sum(len(lp.encode()) for lp in lps) / 1e6, "MB"),
        "pipeline.self_s": (total_self_ns["pipeline.janaka_run"] * 1e-9 / n_rounds, "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
        "trace.spans": (sum(sum(count[r].values()) for r in rounds) / n_rounds, "count"),
    }

    problems = []
    exact = {
        r: (count[r][FILTER], work[r][REPAIR], count[r][BOUND], count[r]["llm.complete"])
        for r in rounds
    }
    if len(set(exact.values())) > 1:
        problems.append(f"{', '.join(EXACT)} differ between traced rounds: {exact}")
    if len(set(draws)) > 1:
        problems.append(f"traces.draws differ between set-ups: {draws}")
    return metrics, problems
