#!/usr/bin/env python3
"""janaka benchmark.

One workload:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 28 --trace 0

All four workloads, each in its own process, one after another:

    python3 perfbench/run.py --seconds 28 [--trace 1]

Regenerate the stored brute-force optima of the depth2 workload:

    python3 perfbench/run.py --regen-oracle

A run sets up its inputs, then performs whole rounds of ops for about
``--seconds`` (it stops at the round end nearest to them), then checks every
output against the naive oracles. Between ops it times a set-up in a fresh
interpreter about every two seconds (``setup_s`` is their median). The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
Results and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Every workload runs single-threaded, native libraries included.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
# Set-ups after the first load janaka from cached bytecode, whatever the
# environment says about writing it; the cache lives in the output directory.
sys.dont_write_bytecode = False
sys.pycache_prefix = str(OUT / "pycache")

from checks import Oracle, load_naive  # noqa: E402
from layers import EXACT, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEPTH2_ORACLE,
    WORKLOADS,
    janaka_modules,
    load_janaka,
    regen_depth2_oracle,
    trace_points,
)

TRACED_SETUPS = 3  # traced set-ups before a traced run's rounds; the first one's inputs are used
SETUP_GAP = 2.0  # s between the set-ups timed in a fresh interpreter during the rounds
LADDER = (75, 90, 95, 99, 99.9)
MB = 1e6


def _rank(p, n: int) -> int:
    """1-based nearest rank of percentile p among n values."""
    return max(1, math.ceil(p * n / 100 - 1e-9))  # 99.9% of 10000 is rank 9990


def tail_percentile(n_ops: int):
    """The highest ladder percentile with at least ten ops beyond it, or
    None below forty ops (a percentile there would be no tail)."""
    if n_ops < 40:
        return None
    best = None
    for p in LADDER:
        if n_ops - _rank(p, n_ops) >= 10:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


@dataclass
class Record:
    inst: int
    seconds: float
    round: int
    traced: bool
    same: bool = True
    out: object = None
    error: str | None = None


def setup(workload, tracer, k):
    t0 = time.perf_counter()
    J = load_janaka()
    if tracer is None:
        insts = workload.build(J, ROOT)
    else:
        tracer.current_op = -(k + 1)
        with tracer.installed(trace_points(J)):
            insts = workload.build(J, ROOT)
    return time.perf_counter() - t0, J, insts


def setup_again(workload, tracer, k) -> float:
    """Trace one more set-up in this process and drop what it made: the
    modules it imported are swapped out again, so the ops keep running on
    the first set-up's janaka (its lazy imports included)."""
    kept = janaka_modules()
    try:
        return setup(workload, tracer, k)[0]
    finally:
        for m in janaka_modules():
            del sys.modules[m]
        sys.modules.update(kept)


def setup_in_child(workload) -> float:
    """One set-up timed in a fresh interpreter, so that it imports every
    module janaka needs, third-party ones included."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py"), workload.name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def is_traced_round(r: int) -> bool:
    # untraced, traced, traced, then alternating: two traced rounds at least
    return r in (1, 2) or (r >= 3 and r % 2 == 0)


def timed_rounds(workload, J, insts, seconds, rng, tracer, setup_times):
    """Whole rounds of ops, ending at the round end nearest to ``seconds``
    (a traced run also needs two traced rounds and an untraced one). An
    untraced run times a set-up every ``SETUP_GAP`` seconds between ops and
    adds it to ``setup_times``; the machine's speed drifts over seconds, so
    set-ups spread over the run give a steadier median than set-ups made
    back to back. The garbage collector runs as it would for any caller,
    inside the ops' timing."""
    points = trace_points(J) if tracer is not None else None
    order = list(range(len(insts)))
    records: list[Record] = []
    first: dict[int, object] = {}
    walls: list[tuple[bool, float]] = []
    start = last_setup = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and is_traced_round(r)
        rng.shuffle(order)
        t_round = time.perf_counter()
        in_round = 0.0  # set-up time inside this round, left out of its wall time
        with tracer.installed(points) if traced else nullcontext():
            for i in order:
                if traced:
                    tracer.current_op = len(records)
                error = None
                t0 = time.perf_counter()
                try:
                    out = workload.run_op(J, insts[i])
                except Exception:  # an op's failure is counted, the run goes on
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
                rec = Record(i, time.perf_counter() - t0, r, traced, error=error)
                if error is None:
                    digest = workload.signature(J, out)
                    if i not in first:
                        first[i] = digest
                        rec.out = out
                    elif digest != first[i]:
                        rec.same, rec.out = False, out
                records.append(rec)
                if tracer is None and time.perf_counter() - last_setup >= SETUP_GAP:
                    t_setup = time.perf_counter()
                    setup_times.append(setup_in_child(workload))
                    last_setup = time.perf_counter()
                    in_round += last_setup - t_setup
        walls.append((traced, time.perf_counter() - t_round - in_round))
        r += 1
        elapsed = time.perf_counter() - start
        n_traced = sum(1 for t, _ in walls if t)
        # one more round would end further past ``seconds`` than this one ends short of them
        if elapsed + elapsed / r / 2 >= seconds and (
            tracer is None or (n_traced >= 2 and len(walls) > n_traced)
        ):
            return records, walls, elapsed


def check_outputs(workload, J, insts, records):
    """Check every op's output; identical outputs of one instance share a check."""
    oracle = Oracle(J, load_naive(ROOT))
    problems = workload.check_inputs(oracle, insts)
    causes_of: dict[int, list[str]] = {}
    for rec in records:
        if rec.out is not None and rec.same:
            causes_of[rec.inst] = workload.check(oracle, insts[rec.inst], rec.out)
    failures: Counter = Counter()
    failed = 0
    for rec in records:
        if rec.error is not None:
            causes = [rec.error]
        elif not rec.same:
            causes = ["output differs from this op's first output"]
            causes += workload.check(oracle, insts[rec.inst], rec.out)
        else:
            causes = causes_of[rec.inst]
        if causes:
            failed += 1
            for cause in causes:
                failures[(insts[rec.inst].name, cause)] += 1
    return problems, failed, failures


def op_p50(records) -> float:
    """Median over the workload's ops of each op's mean time over the rounds.
    The machine's speed moves between slower and faster spells, so single
    op times mix two speeds; the median of all of them jumps from one speed
    to the other as the share of slow time passes a half, where a mean per
    op moves only in proportion to it."""
    per_op: dict[int, list[float]] = {}
    for rec in records:
        per_op.setdefault(rec.inst, []).append(rec.seconds)
    return statistics.median(statistics.fmean(v) for v in per_op.values())


def end_to_end(workload, records, walls, setup_times):
    times = [rec.seconds for rec in records]
    p50 = op_p50(records)
    tail = percentile(times, workload.tail_pct) if workload.tail_pct else p50
    return {
        "ops_per_s": (len(records) / sum(w for _, w in walls), "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    # a first set-up in a fresh interpreter caches janaka's bytecode, so this
    # process compiles nothing and its peak memory is the same in every run
    setup_in_child(workload)
    first_setup, J, insts = setup(workload, tracer, 0)
    if tracer is not None:
        for k in range(1, TRACED_SETUPS):
            setup_again(workload, tracer, k)
    setup_times: list[float] = []
    if not Path(J.pipeline.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"janaka was imported from {J.pipeline.__file__}, not from {SRC}")

    for inst in workload.warm_up(insts):
        workload.run_op(J, inst)
    rng = random.Random(args.seed)
    records, walls, elapsed = timed_rounds(workload, J, insts, args.seconds, rng, tracer, setup_times)
    if tracer is None:
        metrics = end_to_end(workload, records, walls, setup_times)
    problems, failed, failures = check_outputs(workload, J, insts, records)
    if tracer is not None:
        metrics, counts_problems = layer_metrics(tracer, records, walls, insts, workload)
        problems += counts_problems
        problems += counts_repeat(workload, {n: metrics[n][0] for n in EXACT + ("traces.draws",)})

    rounds = len(walls)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  {rounds} rounds of {len(insts)} ops in {elapsed:.2f} s; "
          f"op_tail_s is " + (f"p{workload.tail_pct:g}" if workload.tail_pct else "the median"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  attempted {len(records)}  failed {failed}")
    for (inst, cause), n in sorted(failures.items()):
        print(f"  failed x{n}: {inst}: {cause}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=rounds, problems=problems,
                  failures=[{"op": i, "cause": c, "count": n} for (i, c), n in sorted(failures.items())],
                  first_setup=first_setup, setup_times=setup_times, round_walls=walls,
                  ops=[{"op": insts[rec.inst].name, "round": rec.round, "seconds": rec.seconds}
                       for rec in records])
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


def code_digest() -> str:
    """Digest of janaka's sources, its bundled cases and the workloads'
    definitions and data: what the exact counts depend on."""
    h = hashlib.sha256()
    files = [HERE / "workloads.py"]
    for top in (SRC / "janaka", HERE / "data"):
        files += (p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def counts_repeat(workload, counts: dict) -> list[str]:
    """Compare this run's exact counts with those an earlier traced run of the
    same code recorded in the output directory (and record them if none
    did). Each run is a new process, with its own hash seed."""
    path = OUT / f"counts-{workload.name}.json"
    key = code_digest()
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):
        stored = {}
    if stored.get("key") == key:
        if stored["counts"] != counts:
            return [f"exact counts {counts} differ from an earlier run's {stored['counts']}"]
        return []
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps({"key": key, "counts": counts}, indent=1) + "\n")
    return []


def run_all(args) -> int:
    """Every workload in its own process, serially; prints each one's report."""
    status = 0
    summary = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = proc.returncode or 1
            summary.append((name, "did not finish"))
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary.append((name, f"{result['attempted']} attempted, {result['failed']} failed, "
                              f"correct {result['correct']}"))
        print()
    print("summary")
    for name, line in summary:
        print(f"  {name:<12} {line}")
    return status


def regen_oracle() -> int:
    J = load_janaka()
    data = regen_depth2_oracle(J, Oracle(J, load_naive(ROOT)), ROOT)
    DEPTH2_ORACLE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for name, entry in data.items():
        print(f"{name}: optimum {entry['optimum']!r} over {entry['nontrivial']} non-trivial "
              f"of {entry['fillings']} fillings; {len(entry['optimal'])} optimal formula(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-oracle", action="store_true")
    args = parser.parse_args(argv)
    if args.regen_oracle:
        return regen_oracle()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    missing = [p for p in (SRC / "janaka" / "__init__.py", ROOT / "tests" / "naive_semantics.py")
               if not p.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: the checkout lacks {', '.join(map(str, missing))}\n")
        sys.exit(2)
    sys.exit(main())
