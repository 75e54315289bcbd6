"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import (  # noqa: E402
    Oracle,
    brute_force_depth2,
    check_lp,
    check_mine,
    check_repair,
    load_naive,
)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, janaka_modules, load_janaka, read_case, trace_points  # noqa: E402


@pytest.fixture(scope="module")
def J():
    return load_janaka()


@pytest.fixture(scope="module")
def oracle(J):
    return Oracle(J, load_naive(ROOT))


class TestTailPercentile:
    @pytest.mark.parametrize("n, want", [
        (1, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90),
        (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9),
    ])
    def test_rule(self, n, want):
        assert run.tail_percentile(n) == want

    def test_at_least_ten_ops_beyond(self):
        for n in range(40, 20000):
            values = range(n)
            assert n - 1 - run.percentile(values, run.tail_percentile(n)) >= 10

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        assert run.percentile(values, 50) == 3
        assert run.percentile(values, 100) == 5
        assert run.percentile(list(range(1, 41)), 75) == 30

    def test_workload_percentiles_follow_the_rule(self):
        # table1 runs 60-80 mines a run (three or four rounds of 20);
        # milp-export 1,000-9,999 exports (1,320-1,920 seen)
        assert WORKLOADS["table1"].tail_pct == run.tail_percentile(60) == run.tail_percentile(80)
        assert WORKLOADS["milp-export"].tail_pct == run.tail_percentile(1000) == run.tail_percentile(9999)
        assert WORKLOADS["depth2"].tail_pct is None
        assert WORKLOADS["long-traces"].tail_pct is None


def test_op_p50_is_the_median_of_per_op_means():
    times = {0: [1, 1, 1, 10], 1: [2, 2, 2, 2], 2: [3, 3, 3, 3]}  # means 3.25, 2, 3
    records = [run.Record(i, s, r, False) for i, ts in times.items() for r, s in enumerate(ts)]
    assert run.op_p50(records) == 3.0  # the median of all twelve times is 2.5
    assert run.op_p50(records[:1] + records[4:5]) == 1.5


class TestSpans:
    def test_wrappers_restore_janaka_functions(self, J):
        points = trace_points(J)
        before = [owner.__dict__[attr] for owner, attr, *_ in points]
        tracer = Tracer()
        with tracer.installed(points):
            assert all(owner.__dict__[attr] is not orig
                       for (owner, attr, *_), orig in zip(points, before))
        assert all(owner.__dict__[attr] is orig
                   for (owner, attr, *_), orig in zip(points, before))

    def test_restored_after_an_exception(self):
        owner = _Owner(types.SimpleNamespace(f=lambda x: x))
        orig = owner.f
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.installed([(owner, "f", "m.f", None, None)]):
                assert owner.f is not orig
                raise RuntimeError
        assert owner.f is orig

    def test_parents_and_self_time(self):
        owner = _Owner(types.SimpleNamespace())
        owner.inner = lambda: sum(range(1000))
        owner.outer = lambda: owner.inner() + owner.inner()
        tracer = Tracer()
        tracer.current_op = 7
        with tracer.installed([
            (owner, "outer", "outer", None, None),
            (owner, "inner", "inner", lambda a, k, r: r, None),
        ]):
            owner.outer()
        names = [tracer.names[i] for i in tracer.name]
        assert names == ["outer", "inner", "inner"]
        assert list(tracer.parent) == [-1, 0, 0]
        assert list(tracer.op) == [7, 7, 7]
        assert list(tracer.work) == [0.0, 499500.0, 499500.0]
        dur, own = tracer.durations_ns(), tracer.self_ns()
        assert own[0] == dur[0] - dur[1] - dur[2]
        assert own[1:] == dur[1:]


class TestSetup:
    def test_a_further_traced_setup_leaves_the_loaded_janaka_in_place(self, J):
        before = janaka_modules()
        assert before["janaka.pipeline"] is J.pipeline
        assert run.setup_again(WORKLOADS["depth2"], None, 1) > 0
        after = janaka_modules()
        assert after.keys() == before.keys()
        assert all(after[m] is mod for m, mod in before.items())

    def test_setup_timed_in_a_fresh_interpreter(self):
        assert run.setup_in_child(WORKLOADS["depth2"]) > 0


class TestCountsRepeat:
    def test_a_count_that_differs_between_runs_of_the_same_code_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT", tmp_path)
        w = WORKLOADS["depth2"]
        counts = {"repair.decoded": 25029.0, "traces.draws": 85}
        assert run.counts_repeat(w, counts) == []  # recorded
        assert run.counts_repeat(w, dict(counts)) == []
        assert run.counts_repeat(w, dict(counts, **{"repair.decoded": 25030.0}))

    def test_changed_code_starts_a_new_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT", tmp_path)
        w = WORKLOADS["depth2"]
        assert run.counts_repeat(w, {"repair.decoded": 1.0}) == []
        monkeypatch.setattr(run, "code_digest", lambda: "other code")
        assert run.counts_repeat(w, {"repair.decoded": 2.0}) == []


class _Owner:
    """A plain object whose attributes live in __dict__, like a module's."""

    def __init__(self, ns):
        self.__dict__.update(vars(ns))


def _case5(J, seed=7):
    case_dir = ROOT / "src" / "janaka" / "suites" / "table1" / "case5"
    c = read_case(case_dir)
    from workloads import case_basics, case_sample, run_config
    props, gt, params = case_basics(J, c)
    sample = case_sample(J, c, props, gt, seed)
    cfg = run_config(J, params, float(c["kappa"]), 1, c["strategy"], float(c["hole_prob"]),
                     int(c["seed"]), case_dir / "responses")
    return Instance("case5", props, sample, params, cfg.kappa, cfg=cfg,
                    explanation=(case_dir / "explanation.txt").read_text())


class TestChecksRejectTampering:
    def test_mine_passes_then_rejects_wrong_fitness(self, J, oracle):
        inst = _case5(J)
        report = J.pipeline.janaka_run(inst.cfg, sample=inst.sample, explanation=inst.explanation)
        assert check_mine(report, inst, oracle) == []
        report.candidates[1]["fitness"] += 1e-6
        assert any("fitness" in c for c in check_mine(report, inst, oracle))

    def test_mine_rejects_a_formula_that_violates_a_trace(self, J, oracle):
        inst = _case5(J)
        report = J.pipeline.janaka_run(inst.cfg, sample=inst.sample, explanation=inst.explanation)
        report.formula = "G(p)"
        report.repair["formula"] = "G(p)"
        causes = check_mine(report, inst, oracle)
        assert any(c.startswith("sat: G(p) violates") for c in causes)

    def test_repair_rejects_an_optimum_below_brute_force(self, J, oracle):
        inst = _case5(J)
        inst.template = J.templates.parse_template("G((p -> ?<2>))")
        expected = brute_force_depth2(J, oracle, inst.template, inst.sample, inst.params)
        budget = J.repair.SearchBudget(time_limit=1e6, node_limit=10**12)
        outcome = J.repair.repair(inst.sample, [inst.template], inst.params, inst.kappa, budget)
        assert check_repair(outcome, inst, oracle, expected) == []

        # a worse filling, reported with its own true scores
        worse = next(
            fl for fl in J.repair.enumerate_fillings(inst.template, inst.props)
            if not J.repair.triviality_filter(fl.formula)
            and oracle.fitness(fl.formula, inst.sample, inst.params) < expected["optimum"] - 0.1
        )
        f = worse.formula
        outcome.best = worse
        outcome.fitness = J.semantics.sample_fitness(f, inst.sample, inst.params)
        outcome.per_trace = [
            (J.semantics.value_of(f, w, inst.params).value, J.formulas.eval_qualitative(f, w))
            for w in inst.sample.traces
        ]
        outcome.threshold_met = outcome.fitness >= inst.kappa
        causes = check_repair(outcome, inst, oracle, expected)
        assert causes and all(c.startswith("optimum:") for c in causes)

    def test_repair_rejects_a_wrong_fitness(self, J, oracle):
        inst = _case5(J)
        inst.template = J.templates.parse_template("G((p -> ?<1>))")
        expected = brute_force_depth2(J, oracle, inst.template, inst.sample, inst.params)
        budget = J.repair.SearchBudget(time_limit=1e6, node_limit=10**12)
        outcome = J.repair.repair(inst.sample, [inst.template], inst.params, inst.kappa, budget)
        outcome.fitness += 1e-6
        assert any("fitness" in c for c in check_repair(outcome, inst, oracle, expected))

    def test_lp_rejects_a_model_with_a_label_missing(self, J, oracle):
        inst = _case5(J)
        inst.params = J.semantics.SemanticsParams(0.9, 0.9, 0.1, "discounted")
        inst.template = J.templates.parse_template("G((p -> ?<1>))")
        inst.sample = J.traces.Sample(inst.sample.traces[:2], inst.props)
        lp = J.milp.export_milp(inst.template, inst.sample, inst.params, d=inst.template.depth)
        assert check_lp(lp, inst, oracle, solve=True) == []
        head, binaries = lp.split("Binary\n")
        label = next(v for v in binaries.split() if v.startswith("x_"))
        tampered = head + "Binary\n" + binaries.replace(label, "", 1)
        assert check_lp(tampered, inst, oracle, solve=False)
