import ast
import configparser
import dataclasses
import json
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka import cli, pipeline
from janaka.errors import ConfigError, JanakaError
from janaka.formulas import PropositionSet, format_formula, parse_formula
from janaka.llm import MockChatProvider
from janaka.repair import Filling, RepairOutcome, SearchBudget, repair
from janaka.semantics import (
    DISCOUNTED,
    ROBUST,
    SemanticsParams,
    sample_fitness,
    satisfies_all,
    value_of,
)
from janaka.traces import Sample, Trace

from gen import random_formula, random_trace

PQ = PropositionSet(["p", "q"])
PARAMS = SemanticsParams(0.9, 0.9, 0.1, ROBUST)
RESPONSE = "```\nG((p | q))\nF(q)\n```\n"


def states(*sets):
    return tuple(frozenset(s) for s in sets)


SAMPLE = Sample(
    (
        Trace(states({"p"}, {"q"}, {"p", "q"})),
        Trace(states({"q"}, {"p"})),
        Trace(states({"p", "q"}, {"p"}, {"q"}, {"q"})),
    ),
    PQ,
)


def fixed_repair(text, budgets=None, explored=1, met=False):
    """A stand-in for pipeline.repair that always returns `text` as its
    incumbent, scored honestly, with the given search counts and threshold
    verdict; it appends each call's budget to `budgets`."""
    f = parse_formula(text, PQ)

    def fake(sample, templates, params, kappa, budget, store=None):
        if budgets is not None:
            budgets.append(budget)
        scores = [value_of(f, w, params).value for w in sample.traces]
        return RepairOutcome(
            best=Filling((), f),
            fitness=sample_fitness(f, sample, params),
            total=sum(scores),
            per_trace=[(s, True) for s in scores],
            explored=explored,
            elapsed=0.0,
            threshold_met=met,
        )

    return fake


def mine(**settings):
    cfg = pipeline.RunConfig(semantics=PARAMS, **settings)
    return pipeline.janaka_run(
        cfg, sample=SAMPLE, explanation="p or q always", provider=MockChatProvider([RESPONSE])
    )


def run(monkeypatch, incumbent):
    monkeypatch.setattr(pipeline, "repair", fixed_repair(incumbent))
    return mine(kappa=100.0, strategy="random")


class TestFailedPath:
    def test_stronger_top_candidate_is_reported(self, monkeypatch):
        report = run(monkeypatch, "G(!p)")
        top = report.candidates[0]
        assert top["fitness"] > report.repair["fitness"]
        assert report.path == "failed"
        assert report.formula == top["formula"] == "G((p | q))"
        assert report.repair["formula"] == "G(!p)"
        assert any("reporting top candidate" in note for note in report.notes)

    def test_incumbent_kept_on_a_tie(self, monkeypatch):
        # equal fitness is not strictly higher: the repair incumbent stays
        report = run(monkeypatch, "G((q | p))")
        assert report.repair["fitness"] == report.candidates[0]["fitness"]
        assert report.path == "failed"
        assert report.formula == "G((q | p))"
        assert not any("reporting top candidate" in note for note in report.notes)


class TestPaths:
    def test_llm_direct_never_repairs(self, monkeypatch):
        def repair_called(*args, **kwargs):
            raise AssertionError("repair ran on the llm-direct path")

        monkeypatch.setattr(pipeline, "repair", repair_called)
        report = mine(kappa=-1.0)  # no robust score is below -1
        assert report.path == "llm-direct"
        assert report.repair is None
        assert report.formula == report.candidates[0]["formula"]
        assert report.to_dict()["repair"] is None

    def test_repaired_stops_at_the_first_strategy_that_meets_kappa(self, monkeypatch):
        budgets = []
        monkeypatch.setattr(pipeline, "repair", fixed_repair("G((q | p))", budgets, met=True))
        report = mine(kappa=100.0)
        assert report.path == "repaired"
        assert report.formula == "G((q | p))"
        assert len(budgets) == 1
        assert report.repair["strategy"] == pipeline.STRATEGY_ORDER[0]

    def test_budget_is_handed_on_less_what_each_strategy_spent(self, monkeypatch):
        # the clock moves only as each search spends 0.25 s of it
        now = [100.0]
        monkeypatch.setattr(pipeline.time, "monotonic", lambda: now[0])
        budgets = []
        search = fixed_repair("G(!p)", budgets, explored=7)

        def spend(*args, **kwargs):
            now[0] += 0.25
            return search(*args, **kwargs)

        monkeypatch.setattr(pipeline, "repair", spend)
        report = mine(kappa=100.0, budget=SearchBudget(time_limit=10.0, node_limit=100))
        assert report.path == "failed"
        assert [(b.time_limit, b.node_limit) for b in budgets] == [
            (10.0, 100), (9.75, 93), (9.5, 86),
        ]


class TestParamsEcho:
    def test_the_eighteen_settings_a_report_echoes(self):
        cfg = pipeline.RunConfig(
            traces_path="t.txt", explanation_path="e.txt", props=["p"],
            semantics=SemanticsParams(0.5, 0.6, 0.2, DISCOUNTED), kappa=0.7, depth=2, top=4,
            strategy="random", hole_prob=0.3, provider="http", endpoint="http://localhost:1",
            model="m", temperature=0.4, fixtures="f", seed=9,
            budget=SearchBudget(time_limit=5.0, node_limit=77), n_candidates=6,
            mode="multishot", template_count=2, max_retries=1,
        )
        assert pipeline._params_echo(cfg) == {
            "semantics": "discounted", "alpha": 0.5, "beta": 0.6, "gamma": 0.2,
            "kappa": 0.7, "depth": 2, "top": 4, "strategy": "random", "hole_prob": 0.3,
            "seed": 9, "n_candidates": 6, "mode": "multishot", "provider": "http",
            "model": "m", "temperature": 0.4, "budget": {"time_limit": 5.0, "node_limit": 77},
            "template_count": 2, "max_retries": 1,
        }

    def test_an_unset_temperature_is_echoed_as_null(self):
        assert pipeline._params_echo(pipeline.RunConfig())["temperature"] is None


class TestBenchRun:
    def test_a_failing_case_becomes_an_error_row(self, tmp_path):
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "case.ini").write_text("[other]\nformula = p\n")
        shutil.copytree(TABLE1 / "case3", tmp_path / "good")
        suite = pipeline.bench_run(tmp_path, out_dir=tmp_path / "out")
        bad, good = suite["cases"]
        assert bad["case"] == "bad" and bad["ok"] is False
        assert bad["error"].startswith("ConfigError:")
        assert good["case"] == "good" and "error" not in good and good["ok"] is True
        assert suite["ok"] is False
        assert (tmp_path / "out" / "bad.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("kappa", "abc"),  # fails its cast
        ("alpha", "2"),  # fails SemanticsParams' check
        ("count", "ten"),  # fails its cast, before traces are drawn
        ("node_limit", "0"),  # fails SearchBudget's check
        ("expect_sat", "maybe"),  # neither true nor false, so no check is dropped
        ("formula", "G(true)"),  # names no atom, so no proposition set
    ])
    def test_a_bad_setting_becomes_an_error_row_naming_it(self, tmp_path, capsys, key, value):
        case_copy("case3", tmp_path / "bad", **{key: value})
        case_copy("case5", tmp_path / "good")
        suite = pipeline.bench_run(tmp_path)
        bad, good = suite["cases"]
        assert bad["error"].startswith("ConfigError:") and key in bad["error"]
        assert bad["ok"] is False
        assert good["case"] == "good" and "error" not in good
        assert cli.main(["bench", "--suite", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_a_case_without_formula_or_explanation_becomes_an_error_row(self, tmp_path, capsys):
        case_copy("case5", tmp_path / "a-good")
        no_formula = case_copy("case5", tmp_path / "b-no-formula")
        ini = configparser.ConfigParser()
        ini.read(no_formula / "case.ini")
        del ini["case"]["formula"]
        with open(no_formula / "case.ini", "w") as fh:
            ini.write(fh)
        (case_copy("case5", tmp_path / "c-no-explanation") / "explanation.txt").unlink()
        suite = pipeline.bench_run(tmp_path)
        good, bad_ini, bad_files = suite["cases"]
        assert good["case"] == "a-good" and "error" not in good
        assert bad_ini["error"].startswith("ConfigError:") and "formula" in bad_ini["error"]
        assert bad_files["error"].startswith("FileNotFoundError:")
        assert "explanation.txt" in bad_files["error"]
        assert not bad_ini["ok"] and not bad_files["ok"] and suite["ok"] is False
        assert cli.main(["bench", "--suite", str(tmp_path)]) == 2
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3 + 1  # header, rows, verdict

    def test_an_empty_responses_directory_is_a_config_error(self, tmp_path, capsys):
        case = case_copy("case5", tmp_path / "case5")
        for response in (case / "responses").iterdir():
            response.unlink()
        [row] = pipeline.bench_run(tmp_path)["cases"]
        assert row["error"].startswith("ConfigError:") and "response" in row["error"]
        (tmp_path / "traces.txt").write_text("p,q;p,!q#\n")
        assert cli.main(["mine", "--traces", str(tmp_path / "traces.txt"),
                         "--explanation", str(case / "explanation.txt"),
                         "--fixtures", str(case / "responses")]) == 17
        assert "Traceback" not in capsys.readouterr().err


TABLE1 = Path(pipeline.__file__).parent / "suites" / "table1"


def case_copy(name, to, **settings):
    """A copy of bundled table1 case `name` at `to`, its case.ini keys set
    to `settings`."""
    shutil.copytree(TABLE1 / name, to)
    ini = configparser.ConfigParser()
    ini.read(to / "case.ini")
    ini["case"].update(settings)
    with open(to / "case.ini", "w") as fh:
        ini.write(fh)
    return to


class TestSearchStats:
    def test_counts_agree_on_a_table1_case(self, monkeypatch, tmp_path):
        # case5 on trace seed 0 reaches all three outcomes of a leaf or a
        # choice: cut at a G/F label, rejected by its verdict, scored
        case = case_copy("case5", tmp_path / "case5", gen_seed="0")
        outcomes, reports = [], []
        run_pipeline = pipeline.janaka_run

        def spy_repair(*args, **kwargs):
            outcomes.append(repair(*args, **kwargs))
            return outcomes[-1]

        def spy_run(*args, **kwargs):
            reports.append(run_pipeline(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(pipeline, "repair", spy_repair)
        monkeypatch.setattr(pipeline, "janaka_run", spy_run)
        pipeline.run_case(case)
        [outcome] = outcomes
        stats = outcome.stats
        assert stats.cut_trivial > 0 and stats.rejected_trivial > 0 and stats.scored > 0
        assert stats.leaves == stats.rejected_trivial + stats.scored
        assert stats.scored == outcome.explored
        assert stats.prunes <= stats.bound_calls
        assert stats.stop == "exhausted" and not outcome.budget_expired
        [report] = reports
        assert report.to_dict()["repair"]["stats"] == dataclasses.asdict(stats)
        # the incumbent history's times, and only they, are zeroed
        zeroed = report.to_dict(zero_timings=True)["repair"]["stats"]["incumbents"]
        assert zeroed == [(0.0, *row[1:]) for row in stats.incumbents]
        assert stats.incumbents and stats.incumbents[-1][3] == outcome.fitness

    def test_depth2_case2_discounted_exhausts(self, monkeypatch, tmp_path):
        # the depth-2 frontier: case2 under discounted semantics at kappa 1.0
        # exhausts within 10,000 scored leaves and reaches 0.81, the best
        # fitness its third template alone reaches
        case = case_copy("case2", tmp_path / "case2", depth="2", semantics="discounted",
                         kappa="1.0", budget_seconds="600", node_limit="10000")
        reports = []
        run_pipeline = pipeline.janaka_run

        def spy_run(cfg, **kwargs):
            assert (cfg.depth, cfg.semantics.kind, cfg.kappa) == (2, DISCOUNTED, 1.0)
            assert cfg.budget == SearchBudget(time_limit=600, node_limit=10_000)
            reports.append(run_pipeline(cfg, **kwargs))
            return reports[-1]

        monkeypatch.setattr(pipeline, "janaka_run", spy_run)
        pipeline.run_case(case)
        [report] = reports
        assert not report.repair["budget_expired"]
        assert report.repair["stats"]["stop"] == "exhausted"
        assert report.repair["fitness"] >= 0.81


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def long_traces_settings():
    """The long-traces workload's (name, ground truth, case, semantics,
    kappa) rows, read from perfbench/workloads.py without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    [rows] = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets] == ["LONG_TRACES"]]
    return ast.literal_eval(rows)


class TestUnreachableKappa:
    """Discounted fitness lies in [0, 1]: a discounted kappa above 1 could
    only exhaust the search and report failed, so it is refused."""

    def test_discounted_kappa_above_one_is_refused(self):
        with pytest.raises(ConfigError, match="kappa"):
            pipeline.RunConfig(semantics=SemanticsParams(kind=DISCOUNTED), kappa=1.5).validate()
        pipeline.RunConfig(semantics=SemanticsParams(kind=DISCOUNTED), kappa=1.0).validate()
        pipeline.RunConfig(semantics=SemanticsParams(kind=ROBUST), kappa=3.0).validate()

    def test_mine_exits_with_the_config_error_code(self, capsys):
        assert cli.main(["mine", "--semantics", "discounted", "--kappa", "1.5"]) == 17
        assert "kappa" in capsys.readouterr().err

    def test_no_bundled_case_or_workload_is_refused(self):
        settings = []
        for ini in sorted(TABLE1.glob("*/case.ini")):
            parser = configparser.ConfigParser()
            parser.read(ini)
            settings.append((parser["case"]["semantics"], float(parser["case"]["kappa"])))
        assert len(settings) == 5
        settings += [(kind, kappa) for _, _, _, kind, kappa in long_traces_settings()]
        assert DISCOUNTED in {kind for kind, _ in settings}
        for kind, kappa in settings:
            pipeline.RunConfig(semantics=SemanticsParams(kind=kind), kappa=kappa).validate()


# --- reference: eval_formula's per-trace loop before the flat passes, verbatim ------


def reference_eval_formula(
    formula_text: str, sample: Sample, params: SemanticsParams, both: bool = False
) -> dict:
    """Per-trace and mean scores for one formula, optionally under both
    semantics (the robust side evaluates the NNF)."""
    f = parse_formula(formula_text, sample.props)

    def table(p: SemanticsParams) -> dict:
        rows = []
        for w in sample.traces:
            v = value_of(f, w, p)
            rows.append(
                {
                    "score": v.value,
                    "decisive": v.decisive,
                    "sat": bool(satisfies_all(f, Sample((w,), sample.props))[0]),
                }
            )
        return {
            "mean": sample_fitness(f, sample, p),
            "per_trace": rows,
        }

    out = {"formula": format_formula(f), "props": list(sample.props)}
    if both:
        robust = SemanticsParams(params.alpha, params.beta, params.gamma, ROBUST)
        disc = SemanticsParams(params.alpha, params.beta, params.gamma, DISCOUNTED)
        out["robust"] = table(robust)
        out["discounted"] = table(disc)
    else:
        out[params.kind] = table(params)
    return out


def outcome(run, *args):
    # the result, or the error raised, compared by repr: repr tells -0.0
    # from 0.0 and prints every float exactly
    try:
        return repr(run(*args))
    except JanakaError as exc:
        return repr(exc)


class TestEvalFormula:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([ROBUST, DISCOUNTED]), st.booleans())
    def test_equals_the_per_trace_loop(self, seed, kind, both):
        rng = random.Random(seed)
        atoms = ["p", "q", "r"]
        mode = rng.choice(["general", "no_not_until", "nnf"])
        f = random_formula(rng, depth=rng.randint(1, 4), atoms=atoms, mode=mode)
        sample = Sample(tuple(random_trace(rng, rng.randint(1, 8), atoms)
                              for _ in range(rng.randint(1, 6))), PropositionSet(atoms))
        params = SemanticsParams(
            alpha=rng.choice([0.5, 0.9, 1.0]), beta=rng.choice([0.8, 1.0]),
            gamma=rng.choice([0.0, 0.1]), kind=kind,
        )
        text = format_formula(f)
        assert (outcome(pipeline.eval_formula, text, sample, params, both)
                == outcome(reference_eval_formula, text, sample, params, both))

    def test_the_cli_reads_the_traces_once(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "traces.txt").write_text("p,q;p,!q#\n!p,q#\n")
        reads = []
        parse = pipeline.parse_traces
        monkeypatch.setattr(pipeline, "parse_traces", lambda *a: reads.append(a) or parse(*a))
        assert cli.main(["eval", "--formula", "G(p)", "--traces",
                         str(tmp_path / "traces.txt"), "--both"]) == 0
        assert len(reads) == 1
        want = reference_eval_formula("G(p)", parse(*reads[0]), PARAMS, both=True)
        assert json.loads(capsys.readouterr().out) == want
