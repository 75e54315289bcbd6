from janaka import pipeline
from janaka.formulas import PropositionSet, parse_formula
from janaka.llm import MockChatProvider
from janaka.repair import Filling, RepairOutcome
from janaka.semantics import ROBUST, SemanticsParams, sample_fitness, value_of
from janaka.traces import Sample, Trace

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


def fixed_repair(text):
    """A stand-in for pipeline.repair that always returns `text` as its
    incumbent, scored honestly, below any threshold."""
    f = parse_formula(text, PQ)

    def fake(sample, templates, params, kappa, budget):
        scores = [value_of(f, w, params).value for w in sample.traces]
        return RepairOutcome(
            best=Filling((), f),
            fitness=sample_fitness(f, sample, params),
            total=sum(scores),
            per_trace=[(s, True) for s in scores],
            explored=1,
            elapsed=0.0,
            threshold_met=False,
        )

    return fake


def run(monkeypatch, incumbent):
    monkeypatch.setattr(pipeline, "repair", fixed_repair(incumbent))
    cfg = pipeline.RunConfig(semantics=PARAMS, kappa=100.0, strategy="random")
    return pipeline.janaka_run(
        cfg, sample=SAMPLE, explanation="p or q always", provider=MockChatProvider([RESPONSE])
    )


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

