import threading

import pytest

from janaka import llm as llm_mod
from janaka.errors import AuthMissingError, NoValidFormulaError, RateLimitedError
from janaka.formulas import (
    And,
    Atom,
    Finally,
    Globally,
    Not,
    Or,
    PropositionSet,
    parse_formula,
)
from janaka.llm import (
    MULTISHOT,
    CandidateSet,
    HttpChatProvider,
    MockChatProvider,
    build_prompt,
    extract_candidates,
    request_candidates,
    top_k,
)
from janaka.semantics import DISCOUNTED, SemanticsParams
from janaka.traces import Sample, Trace

PQ = PropositionSet(["p", "q"])
PQRS = PropositionSet(["p", "q", "r", "s"])


def states(*sets):
    return tuple(frozenset(s) for s in sets)


def sample_pq(n=6):
    traces = tuple(
        Trace(states({"p"}, {"q"} if i % 2 else {"p", "q"})) for i in range(n)
    )
    return Sample(traces, PQ)


class TestBuildPrompt:
    def test_oneshot_contents(self):
        s = sample_pq()
        bundle = build_prompt(s, "users remain logged in until they log out", n=5)
        text = bundle.system_rules
        for marker in [
            "1. The formula must include every variable",
            "2. '1' padding states",
            "3. Use 'G'",
            "4. Use 'F'",
            "5. Use 'U'",
        ]:
            assert marker in text
        assert "p,!q;p,q#" in bundle.task or "p,!q;!p,q#" in bundle.task
        assert "users remain logged in until they log out" in bundle.task
        assert "Generate 5 LTL formulas" in bundle.task
        msgs = bundle.messages()
        assert msgs[0]["role"] == "system"
        assert msgs[-1]["role"] == "user" and msgs[-1]["content"] == bundle.task
        assert any(m["role"] == "assistant" for m in msgs)

    def test_multishot_stages(self):
        s = sample_pq(6)
        bundle = build_prompt(s, "some behaviour", mode=MULTISHOT, n=5)
        # three staged trace messages plus the final request
        assert len(bundle.stages) == 4
        for stage, count in zip(bundle.stages, (1, 3, 6)):
            assert stage.count("#") == count
        assert "Generate" not in bundle.stages[0]
        assert "5 LTL formulas" in bundle.stages[-1]
        roles = [m["role"] for m in bundle.messages()]
        assert roles == ["system", "user", "user", "user", "user"]

    def test_single_formula_request(self):
        bundle = build_prompt(sample_pq(), "x", n=1)
        assert "Generate 1 LTL formulas" in bundle.task

    def test_empty_explanation_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(sample_pq(), "   ")


class TestExtraction:
    def test_fenced_block(self):
        text = "Here you go:\n```\nG(p)\nF(p & q)\n```\nHope this helps!"
        formulas, invalid = extract_candidates(text, PQ)
        assert formulas == [Globally(Atom("p")), Finally(And(Atom("p"), Atom("q")))]
        assert not invalid

    def test_inline_and_prose(self):
        text = (
            "Sure! Let's see.\n"
            "- The formula `F(p & q)` ensures p and q happen.\n"
            "2. G(p) | F(q)\n"
            "Generate more? no thanks\n"
        )
        formulas, invalid = extract_candidates(text, PQ)
        assert Finally(And(Atom("p"), Atom("q"))) in formulas
        assert Or(Globally(Atom("p")), Finally(Atom("q"))) in formulas
        assert not invalid

    def test_unknown_atom_marks_invalid(self):
        formulas, invalid = extract_candidates("```\nG(zebra)\n```", PQ)
        assert formulas == [] and invalid

    def test_malformed_with_ops_marks_invalid(self):
        formulas, invalid = extract_candidates("F(p &&& q)", PQ)
        assert formulas == [] and invalid

    def test_bare_atom_only_when_whole_line(self):
        formulas, invalid = extract_candidates("p\n", PQ)
        assert formulas == [Atom("p")] and not invalid
        formulas, invalid = extract_candidates("maybe p then\n", PQ)
        assert formulas == [] and not invalid

    def test_prose_only_yields_nothing(self):
        formulas, invalid = extract_candidates(
            "I cannot generate formulas for this input.\n", PQ
        )
        assert formulas == [] and not invalid

    def test_dedup_keeps_first(self):
        formulas, _ = extract_candidates("```\nG(p)\nG( p )\nF(q)\n```", PQ)
        assert formulas == [Globally(Atom("p")), Finally(Atom("q"))]


FIVE = "```\nG(p)\nF(q)\nG(p -> F(q))\np U q\nF(p & q)\n```"


class ScriptedProvider:
    """Answers in turn from a script; an exception in it is raised."""

    provider_id = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def complete(self, messages, temperature=None):
        out = self.script[self.calls]
        self.calls += 1
        if isinstance(out, Exception):
            raise out
        return out


class TestRequestCandidates:
    def test_clean_response(self):
        provider = MockChatProvider([FIVE])
        bundle = build_prompt(sample_pq(), "hello", n=5)
        cands = request_candidates(provider, bundle, max_retries=1)
        assert len(cands.formulas) == 5
        assert provider.calls == 1
        assert cands.provider_id == "mock"

    def test_retry_then_clean(self):
        bad = "```\nG(p)\nF(q)\nG(p -> F(q))\np U q\nF(p &&& q)\n```"
        provider = MockChatProvider([bad, FIVE])
        bundle = build_prompt(sample_pq(), "hello", n=5)
        cands = request_candidates(provider, bundle, max_retries=1)
        assert len(cands.formulas) == 5
        assert provider.calls == 2

    def test_partial_after_exhausted_retries(self):
        bad = "```\nG(p)\nF(q)\nF(p &&& q)\n```"
        provider = MockChatProvider([bad])
        bundle = build_prompt(sample_pq(), "hello", n=5)
        cands = request_candidates(provider, bundle, max_retries=1)
        assert len(cands.formulas) == 2
        assert provider.calls == 2

    def test_prose_only_exhausts(self):
        provider = MockChatProvider(["no formulas here, sorry."])
        bundle = build_prompt(sample_pq(), "hello", n=5)
        with pytest.raises(NoValidFormulaError):
            request_candidates(provider, bundle, max_retries=2)
        assert provider.calls == 3

    def test_rate_limit_is_retried_after_its_retry_after(self, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        provider = ScriptedProvider([RateLimitedError("busy", retry_after=2.5),
                                     RateLimitedError("busy"), FIVE])
        cands = request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                                   max_retries=2)
        assert len(cands.formulas) == 5
        assert provider.calls == 3
        assert slept == [2.5]  # no Retry-After, no sleep

    def test_rate_limit_raises_once_retries_are_used_up(self, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        provider = ScriptedProvider([RateLimitedError("busy", retry_after=1.0)] * 3)
        with pytest.raises(RateLimitedError):
            request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                               max_retries=2)
        assert provider.calls == 3
        assert slept == [1.0, 1.0]  # none after the last request

    def test_rate_limit_after_a_partial_response_keeps_it(self, monkeypatch):
        monkeypatch.setattr(llm_mod.time, "sleep", lambda s: None)
        partial = "```\nG(p)\nF(q)\nF(p &&& q)\n```"
        provider = ScriptedProvider([partial, RateLimitedError("busy")])
        cands = request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                                   max_retries=1)
        assert len(cands.formulas) == 2
        # a later answer without formulas is no rate limit
        provider = ScriptedProvider([RateLimitedError("busy"), "no formulas here."])
        with pytest.raises(NoValidFormulaError):
            request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                               max_retries=1)

    def test_mock_round_robin_thread_safety(self):
        provider = MockChatProvider(["a", "b", "c"])
        seen = []

        def hit():
            seen.append(provider.complete([]))

        threads = [threading.Thread(target=hit) for _ in range(9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == ["a", "a", "a", "b", "b", "b", "c", "c", "c"]


class TestTopK:
    def test_orders_by_fitness(self):
        s = Sample((Trace(states({"p"}, {"p"})),), PropositionSet(["p"]))
        cands = CandidateSet(
            (parse_formula("F(p)"), parse_formula("G(p)"), parse_formula("!p")),
            "",
            "mock",
        )
        params = SemanticsParams(kind=DISCOUNTED)
        ranked = top_k(cands, s, params, k=3)
        fits = [fit for _, fit in ranked]
        assert fits == sorted(fits, reverse=True)
        assert ranked[-1][0] == Not(Atom("p"))

    def test_tie_break_smaller_first(self):
        s = Sample((Trace(states({"p", "q"})),), PQ)
        cands = CandidateSet(
            (parse_formula("p & (q | q)"), parse_formula("p & q")),
            "",
            "mock",
        )
        params = SemanticsParams(1.0, 1.0, kind=DISCOUNTED)
        ranked = top_k(cands, s, params, k=2)
        assert ranked[0][0] == parse_formula("p & q")
        assert ranked[0][1] == ranked[1][1] == 1.0

    def test_k_larger_than_pool(self):
        s = Sample((Trace(states({"p"})),), PropositionSet(["p"]))
        cands = CandidateSet((parse_formula("p"),), "", "mock")
        assert len(top_k(cands, s, SemanticsParams(kind=DISCOUNTED), k=10)) == 1


class TestHttpProvider:
    def test_auth_missing(self, monkeypatch):
        monkeypatch.delenv("JANAKA_API_KEY", raising=False)
        provider = HttpChatProvider("http://localhost:1/v1/chat", "m")
        with pytest.raises(AuthMissingError):
            provider.complete([])

    def test_round_trip_against_local_stub(self, monkeypatch):
        import janaka.llm as llm_mod

        class FakeResponse:
            status_code = 200
            headers = {}

            def json(self):
                return {"choices": [{"message": {"content": "G(p)"}}]}

        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(url=url, payload=json, headers=headers)
            return FakeResponse()

        monkeypatch.setattr(llm_mod.requests, "post", fake_post)
        provider = HttpChatProvider("http://x/v1", "model-z", api_key="k", temperature=0.2)
        out = provider.complete([{"role": "user", "content": "hi"}])
        assert out == "G(p)"
        assert captured["payload"]["model"] == "model-z"
        assert captured["payload"]["temperature"] == 0.2
        assert captured["headers"]["Authorization"] == "Bearer k"
