import contextlib
import http.server
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import janaka
from janaka import cli, pipeline
from janaka import llm as llm_mod
from janaka.errors import (
    AuthMissingError,
    NoValidFormulaError,
    ProviderServerError,
    ProviderUnreachableError,
    RateLimitedError,
)
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
from janaka.repair import SearchBudget, repair
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
        assert slept == [2.5, llm_mod.BACKOFF_S[1]]  # no Retry-After: the back-off

    def test_rate_limit_raises_once_retries_are_used_up(self, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        provider = ScriptedProvider([RateLimitedError("busy", retry_after=1.0)] * 3)
        with pytest.raises(RateLimitedError):
            request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                               max_retries=2)
        assert provider.calls == 3
        assert slept == [1.0, 1.0]  # none after the last request

    @pytest.mark.parametrize("retry_after", [3600.0, 0.5])
    def test_retry_after_is_bounded_by_the_run_budget(self, monkeypatch, retry_after):
        # a Retry-After that would end past the run's 5 s budget is not
        # slept and ends the run with the rate limit (exit code 12)
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        provider = ScriptedProvider([RateLimitedError("busy", retry_after=retry_after), FIVE])
        cfg = pipeline.RunConfig(semantics=SemanticsParams(kind=DISCOUNTED), kappa=0.0,
                                 budget=SearchBudget(time_limit=5.0))

        def run():
            return pipeline.janaka_run(cfg, sample=sample_pq(), explanation="hello",
                                       provider=provider)

        if retry_after > 5.0:
            with pytest.raises(RateLimitedError) as info:
                run()
            assert cli.exit_code_for(info.value) == 12
            assert (slept, provider.calls) == ([], 1)
        else:
            assert run().path == "llm-direct"
            assert (slept, provider.calls) == ([0.5], 2)

    def test_backoff_pauses_double(self, monkeypatch):
        # a server error or a rate limit without Retry-After pauses on the
        # doubling schedule, the last pause repeating; none after the last
        # request
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        assert llm_mod.BACKOFF_S == (0.5, 1.0, 2.0, 4.0, 8.0)
        failures = [ProviderServerError("HTTP 503"), RateLimitedError("busy")] * 3
        provider = ScriptedProvider(failures + [FIVE])
        cands = request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                                   max_retries=6)
        assert len(cands.formulas) == 5 and provider.calls == 7
        assert slept == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]
        slept.clear()
        provider = ScriptedProvider([ProviderServerError("HTTP 503")] * 3)
        with pytest.raises(ProviderServerError):
            request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                               max_retries=2)
        assert (slept, provider.calls) == ([0.5, 1.0], 3)

    @pytest.mark.parametrize("error, code", [
        (ProviderServerError("HTTP 503"), 11), (RateLimitedError("busy"), 12)])
    def test_backoff_is_bounded_by_the_run_budget(self, monkeypatch, error, code):
        # pauses of 0.5 and 1.0 s fit a 1.7 s budget, the next one of 2.0 s
        # does not: it is not taken, no request follows, and the run ends
        # with the last failure
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        provider = ScriptedProvider([error] * 4 + [FIVE])
        cfg = pipeline.RunConfig(semantics=SemanticsParams(kind=DISCOUNTED), kappa=0.0,
                                 max_retries=4, budget=SearchBudget(time_limit=1.7))
        with pytest.raises(type(error)) as info:
            pipeline.janaka_run(cfg, sample=sample_pq(), explanation="hello",
                                provider=provider)
        assert cli.exit_code_for(info.value) == code
        assert (slept, provider.calls) == ([0.5, 1.0], 3)

    def test_retry_after_decides_the_wait(self, monkeypatch):
        # a usable Retry-After is the wait, shorter or longer than the
        # back-off's pause at that attempt, zero included (no pause)
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        provider = ScriptedProvider([
            RateLimitedError("busy", retry_after=0.1), RateLimitedError("busy", retry_after=7.0),
            RateLimitedError("busy", retry_after=0), RateLimitedError("busy"), FIVE])
        cands = request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                                   max_retries=4)
        assert len(cands.formulas) == 5 and provider.calls == 5
        assert slept == [0.1, 7.0, llm_mod.BACKOFF_S[3]]
        # a Retry-After past the deadline ends the requests, though the
        # back-off's pause would fit
        slept.clear()
        provider = ScriptedProvider([RateLimitedError("busy", retry_after=60.0), FIVE])
        with pytest.raises(RateLimitedError):
            request_candidates(provider, build_prompt(sample_pq(), "hello", n=5),
                               max_retries=2, deadline=time.monotonic() + 10.0)
        assert (slept, provider.calls) == ([], 1)

    def test_search_gets_what_the_provider_phase_left(self, monkeypatch):
        # one rate limit slept for 0.8 s of a 1.0 s budget: the search is
        # handed what is left, not the whole second again
        budgets = []

        def spy(sample, templates, params, kappa, budget, store=None):
            budgets.append(budget)
            return repair(sample, templates, params, kappa, budget, store)

        monkeypatch.setattr(pipeline, "repair", spy)
        provider = ScriptedProvider([RateLimitedError("busy", retry_after=0.8), FIVE])
        cfg = pipeline.RunConfig(kappa=100.0, budget=SearchBudget(time_limit=1.0))
        pipeline.janaka_run(cfg, sample=sample_pq(), explanation="hello", provider=provider)
        assert provider.calls == 2
        assert budgets and budgets[0].time_limit <= 0.2

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


class StubHandler(http.server.BaseHTTPRequestHandler):
    """Records each POST and answers with the server's `reply`:
    (status, headers, body), or raw bytes sent instead of an HTTP response,
    or a list of these, one per request.
    A GET, which only a followed redirect would send, is recorded too."""

    def do_GET(self):
        self.server.seen.append((self.headers, None))
        self.send_error(405)

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers, json.loads(body)))
        reply = self.server.reply
        if isinstance(reply, list):  # one reply per request, in turn
            reply = reply.pop(0)
        if isinstance(reply, bytes):
            self.wfile.write(reply)
            return
        status, headers, body = reply
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def chat_reply(content):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


@contextlib.contextmanager
def serve():
    """A chat endpoint on loopback, served from one thread."""
    server = http.server.HTTPServer(("127.0.0.1", 0), StubHandler)
    server.seen = []
    server.reply = (200, {}, chat_reply("G(p)"))
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    # a short poll keeps shutdown() from waiting half a second per test
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture
def stub(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    with serve() as server:
        yield server


HTTP_DATE = "Wed, 21 Oct 2015 07:28:00 GMT"


class TestHttpProvider:
    def test_auth_missing(self, stub, monkeypatch):
        monkeypatch.delenv("JANAKA_API_KEY", raising=False)
        with pytest.raises(AuthMissingError) as info:
            HttpChatProvider(stub.url, "m").complete([])
        assert stub.seen == []
        assert cli.exit_code_for(info.value) == 13

    def test_round_trip_against_local_stub(self, stub):
        provider = HttpChatProvider(stub.url, "model-z", api_key="k", temperature=0.2)
        messages = [{"role": "user", "content": "hi"}]
        assert provider.complete(messages) == "G(p)"
        headers, payload = stub.seen[-1]
        assert payload == {"model": "model-z", "messages": messages, "temperature": 0.2}
        assert headers["Authorization"] == "Bearer k"
        assert headers["Content-Type"] == "application/json"
        # a per-call temperature wins over the provider's
        provider.complete(messages, temperature=0.9)
        assert stub.seen[-1][1]["temperature"] == 0.9

    def test_key_from_the_environment_and_no_temperature(self, stub, monkeypatch):
        monkeypatch.setenv("JANAKA_API_KEY", "env-key")
        assert HttpChatProvider(stub.url, "m").complete([]) == "G(p)"
        headers, payload = stub.seen[-1]
        assert headers["Authorization"] == "Bearer env-key"
        assert payload == {"model": "m", "messages": []}

    @pytest.mark.parametrize("header, expected", [
        ({"Retry-After": "3"}, 3.0),
        ({"Retry-After": "0"}, 0.0),
        ({"Retry-After": HTTP_DATE}, None),
        ({"Retry-After": "-5"}, None),
        ({"Retry-After": "nan"}, None),
        ({}, None),
    ], ids=["seconds", "zero", "http-date", "negative", "nan", "absent"])
    def test_rate_limited(self, stub, header, expected):
        stub.reply = (429, header, b"slow down")
        with pytest.raises(RateLimitedError) as info:
            HttpChatProvider(stub.url, "m", api_key="k").complete([])
        assert info.value.retry_after == expected
        assert cli.exit_code_for(info.value) == 12

    def test_unusable_retry_after_is_not_slept(self, stub, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        provider = HttpChatProvider(stub.url, "m", api_key="k")
        bundle = build_prompt(sample_pq(), "hello", n=5)
        for value in (HTTP_DATE, "-5"):
            stub.reply = (429, {"Retry-After": value}, b"")
            with pytest.raises(RateLimitedError):
                request_candidates(provider, bundle, max_retries=1)
        assert slept == [llm_mod.BACKOFF_S[0]] * 2  # the back-off, as with none
        slept.clear()
        stub.reply = (429, {"Retry-After": "2"}, b"")
        with pytest.raises(RateLimitedError):
            request_candidates(provider, bundle, max_retries=1)
        assert slept == [2.0]

    def test_server_error(self, stub, tmp_path, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        stub.reply = (500, {}, b"x" * 300)
        provider = HttpChatProvider(stub.url, "m", api_key="k")
        with pytest.raises(ProviderServerError) as info:
            provider.complete([])
        assert str(info.value) == "HTTP 500: " + "x" * 200
        assert cli.exit_code_for(info.value) == 11
        # retried within max_retries, then raised
        with pytest.raises(ProviderServerError) as info:
            request_candidates(provider, build_prompt(sample_pq(), "hello", n=5), max_retries=2)
        assert len(stub.seen) == 1 + 3
        assert cli.exit_code_for(info.value) == 11
        assert slept == list(llm_mod.BACKOFF_S[:2])
        (tmp_path / "traces.txt").write_text("p,q;p,!q#\n")
        (tmp_path / "explain.txt").write_text("p always holds")
        monkeypatch.setenv("JANAKA_API_KEY", "k")
        code = cli.main(["mine", "--provider", "http", "--endpoint", stub.url, "--model", "m",
                         "--traces", str(tmp_path / "traces.txt"),
                         "--explanation", str(tmp_path / "explain.txt")])
        assert code == 11
        assert len(stub.seen) == 4 + 3

    def test_server_error_is_retried(self, stub, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_mod.time, "sleep", slept.append)
        stub.reply = [(500, {}, b"busy"), (200, {}, chat_reply(FIVE))]
        provider = HttpChatProvider(stub.url, "m", api_key="k")
        cands = request_candidates(provider, build_prompt(sample_pq(), "hello", n=5), max_retries=2)
        assert len(cands.formulas) == 5
        assert len(stub.seen) == 2
        assert slept == [llm_mod.BACKOFF_S[0]]
        # a client error is not retried
        stub.reply = [(404, {}, b"no such model"), (200, {}, chat_reply(FIVE))]
        with pytest.raises(ProviderUnreachableError, match="HTTP 404") as info:
            request_candidates(provider, build_prompt(sample_pq(), "hello", n=5), max_retries=2)
        assert not isinstance(info.value, ProviderServerError)
        assert len(stub.seen) == 3

    @pytest.mark.parametrize("body", [
        b"<html>not json</html>",
        b'{"choices": []}',
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": [{"message": {"content": [{"type": "text", "text": "F(p)"}]}}]}',
    ], ids=["not-json", "no-choice", "null-content", "content-parts"])
    def test_malformed_body(self, stub, body, tmp_path, monkeypatch, capsys):
        stub.reply = (200, {}, body)
        with pytest.raises(ProviderUnreachableError, match="malformed"):
            HttpChatProvider(stub.url, "m", api_key="k").complete([])
        # a mine ends with its exit code, not a traceback
        (tmp_path / "traces.txt").write_text("p,q;p,!q#\n")
        (tmp_path / "explain.txt").write_text("p always holds")
        monkeypatch.setenv("JANAKA_API_KEY", "k")
        code = cli.main(["mine", "--provider", "http", "--endpoint", stub.url, "--model", "m",
                         "--traces", str(tmp_path / "traces.txt"),
                         "--explanation", str(tmp_path / "explain.txt")])
        assert code == 11
        assert "malformed provider response" in capsys.readouterr().err

    def test_reply_that_is_not_http(self, stub):
        stub.reply = b"hello\r\n\r\n"
        with pytest.raises(ProviderUnreachableError, match="request failed"):
            HttpChatProvider(stub.url, "m", api_key="k").complete([])

    @pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, stub, code):
        with serve() as elsewhere:
            stub.reply = (code, {"Location": elsewhere.url}, b"")
            with pytest.raises(ProviderUnreachableError) as info:
                HttpChatProvider(stub.url, "m", api_key="secret").complete([])
            # the bearer token never reaches the host the redirect names
            assert elsewhere.seen == []
        assert str(info.value) == f"HTTP {code}: redirect to {elsewhere.url} not followed"
        assert len(stub.seen) == 1
        assert cli.exit_code_for(info.value) == 11

    @pytest.mark.parametrize("endpoint", [
        "api.example.com/v1/chat", "http://[::1/v1/chat",
        "file:///dev/null", "ftp://127.0.0.1:9/y",
    ], ids=["no-scheme", "bad-ipv6", "file", "ftp"])
    def test_endpoint_that_is_not_an_http_url(self, endpoint, tmp_path, monkeypatch):
        (tmp_path / "traces.txt").write_text("p,q;p,!q#\n")
        (tmp_path / "explain.txt").write_text("p always holds")
        monkeypatch.setenv("JANAKA_API_KEY", "k")
        code = cli.main(["mine", "--provider", "http", "--endpoint", endpoint, "--model", "m",
                         "--traces", str(tmp_path / "traces.txt"),
                         "--explanation", str(tmp_path / "explain.txt")])
        assert code == 11

    def test_nothing_listening(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        with socket.socket() as sock:  # a port that was just free
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        provider = HttpChatProvider(f"http://127.0.0.1:{port}/v1", "m", api_key="k", timeout=5)
        with pytest.raises(ProviderUnreachableError, match="request failed") as info:
            provider.complete([])
        assert cli.exit_code_for(info.value) == 11


def test_importing_janaka_loads_no_third_party_or_http_module():
    """A fresh interpreter that imports every janaka module loads nothing
    from site-packages, nor the standard library's HTTP and TLS modules."""
    code = textwrap.dedent("""
        import importlib, json, pkgutil, sys
        before = set(sys.modules)
        import janaka
        for info in pkgutil.iter_modules(janaka.__path__):
            importlib.import_module("janaka." + info.name)
        print(json.dumps({name: getattr(sys.modules[name], "__file__", None) or ""
                          for name in set(sys.modules) - before}))
    """)
    src = str(Path(janaka.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True, check=True).stdout)
    assert "janaka.milp" in loaded and "janaka.cli" in loaded
    third_party = {name: path for name, path in loaded.items()
                   if name.split(".")[0] != "janaka"
                   and ("site-packages" in path or "dist-packages" in path)}
    assert third_party == {}
    assert not {"ssl", "http.client", "urllib.request"} & set(loaded)
