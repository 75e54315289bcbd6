"""Prompt construction, chat providers, and candidate extraction.

The bridge speaks a minimal chat-completions protocol: a list of
``{"role": ..., "content": ...}`` messages in, one text completion out.
Two providers are built in: an HTTP client for any endpoint speaking the
de-facto JSON protocol (API key from the ``JANAKA_API_KEY`` environment
variable) and a deterministic mock that replays fixture texts round-robin.
The HTTP client uses only the standard library, imported on first request.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import (
    AuthMissingError,
    JanakaError,
    NoValidFormulaError,
    ProviderServerError,
    ProviderUnreachableError,
    RateLimitedError,
    UnsupportedNegationError,
)
from .formulas import Formula, PropositionSet, format_formula, node_count, parse_formula, tokenize
from .semantics import SemanticsParams, sample_fitness
from .traces import Sample, serialize_sample

ONESHOT = "oneshot"
MULTISHOT = "multishot"

_DEFINITIONS = """\
You translate finite demonstration traces plus a short English description
into linear temporal logic (LTL) formulas.

LTL syntax (ASCII): atoms are lowercase words; !f negation; f & g and;
f | g or; f -> g implies; X f next; F f eventually; G f always; f U g until.
Parentheses group subformulas.

Semantics over a finite trace (a sequence of states):
1. An atom holds when it is true in the first state.
2. !f holds when f does not hold.
3. f & g, f | g, f -> g are the usual boolean connectives.
4. X f holds when the trace has a second state and f holds from it onward.
5. G f holds when f holds at every suffix of the trace.
6. F f holds when f holds at some suffix of the trace.
7. f U g holds when g holds at some suffix and f holds at every earlier suffix.

Trace format: ',' separates labels inside a state, ';' separates states, and
'#' ends a trace. 'x' means atom x is true in that state, '!x' that it is
false. A run of '1' states at the end of a trace is padding: the trace ended
there.

Rules for generating formulas:
1. The formula must include every variable present in the traces.
2. '1' padding states at the end of a trace mean there is no global pattern,
   so the formula must not start with 'G'.
3. Use 'G' when the description says always, globally, every time, or similar.
4. Use 'F' when the description says eventually, at some point, in the
   future, or similar.
5. Use 'U' when the description says until, till, or similar.

Steps to follow:
1. Follow all of the rules above.
2. Observe the traces and find patterns before reading the description.
3. Generate the requested number of LTL formulas; each one should satisfy
   every trace and match the description.
4. Check every formula against the rules and regenerate any that fail.

Write each formula on its own line inside one fenced code block.
"""

_EXAMPLE_1_USER = """\
Input traces (',' separates labels, ';' separates states, '#' ends a trace):

p,!q,!r;!p,!q,!r;p,q,!r;1;1;1#
p,q,r;1;1;1;1;1#
!p,!q,!r;p,!q,r;1;1;1;1#

Variables: p, q, r.

English description: "At some point the service crashes (p) and either an
error is logged (q) or a restart is triggered (r)."

Generate 5 LTL formulas following the rules and steps.
"""

_EXAMPLE_1_ASSISTANT = """\
The traces end in padding, so the formula must not start with G. Every trace
eventually reaches a state where p holds together with q or r, which matches
the description of a crash followed by a log entry or a restart.

```
F(p & (q | r))
F(p & q) | F(p & r)
F(p) & (F(q) | F(r))
F(p & X(q | r))
G((p & !q & !r) -> X(q | r))
```

The first formula is the closest fit to the description.
"""

_TASK_TEMPLATE = """\
Input traces (',' separates labels, ';' separates states, '#' ends a trace):

{traces}
Variables: {variables}.

English description: "{explanation}"

Generate {n} LTL formulas following the rules and steps. Put each formula on
its own line inside one fenced code block.
"""

_STAGE_TEMPLATE = """\
Stage {stage}: here {verb} {count} demonstration {noun}:

{traces}
English description: "{explanation}"

Analyze how the description shows up in the {noun} so far.
"""

_STAGE_FINAL = """\
Now, using every trace shown across all stages and the description, generate
{n} LTL formulas following the rules and steps. Put each formula on its own
line inside one fenced code block.
"""


@dataclass(frozen=True)
class PromptBundle:
    """Everything needed to query a provider for candidate formulas."""

    system_rules: str
    examples: tuple[tuple[str, str], ...]
    task: str
    mode: str
    n_candidates: int
    props: PropositionSet
    stages: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.mode not in (ONESHOT, MULTISHOT):
            raise ValueError(f"unknown prompt mode {self.mode!r}")

    def messages(self) -> list[dict]:
        msgs = [{"role": "system", "content": self.system_rules}]
        if self.mode == ONESHOT:
            for user, assistant in self.examples:
                msgs.append({"role": "user", "content": user})
                msgs.append({"role": "assistant", "content": assistant})
            msgs.append({"role": "user", "content": self.task})
        else:
            for stage in self.stages:
                msgs.append({"role": "user", "content": stage})
        return msgs


def _serialized(sample: Sample) -> str:
    return serialize_sample(sample, pad_to=max(len(t) for t in sample.traces))


def build_prompt(
    sample: Sample, explanation: str, mode: str = ONESHOT, n: int = 5
) -> PromptBundle:
    """Assemble the fixed rules, worked examples, and the task message.

    MultiShot renders the staged protocol: the description plus growing trace
    subsets of sizes 1, 3, and 6 (capped at the sample size), then the
    generation request.
    """
    if not explanation or not explanation.strip():
        raise ValueError("explanation must be non-empty")
    explanation = explanation.strip()
    task = _TASK_TEMPLATE.format(
        traces=_serialized(sample),
        variables=", ".join(sample.props),
        explanation=explanation,
        n=n,
    )
    if mode == ONESHOT:
        return PromptBundle(
            system_rules=_DEFINITIONS,
            examples=((_EXAMPLE_1_USER, _EXAMPLE_1_ASSISTANT),),
            task=task,
            mode=mode,
            n_candidates=n,
            props=sample.props,
        )
    sizes = []
    for k in (1, 3, 6):
        k = min(k, len(sample.traces))
        if k not in sizes:
            sizes.append(k)
    stages = []
    for i, k in enumerate(sizes, start=1):
        subset = Sample(sample.traces[:k], sample.props)
        stages.append(
            _STAGE_TEMPLATE.format(
                stage=i,
                verb="is" if k == 1 else "are",
                count=k,
                noun="trace" if k == 1 else "traces",
                traces=_serialized(subset),
                explanation=explanation,
            )
        )
    stages.append(_STAGE_FINAL.format(n=n))
    return PromptBundle(
        system_rules=_DEFINITIONS,
        examples=(),
        task=task,
        mode=mode,
        n_candidates=n,
        props=sample.props,
        stages=tuple(stages),
    )


# --- providers ---------------------------------------------------------------


class MockChatProvider:
    """Replays canned response texts round-robin; thread-safe; records calls."""

    def __init__(self, responses: Sequence[str] | None = None, fixture_dir=None):
        if fixture_dir is not None:
            paths = sorted(Path(fixture_dir).iterdir())
            responses = [p.read_text() for p in paths if p.is_file()]
        if not responses:
            raise ValueError("mock provider needs at least one response")
        self._responses = list(responses)
        self._index = 0
        self._lock = threading.Lock()
        self.calls = 0
        self.last_messages: list[dict] | None = None

    provider_id = "mock"

    def complete(self, messages: list[dict], temperature: float | None = None) -> str:
        with self._lock:
            text = self._responses[self._index % len(self._responses)]
            self._index += 1
            self.calls += 1
            self.last_messages = messages
        return text


class HttpChatProvider:
    """Minimal chat-completions HTTP client on the standard library.

    POSTs {model, messages[, temperature]} as JSON to the endpoint with a
    bearer token taken from the JANAKA_API_KEY environment variable (or given
    explicitly). urllib is imported on the first request: it loads ssl and
    http.client, whose time and memory a process that never posts is spared.
    HTTPS trusts the system CA store, as ssl's defaults do. Redirects are not
    followed: a 3xx raises ProviderUnreachableError naming its Location, and
    so does an endpoint that is not an http(s) URL. A status of 500 or above
    raises ProviderServerError, which request_candidates retries.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        temperature: float | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.temperature = temperature
        self._api_key = api_key

    @property
    def provider_id(self) -> str:
        return f"http:{self.model}"

    def complete(self, messages: list[dict], temperature: float | None = None) -> str:
        import http.client
        import urllib.error
        import urllib.request

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            # a followed redirect would carry the bearer token to whatever
            # host it names; refused, the 3xx comes back as an HTTPError
            def redirect_request(self, *args):
                return None

        key = self._api_key or os.environ.get("JANAKA_API_KEY")
        if not key:
            raise AuthMissingError("set JANAKA_API_KEY or pass api_key explicitly")
        payload: dict = {"model": self.model, "messages": messages}
        temp = self.temperature if temperature is None else temperature
        if temp is not None:
            payload["temperature"] = temp
        try:
            # a malformed URL raises ValueError here, so it is caught too
            request = urllib.request.Request(  # a POST, since it carries data
                self.endpoint,
                json.dumps(payload).encode(),
                {"Authorization": f"Bearer {key}", "Content-Type": "application/json"},
            )
            if request.type not in ("http", "https"):
                raise ProviderUnreachableError(f"not an http(s) endpoint: {self.endpoint}")
            opener = urllib.request.build_opener(RefuseRedirects)
            try:
                with opener.open(request, timeout=self.timeout) as resp:
                    status, headers, body = resp.status, resp.headers, resp.read()
            except urllib.error.HTTPError as exc:  # a status outside 2xx
                with exc:
                    status, headers, body = exc.code, exc.headers, exc.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise ProviderUnreachableError(f"request failed: {exc}") from exc
        if status == 429:
            raise RateLimitedError(
                "provider rate limit hit", retry_after=headers.get("Retry-After")
            )
        if 300 <= status < 400:
            location = headers.get("Location")
            raise ProviderUnreachableError(f"HTTP {status}: redirect to {location} not followed")
        if status >= 400:
            text = body.decode("utf-8", "replace")
            error = ProviderServerError if status >= 500 else ProviderUnreachableError
            raise error(f"HTTP {status}: {text[:200]}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderUnreachableError(f"malformed provider response: {exc}") from exc
        if not isinstance(content, str):  # null, or a list of parts
            raise ProviderUnreachableError(
                f"malformed provider response: content is {type(content).__name__}, not text")
        return content


# --- candidate extraction -----------------------------------------------------


@dataclass(frozen=True)
class CandidateSet:
    formulas: tuple[Formula, ...]
    raw_response: str
    provider_id: str
    latency: float = field(compare=False, default=0.0)


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
_SPAN_RE = re.compile(r"[a-z0-9_()&|!>\sGFXU-]+")
_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\(?\d+[.)])\s*")
# An operator letter glued to an atom character is prose ("Generate"), not an
# op; adjacent uppercase operators ("GF(p)") stay legal.
_GLUED_OP_RE = re.compile(r"[GFXU][a-z0-9_]|[a-z0-9_][GFXU]")
_OP_TOKEN_KINDS = {"arrow", "op", "modal"}
# Tokens that make a non-parsing span count as a *failed formula* rather than
# prose. A lone '!' is too common in text ("helps!") to qualify.
_STRONG_OP_TEXTS = {"->", "&", "|", "(", ")", "G", "F", "X", "U"}


def _try_parse(text: str, props: PropositionSet):
    """(formula | None, has_op_tokens, has_strong_op_tokens, tokenized_ok)."""
    try:
        tokens = tokenize(text)
    except JanakaError:
        return None, False, False, False
    has_op = any(k in _OP_TOKEN_KINDS for k, _, _ in tokens)
    strong = any(t in _STRONG_OP_TEXTS for _, t, _ in tokens)
    try:
        return parse_formula(text, props), has_op, strong, True
    except JanakaError:
        return None, has_op, strong, True


def _scan_chunk(chunk: str, props: PropositionSet, strict: bool):
    """Returns (formulas, invalid_seen) for one line-like chunk of text. A
    span with no operator counts as a formula only when it is the whole
    chunk."""
    chunk = _BULLET_RE.sub("", chunk).strip()
    if not chunk:
        return [], False
    if strict:
        f, _, _, _ = _try_parse(chunk, props)
        return ([f], False) if f is not None else ([], True)
    found, invalid = [], False
    for m in _SPAN_RE.finditer(chunk):
        span = m.group().strip()
        if not span or _GLUED_OP_RE.search(span):
            continue
        f, has_op, strong, tokenized = _try_parse(span, props)
        if f is not None:
            if has_op or span == chunk:
                found.append(f)
        elif tokenized and strong:
            invalid = True
        # spans without convincing operators are prose and stay silent
    return found, invalid


def extract_candidates(text: str, props: PropositionSet):
    """Pull candidate formulas out of a provider response.

    Fenced code blocks take priority: every non-empty fenced line must be a
    single well-formed formula over the declared atoms, anything else flags
    the response invalid. Without fences, each line is scanned for maximal
    substrings in the formula alphabet; substrings with operator tokens that
    fail to parse (or use unknown atoms) flag the response invalid, while
    op-less prose is ignored.

    Returns (formulas, invalid_seen); formulas are deduplicated by canonical
    text, in order of first appearance.
    """
    fences = _FENCE_RE.findall(text)
    found: list[Formula] = []
    invalid = False
    if fences:
        for block in fences:
            for line in block.splitlines():
                if not line.strip():
                    continue
                got, bad = _scan_chunk(line, props, strict=True)
                found.extend(got)
                invalid = invalid or bad
    else:
        for line in text.splitlines():
            got, bad = _scan_chunk(line, props, strict=False)
            found.extend(got)
            invalid = invalid or bad
    unique: dict[str, Formula] = {}
    for f in found:
        unique.setdefault(format_formula(f), f)
    return list(unique.values()), invalid


# seconds to pause before the retry that follows a failed request (the n-th
# request's failure pauses BACKOFF_S[n], the last entry repeating), where the
# provider names no wait of its own: a server error, or a rate limit without
# a usable Retry-After
BACKOFF_S = (0.5, 1.0, 2.0, 4.0, 8.0)


def request_candidates(
    provider, bundle: PromptBundle, max_retries: int = 2, deadline: float | None = None
) -> CandidateSet:
    """Query the provider, extract and validate formulas, re-request on failure.

    A response is accepted when it yields at least one formula and no invalid
    candidate; a response without formulas is re-requested at once. A server
    error or a rate limit is retried after a pause: the provider's
    ``retry_after`` when a rate limit gives a usable one, else the
    :data:`BACKOFF_S` schedule. A pause that would end past ``deadline`` (a
    ``time.monotonic()`` value) is not taken, and no request follows. After
    retries are exhausted, the valid formulas of the most recent response
    carrying any are returned; with none at all, the last request's
    RateLimitedError or ProviderServerError is raised if it failed so, and
    NoValidFormulaError otherwise.
    """
    messages = bundle.messages()
    latency = 0.0
    fallback: list[Formula] = []
    fallback_raw = ""
    failed: RateLimitedError | ProviderServerError | None = None
    for attempt in range(max_retries + 1):
        start = time.perf_counter()
        try:
            text = provider.complete(messages)
        except (ProviderServerError, RateLimitedError) as exc:
            latency += time.perf_counter() - start
            failed = exc
            if attempt == max_retries:
                break
            wait = getattr(exc, "retry_after", None)
            if wait is None:
                wait = BACKOFF_S[min(attempt, len(BACKOFF_S) - 1)]
            if wait:
                if deadline is not None and time.monotonic() + wait > deadline:
                    break
                time.sleep(wait)
            continue
        latency += time.perf_counter() - start
        failed = None
        formulas, invalid = extract_candidates(text, bundle.props)
        if formulas and not invalid:
            return CandidateSet(tuple(formulas), text, provider.provider_id, latency)
        if formulas:
            fallback, fallback_raw = formulas, text
    if fallback:
        return CandidateSet(tuple(fallback), fallback_raw, provider.provider_id, latency)
    if failed is not None:
        raise failed
    raise NoValidFormulaError(
        f"no parseable formula after {max_retries + 1} request(s)"
    )


def top_k(
    cands: CandidateSet, sample: Sample, params: SemanticsParams, k: int
) -> list[tuple[Formula, float]]:
    """The k fittest candidates, ties broken by fewer nodes then canonical text.

    Candidates whose negations cannot be normalized for the robust semantics
    sort last with fitness -inf.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = []
    for f in cands.formulas:
        try:
            fit = sample_fitness(f, sample, params)
        except UnsupportedNegationError:
            fit = float("-inf")
        scored.append((f, fit))
    scored.sort(key=lambda pair: (-pair[1], node_count(pair[0]), format_formula(pair[0])))
    return scored[:k]
