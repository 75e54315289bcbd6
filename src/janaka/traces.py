"""Demonstration traces: wire-format parsing, serialization, and generation.

Wire grammar (whitespace around separators is ignored)::

    record := state (';' state)* '#'
    state  := '1' | lit (',' lit)*
    lit    := '!'? atom

Within a state, ``x`` sets atom x true and ``!x`` sets it false; every state
must assign every declared atom exactly once. A state consisting solely of
the token ``1`` is padding: a maximal run of trailing padding states marks
where the trace ended and is truncated on parse. Padding followed by a real
state is an error.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .errors import (
    BudgetExhaustedError,
    EmptySampleError,
    EmptyTraceError,
    MixedPaddingError,
    PadTooShortError,
    PartialAssignmentError,
    TraceSyntaxError,
    UnknownAtomError,
)
from .formulas import Formula, PropositionSet, atoms_of, eval_qualitative

_LIT_RE = re.compile(r"!?[a-z][a-z0-9_]*|1")


@dataclass(frozen=True)
class Trace:
    """Finite word: each state is the frozenset of atoms that are true."""

    states: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.states:
            raise EmptyTraceError("trace must have at least one state")
        object.__setattr__(self, "states", tuple(frozenset(s) for s in self.states))

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Sample:
    """Non-empty set of traces over a shared proposition set.

    A Sample is laid out once, when it is made, in the layout every kernel
    takes (:mod:`janaka.ops`): ``states`` holds its traces' states
    concatenated in trace order, ``segments`` each trace's ``(start, end)``
    in that list and ``starts`` each trace's start."""

    traces: tuple[Trace, ...]
    props: PropositionSet
    states: tuple[frozenset, ...] = field(init=False, repr=False, compare=False)
    segments: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.traces:
            raise EmptySampleError("sample must contain at least one trace")
        object.__setattr__(self, "traces", tuple(self.traces))
        states: list = []
        segments = []
        for w in self.traces:
            segments.append((len(states), len(states) + len(w.states)))
            states.extend(w.states)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "starts", tuple(start for start, _ in segments))

    def __len__(self) -> int:
        return len(self.traces)


def start_mean(values, starts) -> float:
    """The mean of ``values`` at ``starts``, summed in that order: with a
    Sample's root vector and starts, its fitness, equal bit for bit to the
    sum of each trace's own valuation over the trace count."""
    total = 0.0
    for k in starts:
        total += values[k]
    return total / len(starts)


def _parse_state(text: str, props: PropositionSet, record: str):
    """One ';'-separated non-padding chunk -> frozenset of true atoms."""
    tokens = [t.strip() for t in text.split(",")]
    assigned: dict[str, bool] = {}
    for tok in tokens:
        if not tok:
            raise TraceSyntaxError(f"empty label in state {text!r} of record {record!r}")
        if not _LIT_RE.fullmatch(tok):
            raise TraceSyntaxError(f"bad label {tok!r} in record {record!r}")
        neg = tok.startswith("!")
        name = tok[1:] if neg else tok
        if name == "1":
            raise TraceSyntaxError(f"padding token '1' cannot be negated or mixed: {text!r}")
        if name not in props:
            raise UnknownAtomError(name, list(props))
        if name in assigned:
            raise PartialAssignmentError(
                f"atom {name!r} assigned more than once in state {text!r}"
            )
        assigned[name] = not neg
    missing = [n for n in props if n not in assigned]
    if missing:
        raise PartialAssignmentError(
            f"state {text!r} does not assign: {', '.join(missing)}"
        )
    return frozenset(n for n, v in assigned.items() if v)


def parse_traces(text: str, props: PropositionSet) -> Sample:
    """Parse '#'-terminated records (one per line permitted) into a Sample."""
    if not text or not text.strip():
        raise TraceSyntaxError("empty trace text")
    chunks = text.split("#")
    if chunks[-1].strip():
        raise TraceSyntaxError(f"record not terminated by '#': {chunks[-1].strip()!r}")
    traces = []
    for record in chunks[:-1]:
        if not record.strip():
            raise EmptyTraceError("record with no states")
        # Classify padding purely syntactically before validating assignments,
        # so structural errors (padding mid-trace) win over totality errors.
        real_chunks = []
        padding_seen = False
        for chunk in (c.strip() for c in record.split(";")):
            if chunk == "1":
                padding_seen = True
            elif padding_seen:
                raise MixedPaddingError(
                    f"padding state followed by a real state in record {record.strip()!r}"
                )
            else:
                real_chunks.append(chunk)
        if not real_chunks:
            raise EmptyTraceError(f"record is all padding: {record.strip()!r}")
        states = [_parse_state(c, props, record.strip()) for c in real_chunks]
        traces.append(Trace(tuple(states)))
    if not traces:
        raise EmptySampleError("no records found")
    return Sample(tuple(traces), props)


def infer_props(text: str) -> PropositionSet:
    """Proposition set from the first state of the first record, in the order
    the atoms appear there (states are total assignments, so the first state
    names every atom)."""
    if not text or not text.strip():
        raise TraceSyntaxError("empty trace text")
    first_record = text.split("#", 1)[0]
    first_state = first_record.split(";", 1)[0]
    names = []
    for tok in first_state.split(","):
        tok = tok.strip()
        if tok == "1":
            raise EmptyTraceError("first record starts with padding")
        name = tok[1:] if tok.startswith("!") else tok
        if name and name not in names:
            names.append(name)
    return PropositionSet(names)


def serialize_state(state: frozenset, props: PropositionSet) -> str:
    return ",".join(n if n in state else "!" + n for n in props)


def serialize_sample(sample: Sample, pad_to: int | None = None) -> str:
    """Inverse of parse_traces; pad_to appends '1' padding states up to a
    common length (for prompt construction). Each distinct state is
    formatted once per call."""
    longest = max(len(t) for t in sample.traces)
    if pad_to is not None and pad_to < longest:
        raise PadTooShortError(f"pad_to={pad_to} is below the longest trace ({longest})")
    text: dict[frozenset, str] = {}
    for s in sample.states:
        if s not in text:
            text[s] = serialize_state(s, sample.props)
    lines = []
    for t in sample.traces:
        parts = [text[s] for s in t.states]
        if pad_to is not None:
            parts.extend(["1"] * (pad_to - len(t)))
        lines.append(";".join(parts) + "#")
    return "\n".join(lines) + "\n"


def generate_traces(
    f: Formula,
    props: PropositionSet,
    count: int,
    min_len: int,
    max_len: int,
    seed: int,
    budget: int = 100_000,
) -> Sample:
    """Seeded rejection sampling: draw uniform random traces, keep distinct
    ones satisfying f, until `count` are found or `budget` draws are spent."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 1 <= min_len <= max_len:
        raise ValueError("need 1 <= min_len <= max_len")
    if budget < count:
        raise ValueError("budget must be at least count")
    extra = atoms_of(f) - set(props) - {"true"}
    if extra:
        raise UnknownAtomError(sorted(extra)[0], list(props))

    rng = random.Random(seed)
    found: list[Trace] = []
    seen = set()
    for _ in range(budget):
        length = rng.randint(min_len, max_len)
        states = tuple(
            frozenset(n for n in props if rng.random() < 0.5) for _ in range(length)
        )
        if states in seen:
            continue
        seen.add(states)
        trace = Trace(states)
        if eval_qualitative(f, trace):
            found.append(trace)
            if len(found) == count:
                return Sample(tuple(found), props)
    raise BudgetExhaustedError(
        f"found {len(found)}/{count} satisfying traces in {budget} draws; "
        "the formula may be unsatisfiable at these lengths"
    )
