"""Exception hierarchy for the janaka package.

Every error raised by the library derives from :class:`JanakaError`, so
callers (and the CLI exit-code table) can distinguish failure modes without
string matching.
"""

import math


class JanakaError(Exception):
    """Base class for all janaka errors."""


# --- formula parsing / manipulation ---------------------------------------

class EmptyInputError(JanakaError):
    """Input text was empty or whitespace only."""


class FormulaSyntaxError(JanakaError):
    """Formula text does not match the grammar.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(JanakaError):
    """An atom is not part of the declared proposition set."""

    def __init__(self, name, declared=None):
        extra = f"; declared: {', '.join(declared)}" if declared else ""
        super().__init__(f"unknown atom {name!r}{extra}")
        self.name = name


class UnsupportedNegationError(JanakaError):
    """Negation cannot be pushed inward (no Release operator exists for !(a U b))."""


class DepthExceededError(JanakaError):
    """A formula or template does not fit in the requested tree depth."""


class NotInNNFError(JanakaError):
    """The robust semantics requires negation normal form (negation on atoms only)."""


# --- traces ----------------------------------------------------------------

class TraceSyntaxError(JanakaError):
    """Trace text does not match the wire grammar."""


class EmptyTraceError(JanakaError):
    """A trace has no states (or only padding states)."""


class MixedPaddingError(JanakaError):
    """A '1' padding state was followed by a real state."""


class PartialAssignmentError(JanakaError):
    """A state does not assign every declared atom exactly once."""


class EmptySampleError(JanakaError):
    """A sample must contain at least one trace."""


class PadTooShortError(JanakaError):
    """pad_to is smaller than the longest trace in the sample."""


class BudgetExhaustedError(JanakaError):
    """The trace generator ran out of sampling budget before finding enough traces."""


# --- LLM bridge ------------------------------------------------------------

class ProviderUnreachableError(JanakaError):
    """The LLM provider could not be reached or returned a malformed response."""


class ProviderServerError(ProviderUnreachableError):
    """The provider answered with a server error (HTTP status 500 or above);
    a later request may succeed."""


class RateLimitedError(JanakaError):
    """The provider rate-limited the request. ``retry_after``, a number or a
    Retry-After header's text, is kept only as finite, non-negative seconds:
    anything else (an HTTP-date, say) counts as absent, None."""

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        try:
            seconds = float(retry_after)
        except (TypeError, ValueError):
            seconds = math.nan
        self.retry_after = seconds if 0 <= seconds < math.inf else None


class AuthMissingError(JanakaError):
    """No API key was configured for the HTTP provider."""


class NoValidFormulaError(JanakaError):
    """No response produced a parseable candidate formula within the retry budget."""


# --- repair ----------------------------------------------------------------

class NoTemplatesError(JanakaError):
    """Repair was invoked without templates."""


class UnsupportedForExportError(JanakaError):
    """The template cannot be encoded as a MILP (no finite big-M bound exists)."""


class ConfigError(JanakaError):
    """A run configuration is invalid or incomplete."""
