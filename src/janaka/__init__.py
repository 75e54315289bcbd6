"""janaka: mining LTL specifications from demonstrations and explanations."""

from .errors import JanakaError
from .formulas import (
    And,
    Atom,
    Finally,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    PropositionSet,
    Until,
    eval_qualitative,
    format_formula,
    parse_formula,
    to_nnf,
)
from .semantics import (
    DISCOUNTED,
    ROBUST,
    SemanticsParams,
    Valuation,
    discounted_value,
    robust_value,
    sample_fitness,
    satisfies_all,
)
from .traces import Sample, Trace, generate_traces, parse_traces, serialize_sample

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "DISCOUNTED", "Finally", "Formula", "Globally", "Implies",
    "JanakaError", "Next", "Not", "Or", "PropositionSet",
    "ROBUST", "Sample", "SemanticsParams", "Trace", "Until", "Valuation",
    "discounted_value", "eval_qualitative", "format_formula", "generate_traces",
    "parse_formula", "parse_traces", "robust_value", "sample_fitness",
    "satisfies_all", "serialize_sample", "to_nnf",
    "__version__",
]
