"""Repeating radix expansions of fractions via multiply-by-B residue graphs.

The map x -> B*x mod (B*n - 1) permutes residues; reading the rightmost
base-B digit of each remainder along a cycle yields the repeating block of
k/(B*n - 1). expand() reduces an arbitrary nonnegative fraction to that
form and assembles integer part, preperiod and period.

The names below are the library surface; everything else stays importable
from its module (radixgraph.graph, radixgraph.numtheory, ...).
"""

from .errors import (
    CapacityError,
    NotAUnitError,
    ParseError,
    RadixGraphError,
    UndefinedInputError,
    ValidationError,
    ZeroDenominatorError,
)
from .expansion import (
    Fraction,
    PeriodTrace,
    expand,
    long_division_oracle,
    period_digits,
    period_digits_reversed,
    value_of,
)
from .export import ExportOptions, cycle_table, format_expansion, graph_to_dot, graph_to_json, trace_table
from .graph import CensusRow, GraphParams, build_graph, census
from .numtheory import factorize

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CensusRow",
    "ExportOptions",
    "Fraction",
    "GraphParams",
    "NotAUnitError",
    "ParseError",
    "PeriodTrace",
    "RadixGraphError",
    "UndefinedInputError",
    "ValidationError",
    "ZeroDenominatorError",
    "build_graph",
    "census",
    "cycle_table",
    "expand",
    "factorize",
    "format_expansion",
    "graph_to_dot",
    "graph_to_json",
    "long_division_oracle",
    "period_digits",
    "period_digits_reversed",
    "trace_table",
    "value_of",
]
