"""Repeating radix expansions of fractions via multiply-by-B residue graphs.

The map x -> B*x mod (B*n - 1) permutes residues; reading the rightmost
base-B digit of each remainder along a cycle yields the repeating block of
k/(B*n - 1). expand() reduces an arbitrary nonnegative fraction to that
form and assembles integer part, preperiod and period.
"""

from .digits import DigitString, from_digit_string, rightmost_digit, to_digit_string
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
    RadixExpansion,
    ReductionTrace,
    SweepMismatch,
    SweepResult,
    expand,
    factor_out_base,
    long_division_oracle,
    period_digits,
    period_digits_reversed,
    reduce_coprime,
    run_oracle_sweep,
    value_of,
)
from .export import (
    ExportOptions,
    census_table,
    cycle_table,
    format_expansion,
    graph_to_dot,
    graph_to_json,
    trace_table,
)
from .graph import (
    MATERIALIZATION_CAP,
    CensusRow,
    FunctionalGraph,
    GraphParams,
    build_graph,
    census,
    cycle_length_of,
    cycle_of,
    iterate,
    reverse_step,
    step,
)
from .numtheory import (
    FACTORIZATION_CAP,
    divisors,
    euler_phi,
    factorize,
    mod_inverse,
    mult_order,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CensusRow",
    "DigitString",
    "ExportOptions",
    "FACTORIZATION_CAP",
    "Fraction",
    "FunctionalGraph",
    "GraphParams",
    "MATERIALIZATION_CAP",
    "NotAUnitError",
    "ParseError",
    "PeriodTrace",
    "RadixExpansion",
    "RadixGraphError",
    "ReductionTrace",
    "SweepMismatch",
    "SweepResult",
    "UndefinedInputError",
    "ValidationError",
    "ZeroDenominatorError",
    "build_graph",
    "census",
    "census_table",
    "cycle_length_of",
    "cycle_of",
    "cycle_table",
    "divisors",
    "euler_phi",
    "expand",
    "factor_out_base",
    "factorize",
    "format_expansion",
    "from_digit_string",
    "graph_to_dot",
    "graph_to_json",
    "iterate",
    "long_division_oracle",
    "mod_inverse",
    "mult_order",
    "period_digits",
    "period_digits_reversed",
    "reduce_coprime",
    "reverse_step",
    "rightmost_digit",
    "run_oracle_sweep",
    "step",
    "to_digit_string",
    "trace_table",
    "value_of",
]
