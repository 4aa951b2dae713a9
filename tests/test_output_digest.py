"""One SHA-256 over a fixed corpus of rendered outputs.

The digest was computed on the code before the period digits were read by
conversion, so any change to what the library writes (expansions, traces,
tables, graph exports) shows here as a changed digest.
"""

import hashlib

from radixgraph.expansion import Fraction, expand, period_digits, period_digits_reversed
from radixgraph.export import (
    ExportOptions,
    census_table,
    cycle_table,
    format_expansion,
    graph_to_dot,
    graph_to_json,
    trace_table,
)
from radixgraph.graph import GraphParams, build_graph, census

BASES = (2, 3, 8, 10, 12, 16, 37, 60)
# periods from a few hundred to ten thousand digits in every base
LONG_DENOMINATORS = (769, 1019, 2039, 4099, 10069)
DIGEST = "56ce6a2116b2bc9a86172e9d17eacf57dad23fdab921bfc36c26b84b44e3d33f"


def _corpus():
    for base in BASES:
        fractions = [(k, m) for m in range(1, 41) for k in range(2 * m + 1)]
        fractions += [(k, m) for m in LONG_DENOMINATORS for k in (1, m - 1, m + 2)]
        for k, m in fractions:
            x, red = expand(Fraction(k, m), base)
            yield repr(x)
            yield format_expansion(x)
            yield format_expansion(x, ascii_style=True)
            yield repr(
                (red.shift, red.integer_part, red.preperiod_value, red.tail_numerator, red.tail_denominator)
                + (red.multiplier, red.graph_n)
            )
            if red.period_trace is not None:
                yield repr((red.period_trace.digits, len(red.period_trace)))
        for n in (1, 2, 3, 7, 20, 41):
            p = GraphParams(base, n)
            yield census_table(census(p), base)
            for x in sorted({v % p.modulus for v in (0, 1, p.modulus - 1, p.modulus // 3, p.modulus // 2)}):
                for walk in (period_digits, period_digits_reversed):
                    t = walk(x, p)
                    yield trace_table(t)
                    yield repr((t.digits, t.remainders, t.start, t.right_to_left, len(t)))
            g = build_graph(p)
            for options in (ExportOptions(), ExportOptions("base"), ExportOptions("base", p.modulus - 1)):
                yield cycle_table(g, options)
                yield graph_to_dot(g, options)
                yield graph_to_json(g, options)
        for m in LONG_DENOMINATORS:
            if m % base:
                _, red = expand(Fraction(1, m), base)
                t = red.period_trace
                for walk in (period_digits, period_digits_reversed):
                    yield trace_table(walk(t.start, t.params))


def test_output_digest_is_unchanged():
    h = hashlib.sha256()
    for text in _corpus():
        h.update(text.encode())
        h.update(b"\0")
    assert h.hexdigest() == DIGEST
