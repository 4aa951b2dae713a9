"""Text renderings: expansions, census and trace tables, DOT and JSON graphs.

All output here is deterministic: same input, byte-identical text.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain

from .digits import decimal_str, digit_symbols, to_digit_string
from .errors import ValidationError
from .expansion import PeriodTrace, RadixExpansion
from .graph import FunctionalGraph, census


@dataclass(frozen=True)
class ExportOptions:
    """Rendering knobs for graph exports.

    label_base: "decimal" keeps vertex labels as plain integers, "base"
    renders them as base-B digit strings; highlight singles out one vertex.
    """

    label_base: str = "decimal"
    highlight: int | None = None


def format_expansion(x: RadixExpansion, ascii_style: bool = False) -> str:
    """One-line text form of an expansion.

    Default style marks the period with an overline, e.g. 0.4‾2497 (base 12);
    ascii_style wraps it in parentheses instead: 0.4(2497)_12. A bare integer
    renders with no point and no base suffix.
    """
    whole = x.integer_part.render() or "0"
    pre = x.preperiod.render()
    per = x.period.render()
    if not pre and not per:
        return whole
    if ascii_style:
        body = f"{whole}.{pre}({per})" if per else f"{whole}.{pre}"
        return f"{body}_{x.base}"
    body = f"{whole}.{pre}‾{per}" if per else f"{whole}.{pre}"
    return f"{body} (base {x.base})"


def _table(headers: list[str], columns: list[list[str]]) -> str:
    """Right-aligned columns under their headers, joined by " | "."""
    widths = [max(len(h), max(map(len, col), default=0)) for h, col in zip(headers, columns)]
    fmt = " | ".join(f"%{w}s" for w in widths) + "\n"
    return fmt % tuple(headers) + (fmt * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def census_table(graph_census: list, base: int) -> str:
    """Cycle census as an aligned ASCII table, one row per divisor of M."""
    headers = ["d", f"ord_d({base})", "phi(d)", f"phi(d)/ord_d({base})"]
    columns = [
        [str(r.d) for r in graph_census],
        [str(r.order) for r in graph_census],
        [str(r.phi) for r in graph_census],
        [str(r.cycle_count) for r in graph_census],
    ]
    return _table(headers, columns)


def trace_table(trace: PeriodTrace) -> str:
    """Remainder walk as an aligned table; notes reading order when reversed."""
    headers = ["i", "remainder", "digit"]
    rems = trace.remainders
    try:
        rem_text = list(map(str, rems))
    except ValueError:  # str() refuses ints over sys.get_int_max_str_digits() digits
        rem_text = list(map(decimal_str, rems))
    columns = [
        list(map(str, range(1, len(rems) + 1))),
        rem_text,
        digit_symbols(trace.digits, trace.params.base),
    ]
    out = _table(headers, columns)
    if trace.right_to_left:
        out += "(digits read right to left)\n"
    return out


def cycle_table(graph: FunctionalGraph, options: ExportOptions = ExportOptions()) -> str:
    """One row per cycle: index, length, vertices in successor order, labelled
    as in graph_to_dot; the highlighted vertex gets a trailing "*"."""
    highlight = _checked_highlight(options, graph.params.modulus)
    label = partial(_vertex_label, base=graph.params.base) if options.label_base == "base" else str
    cycles = graph.cycles
    # _table right-aligns; the vertex lists are left-aligned, so they are
    # appended to its lines instead of passed as a third column
    counts = _table(["cycle", "length"], [list(map(str, range(len(cycles)))), [str(len(c)) for c in cycles]])
    vertices = ["vertices", *(" ".join(map(label, c)) for c in cycles)]
    if highlight is not None:
        i = next(i for i, c in enumerate(cycles) if highlight in c)
        vertices[i + 1] = " ".join(label(v) + "*" * (v == highlight) for v in cycles[i])
    return "".join(f"{line} | {v}\n" for line, v in zip(counts.splitlines(), vertices))


def _vertex_label(v: int, base: int) -> str:
    return to_digit_string(v, base).render()


def _checked_highlight(options: ExportOptions, m: int) -> int | None:
    """options.highlight, refused unless it is a vertex of the graph mod m."""
    v = options.highlight
    if v is not None and not 0 <= v < m:
        raise ValidationError(f"highlight vertex {decimal_str(v)} out of range [0, {m})")
    return v


def graph_to_dot(graph: FunctionalGraph, options: ExportOptions = ExportOptions()) -> str:
    """DOT digraph with one edge statement per line, grouped by cycle.

    Vertices are numbered by residue; with label_base="base" each vertex gets
    an explicit base-B label. Exactly M edge lines are emitted since the map
    is a permutation.
    """
    base = graph.params.base
    m = graph.params.modulus
    highlight = _checked_highlight(options, m)
    lines = [f"digraph multiply_by_{base} {{"]
    if options.label_base == "base":
        for v in range(m):
            lines.append(f'  {v} [label="{_vertex_label(v, base)}"];')
    if highlight is not None:
        lines.append(f"  {highlight} [style=bold];")
    for cyc in graph.cycles:
        for i, v in enumerate(cyc):
            lines.append(f"  {v} -> {cyc[(i + 1) % len(cyc)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: FunctionalGraph, options: ExportOptions = ExportOptions()) -> str:
    """Versioned JSON document with params, cycles and the analytic census."""
    params = graph.params
    highlight = _checked_highlight(options, params.modulus)
    payload: dict = {
        "schema": 1,
        "params": {"base": params.base, "n": params.n},
        "modulus": params.modulus,
        "cycles": [list(c) for c in graph.cycles],
        "census": [asdict(r) for r in census(params)],
    }
    if options.label_base == "base":
        payload["labels"] = {str(v): _vertex_label(v, params.base) for v in range(params.modulus)}
    if highlight is not None:
        payload["highlight"] = highlight
    return json.dumps(payload, indent=2) + "\n"
