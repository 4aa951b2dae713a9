"""Text renderings: expansions, census and trace tables, DOT and JSON graphs.

All output here is deterministic: same input, byte-identical text.
"""

from __future__ import annotations

from itertools import chain

from ._record import Record
from .digits import _vertex_labels, decimal_str, digit_symbols
from .errors import ValidationError
from .expansion import PeriodTrace, RadixExpansion
from .graph import FunctionalGraph, census


class ExportOptions(Record):
    """Rendering knobs for graph exports.

    label_base: "decimal" keeps vertex labels as plain integers, "base"
    renders them as base-B digit strings; highlight singles out one vertex.
    """

    __slots__ = ("label_base", "highlight")

    def __init__(self, label_base: str = "decimal", highlight: int | None = None) -> None:
        object.__setattr__(self, "label_base", label_base)
        object.__setattr__(self, "highlight", highlight)


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
        return f"{body}_{decimal_str(x.base)}"
    body = f"{whole}.{pre}‾{per}" if per else f"{whole}.{pre}"
    return f"{body} (base {decimal_str(x.base)})"


def _table(headers: list[str], columns: list) -> str:
    """Right-aligned columns under their headers, joined by " | ".

    A column is a nonempty sequence of nonnegative ints or of str cells. The
    headers and the str cells must be ASCII, as long tables are assembled as
    bytes. Written row by row a table costs a step per cell, written column
    by column a step per character of a row, so a table of fewer rows than
    its cells' widths sum to is one % over all its cells, row after row. A
    longer one becomes one block of cells of one width per column (ints by a
    single %d pass, str cells of one width by a join, others by a single %s
    pass), and the blocks are copied into fixed-width rows one character
    position at a time, by strided slice assignment."""
    rows = len(columns[0])
    cols, cell_widths, codes = [], [], []
    for col in columns:
        if isinstance(col[0], str):
            w, code = max(map(len, col)), "s"
        else:
            try:
                w, code = len(str(max(col))), "d"
            except ValueError:  # str() refuses ints over sys.get_int_max_str_digits() digits
                col = list(map(decimal_str, col))
                w, code = max(map(len, col)), "s"
        cols.append(col)
        cell_widths.append(w)
        codes.append(code)
    widths = list(map(max, map(len, headers), cell_widths))
    header = " | ".join(map(str.rjust, headers, widths)) + "\n"
    if rows < sum(cell_widths):
        fmt = " | ".join(map("%{}{}".format, widths, codes)) + "\n"
        return header + (fmt * rows) % tuple(chain.from_iterable(zip(*cols)))
    blank = b" | ".join(map(b" ".__mul__, widths)) + b"\n"
    line = len(blank)
    buf = bytearray(header, "ascii")
    start = len(buf)
    buf += blank * rows
    for col, w, code, width in zip(cols, cell_widths, codes, widths):
        if code == "d":
            cells = (f"%{w}d" * rows).encode() % tuple(col)
        else:
            cells = "".join(col)
            if len(cells) != w * rows:
                cells = (f"%{w}s" * rows) % tuple(col)
            cells = cells.encode("ascii")
        start += width - w
        for c in range(w):
            buf[start + c :: line] = cells[c::w]
        start += w + 3
    return buf.decode("ascii")


def census_table(graph_census: list, base: int) -> str:
    """Cycle census as an aligned ASCII table, one row per divisor of M."""
    headers = ["d", f"ord_d({base})", "phi(d)", f"phi(d)/ord_d({base})"]
    columns = [
        [r.d for r in graph_census],
        [r.order for r in graph_census],
        [r.phi for r in graph_census],
        [r.cycle_count for r in graph_census],
    ]
    return _table(headers, columns)


def trace_table(trace: PeriodTrace) -> str:
    """Remainder walk as an aligned table; notes reading order when reversed."""
    rems = trace.remainders
    columns = [range(1, len(rems) + 1), rems, digit_symbols(trace.digits, trace.params.base)]
    out = _table(["i", "remainder", "digit"], columns)
    if trace.right_to_left:
        out += "(digits read right to left)\n"
    return out


def cycle_table(graph: FunctionalGraph, options: ExportOptions = ExportOptions()) -> str:
    """One row per cycle: index, length, vertices in successor order, labelled
    as in graph_to_dot; the highlighted vertex gets a trailing "*"."""
    params = graph.params
    highlight = _checked_highlight(options, params.modulus)
    label = _vertex_labels(params.modulus, params.base).__getitem__ if options.label_base == "base" else str
    cycles = graph.cycles
    # _table right-aligns; the vertex lists are left-aligned, so they are
    # appended to its lines instead of passed as a third column
    counts = _table(["cycle", "length"], [range(len(cycles)), list(map(len, cycles))])
    vertices = ["vertices", *(" ".join(map(label, c)) for c in cycles)]
    if highlight is not None:
        i = next(i for i, c in enumerate(cycles) if highlight in c)
        vertices[i + 1] = " ".join(label(v) + "*" * (v == highlight) for v in cycles[i])
    return "".join(f"{line} | {v}\n" for line, v in zip(counts.splitlines(), vertices))


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
    parts = [f"digraph multiply_by_{base} {{\n"]
    if options.label_base == "base":
        pairs = chain.from_iterable(enumerate(_vertex_labels(m, base)))
        parts.append(('  %d [label="%s"];\n' * m) % tuple(pairs))
    if highlight is not None:
        parts.append(f"  {highlight} [style=bold];\n")
    heads = chain.from_iterable(graph.cycles)
    tails = chain.from_iterable(c[1:] + c[:1] for c in graph.cycles)
    parts.append(("  %d -> %d;\n" * m) % tuple(chain.from_iterable(zip(heads, tails))))
    parts.append("}\n")
    return "".join(parts)


def graph_to_json(graph: FunctionalGraph, options: ExportOptions = ExportOptions()) -> str:
    """Versioned JSON document with params, cycles and the analytic census.

    The text is json.dumps(document, indent=2) byte for byte. The cycles and
    the labels, which grow with the graph, are written by joins; the other
    fields go through the encoder, indented one level.
    """
    params = graph.params
    m = params.modulus
    highlight = _checked_highlight(options, m)
    cycles = "\n    ],\n    [\n      ".join(",\n      ".join(map(str, c)) for c in graph.cycles)
    rows = [
        {"d": r.d, "order": r.order, "phi": r.phi, "cycle_count": r.cycle_count, "cycle_length": r.cycle_length}
        for r in census(params)
    ]
    fields = {
        "schema": _json_field(1),
        "params": _json_field({"base": params.base, "n": params.n}),
        "modulus": _json_field(m),
        "cycles": "[\n    [\n      " + cycles + "\n    ]\n  ]",
        "census": _json_field(rows),
    }
    if options.label_base == "base":
        pairs = chain.from_iterable(enumerate(_vertex_labels(m, params.base)))
        fields["labels"] = "{\n    " + ",\n    ".join(['"%d": "%s"'] * m) % tuple(pairs) + "\n  }"
    if highlight is not None:
        fields["highlight"] = _json_field(highlight)
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields.items()) + "\n}\n"


def _json_field(value) -> str:
    """value as json.dumps(value, indent=2) writes it one level down."""
    import json  # here, as importing it adds 3 ms to every start-up

    return json.dumps(value, indent=2).replace("\n", "\n  ")
