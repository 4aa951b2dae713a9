"""Text renderings: expansions, census and trace tables, DOT and JSON graphs.

All output here is deterministic: same input, byte-identical text.
"""

from __future__ import annotations

from itertools import chain

from ._record import Record
from .digits import DIGIT_ALPHABET, decimal_str, digit_symbols
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
    params = graph.params
    highlight = _checked_highlight(options, params.modulus)
    label = _vertex_labels(params.modulus, params.base).__getitem__ if options.label_base == "base" else str
    cycles = graph.cycles
    # _table right-aligns; the vertex lists are left-aligned, so they are
    # appended to its lines instead of passed as a third column
    counts = _table(["cycle", "length"], [list(map(str, range(len(cycles)))), [str(len(c)) for c in cycles]])
    vertices = ["vertices", *(" ".join(map(label, c)) for c in cycles)]
    if highlight is not None:
        i = next(i for i, c in enumerate(cycles) if highlight in c)
        vertices[i + 1] = " ".join(label(v) + "*" * (v == highlight) for v in cycles[i])
    return "".join(f"{line} | {v}\n" for line, v in zip(counts.splitlines(), vertices))


def _vertex_labels(m: int, base: int) -> list[str]:
    """Labels of the vertices 0..m-1, each as to_digit_string(v, base).render()
    writes it. The label of v >= base is the label of v // base followed by
    the symbol of v % base, so the labels are built one power of base at a time."""
    if base <= 36:
        symbols, sep = list(DIGIT_ALPHABET[:base]), ""
    else:
        symbols, sep = list(map(str, range(base))), ","
    labels = symbols[:m]
    start = 1  # labels[start:] are the prefixes of the next power's labels
    while len(labels) < m:
        end = min(len(labels), -(-m // base))
        labels += [head + sep + s for head in labels[start:end] for s in symbols]
        start = end
    del labels[m:]
    return labels if base <= 36 else ["[" + s + "]" for s in labels]


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
