import json
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from radixgraph.digits import _vertex_labels, decimal_str, to_digit_string
from radixgraph.errors import ValidationError
from radixgraph.expansion import Fraction, expand, period_digits, period_digits_reversed
from radixgraph.export import (
    ExportOptions,
    census_table,
    cycle_table,
    format_expansion,
    graph_to_dot,
    graph_to_json,
)
from radixgraph.export import _table, trace_table
from radixgraph.graph import GraphParams, build_graph, census


def _exp(num, den, base):
    return expand(Fraction(num, den), base)[0]


def test_format_expansion_styles():
    x = _exp(7, 20, 12)
    assert format_expansion(x) == "0.4‾2497 (base 12)"
    assert format_expansion(x, ascii_style=True) == "0.4(2497)_12"
    assert format_expansion(_exp(1, 4, 10)) == "0.25 (base 10)"
    assert format_expansion(_exp(1, 4, 10), ascii_style=True) == "0.25_10"
    assert format_expansion(_exp(5, 1, 10)) == "5"
    assert format_expansion(_exp(5, 1, 10), ascii_style=True) == "5"
    assert format_expansion(_exp(22, 7, 10)) == "3.‾142857 (base 10)"
    # base 60: 1/3 terminates, 1/7 repeats with bracketed digit lists
    assert format_expansion(_exp(1, 3, 60)) == "[0].[20] (base 60)"
    assert format_expansion(_exp(1, 7, 60)) == "[0].‾[8,34,17] (base 60)"


def test_census_table_layout():
    text = census_table(census(GraphParams(10, 4)), 10)
    lines = text.splitlines()
    assert lines[0].split() == ["d", "|", "ord_d(10)", "|", "phi(d)", "|", "phi(d)/ord_d(10)"]
    assert lines[1].split() == ["1", "|", "1", "|", "1", "|", "1"]
    assert lines[-1].split() == ["39", "|", "6", "|", "24", "|", "4"]
    assert text.endswith("\n")


def test_trace_table_forward_and_reverse():
    p = GraphParams(10, 4)
    fwd = trace_table(period_digits(1, p))
    assert "digits read right to left" not in fwd
    rows = [line.split() for line in fwd.splitlines()[1:]]
    assert [r[2] for r in rows] == ["10", "22", "25", "16", "4", "1"]
    assert [r[4] for r in rows] == ["0", "2", "5", "6", "4", "1"]
    rev = trace_table(period_digits_reversed(1, p))
    assert rev.rstrip().endswith("(digits read right to left)")


def test_trace_table_renders_digits_in_base():
    # modulus 11 in base 12: vertex 10 is fixed and its digit renders as "a"
    text = trace_table(period_digits(10, GraphParams(12, 1)))
    assert text.splitlines()[1].split() == ["1", "|", "10", "|", "a"]


def test_trace_table_large_base_digits_match_to_digit_string():
    # modulus 59 * 60 - 1: digits past 36 render as bracketed decimals
    p = GraphParams(60, 59)
    for walk in (period_digits, period_digits_reversed):
        trace = walk(1, p)
        rows = [line.split(" | ") for line in trace_table(trace).splitlines()[1:]]
        if trace.right_to_left:
            rows.pop()
        assert len(rows) == len(trace)
        assert [r[2].lstrip() for r in rows] == [to_digit_string(d, 60).render() for d in trace.digits]
        assert any(r[2].lstrip() == "[59]" for r in rows)


def test_text_of_a_base_over_4300_digits():
    # str() refuses ints of more than 4300 digits; the base, the digits and
    # the remainders are still written out in full
    base = 10**4400 + 1
    x, red = expand(Fraction(1, 3), base)
    # base = 2 mod 3, so 1/3 repeats with period 2: the digits of (base^2 - 1)/3
    d0, d1 = map(decimal_str, divmod((base * base - 1) // 3, base))
    b = "1" + "0" * 4399 + "1"
    assert format_expansion(x) == f"[0].‾[{d0},{d1}] (base {b})"
    assert format_expansion(x, ascii_style=True) == f"[0].([{d0},{d1}])_{b}"
    trace = red.period_trace
    rows = [line.split(" | ") for line in trace_table(trace).splitlines()[1:]]
    assert [r[1].lstrip() for r in rows] == list(map(decimal_str, trace.remainders))
    assert [r[2].lstrip() for r in rows] == [f"[{d0}]", f"[{d1}]"]


def _reference_table(headers, columns):
    """The table writer _table replaced: every cell as a str, then one % over
    all of them, row after row."""
    columns = [[c if isinstance(c, str) else str(c) for c in col] for col in columns]
    widths = [max(len(h), max(map(len, col), default=0)) for h, col in zip(headers, columns)]
    fmt = " | ".join(f"%{w}s" for w in widths) + "\n"
    return fmt % tuple(headers) + (fmt * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


_PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)


@st.composite
def _tables(draw):
    """headers and columns as the table writers pass them: ints (lists,
    tuples, ranges), str cells of one width (digit symbols), and str cells of
    mixed widths (bracketed digits of bases over 36, or any ASCII text)."""
    rows = draw(st.one_of(st.just(1), st.integers(1, 200)))

    def cells(cell):
        return st.lists(cell, min_size=rows, max_size=rows)

    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ints", "range", "one width", "bracketed", "mixed"]))
        if kind == "ints":
            col = draw(cells(st.integers(0, 10 ** draw(st.integers(0, 30)))))
            col = draw(st.sampled_from([col, tuple(col)]))
        elif kind == "range":
            start = draw(st.integers(0, 10**8))
            col = range(start, start + rows)
        elif kind == "one width":
            w = draw(st.integers(0, 3))
            col = draw(cells(st.text(_PRINTABLE, min_size=w, max_size=w)))
        elif kind == "bracketed":
            base = draw(st.integers(37, 10**4))
            col = [f"[{d}]" for d in draw(cells(st.integers(0, base - 1)))]
        else:
            col = draw(cells(st.text(_PRINTABLE, max_size=8)))
        columns.append(col)
    headers = draw(st.lists(st.text(_PRINTABLE, max_size=24), min_size=len(columns), max_size=len(columns)))
    return headers, columns


@given(_tables())
@settings(max_examples=200, deadline=None)
def test_table_equals_the_per_cell_writer(table):
    headers, columns = table
    assert _table(headers, columns) == _reference_table(headers, columns)


def test_cycle_table():
    assert cycle_table(build_graph(GraphParams(10, 4))) == (
        "cycle | length | vertices\n"
        "    0 |      1 | 0\n"
        "    1 |      6 | 1 10 22 25 16 4\n"
        "    2 |      6 | 2 20 5 11 32 8\n"
        "    3 |      6 | 3 30 27 36 9 12\n"
        "    4 |      6 | 6 21 15 33 18 24\n"
        "    5 |      6 | 7 31 37 19 34 28\n"
        "    6 |      1 | 13\n"
        "    7 |      6 | 14 23 35 38 29 17\n"
        "    8 |      1 | 26\n"
    )


def test_dot_shape():
    g = build_graph(GraphParams(10, 4))
    text = graph_to_dot(g)
    lines = text.splitlines()
    assert lines[0].startswith("digraph")
    assert lines[-1] == "}"
    edges = [l for l in lines if "->" in l]
    assert len(edges) == 39
    assert all(l.endswith(";") for l in edges)
    assert "  0 -> 0;" in lines
    assert "  13 -> 13;" in lines
    assert "  1 -> 10;" in lines


def test_dot_labels_and_highlight():
    g = build_graph(GraphParams(12, 3))
    text = graph_to_dot(g, ExportOptions(label_base="base", highlight=7))
    assert '  14 [label="12"];' in text.splitlines()
    assert '  10 [label="a"];' in text.splitlines()
    assert "  7 [style=bold];" in text.splitlines()
    with pytest.raises(ValidationError):
        graph_to_dot(g, ExportOptions(highlight=35))


def test_dot_deterministic():
    p = GraphParams(10, 12)
    assert graph_to_dot(build_graph(p)) == graph_to_dot(build_graph(p))


def test_json_document():
    g = build_graph(GraphParams(10, 4))
    doc = json.loads(graph_to_json(g))
    assert doc["schema"] == 1
    assert doc["params"] == {"base": 10, "n": 4}
    assert doc["modulus"] == 39
    flat = sorted(v for c in doc["cycles"] for v in c)
    assert flat == list(range(39))
    assert doc["census"][0] == {"d": 1, "order": 1, "phi": 1, "cycle_count": 1, "cycle_length": 1}
    assert doc["census"][-1]["d"] == 39
    assert "highlight" not in doc


def test_json_options():
    g = build_graph(GraphParams(12, 3))
    doc = json.loads(graph_to_json(g, ExportOptions(label_base="base", highlight=7)))
    assert doc["labels"]["14"] == "12"
    assert doc["highlight"] == 7
    with pytest.raises(ValidationError):
        graph_to_json(g, ExportOptions(highlight=-1))


@pytest.mark.parametrize("base", range(2, 71))
def test_vertex_labels_equal_to_digit_string(base):
    for m in sorted({1, 2, base - 1, base, base + 1, base**2 - 1, base**2, base**2 + 1, base**3 + 5} - {0}):
        labels = _vertex_labels(m, base)
        assert len(labels) == m
        # every label of the first few thousand vertices, then a sample and the last base + 5
        vs = sorted({*range(min(m, 3000)), *range(0, m, 997), *range(max(0, m - base - 5), m)})
        assert [labels[v] for v in vs] == [to_digit_string(v, base).render() for v in vs], m


# the graphs and options of the output digest, on which the fast renderers
# are checked against the renderings they replaced
_GRAPH_BASES = (2, 3, 8, 10, 12, 16, 37, 60)


def _graphs_and_options():
    for base in _GRAPH_BASES:
        for n in range(1, 31):
            g = build_graph(GraphParams(base, n))
            m = g.params.modulus
            for labels in ("decimal", "base"):
                for highlight in (None, m // 2):
                    yield g, ExportOptions(labels, highlight)


def _reference_json(g, options):
    params = g.params
    payload = {
        "schema": 1,
        "params": {"base": params.base, "n": params.n},
        "modulus": params.modulus,
        "cycles": [list(c) for c in g.cycles],
        "census": [
            {"d": r.d, "order": r.order, "phi": r.phi, "cycle_count": r.cycle_count, "cycle_length": r.cycle_length}
            for r in census(params)
        ],
    }
    if options.label_base == "base":
        payload["labels"] = {str(v): to_digit_string(v, params.base).render() for v in range(params.modulus)}
    if options.highlight is not None:
        payload["highlight"] = options.highlight
    return json.dumps(payload, indent=2) + "\n"


def _reference_dot(g, options):
    base, m = g.params.base, g.params.modulus
    lines = [f"digraph multiply_by_{base} {{"]
    if options.label_base == "base":
        for v in range(m):
            lines.append(f'  {v} [label="{to_digit_string(v, base).render()}"];')
    if options.highlight is not None:
        lines.append(f"  {options.highlight} [style=bold];")
    for cyc in g.cycles:
        for i, v in enumerate(cyc):
            lines.append(f"  {v} -> {cyc[(i + 1) % len(cyc)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_json_equals_the_encoder():
    for g, options in _graphs_and_options():
        assert graph_to_json(g, options) == _reference_json(g, options), (g.params, options)


def test_dot_equals_one_line_per_statement():
    for g, options in _graphs_and_options():
        assert graph_to_dot(g, options) == _reference_dot(g, options), (g.params, options)
