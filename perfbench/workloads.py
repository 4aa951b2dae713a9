"""Requests against the public radixgraph API, and checks of their outputs.

execute() is the timed part of a request and returns what check() needs;
check() runs outside the timed region and returns an error string or None.
References are the package's long-division oracle and value_of round trip
for expansions, and sympy's divisors, factorint and n_order for census rows.
"""

from __future__ import annotations

import json
from collections import Counter
from math import gcd

import radixgraph as rg
from sympy import divisors as sympy_divisors, factorint, n_order

# value_of rebuilds the period as one integer, quadratic in its length;
# longer periods are checked against the oracle alone.
VALUE_OF_MAX_PERIOD = 4096


def execute(req: tuple):
    """Run one request; returns (output, work units) where the work unit is
    a period digit for expand/trace, a census row for census and a vertex
    for graph."""
    kind = req[0]
    if kind == "expand":
        _, k, m, base = req
        x, _ = rg.expand(rg.Fraction(k, m), base)
        text = rg.format_expansion(x)
        return (x, text), len(x.period)
    if kind == "trace":
        _, k, n, base = req
        walk = rg.period_digits_reversed(k, rg.GraphParams(base, n))
        text = rg.trace_table(walk)
        return (walk, text), len(walk)
    if kind == "census":
        _, n, base = req
        rows = rg.census(rg.GraphParams(base, n))
        return rows, len(rows)
    if kind == "graph":
        _, n, base, fmt, labels = req
        graph = rg.build_graph(rg.GraphParams(base, n))
        if fmt == "table":
            text = rg.cycle_table(graph)
        else:
            render = rg.graph_to_dot if fmt == "dot" else rg.graph_to_json
            text = render(graph, rg.ExportOptions(label_base=labels))
        return (graph, text), graph.params.modulus
    raise ValueError(f"unknown request kind {kind!r}")


def check(req: tuple, output) -> str | None:
    return _CHECKS[req[0]](req, output)


def _check_expand(req, output):
    _, k, m, base = req
    x, text = output
    f = rg.Fraction(k, m)
    want = rg.long_division_oracle(f, base)
    if x != want:
        return f"expand {k}/{m} base {base} disagrees with the oracle"
    if len(x.period) <= VALUE_OF_MAX_PERIOD and rg.value_of(x) != f.reduced():
        return f"value_of round trip of {k}/{m} base {base} failed"
    if text != rg.format_expansion(want):
        return f"format_expansion of {k}/{m} base {base} is not deterministic"
    return None


def _check_trace(req, output):
    _, k, n, base = req
    walk, text = output
    modulus = base * n - 1
    rems = walk.remainders
    if rems[0] != k or any(r * n % modulus != s for r, s in zip(rems, rems[1:] + rems[:1])):
        return f"trace {k} in Z/{modulus} is not the backward cycle of {k}"
    if len(rems) != n_order(base, modulus // gcd(modulus, k)):
        return f"trace {k} in Z/{modulus} has the wrong cycle length"
    period = rg.long_division_oracle(rg.Fraction(k, modulus), base).period.digits
    if tuple(reversed(walk.digits)) != period:
        return f"trace {k} in Z/{modulus} digits do not read back to the period"
    if text.count("\n") != len(rems) + 2:
        return f"trace table of {k} in Z/{modulus} has the wrong number of lines"
    return None


def _check_census_rows(rows, base: int, modulus: int) -> str | None:
    if [r.d for r in rows] != sympy_divisors(modulus):
        return f"census of {modulus} base {base} does not list the divisors"
    if sum(r.phi for r in rows) != modulus or sum(r.cycle_count * r.cycle_length for r in rows) != modulus:
        return f"census of {modulus} base {base} does not cover {modulus} vertices"
    primes = list(factorint(modulus))
    for r in rows:
        phi = r.d
        for p in primes:
            if r.d % p == 0:
                phi = phi // p * (p - 1)
        if r.order != r.cycle_length or r.order * r.cycle_count != r.phi or r.phi != phi:
            return f"census row d={r.d} of {modulus} base {base} is inconsistent"
        if pow(base, r.order, r.d) != 1 % r.d or (r.d > 1 and r.order != n_order(base, r.d)):
            return f"census row d={r.d} of {modulus} base {base} has the wrong order"
    return None


def _check_census(req, rows):
    _, n, base = req
    return _check_census_rows(rows, base, base * n - 1)


def _check_graph(req, output):
    _, n, base, fmt, labels = req
    graph, text = output
    modulus = base * n - 1
    cycles = graph.cycles
    if sum(map(len, cycles)) != modulus:
        return f"graph mod {modulus} does not cover its vertices"
    for cyc in cycles:
        if any(base * v % modulus != w for v, w in zip(cyc, cyc[1:] + cyc[:1])):
            return f"graph mod {modulus} has a cycle that is not a multiply-by-{base} orbit"
    want = Counter()
    for r in rg.census(graph.params):
        want[r.cycle_length] += r.cycle_count
    if Counter(map(len, cycles)) != want:
        return f"graph mod {modulus} cycle lengths disagree with its census"
    if fmt == "dot":
        if text.count(" -> ") != modulus:
            return f"dot of graph mod {modulus} does not have {modulus} edges"
        if labels == "base" and text.count("[label=") != modulus:
            return f"dot of graph mod {modulus} does not label every vertex"
    elif fmt == "json":
        doc = json.loads(text)
        if doc["modulus"] != modulus or doc["cycles"] != [list(c) for c in cycles]:
            return f"json of graph mod {modulus} does not round-trip its cycles"
        if labels == "base" and len(doc["labels"]) != modulus:
            return f"json of graph mod {modulus} does not label every vertex"
        err = _check_census_rows(
            [rg.CensusRow(**r) for r in doc["census"]], base, modulus
        )
        if err:
            return err
    else:
        rows = text.splitlines()[1:]
        if len(rows) != len(cycles) or any(int(row.split("|")[1]) != len(c) for row, c in zip(rows, cycles)):
            return f"cycle table of graph mod {modulus} disagrees with its cycles"
    return None


_CHECKS = {"expand": _check_expand, "trace": _check_trace, "census": _check_census, "graph": _check_graph}

# One small request into every traced layer; traced runs end with it so
# that a layer the workload never calls still reads a measured time.
LAYER_PROBE = (
    ("expand", 7, 24, 10),
    ("trace", 1, 5, 10),
    ("census", 5, 10),
    ("graph", 5, 10, "dot", "base"),
    ("graph", 5, 10, "json", "decimal"),
    ("graph", 5, 10, "table", "decimal"),
)
