"""The multiply-by-B map on residues modulo M = B*n - 1.

Since B*n = M + 1, the base B is a unit mod M (with inverse n), so the map
x -> B*x mod M permutes {0, ..., M-1} and the graph is a disjoint union of
cycles. The cycle through x has length ord_d(B) where d = M / gcd(M, x),
which gives a complete census of cycle lengths without materializing
anything: each divisor d of M contributes phi(d) / ord_d(B) cycles of
length ord_d(B).
"""

from __future__ import annotations

import math
from itertools import chain

from ._record import Record
from .digits import decimal_str
from .errors import CapacityError, ValidationError
from .numtheory import factorize

# build_graph refuses more vertices than this. The costliest exports at 10^6 are json with base labels:
# 291 MB and 1.5 s in base 2, 273 MB and 2.1 s in base 500000.
MATERIALIZATION_CAP = 10**6


class GraphParams(Record):
    """Base B >= 2 and multiplier n >= 1; the modulus is M = B*n - 1."""

    __slots__ = ("base", "n")

    def __init__(self, base: int, n: int) -> None:
        if base < 2:
            raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {decimal_str(n)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "n", n)

    @property
    def modulus(self) -> int:
        return self.base * self.n - 1


class CensusRow(Record):
    """Cycle census entry for one divisor d of the modulus."""

    __slots__ = ("d", "order", "phi", "cycle_count", "cycle_length")

    def __init__(self, d: int, order: int, phi: int, cycle_count: int, cycle_length: int) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "cycle_count", cycle_count)
        object.__setattr__(self, "cycle_length", cycle_length)


class FunctionalGraph(Record):
    """Materialized successor map plus the cycle decomposition.

    Cycles are canonical: each starts at its smallest vertex and the list is
    sorted by that starting vertex, so two builds of the same graph compare
    equal component by component.
    """

    __slots__ = ("params", "successor", "cycles")

    def __init__(self, params: GraphParams, successor: tuple[int, ...], cycles: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "successor", successor)
        object.__setattr__(self, "cycles", cycles)


def _check_vertex(params: GraphParams, x: int) -> int:
    """The modulus, once x is checked to be a vertex of the graph."""
    m = params.modulus
    if not 0 <= x < m:
        x, m, base, n = map(decimal_str, (x, m, params.base, params.n))
        raise ValidationError(f"vertex {x} out of range [0, {m}) for base {base}, n {n}")
    return m


def step(params: GraphParams, x: int) -> int:
    """One application of the map: B*x mod M."""
    _check_vertex(params, x)
    return params.base * x % params.modulus


def iterate(params: GraphParams, x: int, i: int) -> int:
    """i-fold application of step, via modular exponentiation."""
    _check_vertex(params, x)
    if i < 0:
        raise ValidationError(f"iteration count must be >= 0, got {decimal_str(i)}")
    return pow(params.base, i, params.modulus) * x % params.modulus


def reverse_step(params: GraphParams, x: int) -> int:
    """Unique predecessor of x, i.e. n*x mod M (n is the inverse of B mod M)."""
    _check_vertex(params, x)
    return params.n * x % params.modulus


def census(params: GraphParams) -> list[CensusRow]:
    """Cycle census by divisor of M, ascending in d.

    Row d says: the phi(d) vertices x with M / gcd(M, x) = d split into
    phi(d) / ord_d(B) cycles of length ord_d(B). The d = 1 row is the fixed
    point 0. Total vertices sum(phi(d)) = M. Factors M once and p - 1 once
    for each prime p | M; each of those is at most M, so the factorization
    cap on M covers them all.
    """
    base = params.base
    triples = [(1, 1, 1)]  # (d, phi(d), ord_d(B)) for each divisor d so far
    for p, e in factorize(params.modulus):
        # ord_p(B) divides p - 1: strip each prime of p - 1 while B^t stays 1
        t = p - 1
        for q, _ in factorize(p - 1):
            while t % q == 0 and pow(base, t // q, p) == 1:
                t //= q
        # from p^(i-1) to p^i the order stays t or becomes t*p
        powers = []
        for i in range(1, e + 1):
            if pow(base, t, p**i) != 1:
                t *= p
            powers.append((p**i, p**i - p ** (i - 1), t))
        triples += [
            (d * pd, phi * phid, math.lcm(order, od))
            for d, phi, order in triples
            for pd, phid, od in powers
        ]
    return [CensusRow(d, order, phi, phi // order, order) for d, phi, order in sorted(triples)]


def build_graph(params: GraphParams) -> FunctionalGraph:
    """Materialize successor map and cycle decomposition for M <= MATERIALIZATION_CAP vertices."""
    m = params.modulus
    if m > MATERIALIZATION_CAP:
        raise CapacityError(f"graph has {decimal_str(m)} vertices, above cap {MATERIALIZATION_CAP}")
    base = params.base
    # x = j*n + i with 0 <= i < n maps to B*i + j, as B*n = M + 1
    successor = tuple(chain.from_iterable(range(j, m, base) for j in range(base)))
    cycles = []
    visited = bytearray(m)
    # ascending sweep: each cycle is discovered at, and starts from, its smallest vertex
    x = 0
    while x >= 0:
        cyc = [x]
        visited[x] = 1
        y = successor[x]
        while y != x:
            visited[y] = 1
            cyc.append(y)
            y = successor[y]
        cycles.append(tuple(cyc))
        x = visited.find(0, x + 1)
    return FunctionalGraph(params, successor, tuple(cycles))
