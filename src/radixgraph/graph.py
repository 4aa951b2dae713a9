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
from dataclasses import dataclass

from .digits import decimal_str
from .errors import CapacityError, ValidationError
from .numtheory import factorize

# build_graph refuses more vertices than this; at 10^6 it peaks near 100 MB.
MATERIALIZATION_CAP = 10**6


@dataclass(frozen=True)
class GraphParams:
    """Base B >= 2 and multiplier n >= 1; the modulus is M = B*n - 1."""

    base: int
    n: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValidationError(f"base must be >= 2, got {decimal_str(self.base)}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {decimal_str(self.n)}")

    @property
    def modulus(self) -> int:
        return self.base * self.n - 1


@dataclass(frozen=True)
class CensusRow:
    """Cycle census entry for one divisor d of the modulus."""

    d: int
    order: int
    phi: int
    cycle_count: int
    cycle_length: int


@dataclass(frozen=True)
class FunctionalGraph:
    """Materialized successor map plus the cycle decomposition.

    Cycles are canonical: each starts at its smallest vertex and the list is
    sorted by that starting vertex, so two builds of the same graph compare
    equal component by component.
    """

    params: GraphParams
    successor: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]


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
    successor = tuple(base * x % m for x in range(m))
    cycles = []
    visited = bytearray(m)
    # ascending sweep: each cycle is discovered at, and starts from, its smallest vertex
    for x in range(m):
        if visited[x]:
            continue
        cyc = [x]
        visited[x] = 1
        y = successor[x]
        while y != x:
            visited[y] = 1
            cyc.append(y)
            y = successor[y]
        cycles.append(tuple(cyc))
    return FunctionalGraph(params, successor, tuple(cycles))
