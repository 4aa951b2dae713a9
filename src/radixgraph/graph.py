"""The multiply-by-B map on residues modulo M = B*n - 1.

Since B*n = M + 1, the base B is a unit mod M (with inverse n), so the map
x -> B*x mod M permutes {0, ..., M-1} and the graph is a disjoint union of
cycles. The cycle through x has length ord_d(B) where d = M / gcd(M, x),
which gives a complete census of cycle lengths without materializing
anything: each divisor d of M contributes phi(d) / ord_d(B) cycles of
length ord_d(B).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ValidationError
from .numtheory import divisors, euler_phi, mult_order

# build_graph refuses vertex sets larger than this by default.
MATERIALIZATION_CAP = 10**6


@dataclass(frozen=True)
class GraphParams:
    """Base B >= 2 and multiplier n >= 1; the modulus is M = B*n - 1."""

    base: int
    n: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValidationError(f"base must be >= 2, got {self.base}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")

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

    def cycle_lengths(self) -> list[int]:
        return [len(c) for c in self.cycles]


def _check_vertex(params: GraphParams, x: int) -> None:
    if not 0 <= x < params.modulus:
        raise ValidationError(
            f"vertex {x} out of range [0, {params.modulus}) for base {params.base}, n {params.n}"
        )


def step(params: GraphParams, x: int) -> int:
    """One application of the map: B*x mod M."""
    _check_vertex(params, x)
    return params.base * x % params.modulus


def iterate(params: GraphParams, x: int, i: int) -> int:
    """i-fold application of step, via modular exponentiation."""
    _check_vertex(params, x)
    if i < 0:
        raise ValidationError(f"iteration count must be >= 0, got {i}")
    return pow(params.base, i, params.modulus) * x % params.modulus


def reverse_step(params: GraphParams, x: int) -> int:
    """Unique predecessor of x, i.e. n*x mod M (n is the inverse of B mod M)."""
    _check_vertex(params, x)
    return params.n * x % params.modulus


def census(params: GraphParams) -> list[CensusRow]:
    """Cycle census by divisor of M, ascending in d.

    Row d says: the phi(d) vertices x with M / gcd(M, x) = d split into
    phi(d) / ord_d(B) cycles of length ord_d(B). The d = 1 row is the fixed
    point 0. Total vertices sum(phi(d)) = M. Needs to factor M, so the
    modulus must stay under the factorization cap.
    """
    rows = []
    for d in divisors(params.modulus):
        order = 1 if d == 1 else mult_order(params.base, d)
        phi = euler_phi(d)
        rows.append(CensusRow(d, order, phi, phi // order, order))
    return rows


def build_graph(params: GraphParams, *, cap: int = MATERIALIZATION_CAP) -> FunctionalGraph:
    """Materialize successor map and cycle decomposition for M <= cap vertices."""
    m = params.modulus
    if m > cap:
        raise CapacityError(f"graph has {m} vertices, above cap {cap}")
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
