"""Seeded request generation for the four benchmark workloads.

Standard library only, so that a fresh interpreter can time it without the
package under test. The same (workload, seed) always yields the same
requests.

Inputs are generated in rounds. Where request cost depends on size, every
round holds the same sizes, the log-midpoints of equal-width slices of the
log-size range, with the same request kind and base at each size; the seed
draws everything else (numerators, moduli near each size, order). The
harness only stops at a round boundary, so every run sees the same mix
whatever the seed, and the run-to-run spread measures the code rather than
the draw. Such a round holds an odd number of cost classes, 25 or 45, so
that its median and p90 fall inside a class rather than on the edge
between two.
"""

from __future__ import annotations

import bisect
import math
import random

WORKLOADS = ("fractions_small", "fractions_long", "census_wide", "graph_export")

# The acceptance-3 grid: every k/m with m <= 300, k <= 2m, in these bases.
SMALL_BASES = (2, 3, 8, 10, 12, 16)
SMALL_MAX_M = 300
LONG_BASES = (2, 10, 12, 16)
CENSUS_BASES = (2, 3, 8, 10, 12, 16)
GRAPH_BASES = (2, 8, 10, 12, 16)
# (format, label style); labels do not apply to the table format
GRAPH_KINDS = (("dot", "decimal"), ("dot", "base"), ("json", "decimal"), ("json", "base"), ("table", "decimal"))

# Every round of a workload has the same sizes and request kinds. Size
# grids are dense, so that latency percentiles do not jump between sizes.
SMALL_ROUND, SMALL_ROUNDS = 1024, 64
# fractions_long: about one request in four is a trace request
LONG_EXPANDS, LONG_TRACES, LONG_ROUNDS = 34, 11, 16
LONG_PERIODS = (10**3, 10**4)
# census_wide: every size once in every base per round
CENSUS_SIZES, CENSUS_ROUNDS = 16, 128
CENSUS_RANGE = (10**5, 10**12)
# graph_export: len(GRAPH_KINDS) * len(GRAPH_BASES) sizes, one per
# (kind, base) pair; the seed draws the modulus within GRAPH_JITTER of it
GRAPH_ROUNDS = 32
GRAPH_RANGE = (5 * 10**3, 6 * 10**4)
GRAPH_JITTER = 0.02

TRACE_PROBE_PERIOD, TRACE_PROBE_BASE = 2000, 10

# Offsets of the m-blocks in the flattened (k, m) grid, for uniform sampling.
_GRID_STARTS = []
_total = 0
for _m in range(1, SMALL_MAX_M + 1):
    _GRID_STARTS.append(_total)
    _total += 2 * _m + 1
GRID_SIZE = _total


def _grid_fraction(rng: random.Random) -> tuple[int, int]:
    i = rng.randrange(GRID_SIZE)
    m = bisect.bisect_right(_GRID_STARTS, i)
    return i - _GRID_STARTS[m - 1], m


def _log_grid(lo: int, hi: int, count: int) -> list[int]:
    """The log-midpoints of `count` equal slices of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    return [int(math.exp(a + (i + 0.5) * (b - a) / count)) for i in range(count)]


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return out + [n] if n > 1 else out


def _half_order_prime(base: int, period: int, step: int = 1) -> int:
    """Least prime p >= 2*period + 1, p = -1 mod step, at which base has
    multiplicative order exactly (p - 1) / 2.

    Then every k/p (p not dividing k) has a period of exactly (p - 1) / 2
    digits, so the walk length is fixed by the draw. Half, not full, order
    because 16 is a square and 12 is a square mod every p = -1 mod 12.
    """
    p = 2 * period + 1
    p += (-1 - p) % step
    while True:
        if _prime_factors(p) == [p] and base % p:
            order = (p - 1) // 2
            if pow(base, order, p) == 1 and all(pow(base, order // q, p) != 1 for q in _prime_factors(order)):
                return p
        p += step


def _trace_request(rng: random.Random, period: int, base: int) -> tuple:
    """Walk of a vertex of the graph mod a prime B*n - 1, on a cycle of at
    least `period` vertices (every nonzero cycle there has (M - 1) / 2)."""
    modulus = _half_order_prime(base, period, step=base)
    return ("trace", rng.randrange(1, modulus), (modulus + 1) // base, base)


def _graph_n(size: int, base: int) -> int:
    """n such that base*n - 1 is close to size."""
    return max(1, (size + 1) // base)


def _graph_slots() -> list[tuple]:
    """(size, format, labels, base) of every graph_export round.

    A Latin square: size i renders kind i % 5 in base (i // 5 + i) % 5, so
    every (kind, base) pair occurs once and every kind and every base
    spans the size range. Label cost depends strongly on both (base 2
    labels are the longest), so fixing them per size keeps the latency
    percentiles of a run independent of the draw.
    """
    kinds, bases = len(GRAPH_KINDS), len(GRAPH_BASES)
    sizes = _log_grid(*GRAPH_RANGE, kinds * bases)
    return [(size, *GRAPH_KINDS[i % kinds], GRAPH_BASES[(i // kinds + i) % bases]) for i, size in enumerate(sizes)]


def fractions_small(rng: random.Random) -> list[list[tuple]]:
    rounds = []
    for _ in range(SMALL_ROUNDS):
        batch = []
        for _ in range(SMALL_ROUND):
            k, m = _grid_fraction(rng)
            batch.append(("expand", k, m, rng.choice(SMALL_BASES)))
        rounds.append(batch)
    return rounds


def fractions_long(rng: random.Random) -> list[list[tuple]]:
    # The base of each period cycles through LONG_BASES, so the modulus of
    # every slot is fixed and the seed draws the numerators.
    def slots(count):
        return [(p, LONG_BASES[i % len(LONG_BASES)]) for i, p in enumerate(_log_grid(*LONG_PERIODS, count))]

    expands = [(_half_order_prime(base, p), base) for p, base in slots(LONG_EXPANDS)]
    rounds = []
    for _ in range(LONG_ROUNDS):
        batch = [_trace_request(rng, p, base) for p, base in slots(LONG_TRACES)]
        for m, base in expands:
            k = rng.randrange(1, 2 * m)
            batch.append(("expand", k + (k % m == 0), m, base))
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


def census_wide(rng: random.Random) -> list[list[tuple]]:
    seen = set()
    rounds = []
    for _ in range(CENSUS_ROUNDS):
        batch = []
        for size in _log_grid(*CENSUS_RANGE, CENSUS_SIZES):
            for base in CENSUS_BASES:
                n = _graph_n(size, base)
                while (base, n) in seen:
                    n += 1
                seen.add((base, n))
                batch.append(("census", n, base))
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


def graph_export(rng: random.Random) -> list[list[tuple]]:
    rounds = []
    for _ in range(GRAPH_ROUNDS):
        batch = []
        for size, fmt, labels, base in _graph_slots():
            size = int(size * rng.uniform(1 - GRAPH_JITTER, 1 + GRAPH_JITTER))
            batch.append(("graph", _graph_n(size, base), base, fmt, labels))
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


GENERATORS = {
    "fractions_small": fractions_small,
    "fractions_long": fractions_long,
    "census_wide": census_wide,
    "graph_export": graph_export,
}


def generate(workload: str, seed: int) -> list[list[tuple]]:
    """Rounds of requests for one workload; identical for identical seeds."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def cli_fractions(seed: int, count: int) -> list[tuple[int, int, int]]:
    """(k, m, base) from the acceptance-3 grid for the cold CLI probe."""
    rng = random.Random(f"cli:{seed}")
    out = []
    for _ in range(count):
        k, m = _grid_fraction(rng)
        out.append((k, m, rng.choice(SMALL_BASES)))
    return out


def trace_probe(seed: int, count: int) -> list[tuple]:
    """Trace requests (k, n, base) of one modulus, each a walk of just over
    TRACE_PROBE_PERIOD digits.

    One size and one base, so that their median is a median of like
    requests; the seed draws the vertices."""
    rng = random.Random(f"trace:{seed}")
    return [_trace_request(rng, TRACE_PROBE_PERIOD, TRACE_PROBE_BASE) for _ in range(count)]
