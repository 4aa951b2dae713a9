"""Exact integer factorization: trial division guarded by a magnitude cap.

factorize is the one place that checks the cap; graph.census derives divisors,
totients and orders from the factorizations it returns. The cap bounds time only
loosely: a prime just under it is the worst case, and `census 461168601842738771`
(M = 4611686018427387709) takes 182.6 s (2-vCPU VM; ROADMAP item 2).
"""

from __future__ import annotations

from functools import lru_cache

from .digits import decimal_str
from .errors import CapacityError, UndefinedInputError

# Above this, trial division is refused rather than attempted.
FACTORIZATION_CAP = 2**62


# Bounded: one census never factors a number twice; hits come only from earlier calls.
@lru_cache(maxsize=1024)
def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    factors = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    # remaining prime factors are of the form 6k +/- 1
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                factors.append((q, e))
        p += 6
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer by trial division.

    Returns (prime, exponent) pairs, ascending by prime; empty for 1.
    """
    if n < 1:
        raise UndefinedInputError(f"factorize expects a positive integer, got {decimal_str(n)}")
    if n > FACTORIZATION_CAP:
        raise CapacityError(f"refusing to factor {decimal_str(n)} > cap {FACTORIZATION_CAP}")
    return _trial_division(n)
