"""Exact integer arithmetic: factorization and modular inverses.

All functions are pure. Factorization is plain trial division guarded by a
magnitude cap, which keeps worst-case runtime predictable at the scales this
package targets. factorize is the one place that checks the cap; graph.census
derives divisors, totients and orders from the factorizations it returns.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapacityError, NotAUnitError, UndefinedInputError, ValidationError

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
        raise UndefinedInputError(f"factorize expects a positive integer, got {n}")
    if n > FACTORIZATION_CAP:
        raise CapacityError(f"refusing to factor {n} > cap {FACTORIZATION_CAP}")
    return _trial_division(n)


def mod_inverse(b: int, d: int) -> int:
    """Inverse of b modulo d, in [0, d); requires gcd(b, d) = 1."""
    if d < 1:
        raise ValidationError(f"mod_inverse expects modulus >= 1, got {d}")
    try:
        return pow(b, -1, d)
    except ValueError:
        raise NotAUnitError(f"{b} is not a unit mod {d}") from None
