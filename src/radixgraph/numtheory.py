"""Exact integer arithmetic: factorization, divisors, totient, orders, inverses.

All functions are pure. Factorization is plain trial division guarded by a
magnitude cap, which keeps worst-case runtime predictable at the scales this
package targets. factorize is the one place that checks the cap; everything
downstream that needs a factorization (divisors, totient, orders by phi) goes
through it and reuses the cached factorization.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import CapacityError, NotAUnitError, UndefinedInputError, ValidationError

# Above this, trial division is refused rather than attempted.
FACTORIZATION_CAP = 2**62


@lru_cache(maxsize=None)
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


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    """Euler's totient: count of integers in [1, n] coprime to n."""
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def mult_order(b: int, d: int) -> int:
    """Least t >= 1 with b^t = 1 (mod d); requires gcd(b, d) = 1."""
    if b < 2:
        raise ValidationError(f"mult_order expects base >= 2, got {b}")
    if d < 1:
        raise ValidationError(f"mult_order expects modulus >= 1, got {d}")
    if d == 1:
        return 1
    if math.gcd(b, d) != 1:
        raise NotAUnitError(f"{b} is not a unit mod {d}")
    if d < 1000:
        # small moduli: step through the powers of b
        acc, t = b % d, 1
        while acc != 1:
            acc = acc * b % d
            t += 1
        return t
    # start from phi(d) and strip every prime that keeps b^t = 1
    t = euler_phi(d)
    for p, _ in factorize(t):
        while t % p == 0 and pow(b, t // p, d) == 1:
            t //= p
    return t


def mod_inverse(b: int, d: int) -> int:
    """Inverse of b modulo d, in [0, d); requires gcd(b, d) = 1."""
    if d < 1:
        raise ValidationError(f"mod_inverse expects modulus >= 1, got {d}")
    try:
        return pow(b, -1, d)
    except ValueError:
        raise NotAUnitError(f"{b} is not a unit mod {d}") from None
