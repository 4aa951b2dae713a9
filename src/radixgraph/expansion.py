"""Radix expansion of fractions through the multiply-by-B residue graph.

The pipeline behind expand():

1. split off the integer part and reduce k/m to lowest terms,
2. factor_out_base strips the primes of B from the denominator; the stripped
   part contributes exactly `shift` digits after the point (the preperiod),
3. reduce_coprime rescales the remaining tail k''/m' (gcd(m', B) = 1) to a
   fraction with denominator M = B*n - 1 by multiplying through with the
   unique c in [1, B-1] such that c*m' = -1 mod B,
4. the period digits are then read off the cycle of c*k'' in the
   multiply-by-B graph mod M: each remainder's rightmost base-B digit, in
   order, is the repeating block.

period_digits and period_digits_reversed are one remainder walk, _walk,
which multiplies by B and ends back at its start, so nothing is factored
to learn the period's length. Its step limit is the one period-cap check.
The PeriodTrace they return stores only the remainders; its digits are
derived from them on access.

long_division_oracle computes the same expansion by schoolbook remainder
tracking and shares no code with the pipeline; run_oracle_sweep compares the
two over a grid of inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mod

from .digits import DigitString, _valid_digit_string, decimal_str, to_digit_string, from_digit_string
from .errors import CapacityError, NotAUnitError, ValidationError, ZeroDenominatorError
from .graph import GraphParams, _check_vertex

# _walk refuses a period longer than PERIOD_CAP digits, or, as it stores one
# int the size of M per stop, than PERIOD_BITS // M.bit_length() digits. At
# 10^6 digits expand takes about 0.3 s and 70 MB, trace with its table 2 s
# and 300 MB (2-vCPU x86 VM, Python 3.11).
PERIOD_CAP = 10**6
PERIOD_BITS = 90 * PERIOD_CAP
# factor_out_base refuses a shift with shift * B.bit_length() above this. Its
# cost grows as the square of that product; at the cap base 3 is slowest, at
# 0.45 s on the same VM, and in base 10 every 4300-digit denominator answers.
PREPERIOD_BITS = 2**16


@dataclass(frozen=True)
class Fraction:
    """A nonnegative fraction, not necessarily in lowest terms."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator == 0:
            raise ZeroDenominatorError(f"{self.numerator}/0 is not a fraction")
        if self.numerator < 0 or self.denominator < 0:
            raise ValidationError(
                f"expected nonnegative numerator and denominator, got {self.numerator}/{self.denominator}"
            )

    def reduced(self) -> "Fraction":
        g = math.gcd(self.numerator, self.denominator)
        return Fraction(self.numerator // g, self.denominator // g)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class ReductionTrace:
    """Intermediate quantities produced while reducing a fraction.

    shift is the number of digits the point moves (the preperiod length),
    preperiod_value those digits read as one integer, and
    tail_numerator/tail_denominator the leftover fraction whose denominator
    is coprime to the base. For a nonterminating expansion, multiplier is
    the c with multiplier * tail_denominator = base * graph_n - 1, and the
    period is read from the cycle of multiplier * tail_numerator in the
    graph mod that modulus; period_trace is that walk.
    """

    shift: int
    integer_part: int
    preperiod_value: int
    tail_numerator: int
    tail_denominator: int
    multiplier: int | None = None
    graph_n: int | None = None
    period_trace: PeriodTrace | None = None


@dataclass(frozen=True)
class RadixExpansion:
    """Positional expansion integer_part . preperiod (period repeating)."""

    base: int
    integer_part: DigitString
    preperiod: DigitString
    period: DigitString

    def __post_init__(self) -> None:
        for part in (self.integer_part, self.preperiod, self.period):
            if part.base != self.base:
                raise ValidationError(f"component base {part.base} != expansion base {self.base}")


@dataclass(frozen=True)
class PeriodTrace:
    """Remainder walk around one cycle, stops in walk order. The digit read
    at each stop, remainder mod B, is computed on access, so a walk stores
    one integer per stop."""

    params: GraphParams
    start: int
    remainders: tuple[int, ...]
    right_to_left: bool = False

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(map(mod, self.remainders, repeat(self.params.base)))

    def __len__(self) -> int:
        return len(self.remainders)


def _walk(k: int, params: GraphParams) -> list[int]:
    """Stops B*k, B^2*k, ..., k of the cycle of vertex k. A walk still open
    after a sixteenth of its limit goes on only if _closes_within says it
    closes within the limit, so a refusal costs a sixteenth of a walk."""
    _check_vertex(params, k)
    base, m = params.base, params.modulus
    limit = min(PERIOD_CAP, PERIOD_BITS // m.bit_length())
    stops: list[int] = []
    append = stops.append
    r = k
    for _ in range(limit // 16 + 1):
        r = r * base % m
        append(r)
        if r == k:
            return stops
    if not _closes_within(k, base, m, limit):
        raise CapacityError(
            f"refusing to walk the period of {decimal_str(k)}/{decimal_str(m)}:"
            f" more than {limit} digits (the period cap)"
        )
    while r != k:
        r = r * base % m
        append(r)
    return stops


def _closes_within(k: int, base: int, m: int, limit: int) -> bool:
    """Whether x -> base*x mod m brings k back within `limit` steps, by
    baby-step giant-step with s*s > limit: the least i with k*base^(i*s)
    equal to a baby step k*base^j (0 <= j < s) gives the cycle length
    i*s - j, and no i <= s does if that length is above s*s."""
    s = math.isqrt(limit) + 1
    baby = {}
    r = k
    for j in range(s):
        baby[r] = j
        r = r * base % m
    giant = pow(base, s, m)
    for i in range(1, s + 1):
        j = baby.get(r)
        if j is not None:
            return i * s - j <= limit
        r = r * giant % m
    return False


def period_digits(k: int, params: GraphParams) -> PeriodTrace:
    """Period of k/M along the cycle of k: the i-th remainder is B^i * k
    mod M, and its rightmost base-B digit is the i-th period digit."""
    return PeriodTrace(params, k, tuple(_walk(k, params)))


def period_digits_reversed(k: int, params: GraphParams) -> PeriodTrace:
    """Same cycle walked backwards, digits right to left: the i-th remainder
    is n^(i-1) * k mod M (n is the inverse of B mod M), starting at k, which
    are the stops of period_digits(k) in reverse order."""
    return PeriodTrace(params, k, tuple(_walk(k, params))[::-1], right_to_left=True)


def reduce_coprime(k: int, m: int, base: int) -> tuple[int, int, int]:
    """Rescale k/m with gcd(m, base) = 1 onto a modulus of the form base*n - 1.

    Returns (c, n, c*k) where c in [1, base-1] is chosen so that
    c*m = base*n - 1. Then k/m = c*k / (base*n - 1) and the period can be
    read from the graph with parameters (base, n).
    """
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {base}")
    if m < 2 or not 1 <= k < m:
        raise ValidationError(f"expected 1 <= k < m with m >= 2, got k={k}, m={m}")
    if math.gcd(m, base) != 1:
        raise NotAUnitError(f"denominator {m} shares a factor with base {base}")
    c = pow(-m, -1, base)
    n = (c * m + 1) // base
    return c, n, c * k


def factor_out_base(k: int, m: int, base: int) -> tuple[int, int, int, int]:
    """Strip the primes of the base from the denominator of k/m (lowest terms).

    Divides m by gcd(m, base) until the two are coprime; that leaves the
    tail denominator m', and the number of divisions is the least shift e
    with (m / m') | base^e. Then splits base^e * k/m as
    preperiod_value + tail_numerator/tail_denominator with
    0 <= tail_numerator < tail_denominator = m', and returns
    (shift, preperiod_value, tail_numerator, tail_denominator). Nothing is
    factored, and a shift above PREPERIOD_BITS // base.bit_length() is refused.
    """
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {base}")
    if m < 1 or not 1 <= k < m:
        raise ValidationError(f"expected 1 <= k < m, got k={k}, m={m}")
    if math.gcd(k, m) != 1:
        raise ValidationError(f"{k}/{m} is not in lowest terms")
    max_shift = PREPERIOD_BITS // base.bit_length()
    shift = 0
    m_prime = m
    while (g := math.gcd(m_prime, base)) > 1:
        if shift == max_shift:
            raise CapacityError(f"refusing a preperiod of more than {max_shift} digits (the preperiod cap)")
        m_prime //= g
        shift += 1
    pre_value, tail_num = divmod(k * (base**shift // (m // m_prime)), m_prime)
    return shift, pre_value, tail_num, m_prime


def expand(f: Fraction, base: int) -> tuple[RadixExpansion, ReductionTrace]:
    """Expansion of f in the given base, plus the reduction that produced it.

    The preperiod always has exactly `shift` digits (leading zeros kept) and
    the period, when present, is the primitive repeating block.
    """
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {base}")
    whole, rest = divmod(f.numerator, f.denominator)
    g = math.gcd(rest, f.denominator)
    k, m = rest // g, f.denominator // g
    integer_digits = to_digit_string(whole, base)
    empty = DigitString(base, ())
    if k == 0:
        trace = ReductionTrace(0, whole, 0, 0, 1)
        return RadixExpansion(base, integer_digits, empty, empty), trace

    shift, pre_value, tail_num, tail_den = factor_out_base(k, m, base)
    parts = (shift, whole, pre_value, tail_num, tail_den)
    preperiod = to_digit_string(pre_value, base, shift) if shift else empty
    # tail_num is coprime to tail_den, so it is 0 only when tail_den is 1
    if tail_den == 1:
        return RadixExpansion(base, integer_digits, preperiod, empty), ReductionTrace(*parts)

    c, n, scaled = reduce_coprime(tail_num, tail_den, base)
    walk = period_digits(scaled, GraphParams(base, n))
    trace = ReductionTrace(*parts, multiplier=c, graph_n=n, period_trace=walk)
    # each digit is a remainder mod base, so in range without a check
    return RadixExpansion(base, integer_digits, preperiod, _valid_digit_string(base, walk.digits)), trace


def long_division_oracle(f: Fraction, base: int) -> RadixExpansion:
    """Schoolbook long division with first-repeated-remainder detection.

    Fully independent of the graph pipeline; used as the reference in tests
    and sweeps.
    """
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {base}")
    whole, r = divmod(f.numerator, f.denominator)
    m = f.denominator
    digits: list[int] = []
    seen: dict[int, int] = {}
    while r and r not in seen:
        seen[r] = len(digits)
        r *= base
        digits.append(r // m)
        r %= m
    if r == 0:
        while digits and digits[-1] == 0:
            digits.pop()
        pre, per = digits, []
    else:
        cut = seen[r]
        pre, per = digits[:cut], digits[cut:]
    return RadixExpansion(
        base,
        to_digit_string(whole, base),
        DigitString(base, tuple(pre)),
        DigitString(base, tuple(per)),
    )


def value_of(x: RadixExpansion) -> Fraction:
    """Exact value of an expansion as a fraction in lowest terms."""
    base = x.base
    pre_len = len(x.preperiod)
    per_len = len(x.period)
    if per_len:
        den = base**pre_len * (base**per_len - 1)
        num = from_digit_string(x.preperiod) * (base**per_len - 1) + from_digit_string(x.period)
    else:
        den = base**pre_len
        num = from_digit_string(x.preperiod)
    num += from_digit_string(x.integer_part) * den
    g = math.gcd(num, den)
    return Fraction(num // g, den // g)


@dataclass(frozen=True)
class SweepMismatch:
    base: int
    numerator: int
    denominator: int
    expanded: RadixExpansion
    oracle: RadixExpansion


@dataclass(frozen=True)
class SweepResult:
    cases: int
    mismatch: SweepMismatch | None

    @property
    def ok(self) -> bool:
        return self.mismatch is None


def run_oracle_sweep(max_m: int, bases: tuple[int, ...] = (10,)) -> SweepResult:
    """Compare expand against the oracle for every base in `bases`,
    every m in [1, max_m] and every k in [0, 2m]. Stops at the first mismatch.
    """
    if max_m < 1:
        raise ValidationError(f"max_m must be >= 1, got {max_m}")
    cases = 0
    for base in bases:
        for m in range(1, max_m + 1):
            for k in range(2 * m + 1):
                f = Fraction(k, m)
                got, _ = expand(f, base)
                want = long_division_oracle(f, base)
                cases += 1
                if got != want:
                    return SweepResult(cases, SweepMismatch(base, k, m, got, want))
    return SweepResult(cases, None)
