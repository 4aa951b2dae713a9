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

period_digits and period_digits_reversed find the length of the cycle
first: a short prefix of the walk and, if the cycle is still open after
it, a baby-step giant-step search over that prefix (_cycle_length), so
nothing is factored. _trace refuses a length above the step limit; that is
the one period-cap check. The PeriodTrace they return is a view of the
cycle: _walk, the one remainder loop, runs when its remainders are first
read. Since k/M = q/(B^L - 1) with q = k*(B^L - 1)/M, the period is also q
written in L digits; where digits._converts says to_digit_string writes that
in C, the digits come from that one conversion and expand walks nothing.

long_division_oracle computes the same expansion by schoolbook remainder
tracking and shares no code with the pipeline; run_oracle_sweep compares the
two over a grid of inputs.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mod

from ._record import Record
from .digits import DigitString, _converts, _valid_digit_string, decimal_str, from_digit_string, to_digit_string
from .errors import CapacityError, NotAUnitError, ValidationError, ZeroDenominatorError
from .graph import GraphParams, _check_vertex

# A period longer than PERIOD_CAP digits is refused, or, as a walk stores one
# int the size of M per stop, longer than PERIOD_BITS // M.bit_length()
# digits. At 10^6 digits expand takes at most about 0.3 s and 70 MB, trace
# with its table 1.5 s and 175 MB, for a cycle of 90-bit stops (2-vCPU x86 VM,
# Python 3.11).
PERIOD_CAP = 10**6
PERIOD_BITS = 90 * PERIOD_CAP
# factor_out_base refuses a shift with shift * B.bit_length() above this, and
# expand an integer part of more bits. The strip loop costs about the square of
# that product, 0.17-0.41 s at the cap (base 3 slowest, same VM); writing the
# digits out under 1 ms in bases 2, 8 and 16, up to 0.33 s in base 3 (a loop).
PREPERIOD_BITS = 2**16
# run_oracle_sweep refuses more than SWEEP_CAP cases, len(bases) * (N^2 + 2N)
# for denominators up to N. A case costs more as N grows: the 543,600 cases of
# N = 300 in six bases take 26 s, the slowest sweep under the cap (one base,
# N = 773) about 40 s in base 2 and at most 10% more in the other bases
# measured (3 to 10^100), so every sweep under it ends within a minute.
SWEEP_CAP = 600_000
# Where digits._converts holds, the length search walks at least this many
# steps (the limit allowing), as a shorter cycle is walked faster than it is
# searched for and converted, measured with other work between the calls.
_SHORT_CYCLE = 64


class Fraction(Record):
    """A nonnegative fraction, not necessarily in lowest terms."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        if denominator == 0:
            raise ZeroDenominatorError(f"{decimal_str(numerator)}/0 is not a fraction")
        if numerator < 0 or denominator < 0:
            raise ValidationError(
                "expected nonnegative numerator and denominator,"
                f" got {decimal_str(numerator)}/{decimal_str(denominator)}"
            )
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def reduced(self) -> "Fraction":
        g = math.gcd(self.numerator, self.denominator)
        return Fraction(self.numerator // g, self.denominator // g)

    def __str__(self) -> str:
        return f"{decimal_str(self.numerator)}/{decimal_str(self.denominator)}"


class ReductionTrace(Record):
    """Intermediate quantities produced while reducing a fraction.

    shift is the number of digits the point moves (the preperiod length),
    preperiod_value those digits read as one integer, and
    tail_numerator/tail_denominator the leftover fraction whose denominator
    is coprime to the base. For a nonterminating expansion, multiplier is
    the c with multiplier * tail_denominator = base * graph_n - 1, and the
    period is read from the cycle of multiplier * tail_numerator in the
    graph mod that modulus; period_trace is that walk.
    """

    __slots__ = (
        "shift",
        "integer_part",
        "preperiod_value",
        "tail_numerator",
        "tail_denominator",
        "multiplier",
        "graph_n",
        "period_trace",
    )

    def __init__(
        self,
        shift: int,
        integer_part: int,
        preperiod_value: int,
        tail_numerator: int,
        tail_denominator: int,
        multiplier: int | None = None,
        graph_n: int | None = None,
        period_trace: PeriodTrace | None = None,
    ) -> None:
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "integer_part", integer_part)
        object.__setattr__(self, "preperiod_value", preperiod_value)
        object.__setattr__(self, "tail_numerator", tail_numerator)
        object.__setattr__(self, "tail_denominator", tail_denominator)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "graph_n", graph_n)
        object.__setattr__(self, "period_trace", period_trace)


class RadixExpansion(Record):
    """Positional expansion integer_part . preperiod (period repeating)."""

    __slots__ = ("base", "integer_part", "preperiod", "period")

    def __init__(self, base: int, integer_part: DigitString, preperiod: DigitString, period: DigitString) -> None:
        for part in (integer_part, preperiod, period):
            if part.base != base:
                raise ValidationError(f"component base {decimal_str(part.base)} != expansion base {decimal_str(base)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "integer_part", integer_part)
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)


class PeriodTrace(Record):
    """The cycle of vertex `start`, `length` stops long, as a view: its
    remainders are walked on first access and then kept in `stops`, unless
    the walk that found the length already holds them. `digits` are each
    remainder mod B; where digits._converts allows, they are read in one
    conversion of the period block instead. `stops` is a cache, so it
    takes no part in ==, hash, repr or pickling."""

    __slots__ = ("params", "start", "length", "right_to_left", "stops")
    _fields = ("params", "start", "length", "right_to_left")

    def __init__(
        self,
        params: GraphParams,
        start: int,
        length: int,
        right_to_left: bool = False,
        stops: tuple[int, ...] | None = None,
    ) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "right_to_left", right_to_left)
        object.__setattr__(self, "stops", stops)

    @property
    def remainders(self) -> tuple[int, ...]:
        stops = self.stops
        if stops is None:
            stops = tuple(_walk(self.start, self.params.base, self.params.modulus, self.length))
            if self.right_to_left:
                stops = stops[::-1]
            object.__setattr__(self, "stops", stops)
        return stops

    @property
    def digits(self) -> tuple[int, ...]:
        stops, base = self.stops, self.params.base
        if stops is None:
            length = self.length
            if _converts(base, length):
                # B^L by a shift in bases 2, 8 and 16, which is faster than a power
                power = base**length if base == 10 else 1 << (base.bit_length() - 1) * length
                block = to_digit_string(self.start * (power - 1) // self.params.modulus, base, length).digits
                return block[::-1] if self.right_to_left else block
            stops = self.remainders
        return tuple(map(mod, stops, repeat(base)))

    def __len__(self) -> int:
        return self.length


def _walk(k: int, base: int, m: int, length: int) -> list[int]:
    """The stops B*k, B^2*k, ..., B^length*k = k of a cycle whose length is known."""
    stops: list[int] = []
    append = stops.append
    r = k
    for _ in repeat(None, length):
        r = r * base % m
        append(r)
    return stops


def _trace(k: int, params: GraphParams, right_to_left: bool) -> PeriodTrace:
    """The cycle of k, refused if it is longer than the period cap. A cycle
    that closes within the first steps keeps them as its stops; a longer one
    gets its length from _cycle_length and no stops. Where the digits come
    by conversion those steps number about sqrt(M), at least _SHORT_CYCLE,
    so a refusal costs about 2*sqrt(M) steps; elsewhere the digits need the
    walk anyway, and they number a sixteenth of the limit. Either way they
    are at most the limit, so a cycle that closes within them is under the
    cap."""
    m = _check_vertex(params, k)
    base = params.base
    limit = min(PERIOD_CAP, PERIOD_BITS // m.bit_length())
    walked: list[int] = []
    append = walked.append
    r = k
    if _converts(base):
        steps = min(limit, max(_SHORT_CYCLE, math.isqrt(min(limit, m))))
    else:
        steps = limit // 16 + 1
    for _ in range(steps):
        r = r * base % m
        append(r)
        if r == k:
            stops = tuple(walked[::-1] if right_to_left else walked)
            return PeriodTrace(params, k, len(stops), right_to_left, stops)
    length = _cycle_length(walked, base, m, limit)
    if length > limit:
        raise CapacityError(
            f"refusing to walk the period of {decimal_str(k)}/{decimal_str(m)}:"
            f" more than {limit} digits (the period cap)"
        )
    return PeriodTrace(params, k, length, right_to_left)


def _cycle_length(prefix: list[int], base: int, m: int, limit: int) -> int:
    """Length of the cycle of k under x -> base*x mod m if it is at most
    `limit`, else some number above `limit`, given its first stops
    prefix = [base*k, ..., base^p*k], none of them k. By baby-step
    giant-step: the first s stops, s about sqrt(min(limit, m)), are the baby
    steps, and for i = 2, 3, ... the first giant step base^(i*s)*k equal to
    a baby step base^j*k (1 <= j <= s) gives the length i*s - j, since the
    cycle is longer than p >= s. No cycle is m long, so the giant steps end
    once i*s passes min(limit, m)."""
    s = min(len(prefix), math.isqrt(min(limit, m)) + 1)
    baby = dict(zip(prefix, range(1, s + 1)))
    giant = pow(base, s, m)
    r = prefix[s - 1]
    for i in range(2, min(limit, m - 1) // s + 2):
        r = r * giant % m
        j = baby.get(r)
        if j is not None:
            return i * s - j
    return limit + 1


def period_digits(k: int, params: GraphParams) -> PeriodTrace:
    """Period of k/M along the cycle of k: the i-th remainder is B^i * k
    mod M, and its rightmost base-B digit is the i-th period digit."""
    return _trace(k, params, False)


def period_digits_reversed(k: int, params: GraphParams) -> PeriodTrace:
    """Same cycle walked backwards, digits right to left: the i-th remainder
    is n^(i-1) * k mod M (n is the inverse of B mod M), starting at k, which
    are the stops of period_digits(k) in reverse order."""
    return _trace(k, params, True)


def reduce_coprime(k: int, m: int, base: int) -> tuple[int, int, int]:
    """Rescale k/m with gcd(m, base) = 1 onto a modulus of the form base*n - 1.

    Returns (c, n, c*k) where c in [1, base-1] is chosen so that
    c*m = base*n - 1. Then k/m = c*k / (base*n - 1) and the period can be
    read from the graph with parameters (base, n).
    """
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
    if m < 2 or not 1 <= k < m:
        raise ValidationError(f"expected 1 <= k < m with m >= 2, got k={decimal_str(k)}, m={decimal_str(m)}")
    if math.gcd(m, base) != 1:
        raise NotAUnitError(f"denominator {decimal_str(m)} shares a factor with base {decimal_str(base)}")
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
        raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
    if m < 1 or not 1 <= k < m:
        raise ValidationError(f"expected 1 <= k < m, got k={decimal_str(k)}, m={decimal_str(m)}")
    if math.gcd(k, m) != 1:
        raise ValidationError(f"{decimal_str(k)}/{decimal_str(m)} is not in lowest terms")
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
        raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
    whole, rest = divmod(f.numerator, f.denominator)
    if whole.bit_length() > PREPERIOD_BITS:
        raise CapacityError(f"refusing an integer part of more than {PREPERIOD_BITS} bits (the preperiod cap)")
    g = math.gcd(rest, f.denominator)
    k, m = rest // g, f.denominator // g
    integer_digits = to_digit_string(whole, base)
    empty = _valid_digit_string(base, ())
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
        raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
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


class SweepMismatch(Record):
    __slots__ = ("base", "numerator", "denominator", "expanded", "oracle")

    def __init__(
        self, base: int, numerator: int, denominator: int, expanded: RadixExpansion, oracle: RadixExpansion
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "expanded", expanded)
        object.__setattr__(self, "oracle", oracle)


class SweepResult(Record):
    __slots__ = ("cases", "mismatch")

    def __init__(self, cases: int, mismatch: SweepMismatch | None) -> None:
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "mismatch", mismatch)

    @property
    def ok(self) -> bool:
        return self.mismatch is None


def run_oracle_sweep(max_m: int, bases: tuple[int, ...] = (10,)) -> SweepResult:
    """Compare expand against the oracle for every base in `bases`,
    every m in [1, max_m] and every k in [0, 2m]. Stops at the first mismatch.
    Refuses more than SWEEP_CAP cases before it runs the first.
    """
    if max_m < 1:
        raise ValidationError(f"max_m must be >= 1, got {decimal_str(max_m)}")
    total = len(bases) * (max_m * max_m + 2 * max_m)
    if total > SWEEP_CAP:
        raise CapacityError(f"refusing to sweep {decimal_str(total)} cases: more than {SWEEP_CAP} (the sweep cap)")
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
