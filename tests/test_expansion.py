import math
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st
from sympy import n_order

from radixgraph.digits import DigitString, decimal_str
from radixgraph import expansion
from radixgraph.errors import CapacityError, NotAUnitError, ValidationError, ZeroDenominatorError
from radixgraph.expansion import (
    PERIOD_CAP,
    Fraction,
    PeriodTrace,
    RadixExpansion,
    expand,
    factor_out_base,
    long_division_oracle,
    period_digits,
    period_digits_reversed,
    reduce_coprime,
    run_oracle_sweep,
    value_of,
)
from radixgraph.graph import GraphParams, build_graph, census, step


def test_fraction_validation():
    with pytest.raises(ZeroDenominatorError):
        Fraction(1, 0)
    with pytest.raises(ValidationError):
        Fraction(-1, 2)
    with pytest.raises(ValidationError):
        Fraction(1, -2)


def test_validation_messages_write_ints_over_4300_digits():
    # str() refuses ints of more than 4300 digits; each message still names the int
    huge = -(10**5000)
    for call in (
        lambda: Fraction(huge, 3),
        lambda: Fraction(1, huge),
        lambda: GraphParams(huge, 1),
        lambda: GraphParams(10, huge),
        lambda: expand(Fraction(1, 3), huge),
        lambda: long_division_oracle(Fraction(1, 3), huge),
        lambda: reduce_coprime(1, -huge, 10),
        lambda: reduce_coprime(1, 3, huge),
        lambda: factor_out_base(-huge, 3, 10),
        lambda: factor_out_base(1, 3, huge),
        lambda: run_oracle_sweep(huge),
    ):
        with pytest.raises(ValidationError, match="0" * 4400):
            call()


def test_fraction_reduced():
    assert Fraction(25, 100).reduced() == Fraction(1, 4)
    assert Fraction(0, 7).reduced() == Fraction(0, 1)
    assert str(Fraction(7, 20)) == "7/20"


def test_period_digits_unit_cycle():
    t = period_digits(1, GraphParams(10, 4))
    assert t.remainders == (10, 22, 25, 16, 4, 1)
    assert t.digits == (0, 2, 5, 6, 4, 1)
    assert t.start == 1 and not t.right_to_left
    assert len(t) == 6


def test_period_digits_other_starts():
    assert period_digits(25, GraphParams(10, 4)).digits == (6, 4, 1, 0, 2, 5)
    assert period_digits(7, GraphParams(12, 3)).digits == (2, 4, 9, 7)
    assert period_digits(0, GraphParams(10, 4)).digits == (0,)
    assert period_digits(13, GraphParams(10, 4)).digits == (3,)


def test_period_digits_refuse_a_period_above_the_cap():
    # 6000339 = 3 * 2000113 and the cycle of 3 is the period of 1/2000113
    p = GraphParams(10, 600034)
    assert n_order(10, 2000113) == 2000112 > PERIOD_CAP
    for walk in (period_digits, period_digits_reversed):
        with pytest.raises(CapacityError, match="more than 1000000 digits"):
            walk(3, p)


def test_expand_just_under_the_period_cap_matches_oracle():
    f = Fraction(1, 999983)
    got, red = expand(f, 10)
    assert len(got.period) == 999982 <= PERIOD_CAP
    assert got == long_division_oracle(f, 10)
    assert len(red.period_trace) == 999982


def test_period_refusal_names_a_modulus_over_4300_digits():
    # M = 10^4299 * (10^4299 + 7) - 1 has 8599 digits, more than str() writes
    with pytest.raises(CapacityError, match="refusing to walk the period of 1/"):
        period_digits(1, GraphParams(10**4299, 10**4299 + 7))
    with pytest.raises(ValidationError, match="vertex -1 out of range"):
        period_digits(-1, GraphParams(10**4299, 10**4299 + 7))


def test_period_digits_validates():
    with pytest.raises(ValidationError):
        period_digits(39, GraphParams(10, 4))
    with pytest.raises(ValidationError):
        period_digits(-1, GraphParams(10, 4))


def test_period_digits_reversed_examples():
    t = period_digits_reversed(1, GraphParams(10, 4))
    assert t.remainders == (1, 4, 16, 25, 22, 10)
    assert t.digits == (1, 4, 6, 5, 2, 0)
    assert t.right_to_left
    assert period_digits_reversed(7, GraphParams(12, 3)).digits == (7, 9, 4, 2)


def test_period_digits_reversed_fixed_point():
    assert period_digits_reversed(0, GraphParams(10, 4)).remainders == (0,)


def test_long_period_walks_match_oracle():
    # 10069 = 10 * 1007 - 1 is prime and 10 has order 10068 mod it
    p = GraphParams(10, 1007)
    want = long_division_oracle(Fraction(3, p.modulus), 10).period.digits
    assert len(want) == 10068
    assert period_digits(3, p).digits == want
    assert tuple(reversed(period_digits_reversed(3, p).digits)) == want


@pytest.mark.parametrize("base", [2, 8, 10, 16])
def test_converted_digits_equal_the_walk_on_every_vertex(base):
    # every vertex of every graph with M <= 2000: the walk's digits, read
    # off the materialized cycle, against the one-conversion period block
    n = 1
    while base * n - 1 <= 2000:
        p = GraphParams(base, n)
        for cyc in build_graph(p).cycles:
            length = len(cyc)
            walked = bytes(v % base for v in cyc) * 2
            for i, v in enumerate(cyc):
                assert expansion._period_block(v, base, p.modulus, length) == walked[i + 1 : i + 1 + length]
        n += 1


@pytest.mark.parametrize("length", [4300, 4301])
def test_base10_digits_on_both_sides_of_the_str_limit(length):
    # M = 10^L - 1: k/M = 0.(k written in L digits), and str() writes at
    # most 4300 digits, so the longer period is read off the walk
    p = GraphParams(10, 10 ** (length - 1))
    k = p.modulus - 3**5000
    assert len(decimal_str(k)) == length
    for walk in (period_digits, period_digits_reversed):
        t = walk(k, p)
        assert len(t) == length and t.stops is None
        want = tuple(map(int, decimal_str(k).zfill(length)))
        assert t.digits == (want[::-1] if t.right_to_left else want)
        assert t.digits == tuple(r % 10 for r in t.remainders)


@pytest.mark.parametrize("max_str_digits", [0, 1000])
def test_base10_digits_follow_the_interpreters_str_limit(max_str_digits):
    # a 3000-digit period, with str() unlimited and with str() refusing it
    p = GraphParams(10, 10**2999)
    k = p.modulus - 3**5000 % p.modulus
    want = tuple(map(int, decimal_str(k).zfill(3000)))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max_str_digits)
    try:
        assert period_digits(k, p).digits == want
        assert period_digits_reversed(k, p).digits == want[::-1]
    finally:
        sys.set_int_max_str_digits(old)


def test_period_trace_holds_stops_only_when_walked():
    p = GraphParams(2, 1000003)  # M = 2000005, the cycle of 1 has 342852 stops
    t = period_digits(1, p)
    assert len(t) == 342852 and t.stops is None
    assert t.digits[:20] == long_division_oracle(Fraction(1, p.modulus), 2).period.digits[:20]
    assert t.stops is None
    assert t.remainders[-1] == 1 and t.stops is t.remainders
    assert t == PeriodTrace(p, 1, 342852)
    short = period_digits(1, GraphParams(10, 4))
    assert short.stops == (10, 22, 25, 16, 4, 1)
    # 2 has order 36 mod 37 and 66 mod 67, both above sqrt(M): in the
    # conversion bases a cycle is walked outright up to _SHORT_CYCLE stops
    assert len(period_digits(1, GraphParams(2, 19)).stops) == 36
    assert period_digits(1, GraphParams(2, 34)).stops is None


@st.composite
def params_and_vertex(draw, max_modulus=4000):
    base = draw(st.integers(2, 16))
    n = draw(st.integers(1, max(1, (max_modulus + 1) // base)))
    p = GraphParams(base, n)
    x = draw(st.integers(0, p.modulus - 1))
    return p, x


@given(params_and_vertex())
def test_reversed_walk_is_exact_reversal(pv):
    p, x = pv
    fwd = period_digits(x, p)
    rev = period_digits_reversed(x, p)
    assert tuple(reversed(rev.digits)) == fwd.digits
    assert fwd.remainders[-1] == x
    assert rev.remainders[0] == x


def test_walk_is_refused_exactly_above_its_limit():
    # every cycle length of every graph with modulus up to 400, bases to 16,
    # walked with the cap at that length (answered) and one below (refused)
    for base in range(2, 17):
        for n in range(1, 401 // base + 1):
            p = GraphParams(base, n)
            for row in census(p):
                x = p.modulus // row.d % p.modulus
                length = row.order
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(expansion, "PERIOD_CAP", length)
                    assert len(period_digits(x, p)) == length
                    if length > 1:
                        mp.setattr(expansion, "PERIOD_CAP", length - 1)
                        with pytest.raises(CapacityError, match=f"more than {length - 1} digits"):
                            period_digits(x, p)


def test_walk_limit_shrinks_with_the_modulus_size():
    # M = 10069 has 14 bits and the cycle of 3 has 10068 stops
    p = GraphParams(10, 1007)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "PERIOD_BITS", 14 * 10068)
        assert len(period_digits_reversed(3, p)) == 10068
        mp.setattr(expansion, "PERIOD_BITS", 14 * 10068 - 1)
        with pytest.raises(CapacityError, match="more than 10067 digits"):
            period_digits(3, p)


def test_reversal_coherence_exhaustive_small():
    # every vertex of every graph with modulus up to 64, all bases to 16
    for base in range(2, 17):
        n = 1
        while base * n - 1 <= 64:
            p = GraphParams(base, n)
            for x in range(p.modulus):
                fwd = period_digits(x, p)
                assert tuple(reversed(period_digits_reversed(x, p).digits)) == fwd.digits
            n += 1


@given(params_and_vertex())
def test_trace_invariants(pv):
    from radixgraph.graph import iterate

    p, x = pv
    t = period_digits(x, p)
    assert len(set(t.remainders)) == len(t.remainders)
    for i, r in enumerate(t.remainders, 1):
        assert r == iterate(p, x, i)
    assert t.digits == tuple(r % p.base for r in t.remainders)


@given(params_and_vertex())
def test_rotation_shifts_period(pv):
    p, x = pv
    here = period_digits(x, p).digits
    there = period_digits(step(p, x), p).digits
    assert there == here[1:] + here[:1]


@pytest.mark.parametrize(
    "k,m,base,want",
    [
        (1, 13, 10, (3, 4, 3)),
        (1, 17, 10, (7, 12, 7)),
        (1, 5, 12, (7, 3, 7)),
        (1, 7, 10, (7, 5, 7)),
        (3, 7, 12, (5, 3, 15)),
    ],
)
def test_reduce_coprime_examples(k, m, base, want):
    assert reduce_coprime(k, m, base) == want


def test_reduce_coprime_invariants_and_base10_table():
    # in base 10 the multiplier depends only on m mod 10
    last_to_c = {1: 9, 3: 3, 7: 7, 9: 1}
    for m in range(3, 200):
        if math.gcd(m, 10) != 1:
            continue
        c, n, scaled = reduce_coprime(1, m, 10)
        assert c == last_to_c[m % 10]
        assert c * m == 10 * n - 1
        assert scaled == c


def test_reduce_coprime_validates():
    with pytest.raises(NotAUnitError):
        reduce_coprime(1, 20, 10)
    with pytest.raises(ValidationError):
        reduce_coprime(5, 5, 10)
    with pytest.raises(ValidationError):
        reduce_coprime(0, 7, 10)


def test_factor_out_base_examples():
    # (shift, preperiod_value, tail_numerator, tail_denominator)
    assert factor_out_base(7, 20, 12) == (1, 4, 1, 5)
    assert factor_out_base(1, 6, 10) == (1, 1, 2, 3)
    assert factor_out_base(1, 4, 10) == (2, 25, 0, 1)
    assert factor_out_base(3, 7, 10) == (0, 0, 3, 7)


def test_factor_out_base_does_not_factor_the_denominator():
    # 2^70 is above the factorization cap, yet the expansion terminates
    assert factor_out_base(1, 2**70, 2) == (70, 1, 0, 1)
    assert factor_out_base(1, 10 * 2**62, 2) == (63, 0, 1, 5)
    x, _ = expand(Fraction(1, 2**70), 2)
    assert x.preperiod.digits == (0,) * 69 + (1,)
    assert x.period.digits == ()
    assert value_of(x) == Fraction(1, 2**70)


def test_factor_out_base_refuses_a_shift_above_the_preperiod_cap():
    base = 2 * 3**400  # 635 bits
    max_shift = expansion.PREPERIOD_BITS // base.bit_length()
    assert max_shift == 103
    assert factor_out_base(1, 2**max_shift, base) == (max_shift, 3**(400 * max_shift), 0, 1)
    with pytest.raises(CapacityError, match=f"more than {max_shift} digits"):
        factor_out_base(1, 2 ** (max_shift + 1), base)
    with pytest.raises(CapacityError):
        factor_out_base(1, 2, 2**expansion.PREPERIOD_BITS)


def test_factor_out_base_validates():
    with pytest.raises(ValidationError):
        factor_out_base(2, 4, 10)  # not lowest terms
    with pytest.raises(ValidationError):
        factor_out_base(5, 3, 10)


@given(st.integers(2, 16), st.integers(2, 3000))
def test_factor_out_base_invariants(base, m):
    ks = [k for k in range(1, min(m, 40)) if math.gcd(k, m) == 1]
    for k in ks[:4]:
        shift, pre_value, tail_num, tail_den = factor_out_base(k, m, base)
        assert math.gcd(tail_den, base) == 1
        assert 0 <= tail_num < tail_den
        # value is preserved: k/m = (preperiod_value + tail) / base^shift
        assert k * tail_den * base**shift == (pre_value * tail_den + tail_num) * m
        assert pre_value < base**shift
        if shift > 0:
            # shift is minimal
            assert (base ** (shift - 1) * k * tail_den) % m != 0


def _exp(num, den, base):
    result, _ = expand(Fraction(num, den), base)
    return result


def test_expand_pure_periods():
    assert _exp(1, 39, 10).period.digits == (0, 2, 5, 6, 4, 1)
    assert _exp(25, 39, 10).period.digits == (6, 4, 1, 0, 2, 5)
    assert _exp(1, 13, 10).period.digits == (0, 7, 6, 9, 2, 3)
    assert _exp(1, 17, 10).period.digits == (0, 5, 8, 8, 2, 3, 5, 2, 9, 4, 1, 1, 7, 6, 4, 7)
    assert _exp(1, 39, 10).preperiod.digits == ()


def test_expand_mixed_and_dozenal():
    r = _exp(7, 20, 12)
    assert r.integer_part.digits == (0,)
    assert r.preperiod.digits == (4,)
    assert r.period.digits == (2, 4, 9, 7)
    assert _exp(1, 5, 12).period.digits == (2, 4, 9, 7)


def test_expand_reduction_trace_fields():
    _, red = expand(Fraction(7, 20), 12)
    assert red.shift == 1
    assert red.integer_part == 0
    assert red.preperiod_value == 4
    assert (red.tail_numerator, red.tail_denominator) == (1, 5)
    assert (red.multiplier, red.graph_n) == (7, 3)
    assert red.multiplier * red.tail_denominator == 12 * red.graph_n - 1
    assert red.period_trace == period_digits(7, GraphParams(12, 3))


def test_expand_terminating():
    r = _exp(1, 4, 10)
    assert r.preperiod.digits == (2, 5)
    assert r.period.digits == ()
    assert _exp(3, 8, 10).preperiod.digits == (3, 7, 5)
    assert _exp(1, 2, 2).preperiod.digits == (1,)
    _, red = expand(Fraction(1, 4), 10)
    assert red.multiplier is None and red.graph_n is None and red.period_trace is None


def test_expand_integer_inputs():
    r = _exp(5, 1, 10)
    assert r.integer_part.digits == (5,)
    assert r.preperiod.digits == () and r.period.digits == ()
    assert _exp(0, 9, 10).integer_part.digits == (0,)
    assert _exp(24, 12, 10).integer_part.digits == (2,)


def test_expand_improper_fraction():
    r = _exp(22, 7, 10)
    assert r.integer_part.digits == (3,)
    assert r.period.digits == (1, 4, 2, 8, 5, 7)


def test_expand_leading_zero_preperiod():
    r = _exp(1, 600, 10)
    assert r.preperiod.digits == (0, 0, 1)
    assert r.period.digits == (6,)


def test_expand_unreduced_input():
    assert _exp(2, 10, 10).preperiod.digits == (2,)
    assert _exp(14, 40, 12) == _exp(7, 20, 12)


def test_integer_part_above_the_preperiod_cap_is_refused():
    bits = expansion.PREPERIOD_BITS
    # at the cap, in base 2^16, the integer part is 4096 digits of 2^16 - 1
    x, _ = expand(Fraction(2**bits - 1, 1), 2**16)
    assert x.integer_part.digits == (2**16 - 1,) * (bits // 16)
    start = time.perf_counter()
    for f in (Fraction(2**bits, 1), Fraction(2 ** (bits + 1), 1), Fraction(3 * 2 ** (bits + 1) + 1, 3)):
        with pytest.raises(CapacityError, match=f"integer part of more than {bits} bits"):
            expand(f, 3)
    assert time.perf_counter() - start < 1.0


def test_expand_validates_base():
    with pytest.raises(ValidationError):
        expand(Fraction(1, 3), 1)


def test_oracle_examples():
    o = long_division_oracle(Fraction(1, 39), 10)
    assert o.period.digits == (0, 2, 5, 6, 4, 1)
    assert o.preperiod.digits == ()
    o = long_division_oracle(Fraction(1, 7), 10)
    assert o.period.digits == (1, 4, 2, 8, 5, 7)
    o = long_division_oracle(Fraction(5, 1), 10)
    assert o.integer_part.digits == (5,) and o.period.digits == ()
    o = long_division_oracle(Fraction(7, 20), 12)
    assert o.preperiod.digits == (4,) and o.period.digits == (2, 4, 9, 7)


def test_value_of_examples():
    assert value_of(_exp(1, 5, 12)) == Fraction(1, 5)
    assert value_of(_exp(7, 20, 12)) == Fraction(7, 20)
    assert value_of(_exp(1, 4, 10)) == Fraction(1, 4)
    assert value_of(_exp(22, 7, 10)) == Fraction(22, 7)
    assert value_of(_exp(0, 3, 10)) == Fraction(0, 1)
    # 0.(9) is another spelling of 1
    nines = RadixExpansion(10, DigitString(10, (0,)), DigitString(10, ()), DigitString(10, (9,)))
    assert value_of(nines) == Fraction(1, 1)


@st.composite
def fraction_and_base(draw):
    base = draw(st.integers(2, 16))
    m = draw(st.integers(1, 400))
    k = draw(st.integers(0, 2 * m))
    return Fraction(k, m), base


@given(fraction_and_base())
@settings(deadline=None)
def test_expand_matches_oracle(fb):
    f, base = fb
    got, _ = expand(f, base)
    assert got == long_division_oracle(f, base)


@given(fraction_and_base())
@settings(deadline=None)
def test_value_round_trip(fb):
    f, base = fb
    got, _ = expand(f, base)
    assert value_of(got) == f.reduced()


@given(fraction_and_base())
@settings(deadline=None)
def test_period_is_primitive(fb):
    f, base = fb
    got, red = expand(f, base)
    if got.period.digits:
        assert len(got.period) == n_order(base, red.tail_denominator)
        assert red.multiplier * red.tail_denominator == base * red.graph_n - 1
    if red.shift:
        assert len(got.preperiod) == red.shift


def test_sweep_smoke():
    result = run_oracle_sweep(25, (10, 12))
    assert result.ok
    # k in [0, 2m] for m in [1, 25], twice
    assert result.cases == 2 * sum(2 * m + 1 for m in range(1, 26))


def test_sweep_validates():
    with pytest.raises(ValidationError):
        run_oracle_sweep(0, (10,))
