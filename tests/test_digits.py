import sys

import pytest
from hypothesis import given, strategies as st

from radixgraph.digits import (
    DigitString,
    _converts,
    digit_symbols,
    from_digit_string,
    rightmost_digit,
    to_digit_string,
)
from radixgraph.errors import ValidationError


@pytest.mark.parametrize("x,base,want", [(127, 10, 7), (0, 7, 0), (21, 12, 9), (37, 2, 1)])
def test_rightmost_digit(x, base, want):
    assert rightmost_digit(x, base) == want


def test_rightmost_digit_validates():
    with pytest.raises(ValidationError):
        rightmost_digit(5, 1)
    with pytest.raises(ValidationError):
        rightmost_digit(-1, 10)


@pytest.mark.parametrize(
    "x,base,width,want",
    [
        (35, 10, 0, (3, 5)),
        (4, 12, 1, (4,)),
        (7, 2, 5, (0, 0, 1, 1, 1)),
        (0, 10, 0, (0,)),
        (0, 10, 3, (0, 0, 0)),
        (143, 12, 0, (11, 11)),
    ],
)
def test_to_digit_string(x, base, width, want):
    s = to_digit_string(x, base, width)
    assert s.digits == want
    assert s.base == base


def _reference_digits(x, base, width):
    """Digits of x by schoolbook divmod, most significant first, zero padded to width."""
    digits = []
    while x:
        x, d = divmod(x, base)
        digits.append(d)
    digits += [0] * (max(width, 1) - len(digits))
    return tuple(reversed(digits))


@given(st.integers(0, 10**60), st.one_of(st.sampled_from([2, 8, 10, 16]), st.integers(2, 40)), st.integers(0, 12))
def test_to_digit_string_equals_the_reference(x, base, width):
    s = to_digit_string(x, base, width)
    assert s.base == base
    assert s.digits == _reference_digits(x, base, width)
    assert all(type(d) is int for d in s.digits)


@pytest.mark.parametrize("length", [4300, 4301])
def test_to_digit_string_on_both_sides_of_the_str_limit(length):
    # str() writes at most 4300 digits; past that to_digit_string loops
    x = 10**length - 3**5000
    for width in (0, length + 5):
        assert to_digit_string(x, 10, width).digits == _reference_digits(x, 10, width)


@pytest.mark.parametrize("max_str_digits", [0, 1000])
def test_to_digit_string_follows_the_interpreters_str_limit(max_str_digits):
    # 4772 digits, converted by format() with str() unlimited, else by the loop
    x = 3**10000
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max_str_digits)
    try:
        assert _converts(10, 4772) == (max_str_digits == 0)
        assert to_digit_string(x, 10, 4800).digits == _reference_digits(x, 10, 4800)
    finally:
        sys.set_int_max_str_digits(old)


def test_to_digit_string_validates():
    with pytest.raises(ValidationError):
        to_digit_string(-1, 10)
    with pytest.raises(ValidationError):
        to_digit_string(3, 10, -1)


def test_from_digit_string():
    assert from_digit_string(DigitString(12, (2, 4, 9, 7))) == 4147
    assert from_digit_string(DigitString(10, (1, 0))) == 10
    assert from_digit_string(DigitString(12, (0,))) == 0
    assert from_digit_string(DigitString(10, ())) == 0
    assert from_digit_string(DigitString(2, (1, 0, 1))) == 5
    assert from_digit_string(DigitString(12, (11, 11))) == 143


def test_digit_string_validates_digits():
    with pytest.raises(ValidationError, match="digit 10 "):
        DigitString(10, (3, 10))
    with pytest.raises(ValidationError, match="digit -1 "):
        DigitString(10, (4, -1, 12))
    with pytest.raises(ValidationError):
        DigitString(1, (0,))


def test_render_small_bases():
    assert DigitString(10, (0, 2, 5)).render() == "025"
    assert DigitString(12, (2, 4, 9, 7)).render() == "2497"
    assert DigitString(12, (10, 11)).render() == "ab"
    assert DigitString(36, (35,)).render() == "z"
    assert DigitString(16, (15, 0)).render() == "f0"
    assert DigitString(10, ()).render() == ""


def test_render_large_bases():
    assert DigitString(60, (0, 31, 15)).render() == "[0,31,15]"
    assert str(DigitString(60, (59,))) == "[59]"


def test_digits_over_4300_digits_are_written_out():
    # str() refuses ints of more than 4300 digits
    big = 10**4400
    assert DigitString(big + 1, (big, 7)).render() == "[1" + "0" * 4400 + ",7]"
    assert digit_symbols((big, 7), big + 1) == ["[1" + "0" * 4400 + "]", "[7]"]


@given(st.integers(0, 10**6), st.integers(2, 36), st.integers(0, 10))
def test_digit_round_trip(x, base, width):
    s = to_digit_string(x, base, width)
    assert from_digit_string(s) == x
    assert len(s) >= width


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(2, 16))
def test_rightmost_digit_is_ring_homomorphism(a, b, base):
    assert rightmost_digit(a + b, base) == rightmost_digit(rightmost_digit(a, base) + rightmost_digit(b, base), base)
    assert rightmost_digit(a * b, base) == rightmost_digit(rightmost_digit(a, base) * rightmost_digit(b, base), base)
