"""Base-B digit sequences and their text form.

Numeric code passes digit tuples around; DigitString is the one place that
knows how digits become text. Bases up to 36 use 0-9a-z, larger bases fall
back to a bracketed decimal list like [0,31,15].
"""

from __future__ import annotations

from ._record import Record
from .errors import ValidationError

DIGIT_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
# byte d -> DIGIT_ALPHABET[d], so a digit tuple renders with one translate
_ALPHABET_TABLE = bytes.maketrans(bytes(range(len(DIGIT_ALPHABET))), DIGIT_ALPHABET.encode("ascii"))


class DigitString(Record):
    """An ordered digit sequence in a fixed base, most significant first."""

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...]) -> None:
        if base < 2:
            raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
        if digits and (min(digits) < 0 or max(digits) >= base):
            bad = next(d for d in digits if not 0 <= d < base)
            raise ValidationError(f"digit {decimal_str(bad)} out of range for base {decimal_str(base)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    def __len__(self) -> int:
        return len(self.digits)

    def render(self) -> str:
        if not self.digits:
            return ""
        if self.base <= 36:
            return bytes(self.digits).translate(_ALPHABET_TABLE).decode("ascii")
        try:
            return "[" + ",".join(map(str, self.digits)) + "]"
        except ValueError:  # str() refuses ints over sys.get_int_max_str_digits() digits
            return "[" + ",".join(map(decimal_str, self.digits)) + "]"

    def __str__(self) -> str:
        return self.render()


def _valid_digit_string(base: int, digits: tuple[int, ...]) -> DigitString:
    """DigitString without the range check, for digits already taken mod base."""
    s = object.__new__(DigitString)
    object.__setattr__(s, "base", base)
    object.__setattr__(s, "digits", digits)
    return s


def digit_symbols(digits: tuple[int, ...], base: int) -> list[str]:
    """Each digit in [0, base) rendered alone, as a one-digit DigitString
    renders it. The digits are not checked."""
    if base <= 36:
        return list(bytes(digits).translate(_ALPHABET_TABLE).decode("ascii"))
    try:
        return [f"[{d}]" for d in digits]
    except ValueError:  # str() refuses ints over sys.get_int_max_str_digits() digits
        return [f"[{decimal_str(d)}]" for d in digits]


def decimal_str(x: int) -> str:
    """x in decimal at any size. str(x) refuses more digits than
    sys.get_int_max_str_digits() allows (4300 by default); Decimal does not."""
    from decimal import Decimal  # here, as importing it adds 2 ms to every start-up

    return str(Decimal(x))


def rightmost_digit(x: int, base: int) -> int:
    """Last base-B digit of a nonnegative integer, i.e. x mod B."""
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
    if x < 0:
        raise ValidationError(f"expected a nonnegative integer, got {decimal_str(x)}")
    return x % base


def to_digit_string(x: int, base: int, min_width: int = 0) -> DigitString:
    """Digits of x in the given base, zero padded on the left to min_width.

    x = 0 with min_width = 0 yields the single digit 0, never an empty string.
    """
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
    if x < 0:
        raise ValidationError(f"expected a nonnegative integer, got {decimal_str(x)}")
    if min_width < 0:
        raise ValidationError(f"min_width must be >= 0, got {decimal_str(min_width)}")
    digits = []
    while x:
        x, d = divmod(x, base)
        digits.append(d)
    if not digits and min_width == 0:
        digits.append(0)
    while len(digits) < min_width:
        digits.append(0)
    return DigitString(base, tuple(reversed(digits)))


def from_digit_string(s: DigitString) -> int:
    """Integer value of a digit string; the empty string has value 0."""
    value = 0
    for d in s.digits:
        value = value * s.base + d
    return value
