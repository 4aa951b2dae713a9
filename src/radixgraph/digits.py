"""Base-B digits of an int and their text form: every such rule lives here.

to_digit_string converts by one format() in C in bases 2, 8, 16, and 10
within str()'s limit (_converts tells ahead for a width), by a divmod loop
elsewhere. DigitString.render, digit_symbols and _vertex_labels write
0-9a-z up to base 36 and a bracketed decimal list like [0,31,15] beyond;
decimal_str writes an int in decimal at any size.
"""

from __future__ import annotations

import sys

from ._record import Record
from .errors import ValidationError

DIGIT_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
# byte d -> DIGIT_ALPHABET[d], so a digit tuple renders with one translate
_ALPHABET_TABLE = bytes.maketrans(bytes(range(len(DIGIT_ALPHABET))), DIGIT_ALPHABET.encode("ascii"))
# Bases that to_digit_string converts by format(), with their format codes.
# In base 10 that is str(), which refuses more than sys.get_int_max_str_digits()
# digits (4300 by default, 0 for no limit; no limit before Python 3.10.7).
_FORMAT_CODES = {2: "b", 8: "o", 10: "d", 16: "x"}
_max_str_digits = getattr(sys, "get_int_max_str_digits", int)
_DIGIT_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


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
    try:  # an f-string per digit is a quarter faster than a decimal_str call
        return [f"[{d}]" for d in digits]
    except ValueError:  # str() refuses ints over sys.get_int_max_str_digits() digits
        return ["[" + decimal_str(d) + "]" for d in digits]


def _vertex_labels(m: int, base: int) -> list[str]:
    """Labels of the vertices 0..m-1, each as to_digit_string(v, base).render()
    writes it. The label of v >= base is the label of v // base followed by
    the symbol of v % base, so the labels are built one power of base at a time."""
    if base <= 36:
        symbols, sep = list(DIGIT_ALPHABET[:base]), ""
    else:
        symbols, sep = list(map(str, range(base))), ","
    labels = symbols[:m]
    start = 1  # labels[start:] are the prefixes of the next power's labels
    while len(labels) < m:
        end = min(len(labels), -(-m // base))
        labels += [head + sep + s for head in labels[start:end] for s in symbols]
        start = end
    del labels[m:]
    return labels if base <= 36 else ["[" + s + "]" for s in labels]


def decimal_str(x: int) -> str:
    """x in decimal at any size: str(x), or Decimal where str() refuses more
    than sys.get_int_max_str_digits() digits (4300 by default)."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal  # here, as importing it adds 2 ms to every start-up
        return str(Decimal(x))


def rightmost_digit(x: int, base: int) -> int:
    """Last base-B digit of a nonnegative integer, i.e. x mod B."""
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {decimal_str(base)}")
    if x < 0:
        raise ValidationError(f"expected a nonnegative integer, got {decimal_str(x)}")
    return x % base


def _converts(base: int, width: int = 0) -> bool:
    """Whether to_digit_string writes every int of at most `width` digits in
    `base` by one format() in C rather than its divmod loop."""
    return base in _FORMAT_CODES and (base != 10 or not 0 < _max_str_digits() < width)


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
    if base in _FORMAT_CODES:
        try:
            text = format(x, _FORMAT_CODES[base]).zfill(min_width)
        except ValueError:  # str() refuses ints over sys.get_int_max_str_digits() digits
            pass
        else:
            return _valid_digit_string(base, tuple(text.encode("ascii").translate(_DIGIT_VALUES)))
    digits = []
    while x:
        x, d = divmod(x, base)
        digits.append(d)
    digits += [0] * (max(min_width, 1) - len(digits))
    return _valid_digit_string(base, tuple(reversed(digits)))


def from_digit_string(s: DigitString) -> int:
    """Integer value of a digit string; the empty string has value 0."""
    value = 0
    for d in s.digits:
        value = value * s.base + d
    return value
