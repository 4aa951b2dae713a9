"""Immutable value records, without the start-up cost of dataclasses.

Importing dataclasses loads inspect, ast, dis and tokenize, and each frozen
dataclass execs its generated methods when defined, which would double the
time of a cold `import radixgraph`. A Record subclass lists its fields as
__slots__, in constructor order, and sets them in its own __init__ with
object.__setattr__. It compares, hashes, prints, pickles, matches and
refuses assignment as a frozen dataclass with those fields would. A class
may set _fields to a leading part of its slots; the rest are left out of
all of that.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("_fields", cls.__slots__)
        cls.__match_args__ = fields
        cls._values = attrgetter(*fields)  # the field values as a tuple (records have two or more)
        cls._repr_format = cls.__qualname__ + "(" + ", ".join(f + "=%r" for f in fields) + ")"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return self._repr_format % self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)
