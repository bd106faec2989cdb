"""Autonomous System Number utilities."""

from __future__ import annotations

from repro.net.errors import ASNError

MAX_ASN = (1 << 32) - 1


class ASN(int):
    """A 32-bit AS number.

    Subclasses :class:`int` so arithmetic, hashing, and sorting work
    naturally while construction validates the range and ``str()``
    renders the conventional ``AS64500`` form; a bool, float or str is
    refused, not coerced.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "ASN":
        if type(value) is not int and type(value) is not cls:
            raise ASNError(f"AS number must be an int: {value!r}")
        if not 0 <= value <= MAX_ASN:
            raise ASNError(f"AS number out of 32-bit range: {value}")
        return int.__new__(cls, value)

    def __str__(self) -> str:
        return f"AS{int(self)}"

    def __repr__(self) -> str:
        return f"ASN({int(self)})"
