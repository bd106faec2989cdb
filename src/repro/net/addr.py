"""IPv4/IPv6 address and prefix value types.

An :class:`Address` *is* the int tuple ``(family, value)`` and a
:class:`Prefix` *is* ``(family, value, length)``: ``tuple`` subclasses
whose only constructor validates.  Equality, hashing and the total
order (family, then value, then length) are the tuple's own, and the
value checked on construction is the dict key, the sort key, the wire
row (``tuple(prefix)``) and the store row (``Prefix(*row)``): exact
ints only.  Parsing and formatting (IPv6 zero compression, embedded
IPv4) are from scratch.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Tuple, Union

from repro.net.errors import AddressError, PrefixError

IPV4 = 4
IPV6 = 6

_BITS = {IPV4: 32, IPV6: 128}
_MAX = {IPV4: (1 << 32) - 1, IPV6: (1 << 128) - 1}


def exact_ints(row, error: type) -> tuple:
    """``row`` as a tuple of exact ints (no bools or floats); raises ``error``."""
    key = tuple(row)
    for value in key:
        if type(value) is not int:
            raise error(f"fields must be ints: {row!r}")
    return key


def family_bits(family: int) -> int:
    """Return the address width in bits for an address family (4 or 6)."""
    try:
        return _BITS[family]
    except KeyError:
        raise AddressError(f"unknown address family: {family!r}") from None


def _parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"invalid IPv4 octet in {text!r}: {part!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"IPv4 octet out of range in {text!r}: {part!r}")
        value = (value << 8) | octet
    return value


def _format_ipv4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _parse_ipv6(text: str) -> int:
    if not text:
        raise AddressError("empty IPv6 address")
    # Embedded IPv4 in the last group, e.g. ::ffff:192.0.2.1
    tail_groups = []
    if "." in text:
        head, _, ipv4_part = text.rpartition(":")
        if not head:
            raise AddressError(f"invalid IPv6 address: {text!r}")
        ipv4_value = _parse_ipv4(ipv4_part)
        tail_groups = [ipv4_value >> 16, ipv4_value & 0xFFFF]
        text = head
        if text.endswith(":") and not text.endswith("::"):
            raise AddressError(f"invalid IPv6 address near {ipv4_part!r}")

    if text.count("::") > 1:
        raise AddressError(f"multiple '::' in IPv6 address: {text!r}")

    def parse_groups(chunk: str) -> list:
        if not chunk:
            return []
        groups = []
        for group in chunk.split(":"):
            if not group or len(group) > 4:
                raise AddressError(f"invalid IPv6 group: {group!r}")
            try:
                groups.append(int(group, 16))
            except ValueError:
                raise AddressError(f"invalid IPv6 group: {group!r}") from None
        return groups

    if "::" in text:
        left_text, right_text = text.split("::")
        left = parse_groups(left_text)
        right = parse_groups(right_text) + tail_groups
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise AddressError(f"IPv6 address too long: {text!r}")
        groups = left + [0] * missing + right
    else:
        groups = parse_groups(text) + tail_groups
        if len(groups) != 8:
            raise AddressError(f"IPv6 address needs 8 groups: {text!r}")

    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def _format_ipv6(value: int) -> str:
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -1, -16)]
    # Find the longest run of zero groups (length >= 2) for '::'.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(format(group, "x") for group in groups)
    head = ":".join(format(group, "x") for group in groups[:best_start])
    tail = ":".join(format(group, "x") for group in groups[best_start + best_len:])
    return f"{head}::{tail}"


class Address(tuple):
    """An immutable IPv4 or IPv6 address: the tuple ``(family, value)``."""

    __slots__ = ()

    def __new__(cls, family: int, value: int) -> "Address":
        if type(family) is not int or type(value) is not int:
            raise AddressError(f"non-int address field in {(family, value)!r}")
        family_bits(family)
        if not 0 <= value <= _MAX[family]:
            raise AddressError(
                f"address value out of range for IPv{family}: {value:#x}"
            )
        return tuple.__new__(cls, (family, value))

    def __getnewargs__(self) -> Tuple[int, int]:
        return tuple(self)  # pickle and copy re-enter the validating __new__

    family = property(itemgetter(0), doc="Address family: 4 or 6.")
    value = property(itemgetter(1), doc="The address as an integer.")

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Parse an address literal, auto-detecting the family."""
        text = text.strip()
        if ":" in text:
            return cls(IPV6, _parse_ipv6(text))
        return cls(IPV4, _parse_ipv4(text))

    @property
    def bits(self) -> int:
        return _BITS[self[0]]

    def to_prefix(self) -> "Prefix":
        """Return the host prefix (/32 or /128) for this address."""
        return Prefix(*self, _BITS[self[0]])

    def __str__(self) -> str:
        family, value = self
        return _format_ipv4(value) if family == IPV4 else _format_ipv6(value)

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"


class Prefix(tuple):
    """An immutable CIDR prefix: the tuple ``(family, value, length)``.

    Fields must be exact ints and host bits below the length zero, else
    :class:`PrefixError`; there is no other constructor, so decoders of
    wire and store rows are checked too.  It is a tuple:
    ``Prefix(4, 0, 0) == (4, 0, 0)``, ``len(p)`` is 3 (the prefix
    length is ``.length``), ``x in p`` is tuple membership (coverage is
    :meth:`contains`), ``json.dumps(p)`` yields ``[family, value,
    length]`` where it used to raise, and ``hash(p)`` no longer mixes
    in the class object's address, so it is the same in every process.
    """

    __slots__ = ()

    def __new__(cls, family: int, value: int, length: int) -> "Prefix":
        if type(family) is not int or type(value) is not int or type(length) is not int:
            raise PrefixError(f"non-int prefix field in {(family, value, length)!r}")
        bits = family_bits(family)
        if not 0 <= length <= bits:
            raise PrefixError(f"prefix length {length} out of range for IPv{family}")
        if not 0 <= value <= _MAX[family]:
            raise PrefixError(f"network value out of range: {value:#x}")
        host_bits = bits - length
        if host_bits and value & ((1 << host_bits) - 1):
            raise PrefixError(
                f"host bits set below /{length}: {value:#x} (not a canonical network)"
            )
        return tuple.__new__(cls, (family, value, length))

    def __getnewargs__(self) -> Tuple[int, int, int]:
        return tuple(self)  # pickle and copy re-enter the validating __new__

    family = property(itemgetter(0), doc="Address family: 4 or 6.")
    value = property(itemgetter(1), doc="The network address as an integer.")
    length = property(itemgetter(2), doc="The prefix length in bits.")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` or ``x::/len`` notation."""
        text = text.strip()
        network_text, slash, length_text = text.partition("/")
        if not slash:
            raise PrefixError(f"prefix needs a '/length': {text!r}")
        address = Address.parse(network_text)
        if not length_text.isdigit():
            raise PrefixError(f"invalid prefix length: {length_text!r}")
        return cls(*address, int(length_text))

    @classmethod
    def from_address(cls, address: Address, length: int) -> "Prefix":
        """Build the prefix of ``length`` bits containing ``address``."""
        family, value = address
        bits = _BITS[family]
        if not 0 <= length <= bits:
            raise PrefixError(f"prefix length {length} out of range")
        host_bits = bits - length
        return cls(family, (value >> host_bits) << host_bits, length)

    @property
    def bits(self) -> int:
        return _BITS[self[0]]

    @property
    def network(self) -> Address:
        return Address(self[0], self[1])

    def key_bits(self) -> int:
        """Top ``length`` bits of the network, as an integer key."""
        family, value, length = self
        return value >> (_BITS[family] - length)

    def contains(self, other: Union[Address, "Prefix"]) -> bool:
        """True when ``other`` (address or prefix) is inside this prefix."""
        if isinstance(other, Address):
            other = other.to_prefix()
        family, value, length = self
        other_family, other_value, other_length = other
        if other_family != family or other_length < length:
            return False
        shift = _BITS[family] - length
        return other_value >> shift == value >> shift

    def covers(self, other: "Prefix") -> bool:
        """Alias of :meth:`contains` for prefixes; reads better in BGP code."""
        return self.contains(other)

    def supernet(self, length: int) -> "Prefix":
        """Return the covering prefix of the given (shorter) length."""
        family, value, own_length = self
        if length > own_length:
            raise PrefixError(f"supernet length {length} longer than /{own_length}")
        host_bits = _BITS[family] - length
        return Prefix(family, (value >> host_bits) << host_bits, length)

    def addresses(self, limit: int = 1 << 16) -> Iterator[Address]:
        """Iterate the addresses in the prefix (guarded by ``limit``)."""
        family, value, length = self
        count = 1 << (_BITS[family] - length)
        if count > limit:
            raise PrefixError(f"refusing to iterate {count} addresses (limit {limit})")
        for offset in range(count):
            yield Address(family, value + offset)

    def nth_address(self, index: int) -> Address:
        """Return the ``index``-th address inside the prefix."""
        family, value, length = self
        if not 0 <= index < 1 << (_BITS[family] - length):
            raise PrefixError(f"address index {index} out of range for {self}")
        return Address(family, value + index)

    def __str__(self) -> str:
        return f"{self.network}/{self[2]}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def parse_address(text: str) -> Address:
    """Module-level convenience wrapper for :meth:`Address.parse`."""
    return Address.parse(text)


def parse_prefix(text: str) -> Prefix:
    """Module-level convenience wrapper for :meth:`Prefix.parse`."""
    return Prefix.parse(text)
