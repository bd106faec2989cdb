"""RFC 3779-style number resource sets.

A :class:`ResourceSet` holds IP prefixes and AS number ranges.  The
validator uses :meth:`ResourceSet.covers` to enforce the RPKI
containment rule: a certificate must not claim resources its issuer
does not hold, and a ROA's prefixes must be covered by its EE
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.net import ASN, Prefix


@dataclass(frozen=True, order=True)
class ASNRange:
    """An inclusive range of AS numbers."""

    low: ASN
    high: ASN

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"inverted ASN range: {self.low}..{self.high}")

    @classmethod
    def single(cls, asn: Union[int, ASN]) -> "ASNRange":
        asn = ASN(asn)
        return cls(asn, asn)

    def covers(self, other: "ASNRange") -> bool:
        return self.low <= other.low and other.high <= self.high

    def __str__(self) -> str:
        if self.low == self.high:
            return str(self.low)
        return f"{self.low}-AS{int(self.high)}"


class ResourceSet:
    """An immutable collection of prefixes and ASN ranges."""

    __slots__ = ("_prefixes", "_asn_ranges")

    def __init__(
        self,
        prefixes: Iterable[Prefix] = (),
        asn_ranges: Iterable[ASNRange] = (),
    ):
        self._prefixes: Tuple[Prefix, ...] = tuple(sorted(set(prefixes)))
        self._asn_ranges: Tuple[ASNRange, ...] = tuple(sorted(set(asn_ranges)))

    @classmethod
    def from_strings(
        cls,
        prefixes: Iterable[str] = (),
        asns: Iterable[Union[int, str]] = (),
    ) -> "ResourceSet":
        """Build from prefix literals and single AS numbers."""
        parsed_prefixes = [Prefix.parse(text) for text in prefixes]
        ranges = []
        for asn in asns:
            if isinstance(asn, str) and "-" in asn:
                low_text, high_text = asn.split("-", 1)
                ranges.append(
                    ASNRange(ASN(int(low_text)), ASN(int(high_text)))
                )
            else:
                ranges.append(ASNRange.single(int(asn)))
        return cls(parsed_prefixes, ranges)

    @classmethod
    def all_resources(cls) -> "ResourceSet":
        """The full number space — held by trust anchors."""
        return cls(
            [Prefix.parse("0.0.0.0/0"), Prefix.parse("::/0")],
            [ASNRange(ASN(0), ASN((1 << 32) - 1))],
        )

    @property
    def prefixes(self) -> Tuple[Prefix, ...]:
        return self._prefixes

    @property
    def asn_ranges(self) -> Tuple[ASNRange, ...]:
        return self._asn_ranges

    def covers_prefix(self, prefix: Prefix) -> bool:
        """True when some held prefix covers ``prefix``."""
        return any(held.covers(prefix) for held in self._prefixes)

    def covers(self, other: "ResourceSet") -> bool:
        """RFC 3779 containment: every resource of ``other`` is held."""
        for prefix in other._prefixes:
            if not self.covers_prefix(prefix):
                return False
        for rng in other._asn_ranges:
            if not any(held.covers(rng) for held in self._asn_ranges):
                return False
        return True

    def union(self, other: "ResourceSet") -> "ResourceSet":
        return ResourceSet(
            self._prefixes + other._prefixes,
            self._asn_ranges + other._asn_ranges,
        )

    def with_asns(self, asns: Iterable[Union[int, ASN]]) -> "ResourceSet":
        new_ranges = tuple(ASNRange.single(asn) for asn in asns)
        return ResourceSet(self._prefixes, self._asn_ranges + new_ranges)

    def to_dict(self) -> Dict[str, List]:
        """Canonical serialisable form (used in signed payloads)."""
        return {
            "prefixes": [str(p) for p in self._prefixes],
            "asns": [[int(r.low), int(r.high)] for r in self._asn_ranges],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceSet):
            return NotImplemented
        return (
            self._prefixes == other._prefixes
            and self._asn_ranges == other._asn_ranges
        )

    def __hash__(self) -> int:
        return hash((self._prefixes, self._asn_ranges))

    def __repr__(self) -> str:
        return (
            f"<ResourceSet {len(self._prefixes)} prefixes, "
            f"{len(self._asn_ranges)} ASN ranges>"
        )

    def __str__(self) -> str:
        parts = [str(p) for p in self._prefixes]
        parts += [str(r) for r in self._asn_ranges]
        return "{" + ", ".join(parts) + "}"
