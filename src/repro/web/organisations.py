"""Hosting organisations and address-space allocation.

An :class:`Organisation` owns one or more ASes and IP prefixes
allocated from an RIR pool.  Webhosters and eyeball ISPs host content
directly; CDN operators own many ASes and additionally place caches
inside third-party eyeball networks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net import ASN, Prefix
from repro.crypto import DeterministicRNG


class OrgKind(enum.Enum):
    TIER1 = "tier1"
    TRANSIT = "transit"
    EYEBALL = "eyeball"
    HOSTER = "hoster"
    CDN = "cdn"

    def __str__(self) -> str:
        return self.value


@dataclass
class Organisation:
    """One network organisation."""

    name: str
    kind: OrgKind
    rir: str                      # allocating RIR (trust anchor name)
    asns: List[ASN] = field(default_factory=list)
    # prefix -> origin AS announcing it
    prefixes: Dict[Prefix, ASN] = field(default_factory=dict)
    registry_names: Dict[ASN, str] = field(default_factory=dict)

    def add_prefix(self, prefix: Prefix, origin: ASN) -> None:
        if origin not in self.asns:
            raise ValueError(f"{origin} does not belong to {self.name}")
        self.prefixes[prefix] = origin

    def prefix_list(self) -> List[Prefix]:
        return sorted(self.prefixes)

    def __repr__(self) -> str:
        return (
            f"<Organisation {self.name!r} ({self.kind}) "
            f"{len(self.asns)} ASes, {len(self.prefixes)} prefixes>"
        )


# The five RIRs and the /8 blocks they allocate from in this world.
# All blocks are globally-routable space (no IANA special entries).
RIR_POOLS: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("AFRINIC", (41, 102, 105)),
    ("APNIC", (1, 14, 27, 36, 42)),
    ("ARIN", (3, 4, 6, 7, 8, 9)),
    ("LACNIC", (177, 179, 181, 186)),
    ("RIPE", (5, 31, 37, 46, 62, 77, 78, 79, 80)),
)


# Real-world IPv6 /12 super-blocks of the five RIRs.
RIR_V6_POOLS: Dict[str, str] = {
    "AFRINIC": "2c00::/12",
    "APNIC": "2400::/12",
    "ARIN": "2600::/12",
    "LACNIC": "2800::/12",
    "RIPE": "2a00::/12",
}


class AddressAllocator:
    """Sequentially carves prefixes out of the RIR /8 pools."""

    def __init__(self):
        self._cursors: Dict[str, int] = {rir: 0 for rir, _blocks in RIR_POOLS}
        self._blocks: Dict[str, Tuple[int, ...]] = dict(RIR_POOLS)
        self._v6_cursors: Dict[str, int] = {rir: 0 for rir in RIR_V6_POOLS}

    def rirs(self) -> List[str]:
        return [rir for rir, _blocks in RIR_POOLS]

    def allocate(self, rir: str, length: int = 20) -> Prefix:
        """Allocate the next free prefix of ``length`` bits from ``rir``.

        Allocation walks each /8 block in /16 steps; prefixes longer
        than /16 subdivide the current /16.
        """
        if not 9 <= length <= 24:
            raise ValueError(f"allocation length /{length} unsupported")
        blocks = self._blocks[rir]
        cursor = self._cursors[rir]
        # Each /8 holds 2**(length-8) prefixes of the requested length,
        # but mixing lengths is easier with a flat /24-granular cursor.
        step = 1 << (24 - length)
        per_block = 1 << 16  # number of /24s inside a /8
        block_index, offset = divmod(cursor, per_block)
        # Align the offset up to the prefix size.
        if offset % step:
            offset += step - (offset % step)
            cursor = block_index * per_block + offset
            block_index, offset = divmod(cursor, per_block)
        if block_index >= len(blocks):
            raise RuntimeError(f"{rir} pool exhausted")
        base = blocks[block_index] << 24
        value = (base + (offset << 8)) & ~((1 << (32 - length)) - 1)
        self._cursors[rir] = cursor + step
        return Prefix(4, value, length)

    def allocate_v6(self, rir: str) -> Prefix:
        """Allocate the next /32 from the RIR's IPv6 super-block."""
        pool = Prefix.parse(RIR_V6_POOLS[rir])
        index = self._v6_cursors[rir]
        if index >= 1 << 20:
            raise RuntimeError(f"{rir} IPv6 pool exhausted")
        self._v6_cursors[rir] = index + 1
        value = pool.value | (index << (128 - 32))
        return Prefix(6, value, 32)
