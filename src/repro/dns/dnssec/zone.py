"""Signed zones and the delegation tree.

A :class:`ZoneTree` models the DNS hierarchy root -> TLD -> domain
zone.  A zone may be *signed* (owns a key pair, publishes a DNSKEY,
and its parent — if itself signed — publishes a matching DS record)
or *unsigned* (a plain delegation, which makes everything below it
provably insecure rather than bogus).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import DeterministicRNG, KeyPair, generate_keypair
from repro.crypto.rsa import sign
from repro.dns.dnssec.records import (
    DNSKEYRecord,
    DSRecord,
    RRSIGRecord,
    rrset_digest,
)

DNSSEC_KEY_BITS = 512  # the smallest modulus that fits a SHA-256 PKCS#1 signature


class SignedZone:
    """One zone, signed or not."""

    def __init__(
        self,
        name: str,
        keypair: Optional[KeyPair] = None,
    ):
        self.name = name
        self.keypair = keypair
        self.ds_records: Dict[str, DSRecord] = {}   # child zone -> DS
        self.rrsigs: Dict[str, RRSIGRecord] = {}    # owner name -> RRSIG

    @property
    def signed(self) -> bool:
        return self.keypair is not None

    def dnskey(self) -> Optional[DNSKEYRecord]:
        if not self.signed:
            return None
        return DNSKEYRecord(zone=self.name, public_key=self.keypair.public)

    def publish_ds(self, child_key: DNSKEYRecord) -> None:
        """Parent-side: commit to a signed child's key."""
        if not self.signed:
            raise ValueError(f"unsigned zone {self.name!r} cannot publish DS")
        self.ds_records[child_key.zone] = DSRecord.for_key(child_key)

    def sign_rrset(self, owner: str, records: Sequence[str]) -> RRSIGRecord:
        """Sign the record set at ``owner`` with the zone key."""
        if not self.signed:
            raise ValueError(f"unsigned zone {self.name!r} cannot sign")
        digest = rrset_digest(owner, tuple(records))
        unsigned = RRSIGRecord(
            name=owner,
            zone=self.name,
            covered_digest=digest,
            signature=0,
            key_tag=self.dnskey().key_tag(),
        )
        signature = sign(unsigned.signed_blob(), self.keypair)
        rrsig = RRSIGRecord(
            name=owner,
            zone=self.name,
            covered_digest=digest,
            signature=signature,
            key_tag=unsigned.key_tag,
        )
        self.rrsigs[owner] = rrsig
        return rrsig

    def __repr__(self) -> str:
        state = "signed" if self.signed else "unsigned"
        return f"<SignedZone {self.name!r} {state}>"


class ZoneTree:
    """The zone hierarchy with a single root trust anchor."""

    def __init__(self, rng: DeterministicRNG, key_bits: int = DNSSEC_KEY_BITS):
        self._rng = rng.fork("dnssec")
        self._key_bits = key_bits
        self._zones: Dict[str, SignedZone] = {}
        self.root = self._create_zone("", signed=True)

    # -- construction ------------------------------------------------------

    def _create_zone(self, name: str, signed: bool) -> SignedZone:
        keypair = None
        if signed:
            keypair = generate_keypair(
                self._rng.fork(f"zone:{name}"), bits=self._key_bits
            )
        zone = SignedZone(name, keypair)
        self._zones[name] = zone
        return zone

    @staticmethod
    def parent_name(zone_name: str) -> Optional[str]:
        if zone_name == "":
            return None
        _label, _dot, rest = zone_name.partition(".")
        return rest  # "" == the root

    def add_zone(self, name: str, signed: bool) -> SignedZone:
        """Create a zone and link it below its (existing) parent.

        A signed child below a signed parent gets a DS record in the
        parent; below an unsigned parent the chain stays broken (an
        "island of security", which validators treat as insecure).
        """
        if name in self._zones:
            raise ValueError(f"zone {name!r} already exists")
        parent_name = self.parent_name(name)
        if parent_name not in self._zones:
            raise ValueError(f"parent zone {parent_name!r} missing for {name!r}")
        zone = self._create_zone(name, signed)
        parent = self._zones[parent_name]
        if signed and parent.signed:
            parent.publish_ds(zone.dnskey())
        return zone

    # -- queries ---------------------------------------------------------------

    def zone(self, name: str) -> Optional[SignedZone]:
        return self._zones.get(name)

    def authoritative_zone(self, fqdn: str) -> SignedZone:
        """The most specific existing zone containing ``fqdn``."""
        candidate = fqdn
        while candidate not in self._zones:
            parent = self.parent_name(candidate)
            if parent is None:
                return self.root
            candidate = parent
        return self._zones[candidate]

    def chain_to(self, zone_name: str) -> List[SignedZone]:
        """Zones from the root down to ``zone_name`` (inclusive)."""
        chain: List[str] = []
        cursor: Optional[str] = zone_name
        while cursor is not None:
            if cursor in self._zones:
                chain.append(cursor)
            cursor = self.parent_name(cursor) if cursor else None
        return [self._zones[name] for name in reversed(chain)]

    def __len__(self) -> int:
        return len(self._zones)

    def __repr__(self) -> str:
        signed = sum(1 for z in self._zones.values() if z.signed)
        return f"<ZoneTree {len(self._zones)} zones, {signed} signed>"
