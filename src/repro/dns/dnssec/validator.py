"""DNSSEC validation.

Given a :class:`~repro.dns.dnssec.zone.ZoneTree` and the root key as
trust anchor, :class:`ValidatingResolver` classifies an answer for a
name:

* **SECURE** — an unbroken DS/DNSKEY chain from the root to the
  authoritative zone, and a valid RRSIG over the answer's record set,
* **INSECURE** — the chain ends at an unsigned delegation before the
  authoritative zone (no DS), so no validation is possible,
* **BOGUS** — the chain or the signature exists but fails
  cryptographic checks (tampering, key mismatch, missing RRSIG).
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple

from repro.crypto.keys import PublicKey
from repro.crypto.rsa import verify
from repro.dns.dnssec.records import DNSKEYRecord, DSRecord, rrset_digest
from repro.dns.dnssec.zone import SignedZone, ZoneTree


class SecurityStatus(enum.Enum):
    SECURE = "secure"
    INSECURE = "insecure"
    BOGUS = "bogus"

    def __str__(self) -> str:
        return self.value


class ValidatingResolver:
    """Chain-of-trust validation over a zone tree."""

    def __init__(self, tree: ZoneTree, trust_anchor: Optional[PublicKey] = None):
        self._tree = tree
        # The pinned root key; defaults to the tree's actual root key,
        # tests can pin a wrong one to simulate anchor mismatch.
        if trust_anchor is None and tree.root.signed:
            trust_anchor = tree.root.keypair.public
        self._trust_anchor = trust_anchor

    # -- chain validation ---------------------------------------------------

    def authenticate_zone(self, zone_name: str) -> Tuple[SecurityStatus, Optional[SignedZone]]:
        """Authenticate the zone's key via the DS chain from the root."""
        chain = self._tree.chain_to(zone_name)
        if not chain:
            return SecurityStatus.INSECURE, None
        root = chain[0]
        if self._trust_anchor is None:
            return SecurityStatus.INSECURE, None
        if not root.signed or root.keypair.public != self._trust_anchor:
            return SecurityStatus.BOGUS, None
        parent = root
        for zone in chain[1:]:
            if not parent.signed:
                # Below an unsigned zone everything is insecure.
                return SecurityStatus.INSECURE, None
            ds = parent.ds_records.get(zone.name)
            if not zone.signed:
                if ds is not None:
                    # Parent promises a signed child, child is not:
                    # that's a downgrade attack, not plain insecurity.
                    return SecurityStatus.BOGUS, None
                return SecurityStatus.INSECURE, None
            if ds is None:
                # Signed child without a DS: island of security.
                return SecurityStatus.INSECURE, None
            if not ds.matches(zone.dnskey()):
                return SecurityStatus.BOGUS, None
            parent = zone
        return SecurityStatus.SECURE, chain[-1]

    # -- answer validation -----------------------------------------------------

    def validate(
        self, fqdn: str, records: Sequence[str]
    ) -> SecurityStatus:
        """Classify the answer ``records`` for ``fqdn``."""
        zone = self._tree.authoritative_zone(fqdn)
        status, authenticated = self.authenticate_zone(zone.name)
        if status is not SecurityStatus.SECURE:
            return status
        rrsig = authenticated.rrsigs.get(fqdn)
        if rrsig is None:
            # A secure zone must sign everything it serves.
            return SecurityStatus.BOGUS
        if rrsig.covered_digest != rrset_digest(fqdn, tuple(records)):
            return SecurityStatus.BOGUS
        if not verify(
            rrsig.signed_blob(), rrsig.signature, authenticated.keypair.public
        ):
            return SecurityStatus.BOGUS
        return SecurityStatus.SECURE
