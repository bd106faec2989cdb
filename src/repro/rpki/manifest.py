"""Manifests (RFC 6486).

A manifest enumerates every object a CA currently publishes, with
their hashes, so a relying party can detect withheld or substituted
objects.  For simplicity the manifest is signed directly with the CA
key (the real encoding uses a one-time EE certificate like ROAs do;
the security property exercised here — detecting tampered publication
points — is identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.digest import canonical_bytes
from repro.crypto.rsa import sign, verify
from repro.rpki.cert import CertificateAuthority


@dataclass(frozen=True)
class Manifest:
    """A signed listing of published objects: name -> SHA-256 hash."""

    issuer_fingerprint: str
    manifest_number: int
    entries: Tuple[Tuple[str, str], ...]  # (object name, hex hash), sorted
    this_update: float
    next_update: float
    signature: int

    def tbs_bytes(self) -> bytes:
        return canonical_bytes(
            {
                "issuer": self.issuer_fingerprint,
                "number": self.manifest_number,
                "entries": [list(entry) for entry in self.entries],
                "this_update": self.this_update,
                "next_update": self.next_update,
            }
        )

    def verify_signature(self, issuer_key) -> bool:
        return verify(self.tbs_bytes(), self.signature, issuer_key)

    def is_current(self, now: float) -> bool:
        return self.this_update <= now <= self.next_update

    def listed_hash(self, name: str) -> Optional[str]:
        for entry_name, entry_hash in self.entries:
            if entry_name == name:
                return entry_hash
        return None

    def __repr__(self) -> str:
        return f"<Manifest #{self.manifest_number} {len(self.entries)} entries>"


def issue_manifest(
    ca: CertificateAuthority,
    entries: Dict[str, str],
    manifest_number: int = 1,
    this_update: float = 0.0,
    next_update: Optional[float] = None,
) -> Manifest:
    """Sign a manifest over ``entries`` (object name -> hex hash)."""
    if next_update is None:
        next_update = ca.certificate.not_after
    sorted_entries = tuple(sorted(entries.items()))
    unsigned = Manifest(
        issuer_fingerprint=ca.keypair.public.fingerprint(),
        manifest_number=manifest_number,
        entries=sorted_entries,
        this_update=this_update,
        next_update=next_update,
        signature=0,
    )
    signature = sign(unsigned.tbs_bytes(), ca.keypair)
    return Manifest(
        issuer_fingerprint=unsigned.issuer_fingerprint,
        manifest_number=manifest_number,
        entries=sorted_entries,
        this_update=this_update,
        next_update=next_update,
        signature=signature,
    )
