"""Trust Anchor Locators (RFC 8630, simplified).

A TAL carries the expected public key of a trust anchor so relying
parties can bootstrap validation without trusting the repository
content itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import PublicKey
from repro.rpki.cert import CertificateAuthority, ResourceCertificate


@dataclass(frozen=True)
class TrustAnchorLocator:
    """Name plus pinned public key of one trust anchor."""

    name: str
    public_key: PublicKey

    @classmethod
    def for_authority(cls, ca: CertificateAuthority) -> "TrustAnchorLocator":
        return cls(name=ca.name, public_key=ca.keypair.public)

    def fingerprint(self) -> str:
        return self.public_key.fingerprint()

    def matches(self, certificate: ResourceCertificate) -> bool:
        """True when the certificate carries exactly the pinned key."""
        return certificate.public_key == self.public_key

    def __repr__(self) -> str:
        return f"<TAL {self.name!r} {self.fingerprint()[:12]}>"
