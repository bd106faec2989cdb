"""RPKI repositories and publication points.

Every CA publishes its products — child CA certificates, ROAs, its
CRL, and a manifest — at a publication point.  A :class:`Repository`
aggregates the publication points of all CAs below the trust anchors,
which is what a relying party synchronises before validation (the
paper's step 4: "ROA data of all trust anchors ... are collected").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.crypto.digest import sha256_hex
from repro.rpki.cert import CertificateAuthority, ResourceCertificate
from repro.rpki.crl import CertificateRevocationList, issue_crl
from repro.rpki.manifest import Manifest, issue_manifest
from repro.rpki.roa import ROA


def certificate_hash(cert: ResourceCertificate) -> str:
    """Hash of a published certificate object (TBS plus signature)."""
    blob = cert.tbs_bytes() + cert.signature.to_bytes(
        (cert.signature.bit_length() + 7) // 8 or 1, "big"
    )
    return sha256_hex(blob)


class PublicationPoint:
    """The published products of one CA, addressed by object name."""

    def __init__(self, ca_fingerprint: str):
        self.ca_fingerprint = ca_fingerprint
        self.child_certificates: Dict[str, ResourceCertificate] = {}
        self.roas: Dict[str, ROA] = {}
        self.crl: Optional[CertificateRevocationList] = None
        self.manifest: Optional[Manifest] = None

    def add_certificate(self, name: str, cert: ResourceCertificate) -> None:
        self.child_certificates[name] = cert

    def add_roa(self, name: str, roa: ROA) -> None:
        self.roas[name] = roa

    def remove(self, name: str) -> bool:
        """Withdraw a published object by name (True when found)."""
        if name in self.child_certificates:
            del self.child_certificates[name]
            return True
        if name in self.roas:
            del self.roas[name]
            return True
        return False

    def object_hashes(self) -> Dict[str, str]:
        """Current hash listing for the manifest (CRL included)."""
        hashes = {
            name: certificate_hash(cert)
            for name, cert in self.child_certificates.items()
        }
        hashes.update({name: roa.object_hash() for name, roa in self.roas.items()})
        if self.crl is not None:
            hashes["crl.crl"] = self.crl.object_hash()
        return hashes

    def __repr__(self) -> str:
        return (
            f"<PublicationPoint {self.ca_fingerprint[:12]} "
            f"{len(self.child_certificates)} certs, {len(self.roas)} roas>"
        )


class Repository:
    """The global collection of publication points and TA certificates."""

    def __init__(self):
        self._points: Dict[str, PublicationPoint] = {}
        self.trust_anchor_certificates: Dict[str, ResourceCertificate] = {}

    def point_for(self, ca_fingerprint: str) -> PublicationPoint:
        """Get or create the publication point of a CA."""
        if ca_fingerprint not in self._points:
            self._points[ca_fingerprint] = PublicationPoint(ca_fingerprint)
        return self._points[ca_fingerprint]

    def lookup(self, ca_fingerprint: str) -> Optional[PublicationPoint]:
        return self._points.get(ca_fingerprint)

    def remove_point(self, ca_fingerprint: str) -> bool:
        """Withdraw a whole publication point (True when it existed).

        Completing a key rollover retires the old key's publication
        point; relying parties must no longer see its products.
        """
        return self._points.pop(ca_fingerprint, None) is not None

    def add_trust_anchor(self, cert: ResourceCertificate) -> None:
        self.trust_anchor_certificates[cert.fingerprint()] = cert

    def points(self) -> Iterator[PublicationPoint]:
        return iter(self._points.values())

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return f"<Repository {len(self._points)} publication points>"


def publish_ca_products(
    repository: Repository,
    ca: CertificateAuthority,
    roas: List[ROA] = (),
    now: float = 0.0,
    manifest_number: int = 1,
) -> PublicationPoint:
    """Publish a CA's children, ROAs, CRL, and a fresh manifest.

    Child CA certificates already attached to ``ca`` are published
    automatically; call again after issuing more products to refresh
    the manifest.
    """
    point = repository.point_for(ca.keypair.public.fingerprint())
    for child in ca.children:
        point.add_certificate(f"{child.name}.cer", child.certificate)
    for index, roa in enumerate(roas):
        point.add_roa(f"roa-{int(roa.as_id)}-{index}.roa", roa)
    point.crl = issue_crl(ca, this_update=now)
    point.manifest = issue_manifest(
        ca, point.object_hashes(), manifest_number=manifest_number, this_update=now
    )
    return point
