"""Resource certificates and certificate authorities.

A :class:`ResourceCertificate` is the RPKI analogue of an RFC 6487
X.509 certificate: a subject key, an RFC 3779 resource extension, a
validity window, and a signature by the issuer.  A
:class:`CertificateAuthority` owns a key pair and its certificate and
can issue child CA certificates, end-entity (EE) certificates, ROAs,
CRLs, and manifests into its publication point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto import DeterministicRNG, KeyPair, PublicKey, generate_keypair
from repro.crypto.digest import canonical_bytes
from repro.crypto.rsa import DEFAULT_KEY_BITS, sign, verify
from repro.net import ASN, Prefix
from repro.rpki.errors import IssuanceError
from repro.rpki.resources import ResourceSet

# Default validity window (arbitrary simulated time units; the
# ecosystem uses "days since epoch").
DEFAULT_VALIDITY = 365.0


@dataclass(frozen=True)
class ResourceCertificate:
    """A signed resource certificate.

    ``issuer_fingerprint`` refers to the issuer's *public key*
    fingerprint (AKI); self-signed trust-anchor certificates carry
    their own fingerprint there.
    """

    subject: str
    serial: int
    public_key: PublicKey
    resources: ResourceSet
    not_before: float
    not_after: float
    issuer_fingerprint: str
    is_ca: bool
    signature: int

    def tbs_bytes(self) -> bytes:
        """The to-be-signed encoding; any field change invalidates it."""
        return canonical_bytes(
            {
                "subject": self.subject,
                "serial": self.serial,
                "public_key": self.public_key.to_dict(),
                "resources": self.resources.to_dict(),
                "not_before": self.not_before,
                "not_after": self.not_after,
                "issuer": self.issuer_fingerprint,
                "is_ca": self.is_ca,
            }
        )

    def fingerprint(self) -> str:
        """Subject key identifier (fingerprint of the public key)."""
        return self.public_key.fingerprint()

    def is_self_signed(self) -> bool:
        return self.issuer_fingerprint == self.fingerprint()

    def verify_signature(self, issuer_key: PublicKey) -> bool:
        return verify(self.tbs_bytes(), self.signature, issuer_key)

    def valid_at(self, now: float) -> bool:
        return self.not_before <= now <= self.not_after

    def __repr__(self) -> str:
        kind = "CA" if self.is_ca else "EE"
        return f"<{kind} cert {self.subject!r} serial={self.serial}>"


def _sign_certificate(
    subject: str,
    serial: int,
    public_key: PublicKey,
    resources: ResourceSet,
    not_before: float,
    not_after: float,
    issuer_fingerprint: str,
    is_ca: bool,
    issuer_keypair: KeyPair,
) -> ResourceCertificate:
    unsigned = ResourceCertificate(
        subject=subject,
        serial=serial,
        public_key=public_key,
        resources=resources,
        not_before=not_before,
        not_after=not_after,
        issuer_fingerprint=issuer_fingerprint,
        is_ca=is_ca,
        signature=0,
    )
    signature = sign(unsigned.tbs_bytes(), issuer_keypair)
    return ResourceCertificate(
        subject=subject,
        serial=serial,
        public_key=public_key,
        resources=resources,
        not_before=not_before,
        not_after=not_after,
        issuer_fingerprint=issuer_fingerprint,
        is_ca=is_ca,
        signature=signature,
    )


class CertificateAuthority:
    """A certification authority in the RPKI hierarchy.

    Use :meth:`create_trust_anchor` for the five RIR roots and
    :meth:`issue_child_ca` to delegate resources downwards.  ROA
    issuance (:meth:`issue_roa`) creates a one-time EE key pair and an
    EE certificate whose resources are exactly the ROA's prefixes, as
    RFC 6482 requires.
    """

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        certificate: ResourceCertificate,
        rng: DeterministicRNG,
        key_bits: int = DEFAULT_KEY_BITS,
    ):
        self.name = name
        self.keypair = keypair
        self.certificate = certificate
        self._rng = rng
        self._key_bits = key_bits
        self._serials = itertools.count(1)
        self.revoked_serials: set = set()
        self.children: List["CertificateAuthority"] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def create_trust_anchor(
        cls,
        name: str,
        rng: DeterministicRNG,
        resources: Optional[ResourceSet] = None,
        not_before: float = 0.0,
        not_after: float = DEFAULT_VALIDITY * 10,
        key_bits: int = DEFAULT_KEY_BITS,
    ) -> "CertificateAuthority":
        """Create a self-signed root CA (an RIR trust anchor)."""
        if resources is None:
            resources = ResourceSet.all_resources()
        keypair = generate_keypair(rng.fork(f"ta-key:{name}"), bits=key_bits)
        certificate = _sign_certificate(
            subject=name,
            serial=0,
            public_key=keypair.public,
            resources=resources,
            not_before=not_before,
            not_after=not_after,
            issuer_fingerprint=keypair.public.fingerprint(),
            is_ca=True,
            issuer_keypair=keypair,
        )
        return cls(name, keypair, certificate, rng.fork(f"ta:{name}"), key_bits)

    def issue_child_ca(
        self,
        name: str,
        resources: ResourceSet,
        not_before: Optional[float] = None,
        not_after: Optional[float] = None,
    ) -> "CertificateAuthority":
        """Delegate ``resources`` to a new child CA.

        Raises :class:`IssuanceError` when the resources are not a
        subset of this CA's holdings (a well-behaved CA never
        over-claims on purpose; the validator still checks).
        """
        if not self.certificate.resources.covers(resources):
            raise IssuanceError(
                f"{self.name} does not hold all of {resources} "
                f"requested by child {name!r}"
            )
        keypair = generate_keypair(
            self._rng.fork(f"ca-key:{name}"), bits=self._key_bits
        )
        certificate = _sign_certificate(
            subject=name,
            serial=next(self._serials),
            public_key=keypair.public,
            resources=resources,
            not_before=self.certificate.not_before if not_before is None else not_before,
            not_after=self.certificate.not_after if not_after is None else not_after,
            issuer_fingerprint=self.keypair.public.fingerprint(),
            is_ca=True,
            issuer_keypair=self.keypair,
        )
        child = CertificateAuthority(
            name, keypair, certificate, self._rng.fork(f"ca:{name}"), self._key_bits
        )
        self.children.append(child)
        return child

    def issue_ee_certificate(
        self,
        subject: str,
        resources: ResourceSet,
        not_before: Optional[float] = None,
        not_after: Optional[float] = None,
        enforce_coverage: bool = True,
    ) -> Tuple[ResourceCertificate, KeyPair]:
        """Issue a one-time end-entity certificate and its key pair.

        ``enforce_coverage=False`` lets tests create deliberately
        over-claiming certificates that the validator must reject.
        """
        if enforce_coverage and not self.certificate.resources.covers(resources):
            raise IssuanceError(
                f"{self.name} does not hold all of {resources} "
                f"for EE certificate {subject!r}"
            )
        keypair = generate_keypair(
            self._rng.fork(f"ee-key:{subject}:{self._peek_serial()}"),
            bits=self._key_bits,
        )
        certificate = _sign_certificate(
            subject=subject,
            serial=next(self._serials),
            public_key=keypair.public,
            resources=resources,
            not_before=self.certificate.not_before if not_before is None else not_before,
            not_after=self.certificate.not_after if not_after is None else not_after,
            issuer_fingerprint=self.keypair.public.fingerprint(),
            is_ca=False,
            issuer_keypair=self.keypair,
        )
        return certificate, keypair

    def rollover_child(self, child: "CertificateAuthority") -> ResourceCertificate:
        """Start a staged key rollover for ``child`` (RFC 6489 step 1).

        Mints a fresh key pair for the child, re-signs its certificate
        (same subject, same resources, new serial) under this CA, and
        swaps the child's key pair and certificate in place.  The
        superseded certificate is *returned, not revoked*: a staged
        rollover keeps both keys valid while the child re-signs its
        products under the new key; the caller revokes the old serial
        (and withdraws the old publication point) once that completes.
        """
        if child not in self.children:
            raise IssuanceError(
                f"{child.name!r} is not a child of {self.name!r}"
            )
        old_certificate = child.certificate
        keypair = generate_keypair(
            self._rng.fork(
                f"ca-rollover:{child.name}:{old_certificate.serial}"
            ),
            bits=self._key_bits,
        )
        child.keypair = keypair
        child.certificate = _sign_certificate(
            subject=child.name,
            serial=next(self._serials),
            public_key=keypair.public,
            resources=old_certificate.resources,
            not_before=old_certificate.not_before,
            not_after=old_certificate.not_after,
            issuer_fingerprint=self.keypair.public.fingerprint(),
            is_ca=True,
            issuer_keypair=self.keypair,
        )
        return old_certificate

    def _peek_serial(self) -> int:
        # itertools.count has no peek; a fork label only needs to be unique
        # per issuance, so draw a label from the CA's own RNG instead.
        return self._rng.getrandbits(32)

    # -- revocation ------------------------------------------------------

    def revoke(self, serial: int) -> None:
        """Add a serial to this CA's revocation set."""
        self.revoked_serials.add(serial)

    def __repr__(self) -> str:
        return f"<CertificateAuthority {self.name!r}>"
