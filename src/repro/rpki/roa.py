"""Route Origin Authorizations (RFC 6482).

A ROA binds one origin AS number to a list of prefixes, each with an
optional ``maxLength``.  The payload is signed with a one-time EE key
whose certificate covers exactly the ROA's prefixes; the EE
certificate travels with the ROA (as in the real CMS encoding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.crypto.digest import canonical_bytes, sha256_hex
from repro.crypto.rsa import sign, verify
from repro.net import ASN, Prefix
from repro.rpki.cert import CertificateAuthority, ResourceCertificate
from repro.rpki.errors import IssuanceError
from repro.rpki.resources import ResourceSet


@dataclass(frozen=True)
class ROAPrefix:
    """One prefix entry of a ROA, with its effective maxLength."""

    prefix: Prefix
    max_length: int

    def __post_init__(self):
        if not self.prefix.length <= self.max_length <= self.prefix.bits:
            raise ValueError(
                f"maxLength {self.max_length} outside "
                f"[{self.prefix.length}, {self.prefix.bits}] for {self.prefix}"
            )

    @classmethod
    def make(
        cls, prefix: Union[str, Prefix], max_length: Optional[int] = None
    ) -> "ROAPrefix":
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        # Absent maxLength means "exactly the prefix length" (RFC 6482).
        return cls(prefix, prefix.length if max_length is None else max_length)

    def __str__(self) -> str:
        return f"{self.prefix}-{self.max_length}"


@dataclass(frozen=True)
class ROA:
    """A signed Route Origin Authorization."""

    as_id: ASN
    prefixes: Tuple[ROAPrefix, ...]
    ee_certificate: ResourceCertificate
    signature: int

    def payload_bytes(self) -> bytes:
        """The signed ROA payload (eContent)."""
        return canonical_bytes(
            {
                "asID": int(self.as_id),
                "prefixes": [
                    [str(entry.prefix), entry.max_length] for entry in self.prefixes
                ],
                "ee": self.ee_certificate.fingerprint(),
            }
        )

    def object_hash(self) -> str:
        """Hash over the full object, for manifest listings."""
        blob = self.payload_bytes() + self.ee_certificate.tbs_bytes()
        blob += self.signature.to_bytes((self.signature.bit_length() + 7) // 8 or 1, "big")
        return sha256_hex(blob)

    def verify_payload_signature(self) -> bool:
        """Check the payload signature against the embedded EE key."""
        return verify(self.payload_bytes(), self.signature, self.ee_certificate.public_key)

    def prefix_resources(self) -> ResourceSet:
        """The resources the EE certificate must cover."""
        return ResourceSet(prefixes=[entry.prefix for entry in self.prefixes])

    def __repr__(self) -> str:
        entries = ", ".join(str(entry) for entry in self.prefixes)
        return f"<ROA {self.as_id} [{entries}]>"


def issue_roa(
    ca: CertificateAuthority,
    as_id: Union[int, ASN],
    prefixes: Sequence[Union[str, Prefix, ROAPrefix, Tuple[Union[str, Prefix], int]]],
    not_before: Optional[float] = None,
    not_after: Optional[float] = None,
    enforce_coverage: bool = True,
) -> ROA:
    """Issue a ROA under ``ca``.

    ``prefixes`` entries may be prefix literals, :class:`Prefix`
    objects, ``(prefix, max_length)`` pairs, or ready
    :class:`ROAPrefix` instances.  The authorized ``as_id`` does *not*
    need to be held by the CA — authorizing a foreign origin AS is
    exactly the business-relation disclosure the paper discusses in
    Section 5.2 — but the prefixes do.
    """
    entries = []
    for item in prefixes:
        if isinstance(item, ROAPrefix):
            entries.append(item)
        elif isinstance(item, tuple) and not isinstance(item, Prefix):
            # A bare Prefix is itself a tuple; only a pair is the pair form.
            entries.append(ROAPrefix.make(item[0], item[1]))
        else:
            entries.append(ROAPrefix.make(item))
    if not entries:
        raise IssuanceError("a ROA needs at least one prefix")

    resources = ResourceSet(prefixes=[entry.prefix for entry in entries])
    ee_cert, ee_key = ca.issue_ee_certificate(
        subject=f"ROA-EE:{ca.name}:AS{int(as_id)}",
        resources=resources,
        not_before=not_before,
        not_after=not_after,
        enforce_coverage=enforce_coverage,
    )
    unsigned = ROA(
        as_id=ASN(as_id),
        prefixes=tuple(entries),
        ee_certificate=ee_cert,
        signature=0,
    )
    signature = sign(unsigned.payload_bytes(), ee_key)
    return ROA(
        as_id=ASN(as_id),
        prefixes=tuple(entries),
        ee_certificate=ee_cert,
        signature=signature,
    )
