"""Resource Public Key Infrastructure (RPKI) substrate.

Implements the machinery of RFC 6480 and friends that the paper's
measurement step (4) depends on:

* RFC 3779-style number-resource sets on certificates
  (:mod:`repro.rpki.resources`),
* resource certificates and CA hierarchies (:mod:`repro.rpki.cert`),
* Route Origin Authorizations with embedded EE certificates,
  RFC 6482 (:mod:`repro.rpki.roa`),
* CRLs and manifests (:mod:`repro.rpki.crl`,
  :mod:`repro.rpki.manifest`),
* publication points and repositories (:mod:`repro.rpki.repository`),
* trust anchor locators (:mod:`repro.rpki.tal`),
* a relying-party validator that cryptographically validates the tree
  and emits Validated ROA Payloads (:mod:`repro.rpki.validator`),
* RFC 6811 prefix origin validation (:mod:`repro.rpki.vrp`).
"""

from repro.errors import ReproError
from repro.rpki.cert import CertificateAuthority, ResourceCertificate
from repro.rpki.crl import CertificateRevocationList
from repro.rpki.errors import RPKIError
from repro.rpki.manifest import Manifest
from repro.rpki.repository import PublicationPoint, Repository
from repro.rpki.resources import ASNRange, ResourceSet
from repro.rpki.roa import ROA, ROAPrefix
from repro.rpki.tal import TrustAnchorLocator
from repro.rpki.validator import RelyingParty, ValidationReport
from repro.rpki.vrp import VRP, OriginValidation, ValidatedPayloads

__all__ = [
    "ASNRange",
    "CertificateAuthority",
    "CertificateRevocationList",
    "Manifest",
    "OriginValidation",
    "PublicationPoint",
    "ROA",
    "ROAPrefix",
    "RPKIError",
    "ReproError",
    "RelyingParty",
    "Repository",
    "ResourceCertificate",
    "ResourceSet",
    "TrustAnchorLocator",
    "VRP",
    "ValidatedPayloads",
    "ValidationReport",
]
