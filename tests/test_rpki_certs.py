"""Unit tests for CA hierarchy, ROAs, CRLs, manifests, repositories."""

import pytest

from repro.crypto import DeterministicRNG
from repro.net import Prefix
from repro.rpki import CertificateAuthority, ResourceSet, TrustAnchorLocator
from repro.rpki.crl import issue_crl
from repro.rpki.errors import IssuanceError
from repro.rpki.manifest import issue_manifest
from repro.rpki.repository import (
    Repository,
    certificate_hash,
    publish_ca_products,
)
from repro.rpki.roa import ROAPrefix, issue_roa


@pytest.fixture()
def root():
    return CertificateAuthority.create_trust_anchor("RIPE", DeterministicRNG(1))


class TestCertificateAuthority:
    def test_trust_anchor_self_signed(self, root):
        cert = root.certificate
        assert cert.is_self_signed()
        assert cert.verify_signature(cert.public_key)
        assert cert.is_ca

    def test_issue_child_ca(self, root):
        child = root.issue_child_ca(
            "LIR-1", ResourceSet.from_strings(prefixes=["10.0.0.0/8"], asns=[64500])
        )
        assert child.certificate.verify_signature(root.keypair.public)
        assert child.certificate.issuer_fingerprint == root.keypair.public.fingerprint()
        assert child in root.children

    def test_issue_refuses_overclaim_from_child(self, root):
        child = root.issue_child_ca(
            "LIR-1", ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        )
        with pytest.raises(IssuanceError):
            child.issue_child_ca(
                "grandchild", ResourceSet.from_strings(prefixes=["11.0.0.0/8"])
            )

    def test_nested_delegation(self, root):
        lir = root.issue_child_ca(
            "LIR", ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        )
        org = lir.issue_child_ca(
            "ORG", ResourceSet.from_strings(prefixes=["10.5.0.0/16"])
        )
        assert org.certificate.verify_signature(lir.keypair.public)

    def test_serials_increase(self, root):
        a = root.issue_child_ca("A", ResourceSet.from_strings(prefixes=["10.0.0.0/8"]))
        b = root.issue_child_ca("B", ResourceSet.from_strings(prefixes=["11.0.0.0/8"]))
        assert b.certificate.serial > a.certificate.serial

    def test_tampered_certificate_fails_verification(self, root):
        import dataclasses

        child = root.issue_child_ca(
            "LIR", ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        )
        tampered = dataclasses.replace(child.certificate, subject="EVIL")
        assert not tampered.verify_signature(root.keypair.public)

    def test_validity_window(self, root):
        cert = root.certificate
        assert cert.valid_at(cert.not_before)
        assert cert.valid_at(cert.not_after)
        assert not cert.valid_at(cert.not_after + 1)
        assert not cert.valid_at(cert.not_before - 1)


class TestROA:
    def test_issue_and_verify(self, root):
        roa = issue_roa(root, 64500, ["10.0.0.0/16", ("10.1.0.0/16", 24)])
        assert roa.verify_payload_signature()
        assert roa.as_id == 64500
        assert roa.prefixes[0].max_length == 16  # default = prefix length
        assert roa.prefixes[1].max_length == 24
        assert not roa.ee_certificate.is_ca
        assert roa.ee_certificate.verify_signature(root.keypair.public)

    def test_bare_prefix_object_is_not_the_pair_form(self, root):
        # A Prefix is a tuple; issue_roa must not read it as (prefix, maxLength).
        prefix = Prefix.parse("10.0.0.0/16")
        roa = issue_roa(root, 64500, [prefix])
        assert roa.prefixes == (ROAPrefix(prefix, 16),)

    def test_ee_resources_equal_roa_prefixes(self, root):
        roa = issue_roa(root, 64500, ["10.0.0.0/16"])
        assert roa.ee_certificate.resources.covers(roa.prefix_resources())

    def test_foreign_asn_allowed(self, root):
        lir = root.issue_child_ca(
            "LIR", ResourceSet.from_strings(prefixes=["10.0.0.0/8"], asns=[1])
        )
        # Authorizing an AS the CA does not hold is legitimate (Section 5.2).
        roa = issue_roa(lir, 99999, ["10.0.0.0/16"])
        assert roa.verify_payload_signature()

    def test_prefix_coverage_enforced(self, root):
        lir = root.issue_child_ca(
            "LIR", ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        )
        with pytest.raises(IssuanceError):
            issue_roa(lir, 64500, ["192.0.2.0/24"])
        # ... unless explicitly disabled for negative tests.
        bad = issue_roa(lir, 64500, ["192.0.2.0/24"], enforce_coverage=False)
        assert bad.verify_payload_signature()

    def test_empty_roa_rejected(self, root):
        with pytest.raises(IssuanceError):
            issue_roa(root, 64500, [])

    def test_roaprefix_maxlength_bounds(self):
        with pytest.raises(ValueError):
            ROAPrefix.make("10.0.0.0/16", 8)
        with pytest.raises(ValueError):
            ROAPrefix.make("10.0.0.0/16", 33)
        entry = ROAPrefix.make("2001:db8::/32", 48)
        assert entry.max_length == 48

    def test_object_hash_changes_with_signature(self, root):
        import dataclasses

        roa = issue_roa(root, 64500, ["10.0.0.0/16"])
        forged = dataclasses.replace(roa, signature=roa.signature + 1)
        assert roa.object_hash() != forged.object_hash()


class TestCRL:
    def test_crl_lists_revocations(self, root):
        child = root.issue_child_ca(
            "LIR", ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        )
        root.revoke(child.certificate.serial)
        crl = issue_crl(root)
        assert crl.is_revoked(child.certificate.serial)
        assert not crl.is_revoked(9999)
        assert crl.verify_signature(root.keypair.public)

    def test_crl_freshness(self, root):
        crl = issue_crl(root, this_update=10.0, next_update=20.0)
        assert crl.is_current(15.0)
        assert not crl.is_current(25.0)
        assert not crl.is_current(5.0)

    def test_tampered_crl_fails(self, root):
        import dataclasses

        crl = issue_crl(root)
        tampered = dataclasses.replace(crl, revoked_serials=frozenset({1, 2}))
        assert not tampered.verify_signature(root.keypair.public)


class TestManifest:
    def test_manifest_lists_hashes(self, root):
        manifest = issue_manifest(root, {"a.roa": "00ff", "crl.crl": "abcd"})
        assert manifest.listed_hash("a.roa") == "00ff"
        assert manifest.listed_hash("missing") is None
        assert manifest.verify_signature(root.keypair.public)
        assert dict(manifest.entries) == {"a.roa": "00ff", "crl.crl": "abcd"}

    def test_tampered_manifest_fails(self, root):
        import dataclasses

        manifest = issue_manifest(root, {"a.roa": "00ff"})
        tampered = dataclasses.replace(manifest, entries=(("a.roa", "ffff"),))
        assert not tampered.verify_signature(root.keypair.public)


class TestRepository:
    def test_publish_ca_products(self, root):
        lir = root.issue_child_ca(
            "LIR", ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        )
        roa = issue_roa(root, 64500, ["11.0.0.0/16"])
        repo = Repository()
        repo.add_trust_anchor(root.certificate)
        point = publish_ca_products(repo, root, [roa])
        assert "LIR.cer" in point.child_certificates
        assert any(name.startswith("roa-64500") for name in point.roas)
        assert point.crl is not None
        assert point.manifest is not None
        # Manifest covers every published object plus the CRL.
        hashes = point.object_hashes()
        assert dict(point.manifest.entries) == hashes
        assert "crl.crl" in hashes
        assert len(point.roas) == 1
        assert len(repo) == 1

    def test_point_for_is_idempotent(self):
        repo = Repository()
        assert repo.point_for("abc") is repo.point_for("abc")
        assert repo.lookup("missing") is None

    def test_remove_object(self, root):
        repo = Repository()
        point = publish_ca_products(repo, root, [issue_roa(root, 1, ["10.0.0.0/16"])])
        name = next(iter(point.roas))
        assert point.remove(name)
        assert not point.remove(name)
        assert not point.remove("nothing")

    def test_certificate_hash_sensitive(self, root):
        import dataclasses

        cert = root.certificate
        forged = dataclasses.replace(cert, subject="other")
        assert certificate_hash(cert) != certificate_hash(forged)


class TestTAL:
    def test_tal_matches_only_its_anchor(self, root):
        other = CertificateAuthority.create_trust_anchor(
            "ARIN", DeterministicRNG(2)
        )
        tal = TrustAnchorLocator.for_authority(root)
        assert tal.matches(root.certificate)
        assert not tal.matches(other.certificate)
        assert tal.fingerprint() == root.keypair.public.fingerprint()
