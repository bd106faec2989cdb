"""Tests for the DNSSEC substrate and adoption model."""

import dataclasses

import pytest

from repro.crypto import DeterministicRNG, generate_keypair
from repro.dns import Namespace
from repro.dns.dnssec import (
    DNSKEYRecord,
    DSRecord,
    SecurityStatus,
    SignedZone,
    ValidatingResolver,
    ZoneTree,
)
from repro.dns.dnssec.records import rrset_digest
from repro.web.alexa import AlexaRanking
from repro.web.dnssec_adoption import (
    DnssecAdoptionModel,
    DnssecConfig,
    rrset_for_validation,
)


@pytest.fixture()
def tree():
    tree = ZoneTree(DeterministicRNG(1))
    tree.add_zone("com", signed=True)
    tree.add_zone("example.com", signed=True)
    tree.add_zone("org", signed=True)
    tree.add_zone("legacy.org", signed=False)
    return tree


class TestZoneTree:
    def test_root_is_signed(self, tree):
        assert tree.root.signed
        assert tree.root.name == ""

    def test_parent_names(self):
        assert ZoneTree.parent_name("example.com") == "com"
        assert ZoneTree.parent_name("com") == ""
        assert ZoneTree.parent_name("") is None
        assert ZoneTree.parent_name("co.uk") == "uk"

    def test_chain_to(self, tree):
        chain = tree.chain_to("example.com")
        assert [z.name for z in chain] == ["", "com", "example.com"]

    def test_authoritative_zone_walks_up(self, tree):
        assert tree.authoritative_zone("www.example.com").name == "example.com"
        assert tree.authoritative_zone("unknown.net").name == ""

    def test_duplicate_and_orphan_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.add_zone("com", signed=True)
        with pytest.raises(ValueError):
            tree.add_zone("a.b.missing", signed=True)

    def test_ds_published_for_signed_children(self, tree):
        com = tree.zone("com")
        assert "example.com" in com.ds_records
        org = tree.zone("org")
        assert "legacy.org" not in org.ds_records  # unsigned child

    def test_unsigned_zone_cannot_sign(self, tree):
        legacy = tree.zone("legacy.org")
        with pytest.raises(ValueError):
            legacy.sign_rrset("www.legacy.org", ["a record"])
        with pytest.raises(ValueError):
            legacy.publish_ds(tree.zone("com").dnskey())


class TestValidation:
    def test_secure_answer(self, tree):
        zone = tree.zone("example.com")
        records = ["www.example.com A 192.0.2.1"]
        zone.sign_rrset("www.example.com", records)
        resolver = ValidatingResolver(tree)
        assert resolver.validate("www.example.com", records) is (
            SecurityStatus.SECURE
        )

    def test_insecure_below_unsigned_delegation(self, tree):
        resolver = ValidatingResolver(tree)
        status = resolver.validate("www.legacy.org", ["whatever"])
        assert status is SecurityStatus.INSECURE

    def test_bogus_on_tampered_rrset(self, tree):
        zone = tree.zone("example.com")
        zone.sign_rrset("www.example.com", ["www.example.com A 192.0.2.1"])
        resolver = ValidatingResolver(tree)
        status = resolver.validate(
            "www.example.com", ["www.example.com A 6.6.6.6"]
        )
        assert status is SecurityStatus.BOGUS

    def test_bogus_on_missing_rrsig_in_secure_zone(self, tree):
        resolver = ValidatingResolver(tree)
        status = resolver.validate("unsigned.example.com", ["x"])
        assert status is SecurityStatus.BOGUS

    def test_bogus_on_ds_mismatch(self, tree):
        # Swap the child key after the parent published its DS.
        zone = tree.zone("example.com")
        zone.keypair = generate_keypair(DeterministicRNG(999), bits=512)
        records = ["www.example.com A 192.0.2.1"]
        zone.sign_rrset("www.example.com", records)
        resolver = ValidatingResolver(tree)
        assert resolver.validate("www.example.com", records) is (
            SecurityStatus.BOGUS
        )

    def test_bogus_on_wrong_trust_anchor(self, tree):
        wrong = generate_keypair(DeterministicRNG(5), bits=512).public
        resolver = ValidatingResolver(tree, trust_anchor=wrong)
        status, _zone = resolver.authenticate_zone("com")
        assert status is SecurityStatus.BOGUS

    def test_island_of_security_is_insecure(self, tree):
        # legacy.org (unsigned) delegates a *signed* grandchild: no DS
        # chain can reach it.
        tree.add_zone("island.legacy.org", signed=True)
        zone = tree.zone("island.legacy.org")
        records = ["www.island.legacy.org A 192.0.2.1"]
        zone.sign_rrset("www.island.legacy.org", records)
        resolver = ValidatingResolver(tree)
        assert resolver.validate("www.island.legacy.org", records) is (
            SecurityStatus.INSECURE
        )

    def test_downgrade_ds_present_child_unsigned_is_bogus(self, tree):
        com = tree.zone("com")
        # Parent has a DS for shop.com, but the served child is unsigned
        # (e.g. an attacker stripped DNSSEC).
        ghost_key = DNSKEYRecord(
            zone="shop.com",
            public_key=generate_keypair(DeterministicRNG(8), bits=512).public,
        )
        com.publish_ds(ghost_key)
        tree.add_zone("shop.com", signed=False)
        resolver = ValidatingResolver(tree)
        status, _ = resolver.authenticate_zone("shop.com")
        assert status is SecurityStatus.BOGUS


class TestRecords:
    def test_ds_binding(self):
        key = generate_keypair(DeterministicRNG(2), bits=512)
        dnskey = DNSKEYRecord(zone="x.com", public_key=key.public)
        ds = DSRecord.for_key(dnskey)
        assert ds.matches(dnskey)
        other = DNSKEYRecord(
            zone="x.com",
            public_key=generate_keypair(DeterministicRNG(3), bits=512).public,
        )
        assert not ds.matches(other)
        # Same key under a different zone name must not match either.
        renamed = DNSKEYRecord(zone="y.com", public_key=key.public)
        assert not ds.matches(renamed)

    def test_rrset_digest_order_insensitive(self):
        a = rrset_digest("x.com", ("r1", "r2"))
        b = rrset_digest("x.com", ("r2", "r1"))
        assert a == b
        assert rrset_digest("x.com", ("r1",)) != a
        assert rrset_digest("y.com", ("r1", "r2")) != a


class TestAdoptionModel:
    @pytest.fixture(scope="class")
    def deployment(self):
        rng = DeterministicRNG(77)
        ranking = AlexaRanking.generate(400, rng)
        namespace = Namespace()
        for domain in ranking:
            namespace.add_address(domain.name, "8.8.8.8")
            namespace.add_cname(domain.www_name, domain.name)
        model = DnssecAdoptionModel(DnssecConfig(base_adoption=0.05), rng)
        return ranking, namespace, model.build(ranking, namespace)

    def test_every_domain_has_a_zone(self, deployment):
        ranking, _namespace, built = deployment
        for domain in ranking:
            assert built.tree.zone(domain.name) is not None

    def test_some_domains_sign(self, deployment):
        _ranking, _namespace, built = deployment
        signed = sum(1 for s in built.signed_domains.values() if s)
        assert 0 < signed < len(built.signed_domains)

    def test_signed_domains_validate_secure(self, deployment):
        ranking, namespace, built = deployment
        checked = 0
        for domain in ranking:
            records = rrset_for_validation(namespace, domain.name)
            status = built.status_for(domain.name, records)
            if built.signed_domains[domain.name]:
                assert status is SecurityStatus.SECURE
                checked += 1
            else:
                assert status is SecurityStatus.INSECURE
        assert checked > 0

    def test_tampered_answer_goes_bogus(self, deployment):
        ranking, namespace, built = deployment
        victim = next(
            d for d in ranking if built.signed_domains[d.name]
        )
        status = built.status_for(victim.name, ["spoofed A 6.6.6.6"])
        assert status is SecurityStatus.BOGUS

    def test_tld_boost_raises_adoption(self):
        config = DnssecConfig(base_adoption=0.02)
        assert config.adoption_for("se") > config.adoption_for("com")
        assert config.adoption_for("se") <= 0.9
