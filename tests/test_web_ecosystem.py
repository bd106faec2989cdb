"""Integration tests over the assembled synthetic world."""

import pytest

from repro.bgp import ASRole
from repro.dns import RecursiveResolver
from repro.net import is_special_purpose
from repro.web import EcosystemConfig, HTTPArchiveClassifier, WebEcosystem
from repro.web.cdn import CDN_CATALOGUE
from repro.web.hosting import CHAIN_FULL, CHAIN_SHORT
from repro.web.organisations import OrgKind


class TestWorldShape:
    def test_domain_count(self, small_world):
        assert len(small_world.ranking) == 2000

    def test_cdn_as_count_matches_paper(self, small_world):
        cdn_ases = small_world.topology.by_role(ASRole.CDN)
        assert len(cdn_ases) == 199

    def test_all_roles_present(self, small_world):
        for role in (ASRole.TIER1, ASRole.TRANSIT, ASRole.EYEBALL,
                     ASRole.HOSTER, ASRole.CDN):
            assert small_world.topology.by_role(role)

    def test_deterministic_rebuild(self):
        a = WebEcosystem.build(EcosystemConfig(domain_count=200, seed=9))
        b = WebEcosystem.build(EcosystemConfig(domain_count=200, seed=9))
        assert [d.name for d in a.ranking] == [d.name for d in b.ranking]
        assert len(a.table_dump) == len(b.table_dump)
        assert len(a.adoption.payloads) == len(b.adoption.payloads)

    def test_org_of_asn(self, small_world):
        org = small_world.organisations[0]
        assert small_world.org_of_asn(org.asns[0]) is org
        assert small_world.org_of_asn(1) is None


class TestBGPPlane:
    def test_prefixes_visible_at_collector(self, small_world):
        dump = small_world.table_dump
        announced = {a.prefix for a in small_world.announcements}
        assert dump.prefixes() == announced

    def test_dark_prefixes_not_in_dump(self, small_world):
        for dark in small_world.dark_prefixes:
            assert not small_world.table_dump.covering_entries(dark)

    def test_some_as_set_rows_exist(self, small_world):
        assert any(entry.has_as_set for entry in small_world.table_dump)

    def test_origin_matches_owner(self, small_world):
        org = next(
            o for o in small_world.organisations if o.kind is OrgKind.HOSTER
        )
        prefix = org.prefix_list()[0]
        origins = {
            entry.origin for entry in small_world.table_dump
            if entry.prefix == prefix and not entry.has_as_set
        }
        if origins:  # empty if this row happens to be an AS_SET aggregate
            assert origins == {org.prefixes[prefix]}


class TestRPKIPlane:
    def test_validation_clean(self, small_world):
        assert small_world.adoption.report.rejected_count == 0

    def test_internap_vrps(self, small_world):
        internap = next(
            o for o in small_world.organisations if o.name == "Internap"
        )
        vrps = [
            v for v in small_world.payloads()
            if v.prefix in internap.prefixes
        ]
        assert len(vrps) == 4
        assert len({v.asn for v in vrps}) == 3

    def test_no_other_cdn_signs(self, small_world):
        cdn_names = {op.name for op in CDN_CATALOGUE}
        signing_cdns = small_world.adoption.signing_orgs & cdn_names
        assert signing_cdns == {"Internap"}

    def test_some_hosters_sign(self, small_world):
        hosters = {
            o.name for o in small_world.organisations
            if o.kind in (OrgKind.HOSTER, OrgKind.EYEBALL)
        }
        assert small_world.adoption.signing_orgs & hosters

    def test_five_tals(self, small_world):
        assert len(small_world.tals()) == 5


class TestDNSPlane:
    def test_every_domain_resolvable(self, small_world):
        resolver = small_world.resolvers()[0]
        misses = 0
        for domain in small_world.ranking.top(300):
            answer = resolver.resolve(domain.www_name)
            hosting = small_world.hosting.ground_truth[domain.name]
            if not answer.addresses:
                misses += 1
            elif hosting.invalid_dns:
                assert all(is_special_purpose(a) for a in answer.addresses)
        assert misses == 0

    def test_cdn_domains_have_expected_chain_length(self, small_world):
        resolver = small_world.resolvers()[0]
        for domain in small_world.ranking.top(500):
            hosting = small_world.hosting.ground_truth[domain.name]
            answer = resolver.resolve(domain.www_name)
            if hosting.chain_style == CHAIN_FULL:
                assert answer.cname_count == 2
            elif hosting.chain_style == CHAIN_SHORT:
                assert answer.cname_count == 1

    def test_three_resolvers_agree_on_noncdn(self, small_world):
        resolvers = small_world.resolvers()
        checked = 0
        for domain in small_world.ranking.top(200):
            hosting = small_world.hosting.ground_truth[domain.name]
            if hosting.uses_cdn:
                continue
            answers = [r.resolve(domain.name).addresses for r in resolvers]
            assert answers[0] == answers[1] == answers[2]
            checked += 1
        assert checked > 100


class TestHTTPArchive:
    def test_classifier_agrees_with_ground_truth(self, small_world):
        classifier = HTTPArchiveClassifier(small_world.namespace)
        hits, misses, false_positives = 0, 0, 0
        for domain in small_world.ranking:
            truth = small_world.hosting.ground_truth[domain.name]
            verdict = classifier.classify(domain)
            if truth.uses_cdn and verdict == truth.cdn_operator:
                hits += 1
            elif truth.uses_cdn:
                misses += 1
            elif verdict is not None:
                false_positives += 1
        assert false_positives == 0
        assert misses == 0  # pattern matching catches short chains too
        assert hits > 0

    def test_coverage_window(self, small_world):
        classifier = HTTPArchiveClassifier(small_world.namespace, coverage=10)
        beyond = small_world.ranking.domain_at_rank(11)
        assert classifier.classify(beyond) is None
