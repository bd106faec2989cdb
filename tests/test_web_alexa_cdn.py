"""Tests for the Alexa generator and the CDN catalogue."""

import pytest

from repro.crypto import DeterministicRNG
from repro.web import AlexaRanking, CDN_CATALOGUE, total_cdn_ases
from repro.web.cdn import (
    catalogue_by_name,
    market_weights,
)


class TestAlexa:
    def test_generate_count_and_ranks(self):
        ranking = AlexaRanking.generate(500, DeterministicRNG(1))
        assert len(ranking) == 500
        assert ranking[0].rank == 1
        assert ranking[499].rank == 500
        assert ranking.domain_at_rank(42).rank == 42

    def test_names_unique_and_wellformed(self):
        ranking = AlexaRanking.generate(1000, DeterministicRNG(2))
        names = [d.name for d in ranking]
        assert len(set(names)) == 1000
        for name in names[:50]:
            assert "." in name
            assert name == name.lower()

    def test_www_name(self):
        ranking = AlexaRanking.generate(3, DeterministicRNG(3))
        domain = ranking[0]
        assert domain.www_name == f"www.{domain.name}"

    def test_deterministic(self):
        a = AlexaRanking.generate(100, DeterministicRNG(7))
        b = AlexaRanking.generate(100, DeterministicRNG(7))
        assert [d.name for d in a] == [d.name for d in b]

    def test_top(self):
        ranking = AlexaRanking.generate(100, DeterministicRNG(4))
        assert len(ranking.top(10)) == 10
        assert ranking.top(10)[0].rank == 1

    def test_tld_mix_dominated_by_com(self):
        ranking = AlexaRanking.generate(2000, DeterministicRNG(5))
        com = sum(1 for d in ranking if d.name.endswith(".com"))
        assert 0.35 < com / 2000 < 0.62


class TestCDNCatalogue:
    def test_sixteen_operators(self):
        assert len(CDN_CATALOGUE) == 16
        names = {op.name for op in CDN_CATALOGUE}
        # The operators named in Section 4.2.
        for expected in ("Akamai", "Amazon", "Cloudflare", "Internap",
                         "Limelight", "Edgecast", "Yottaa"):
            assert expected in names

    def test_paper_as_count(self):
        assert total_cdn_ases() == 199

    def test_internap_is_the_only_signer(self):
        signers = [op for op in CDN_CATALOGUE if op.signed_prefixes]
        assert [op.name for op in signers] == ["Internap"]
        internap = signers[0]
        assert internap.signed_prefixes == 4
        assert internap.signed_origin_ases == 3
        assert internap.as_count == 41  # "Internap operates at least 41 ASes"

    def test_suffixes_generated(self):
        akamai = catalogue_by_name()["Akamai"]
        assert akamai.edge_suffix == "akamai-edge.example"
        assert akamai.cache_suffix == "akamai-cache.example"
        assert akamai.keyword() == "AKAMAI"

    def test_market_weights_align(self):
        operators, weights = market_weights()
        assert len(operators) == len(weights) == 16
        assert all(w > 0 for w in weights)
