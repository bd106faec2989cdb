"""Tests for subdomain sharding (Section 5.3 extension)."""

import pytest

from repro.crypto import DeterministicRNG
from repro.dns import RecursiveResolver
from repro.web.subdomains import (
    ADS_LABEL,
    SubdomainConfig,
    SubdomainModel,
    SHARD_LABELS,
)


@pytest.fixture(scope="module")
def sharded(small_world):
    model = SubdomainModel(SubdomainConfig(), DeterministicRNG(5))
    return model.build(small_world)


class TestShardingShape:
    def test_some_domains_shard(self, sharded, small_world):
        count = sum(1 for subs in sharded.subdomains.values() if subs)
        assert 0 < count < len(small_world.ranking)

    def test_popular_domains_shard_more(self, sharded, small_world):
        total = len(small_world.ranking)
        head = [d.name for d in small_world.ranking.top(total // 5)]
        tail = [d.name for d in small_world.ranking][-total // 5:]
        head_share = sum(1 for n in head if sharded.subdomains[n]) / len(head)
        tail_share = sum(1 for n in tail if sharded.subdomains[n]) / len(tail)
        assert head_share > tail_share

    def test_labels_wellformed(self, sharded):
        allowed = set(SHARD_LABELS) | {ADS_LABEL}
        for parent, subs in sharded.subdomains.items():
            for fqdn in subs:
                label, _dot, rest = fqdn.partition(".")
                assert rest == parent
                assert label in allowed

    def test_ad_networks_created(self, sharded):
        assert len(sharded.ad_networks) == 3
        names = {n.name for n in sharded.ad_networks}
        assert len(names) == 3

    def test_ads_concentrate_on_few_networks(self, sharded):
        users = [
            len(sharded.domains_using_network(network))
            for network in sharded.ad_networks
        ]
        # Many domains, three networks: each serves a crowd.
        assert sum(users) == len(sharded.ad_network_of)
        assert max(users) > 10


class TestResolution:
    def test_content_shards_resolve_like_parent(self, sharded, small_world):
        resolver = RecursiveResolver(small_world.namespace)
        checked = 0
        for parent, subs in sharded.subdomains.items():
            for fqdn in subs:
                if fqdn.startswith(ADS_LABEL):
                    continue
                answer = resolver.resolve(fqdn)
                parent_answer = resolver.resolve(f"www.{parent}")
                assert answer.addresses == parent_answer.addresses
                checked += 1
                break
            if checked >= 25:
                break
        assert checked >= 25

    def test_ads_resolve_to_network_prefix(self, sharded, small_world):
        resolver = RecursiveResolver(small_world.namespace)
        checked = 0
        for parent, network in list(sharded.ad_network_of.items())[:25]:
            fqdn = sharded.ads_subdomain_of[parent]
            answer = resolver.resolve(fqdn)
            assert len(answer.addresses) == 1
            assert network.prefix.contains(answer.addresses[0])
            checked += 1
        assert checked > 0


class TestConfig:
    def test_shard_probability_declines(self):
        config = SubdomainConfig()
        assert config.shard_probability(1, 1000) == pytest.approx(0.5)
        assert config.shard_probability(1000, 1000) == pytest.approx(0.05)
        assert config.shard_probability(500, 1000) > config.shard_probability(
            900, 1000
        )
