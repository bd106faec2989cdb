"""Subdomain sharding (paper Section 5.3).

"complexity is also greatly increased when considered the tendency to
shard content across multiple subdomains in a website ... a
commercially motivated attacker may explicitly target subdomains,
e.g. those hosting adverts."

This module extends a built world with sharded subdomains: popular
sites spread ``static``/``img``/``api`` content over extra hosts, and
embed adverts served by a small set of shared third-party ad
networks — which makes a single ad-network prefix a high-value
hijack target affecting many websites at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto import DeterministicRNG
from repro.net import ASN, Prefix
from repro.web.alexa import Domain
from repro.web.organisations import Organisation, OrgKind

SHARD_LABELS = ("static", "img", "api")
ADS_LABEL = "ads"


@dataclass
class SubdomainConfig:
    """Sharding knobs."""

    shard_top_share: float = 0.5     # probability at rank 1
    shard_bottom_share: float = 0.05
    ads_share: float = 0.8           # sharded sites that embed adverts
    ad_network_count: int = 3        # shared third-party ad networks

    def shard_probability(self, rank: int, total: int) -> float:
        fraction = (rank - 1) / max(total - 1, 1)
        spread = self.shard_top_share - self.shard_bottom_share
        return self.shard_top_share - spread * fraction


@dataclass
class AdNetwork:
    """One shared advert-delivery network."""

    name: str
    organisation: Organisation
    prefix: Prefix
    hostname: str


@dataclass
class SubdomainDeployment:
    """Ground truth of the sharded world."""

    subdomains: Dict[str, List[str]] = field(default_factory=dict)
    ads_subdomain_of: Dict[str, str] = field(default_factory=dict)
    ad_network_of: Dict[str, AdNetwork] = field(default_factory=dict)
    ad_networks: List[AdNetwork] = field(default_factory=list)

    def domains_using_network(self, network: AdNetwork) -> List[str]:
        return [
            domain
            for domain, used in self.ad_network_of.items()
            if used.name == network.name
        ]


class SubdomainModel:
    """Adds sharded subdomains and ad networks to a built world."""

    def __init__(self, config: SubdomainConfig, rng: DeterministicRNG):
        self._config = config
        self._rng = rng.fork("subdomains")

    def build(self, world) -> SubdomainDeployment:
        deployment = SubdomainDeployment()
        deployment.ad_networks = self._create_ad_networks(world)
        total = len(world.ranking)
        for domain in world.ranking:
            rng = self._rng.fork(f"shard:{domain.name}")
            deployment.subdomains[domain.name] = []
            if rng.random() >= self._config.shard_probability(domain.rank, total):
                continue
            self._shard_domain(domain, world, rng, deployment)
        return deployment

    # -- internals ---------------------------------------------------------

    def _create_ad_networks(self, world) -> List[AdNetwork]:
        """Designate hoster orgs as shared advert networks."""
        hosters = [
            org for org in world.organisations if org.kind is OrgKind.HOSTER
        ]
        networks: List[AdNetwork] = []
        for index in range(min(self._config.ad_network_count, len(hosters))):
            org = hosters[-(index + 1)]  # late hosters, stable choice
            prefix = org.prefix_list()[0]
            hostname = f"serve{index + 1}.adnet{index + 1}.example"
            address = prefix.nth_address(7 + index)
            world.namespace.add_address(hostname, address)
            networks.append(
                AdNetwork(
                    name=f"AdNet{index + 1}",
                    organisation=org,
                    prefix=prefix,
                    hostname=hostname,
                )
            )
        return networks

    def _shard_domain(
        self, domain: Domain, world, rng: DeterministicRNG, deployment
    ) -> None:
        hosting = world.hosting.ground_truth.get(domain.name)
        if hosting is not None and hosting.invalid_dns:
            return
        label_count = rng.randint(1, len(SHARD_LABELS))
        for label in rng.sample(SHARD_LABELS, label_count):
            fqdn = f"{label}.{domain.name}"
            # Content shards ride the site's existing infrastructure.
            world.namespace.add_cname(fqdn, domain.www_name)
            deployment.subdomains[domain.name].append(fqdn)
        if deployment.ad_networks and rng.random() < self._config.ads_share:
            fqdn = f"{ADS_LABEL}.{domain.name}"
            network = rng.choice(deployment.ad_networks)
            world.namespace.add_cname(fqdn, network.hostname)
            deployment.subdomains[domain.name].append(fqdn)
            deployment.ads_subdomain_of[domain.name] = fqdn
            deployment.ad_network_of[domain.name] = network
