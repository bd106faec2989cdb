"""Domain hosting model: how websites map onto the infrastructure.

For every ranked domain the model decides whether it is CDN-served
(popularity-dependent, reproducing Figure 3's shape), wires the DNS
records — including the CNAME chains the chain-length heuristic
counts — and records ground truth for later evaluation.

Key behaviours, each traceable to the paper:

* popular domains are more often CDN-served (Fig. 3),
* some CDN deployments use a single CNAME and are therefore invisible
  to the chain heuristic but visible to HTTPArchive (Section 4.3),
* a fraction of CDN caches lives in third-party eyeball networks,
  "inheriting" whatever RPKI those networks deploy (Section 4.2),
* www and w/o-www forms mostly share prefixes, less so for popular
  CDN-heavy ranks (Fig. 1),
* a tiny share of DNS answers is invalid (special-purpose addresses)
  and a tiny share of addresses is unreachable in BGP (Section 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import DeterministicRNG
from repro.dns import Namespace
from repro.net import Address, Prefix
from repro.web.alexa import AlexaRanking, Domain
from repro.web.cdn import CDN_CATALOGUE, CDNOperator, market_weights
from repro.web.organisations import Organisation, OrgKind

# Chain styles, by number of CNAME indirections to the cache.
CHAIN_FULL = "full"      # www.d -> edge -> cache (2 CNAMEs)
CHAIN_SHORT = "short"    # www.d -> cache (1 CNAME)
CHAIN_NONE = "none"      # not CDN-served

_SPECIAL_ANSWERS = [
    Address.parse(text)
    for text in ("127.0.0.1", "10.13.37.1", "192.168.0.10", "0.0.0.0")
]


@dataclass
class HostingConfig:
    """Knobs of the hosting model (defaults calibrated to the paper)."""

    cdn_top_share: float = 0.32       # CDN probability at rank 1
    cdn_bottom_share: float = 0.04    # ... and at the last rank
    cdn_decay: float = 5.0            # exponential decay in rank fraction
    cdn_chainless_fraction: float = 0.22
    cdn_apex_same_fraction: float = 0.35  # apex follows the CDN chain too
    cdn_origin_in_cloud: float = 0.9      # apex origin inside CDN-owned space
    noncdn_www_same: float = 0.96
    third_party_cache_fraction: float = 0.12
    domains_per_cache: float = 5.0    # cache-fleet sizing per operator
    invalid_dns_fraction: float = 0.0007
    unreachable_fraction: float = 0.0001
    ipv6_fraction: float = 0.05
    vantage_divergence: float = 0.3   # CDN answers differing per vantage
    popular_head_fraction: float = 0.01  # multi-homed prominent sites
    # Distribution of A-record counts per name (mean ~1.17, Section 4).
    address_count_weights: Tuple[float, ...] = (0.87, 0.10, 0.03)

    def cdn_probability(self, rank: int, total: int) -> float:
        """Popularity-dependent CDN adoption, Figure 3's shape."""
        fraction = (rank - 1) / max(total - 1, 1)
        spread = self.cdn_top_share - self.cdn_bottom_share
        return self.cdn_bottom_share + spread * math.exp(-self.cdn_decay * fraction)


@dataclass
class CDNCache:
    """One deployed CDN cache."""

    hostname: str
    operator: str
    addresses: List[Address]
    third_party: bool  # placed inside an eyeball ISP's prefix


@dataclass(slots=True)
class DomainHosting:
    """Ground truth for one domain."""

    domain: Domain
    cdn_operator: Optional[str] = None
    chain_style: str = CHAIN_NONE
    apex_on_cdn: bool = False
    invalid_dns: bool = False

    @property
    def uses_cdn(self) -> bool:
        return self.cdn_operator is not None


@dataclass
class HostingOutcome:
    """Everything the hosting model produced."""

    ground_truth: Dict[str, DomainHosting] = field(default_factory=dict)
    caches: Dict[str, List[CDNCache]] = field(default_factory=dict)


class HostingModel:
    """Assigns hosting and writes DNS records for a ranking."""

    def __init__(
        self,
        config: HostingConfig,
        rng: DeterministicRNG,
        organisations: Sequence[Organisation],
        dark_prefixes: Sequence[Prefix] = (),
    ):
        self._config = config
        self._rng = rng.fork("hosting")
        self._hosters = [o for o in organisations if o.kind is OrgKind.HOSTER]
        self._eyeballs = [o for o in organisations if o.kind is OrgKind.EYEBALL]
        self._cdns = [o for o in organisations if o.kind is OrgKind.CDN]
        self._dark_prefixes = list(dark_prefixes)
        self._available_operators: List[CDNOperator] = []
        self._available_weights: List[float] = []
        self._total = 0
        if not self._hosters:
            raise ValueError("hosting model needs at least one hoster org")

    # -- public API --------------------------------------------------------

    def build(
        self, ranking: AlexaRanking, namespace: Namespace
    ) -> HostingOutcome:
        outcome = HostingOutcome()
        outcome.caches = self._build_caches(namespace, len(ranking))
        operators, weights = market_weights()
        self._available_operators = [
            op for op in operators if outcome.caches.get(op.name)
        ]
        self._available_weights = [
            weights[index]
            for index, op in enumerate(operators)
            if outcome.caches.get(op.name)
        ]
        self._total = len(ranking)
        for domain in ranking:
            rng = self._rng.fork(f"domain:{domain.name}")
            self.wire_domain(domain, outcome, namespace, rng)
        return outcome

    def wire_domain(
        self,
        domain: Domain,
        outcome: HostingOutcome,
        namespace: Namespace,
        rng: DeterministicRNG,
    ) -> DomainHosting:
        """Assign hosting and write DNS records for one domain."""
        total = self._total
        popular_cutoff = max(
            1, int(total * self._config.popular_head_fraction)
        )
        hosting = DomainHosting(domain=domain)
        popular = domain.rank <= popular_cutoff
        if rng.random() < self._config.invalid_dns_fraction:
            hosting.invalid_dns = True
            self._wire_invalid(domain, namespace, rng)
        elif rng.random() < self._config.cdn_probability(domain.rank, total):
            operator = rng.weighted_choice(
                self._available_operators, self._available_weights
            )
            self._wire_cdn(
                domain, operator, outcome, namespace, rng, hosting, popular
            )
        else:
            self._wire_direct(domain, namespace, rng, hosting, popular=popular)
        outcome.ground_truth[domain.name] = hosting
        return hosting

    def rewire_domain(
        self,
        domain: Domain,
        outcome: HostingOutcome,
        namespace: Namespace,
        generation: int,
    ) -> DomainHosting:
        """Churn: tear a domain's records down and host it afresh.

        ``generation`` salts the per-domain RNG so each re-hosting
        draws a new (but still deterministic) assignment.
        """
        self.remove_domain_records(domain, namespace)
        rng = self._rng.fork(f"domain:{domain.name}:gen{generation}")
        return self.wire_domain(domain, outcome, namespace, rng)

    @staticmethod
    def remove_domain_records(domain: Domain, namespace: Namespace) -> int:
        """Remove the domain's own names (apex, www, CDN edge names)."""
        removed = namespace.remove_name(domain.name)
        removed += namespace.remove_name(domain.www_name)
        for operator in CDN_CATALOGUE:
            edge = f"{domain.name}.{operator.edge_suffix}"
            if namespace.exists(edge):
                removed += namespace.remove_name(edge)
        return removed

    # -- caches -------------------------------------------------------------

    def _build_caches(
        self, namespace: Namespace, population: int
    ) -> Dict[str, List[CDNCache]]:
        caches: Dict[str, List[CDNCache]] = {}
        cdn_orgs = {org.name: org for org in self._cdns}
        config = self._config
        # Expected CDN-served domains under the rank-dependent model
        # (closed form of the exponential decay).
        spread = config.cdn_top_share - config.cdn_bottom_share
        expected_cdn = population * (
            config.cdn_bottom_share
            + spread * (1 - math.exp(-config.cdn_decay)) / config.cdn_decay
        )
        total_share = sum(op.market_share for op in CDN_CATALOGUE)
        for operator in CDN_CATALOGUE:
            org = cdn_orgs.get(operator.name)
            if org is None or not org.prefixes:
                continue
            rng = self._rng.fork(f"caches:{operator.name}")
            own_prefixes = org.prefix_list()
            # Real CDNs run far more caches than customers-per-cache;
            # sizing to ~domains_per_cache keeps small worlds from
            # funnelling thousands of sites through a handful of
            # addresses (which would make Figure 4 lumpy).
            operator_domains = expected_cdn * operator.market_share / total_share
            count = max(4, round(operator_domains / config.domains_per_cache))
            pool: List[CDNCache] = []
            for index in range(count):
                third_party = (
                    bool(self._eyeballs)
                    and rng.random() < self._config.third_party_cache_fraction
                )
                if third_party:
                    eyeball = rng.choice(self._eyeballs)
                    prefix = rng.choice(eyeball.prefix_list())
                else:
                    prefix = rng.choice(own_prefixes)
                address = self._pick_address(prefix, rng)
                hostname = f"a{index}.g.{operator.cache_suffix}"
                cache = CDNCache(
                    hostname=hostname,
                    operator=operator.name,
                    addresses=[address],
                    third_party=third_party,
                )
                namespace.add_address(hostname, address)
                pool.append(cache)
            # Vantage-dependent answers: remote resolvers may be steered
            # to a different cache of the same operator.
            for index, cache in enumerate(pool):
                if rng.random() < self._config.vantage_divergence and len(pool) > 1:
                    other = pool[(index + 1) % len(pool)]
                    for vantage in ("us-east", "redwood-city"):
                        namespace.add_address(
                            cache.hostname, other.addresses[0], vantage=vantage
                        )
            caches[operator.name] = pool
        return caches

    # -- wiring --------------------------------------------------------------

    def _wire_invalid(
        self, domain: Domain, namespace: Namespace, rng: DeterministicRNG
    ) -> None:
        """A broken deployment answering with reserved addresses."""
        answer = rng.choice(_SPECIAL_ANSWERS)
        namespace.add_address(domain.name, answer)
        namespace.add_cname(domain.www_name, domain.name)

    def _wire_direct(
        self,
        domain: Domain,
        namespace: Namespace,
        rng: DeterministicRNG,
        hosting: DomainHosting,
        name: Optional[str] = None,
        popular: bool = False,
    ) -> None:
        """Conventional hosting at a webhoster or ISP."""
        name = name or domain.name
        addresses = self._hosting_addresses(rng, popular)
        for address in addresses:
            namespace.add_address(name, address)
        if name != domain.name:
            return  # only wiring an alternate form; www handled by caller
        if rng.random() < self._config.noncdn_www_same:
            if rng.random() < 0.7:
                namespace.add_cname(domain.www_name, domain.name)
            else:
                for address in addresses:
                    namespace.add_address(domain.www_name, address)
        else:
            self._wire_direct(
                domain, namespace, rng, hosting, domain.www_name, popular
            )

    def _wire_cdn(
        self,
        domain: Domain,
        operator: CDNOperator,
        outcome: HostingOutcome,
        namespace: Namespace,
        rng: DeterministicRNG,
        hosting: DomainHosting,
        popular: bool = False,
    ) -> None:
        cache = rng.choice(outcome.caches[operator.name])
        hosting.cdn_operator = operator.name
        chainless = rng.random() < self._config.cdn_chainless_fraction
        hosting.chain_style = CHAIN_SHORT if chainless else CHAIN_FULL
        edge_name = f"{domain.name}.{operator.edge_suffix}"
        if chainless:
            namespace.add_cname(domain.www_name, cache.hostname)
        else:
            namespace.add_cname(domain.www_name, edge_name)
            namespace.add_cname(edge_name, cache.hostname)
        if rng.random() < self._config.cdn_apex_same_fraction:
            # The apex rides the same chain (common with ALIAS-style records).
            hosting.apex_on_cdn = True
            target = cache.hostname if chainless else edge_name
            namespace.add_cname(domain.name, target)
        elif rng.random() < self._config.cdn_origin_in_cloud:
            # Apex points at origin servers inside the CDN company's own
            # cloud space (think CloudFront customers on EC2) — space the
            # CDNs do not sign, keeping CDN sites poorly covered (Fig. 4).
            org = next(o for o in self._cdns if o.name == operator.name)
            prefix = rng.choice(org.prefix_list())
            namespace.add_address(domain.name, self._pick_address(prefix, rng))
        else:
            # Apex points at the origin servers at a conventional hoster.
            for address in self._hosting_addresses(rng, popular):
                namespace.add_address(domain.name, address)

    # -- address selection ----------------------------------------------------

    def _hosting_addresses(
        self, rng: DeterministicRNG, popular: bool = False
    ) -> List[Address]:
        if popular:
            # Prominent properties are multi-homed across several
            # networks — this is what makes their coverage *partial*
            # (Table 1's "(1/3)" rows).
            counts, weights = [1, 2, 3, 4], (0.45, 0.30, 0.15, 0.10)
        else:
            counts = list(range(1, len(self._config.address_count_weights) + 1))
            weights = self._config.address_count_weights
        count = rng.weighted_choice(counts, weights)
        org = self._pick_host_org(rng)
        prefixes = org.prefix_list()
        addresses = []
        for _ in range(count):
            if popular and rng.random() < 0.5:
                org = self._pick_host_org(rng)
                prefixes = org.prefix_list()
            if (
                self._dark_prefixes
                and rng.random() < self._config.unreachable_fraction
            ):
                prefix = rng.choice(self._dark_prefixes)
            else:
                prefix = rng.choice(prefixes)
            addresses.append(self._pick_address(prefix, rng))
        if rng.random() < self._config.ipv6_fraction:
            v6_prefixes = [p for p in prefixes if p.family == 6]
            if v6_prefixes:
                addresses.append(self._pick_address(rng.choice(v6_prefixes), rng))
        return addresses

    def _pick_host_org(self, rng: DeterministicRNG) -> Organisation:
        if self._eyeballs and rng.random() < 0.15:
            return rng.choice(self._eyeballs)
        return rng.choice(self._hosters)

    @staticmethod
    def _pick_address(prefix: Prefix, rng: DeterministicRNG) -> Address:
        size = 1 << (prefix.bits - prefix.length)
        if size <= 2:
            return prefix.nth_address(0)
        # Cap the host part so huge IPv6 prefixes stay cheap.
        upper = min(size - 2, 1 << 20)
        return prefix.nth_address(rng.randint(1, upper))
