"""The assembled synthetic world.

:meth:`WebEcosystem.build` wires every substrate together:

1. generate the Alexa-style ranking,
2. create organisations (tier-1s, transits, eyeballs, hosters, and
   the sixteen-CDN catalogue) with AS numbers and address space,
3. build the AS topology with business relationships,
4. originate every organisation prefix in BGP (plus a sprinkle of
   deprecated AS_SET aggregates and a few never-announced "dark"
   prefixes),
5. run the RPKI adoption model and the relying-party validator,
6. run the hosting model to produce all DNS records,
7. propagate BGP and dump the collector tables.

The result object exposes everything the measurement pipeline (and
the experiments) need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp import (
    Announcement,
    ASRole,
    ASTopology,
    PropagationEngine,
    RouteCollector,
    TableDump,
)
from repro.crypto import DeterministicRNG
from repro.dns import Namespace, PublicResolver
from repro.dns.vantage import DEFAULT_RESOLVERS, make_resolvers
from repro.heap import collector_paused
from repro.net import ASN, Prefix
from repro.obs.runtime import tracer
from repro.web.adoption import AdoptionConfig, AdoptionModel, AdoptionOutcome
from repro.web.alexa import AlexaRanking
from repro.web.cdn import CDN_CATALOGUE
from repro.web.hosting import HostingConfig, HostingModel, HostingOutcome
from repro.web.organisations import (
    AddressAllocator,
    Organisation,
    OrgKind,
)

_ROLE_FOR_KIND = {
    OrgKind.TIER1: ASRole.TIER1,
    OrgKind.TRANSIT: ASRole.TRANSIT,
    OrgKind.EYEBALL: ASRole.EYEBALL,
    OrgKind.HOSTER: ASRole.HOSTER,
    OrgKind.CDN: ASRole.CDN,
}

# The first organisation's ASN; the rest count up from it.
FIRST_ASN = 1000

_RIR_WEIGHTS = [
    ("RIPE", 0.30),
    ("ARIN", 0.30),
    ("APNIC", 0.20),
    ("LACNIC", 0.12),
    ("AFRINIC", 0.08),
]


@dataclass
class EcosystemConfig:
    """All knobs of the synthetic world."""

    seed: int = 2015
    domain_count: int = 20_000
    # organisation counts; None means "scale with domain_count"
    tier1_count: int = 5
    transit_count: Optional[int] = None
    eyeball_count: Optional[int] = None
    hoster_count: Optional[int] = None
    include_cdns: bool = True
    # prefix behaviour
    v6_org_fraction: float = 0.25          # orgs that also get a /32 v6
    more_specific_fraction: float = 0.25   # announce an extra /24
    as_set_fraction: float = 0.004         # deprecated aggregates
    dark_prefix_count: int = 3             # allocated but never announced
    adoption: AdoptionConfig = field(default_factory=AdoptionConfig)
    hosting: HostingConfig = field(default_factory=HostingConfig)

    def scaled_transit(self) -> int:
        return self.transit_count or min(40, max(8, self.domain_count // 2500))

    def scaled_eyeballs(self) -> int:
        return self.eyeball_count or min(600, max(30, self.domain_count // 300))

    def scaled_hosters(self) -> int:
        # Dense enough that adoption statistics stabilise (many signing
        # orgs), capped to keep BGP propagation affordable at 1M scale.
        return self.hoster_count or min(1500, max(60, self.domain_count // 120))


class WebEcosystem:
    """The built world; construct via :meth:`build`."""

    def __init__(self):
        self.config: EcosystemConfig = EcosystemConfig()
        self.ranking: AlexaRanking = AlexaRanking([])
        self.organisations: List[Organisation] = []
        self.topology: ASTopology = ASTopology()
        self.announcements: List[Announcement] = []
        self.dark_prefixes: List[Prefix] = []
        self.namespace: Namespace = Namespace()
        self.adoption: Optional[AdoptionOutcome] = None
        self.hosting: Optional[HostingOutcome] = None
        self.hosting_model: Optional[HostingModel] = None
        self.table_dump: TableDump = TableDump()
        self.collector: Optional[RouteCollector] = None

    # -- construction --------------------------------------------------------

    @classmethod
    @collector_paused()
    def build(cls, config: Optional[EcosystemConfig] = None) -> "WebEcosystem":
        config = config or EcosystemConfig()
        world = cls()
        world.config = config
        rng = DeterministicRNG(config.seed)
        trace = tracer()

        # One span per stage, under the names the perf ledger gives
        # the same calls from outside.
        with trace.span(
            "web.ecosystem.build", domains=config.domain_count, seed=config.seed
        ):
            with trace.span("web.alexa.generate"):
                world.ranking = AlexaRanking.generate(config.domain_count, rng)
            world._build_organisations(rng)
            world._build_topology(rng)
            world._build_announcements(rng)

            adoption_model = AdoptionModel(config.adoption, rng)
            with trace.span("web.adoption.build"):
                world.adoption = adoption_model.build(world.organisations)

            world.hosting_model = HostingModel(
                config.hosting, rng, world.organisations, world.dark_prefixes
            )
            with trace.span("web.hosting.build"):
                world.hosting = world.hosting_model.build(
                    world.ranking, world.namespace
                )

            world._run_bgp()
        return world

    def rehost(self, fraction: float, generation: int = 1) -> List[str]:
        """Churn: re-host a deterministic sample of domains.

        Models the infrastructure drift between two measurement
        campaigns (the Fig. 1 side observation motivates exploiting
        www/apex equality "to accelerate continuous DNS
        measurements").  Returns the churned domain names.  BGP and
        RPKI are untouched — only the DNS mapping moves.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        rng = DeterministicRNG(self.config.seed).fork(f"churn:{generation}")
        count = int(len(self.ranking) * fraction)
        changed = rng.sample([d for d in self.ranking], count)
        for domain in changed:
            self.hosting_model.rewire_domain(
                domain, self.hosting, self.namespace, generation
            )
        return [domain.name for domain in changed]

    def _build_organisations(self, rng: DeterministicRNG) -> None:
        config = self.config
        allocator = AddressAllocator()
        org_rng = rng.fork("orgs")
        next_asn = FIRST_ASN

        rirs = [name for name, _w in _RIR_WEIGHTS]
        rir_weights = [w for _n, w in _RIR_WEIGHTS]

        def new_org(
            name: str,
            kind: OrgKind,
            as_count: int,
            prefixes_per_as: Tuple[int, int],
            prefix_length: Tuple[int, int] = (18, 22),
        ) -> Organisation:
            nonlocal next_asn
            rir = org_rng.weighted_choice(rirs, rir_weights)
            org = Organisation(name=name, kind=kind, rir=rir)
            for index in range(as_count):
                asn = ASN(next_asn)
                next_asn += 1
                org.asns.append(asn)
                org.registry_names[asn] = f"{name.upper()}-{index + 1}"
                count = org_rng.randint(*prefixes_per_as)
                for _ in range(count):
                    length = org_rng.randint(*prefix_length)
                    org.add_prefix(allocator.allocate(rir, length), asn)
            if org_rng.random() < config.v6_org_fraction and org.asns:
                org.add_prefix(allocator.allocate_v6(rir), org.asns[0])
            self.organisations.append(org)
            return org

        for index in range(config.tier1_count):
            new_org(f"Backbone{index + 1}", OrgKind.TIER1, 1, (1, 2), (14, 16))
        for index in range(config.scaled_transit()):
            new_org(f"Transit{index + 1}", OrgKind.TRANSIT, 1, (1, 2), (16, 19))
        for index in range(config.scaled_eyeballs()):
            new_org(f"Eyeball{index + 1}", OrgKind.EYEBALL, 1, (1, 3))
        for index in range(config.scaled_hosters()):
            new_org(f"Hoster{index + 1}", OrgKind.HOSTER, 1, (1, 4))
        if config.include_cdns:
            for operator in CDN_CATALOGUE:
                new_org(
                    operator.name, OrgKind.CDN, operator.as_count, (1, 2), (20, 23)
                )

        # Dark prefixes: used for hosting but never announced in BGP.
        for _ in range(config.dark_prefix_count):
            self.dark_prefixes.append(allocator.allocate("ARIN", 24))

    def _build_topology(self, rng: DeterministicRNG) -> None:
        topo_rng = rng.fork("world-topology")
        topology = ASTopology()
        by_kind: Dict[OrgKind, List[ASN]] = {kind: [] for kind in OrgKind}
        for org in self.organisations:
            for asn in org.asns:
                topology.add_as(
                    asn,
                    name=org.registry_names[asn],
                    role=_ROLE_FOR_KIND[org.kind],
                    organisation=org.name,
                )
                by_kind[org.kind].append(asn)

        tier1 = by_kind[OrgKind.TIER1]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                topology.add_peering(a, b)

        upstream = list(tier1)
        for asn in by_kind[OrgKind.TRANSIT]:
            for provider in topo_rng.sample(
                upstream, topo_rng.randint(1, min(3, len(upstream)))
            ):
                topology.add_provider(asn, provider)
            upstream.append(asn)

        edge_pool = tier1 + by_kind[OrgKind.TRANSIT]
        edge_asns = (
            by_kind[OrgKind.EYEBALL]
            + by_kind[OrgKind.HOSTER]
            + by_kind[OrgKind.CDN]
        )
        for asn in edge_asns:
            for provider in topo_rng.sample(
                edge_pool, min(topo_rng.randint(1, 3), len(edge_pool))
            ):
                if topology.relationship(asn, provider) is None:
                    topology.add_provider(asn, provider)

        eyeballs = by_kind[OrgKind.EYEBALL]
        for cdn_asn in by_kind[OrgKind.CDN]:
            if eyeballs and topo_rng.random() < 0.5:
                peer = topo_rng.choice(eyeballs)
                if topology.relationship(cdn_asn, peer) is None:
                    topology.add_peering(cdn_asn, peer)

        self.topology = topology

    def _build_announcements(self, rng: DeterministicRNG) -> None:
        config = self.config
        bgp_rng = rng.fork("announcements")
        announcements: List[Announcement] = []
        for org in self.organisations:
            for prefix, origin in sorted(org.prefixes.items()):
                if bgp_rng.random() < config.as_set_fraction:
                    members = [origin, ASN(64512 + bgp_rng.randint(0, 1000))]
                    announcements.append(
                        Announcement.make(prefix, origin, aggregate_members=members)
                    )
                else:
                    announcements.append(Announcement.make(prefix, origin))
                if (
                    prefix.family == 4
                    and prefix.length <= 22
                    and bgp_rng.random() < config.more_specific_fraction
                ):
                    specific = Prefix(4, prefix.value, 24)
                    announcements.append(Announcement.make(specific, origin))
        self.announcements = announcements

    def _run_bgp(self) -> None:
        tier1 = [n.asn for n in self.topology.by_role(ASRole.TIER1)]
        transits = [n.asn for n in self.topology.by_role(ASRole.TRANSIT)]
        peers = tier1 + transits[:5]
        self.collector = RouteCollector("rrc-sim", peers)
        engine = PropagationEngine(self.topology)
        with tracer().span("bgp.propagation.propagate"):
            state = engine.propagate(self.announcements, record_ases=set(peers))
        with tracer().span("bgp.collector.collect"):
            self.table_dump = self.collector.collect(state)

    # -- convenience accessors -------------------------------------------------

    def resolvers(self) -> List[PublicResolver]:
        """The paper's three verification resolvers over this namespace."""
        return make_resolvers(self.namespace, DEFAULT_RESOLVERS)

    def payloads(self):
        return self.adoption.payloads

    def tals(self):
        return self.adoption.tals

    def org_of_asn(self, asn: ASN) -> Optional[Organisation]:
        for org in self.organisations:
            if asn in org.asns:
                return org
        return None

    def as_assignment_list(self) -> List[Tuple[ASN, str, str]]:
        """(ASN, registry name, organisation) rows for keyword spotting."""
        rows = []
        for node in self.topology.ases():
            rows.append((node.asn, node.name, node.organisation))
        return sorted(rows)

    def __repr__(self) -> str:
        return (
            f"<WebEcosystem {len(self.ranking)} domains, "
            f"{len(self.topology)} ASes, {len(self.announcements)} announcements>"
        )
