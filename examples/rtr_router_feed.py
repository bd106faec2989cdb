#!/usr/bin/env python3
"""The full RPKI-to-router loop (RFC 8210 + RFC 6811).

Relying party validates the repository -> RTR cache serves VRPs ->
a router's RTR client synchronises -> the router enforces origin
validation in live BGP -> a new ROA arrives, the cache notifies, and
the router *re-validates* already-installed routes.

This is the deployment pipeline whose absence the paper laments: the
machinery exists (the authors built RTRlib); operators just have to
turn it on.

Run:  python examples/rtr_router_feed.py
"""

import sys

from repro.bgp import Announcement, ASTopology
from repro.bgp.session import SessionSimulator
from repro.crypto import DeterministicRNG
from repro.net import ASN, Prefix
from repro.rpki import (
    CertificateAuthority,
    RelyingParty,
    Repository,
    ResourceSet,
    TrustAnchorLocator,
)
from repro.rpki.repository import publish_ca_products
from repro.rpki.roa import issue_roa
from repro.rpki.rtr import RTRCache, RTRClient, TransportPair


def sync(session, cache, client):
    for _ in range(4):
        cache.serve_session(session)
        client.poll()


def main() -> int:
    # -- 1. The RPKI side: a trust anchor and one signed prefix. --------
    ripe = CertificateAuthority.create_trust_anchor(
        "RIPE", DeterministicRNG("rtr-demo")
    )
    lir = ripe.issue_child_ca(
        "VictimNet", ResourceSet.from_strings(prefixes=["5.0.0.0/16"], asns=[10])
    )
    repo = Repository()
    repo.add_trust_anchor(ripe.certificate)
    publish_ca_products(repo, ripe, [])
    publish_ca_products(repo, lir, [])  # no ROA yet!
    tal = TrustAnchorLocator.for_authority(ripe)

    payloads, report = RelyingParty(repo).validate([tal], now=1.0)
    print(f"Relying party: {report.summary()} -> {len(payloads)} VRPs")

    # -- 2. RTR plumbing: cache on the RP, client on the router. ---------
    pair = TransportPair()
    cache = RTRCache(session_id=42)
    cache.load(payloads)
    session = cache.register(pair.cache_side)
    client = RTRClient(pair.router_side, trust_anchor="RIPE")
    client.start()
    sync(session, cache, client)
    print(f"RTR: {client!r}")

    # -- 3. A small internetwork with a hijack in flight. ----------------
    #      2 (transit) on top; 1 and 3 customers; victim 10, attacker 20.
    topo = ASTopology()
    for asn in (1, 2, 3, 10, 20):
        topo.add_as(asn)
    topo.add_provider(1, 2)
    topo.add_provider(3, 2)
    topo.add_provider(10, 1)
    topo.add_provider(20, 3)

    sim = SessionSimulator(topo)
    victim_prefix = Prefix.parse("5.0.0.0/16")
    sim.announce(Announcement.make("5.0.0.0/16", 10))   # victim
    sim.announce(Announcement.make("5.0.0.0/16", 20))   # hijacker (MOAS)
    sim.run()
    route_at_2 = sim.route_at(ASN(2), victim_prefix)
    print(f"\nWithout enforcement, AS2 routes to origin "
          f"{route_at_2.origin} (path [{route_at_2.path}])")
    route_at_3 = sim.route_at(ASN(3), victim_prefix)
    print(f"AS3 (attacker side) routes to origin {route_at_3.origin}")

    # Feed the router's RTR table to the transit core: nothing changes
    # yet, the table is empty (NOT_FOUND passes the filter).
    sim.configure_validation(client.payloads(), enforcing=[ASN(1), ASN(2), ASN(3)])
    sim.run()
    print(f"Empty VRP table installed: AS3 still routes to "
          f"{sim.route_at(ASN(3), victim_prefix).origin} (not found != invalid)")

    # -- 4. The victim signs a ROA; the cache notifies; routers heal. ----
    roa = issue_roa(lir, 10, [("5.0.0.0/16", 16)])
    publish_ca_products(repo, lir, [roa])
    payloads, report = RelyingParty(repo).validate([tal], now=1.0)
    announced, withdrawn = cache.load(payloads)
    print(f"\nVictim signs a ROA -> relying party revalidates "
          f"({len(payloads)} VRPs), cache diff +{announced}/-{withdrawn}")
    cache.notify_session(session)  # Serial Notify towards the router
    sync(session, cache, client)
    print(f"RTR after refresh: {client!r}")

    sim.configure_validation(client.payloads(), enforcing=[ASN(1), ASN(2), ASN(3)])
    sim.run()
    healed = sim.route_at(ASN(3), victim_prefix)
    print(f"\nAfter revalidation, AS3 routes to origin {healed.origin} "
          f"(path [{healed.path}]) — the hijack is expelled everywhere "
          f"except the attacker itself.")
    assert healed.origin == 10
    return 0


if __name__ == "__main__":
    sys.exit(main())
