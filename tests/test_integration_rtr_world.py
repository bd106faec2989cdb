"""Integration: the built world's VRPs served over RTR to a router."""

import pytest

from repro.rpki.rtr import RTRCache, RTRClient, TransportPair
from repro.rpki.rtr.client import ClientState
from repro.rpki.vrp import OriginValidation


def test_world_payloads_roundtrip_through_rtr(small_world):
    pair = TransportPair()
    cache = RTRCache(session_id=7)
    cache.load(small_world.payloads())
    session = cache.register(pair.cache_side)
    client = RTRClient(pair.router_side, trust_anchor="rrc-rp")
    client.start()
    for _ in range(4):
        cache.serve_session(session)
        client.poll()
    assert client.state is ClientState.SYNCHRONISED
    assert len(client) == len(small_world.payloads())

    # The router-side table gives identical origin-validation verdicts
    # to the relying party's own payload set, across the live table.
    router_payloads = client.payloads()
    rp_payloads = small_world.payloads()
    checked = 0
    for entry in list(small_world.table_dump)[:2000]:
        origin = entry.origin
        if origin is None:
            continue
        assert router_payloads.validate_origin(
            entry.prefix, origin
        ) is rp_payloads.validate_origin(entry.prefix, origin)
        checked += 1
    assert checked > 500


def test_world_roa_churn_propagates_incrementally(small_world):
    """Re-validating after a repository change ships only a diff."""
    from repro.rpki import RelyingParty

    pair = TransportPair()
    cache = RTRCache(session_id=9)
    cache.load(small_world.payloads())
    session = cache.register(pair.cache_side)
    client = RTRClient(pair.router_side)
    client.start()
    for _ in range(4):
        cache.serve_session(session)
        client.poll()
    baseline = len(client)

    # Simulate a publication change: drop one publication point's ROAs.
    repo = small_world.adoption.repository
    point = next(p for p in repo.points() if p.roas)
    saved = dict(point.roas)
    try:
        point.roas.clear()
        payloads, _report = RelyingParty(repo).validate(
            small_world.tals(),
            now=small_world.config.adoption.validation_time,
        )
        announced, withdrawn = cache.load(payloads)
        assert withdrawn >= 1 and announced == 0
        cache.notify_session(session)
        client.poll()
        for _ in range(4):
            cache.serve_session(session)
            client.poll()
        assert client.state is ClientState.SYNCHRONISED
        assert len(client) == baseline - withdrawn
    finally:
        point.roas.update(saved)
