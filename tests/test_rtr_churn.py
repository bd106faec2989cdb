"""Regression pins for the session-state bugs behind the RTR daemon.

Each test class pins one of the four bugs fixed for the long-lived
daemon; every test here fails on the pre-fix code.

1. **Transport keying** — buffers were keyed by ``id(transport)``,
   which Python recycles after garbage collection: a brand-new router
   could inherit a dead connection's partial frame, and dead entries
   leaked forever.  Sessions are now explicit objects with
   register/unregister lifecycle.
2. **No-op loads** — reloading an identical snapshot advanced the
   serial, recorded an empty diff, and bumped the serial-advance
   counter, waking every router for nothing.
3. **Decode errors** — a decode error answered with an Error Report
   but kept serving the same byte stream as if framing were intact.
   Per RFC 8210 the error is fatal: the session is quarantined until
   a frame-aligned Reset Query arrives.
4. **Serial Notify at the client** — a notify carrying the serial the
   router already has triggered a useless Serial Query round-trip,
   and a notify under a different session id walked into a Cache
   Reset instead of resyncing immediately.
"""

import gc
import os

from repro import obs
from repro.net import ASN, Prefix
from repro.rpki.rtr import (
    RTRCache,
    RTRClient,
    SessionState,
    TransportPair,
)
from repro.rpki.rtr.client import ClientState
from repro.rpki.rtr.pdus import (
    ErrorReportPDU,
    ErrorCode,
    ResetQueryPDU,
    SerialNotifyPDU,
    SerialQueryPDU,
    decode_stream,
)
from repro.rpki.rtr.transport import InMemoryTransport
from repro.rpki.vrp import VRP


def vrp(prefix, max_length, asn):
    return VRP(Prefix.parse(prefix), max_length, ASN(asn), "test-ta")


def make_cache(**kwargs):
    cache = RTRCache(session_id=5, **kwargs)
    cache.load([vrp("10.0.0.0/16", 24, 64500)])
    return cache


def synced_pair(cache):
    pair = TransportPair()
    session = cache.register(pair.cache_side)
    client = RTRClient(pair.router_side)
    client.start()
    cache.serve_session(session)
    client.poll()
    assert client.state is ClientState.SYNCHRONISED
    return pair, client, session


def probe_id_recycling():
    """Body of ``test_session_survives_id_recycling`` (own interpreter)."""
    cache = make_cache()
    transport = InMemoryTransport()
    session = cache.register(transport)
    # Leave a partial frame in the session buffer mid-exchange.
    transport_peer_bytes = b"\x01\x01\x00\x05\x00\x00\x00"  # truncated
    session.buffer = transport_peer_bytes
    old_id = id(transport)
    old_sid = session.sid
    cache.unregister(session)
    del transport, session  # a closed connection holds no references
    gc.collect()
    recycled = None
    others = []
    # Hold every miss for the whole search: releasing them between
    # attempts would hand the same free blocks straight back.  A
    # candidate is allocated bare and initialised only once it matches:
    # the bytearray ``__init__`` makes is the size of the instance, and
    # a held miss whose *buffer* took the freed block would keep it.
    for _ in range(100_000):
        candidate = InMemoryTransport.__new__(InMemoryTransport)
        if id(candidate) == old_id:
            recycled = candidate
            break
        others.append(candidate)
    others.clear()
    assert recycled is not None, "allocator never recycled the id"
    recycled.__init__()
    fresh = cache.register(recycled)
    assert fresh.sid != old_sid
    assert fresh.buffer == b""
    assert fresh.state is SessionState.ACTIVE


class TestSessionKeying:
    def test_session_survives_id_recycling(self, fresh_python):
        """A new transport at a recycled id() must get a fresh session.

        The old code keyed receive buffers by ``id(transport)``; after
        the first transport is collected, CPython typically hands the
        same address to the next allocation, and the new connection
        inherited the dead one's partial frame.

        Whether the allocator hands the address back depends on what
        the rest of the suite left on the heap, so the search runs in
        a fresh interpreter, where it must succeed rather than skip.
        """
        fresh_python(
            "import test_rtr_churn; test_rtr_churn.probe_id_recycling()",
            os.path.dirname(os.path.abspath(__file__)),
        )

    def test_unregister_evicts_all_state(self):
        cache = make_cache()
        transports = [InMemoryTransport() for _ in range(50)]
        sessions = [cache.register(t) for t in transports]
        assert len(cache.sessions()) == 50
        for session in sessions:
            cache.unregister(session)
        assert len(cache.sessions()) == 0
        assert cache._sessions == {}

    def test_each_register_opens_its_own_session(self):
        cache = make_cache()
        transport = InMemoryTransport()
        first, second = cache.register(transport), cache.register(transport)
        assert first is not second and first.sid != second.sid
        assert cache.sessions() == [first, second]
        cache.unregister(first)
        assert cache.sessions() == [second]
        assert second.state is SessionState.ACTIVE

    def test_closed_session_is_never_served(self):
        cache = make_cache()
        pair, client, session = synced_pair(cache)
        cache.unregister(session)
        pair.router_side.send(ResetQueryPDU().encode())
        cache.serve_session(session)
        assert pair.router_side.receive() == b""

    def test_session_lifecycle_is_counted(self):
        with obs.scope() as (registry, _tracer):
            cache = make_cache()
            transport = InMemoryTransport()
            session = cache.register(transport)
            cache.unregister(session)
            assert registry.get(
                "ripki_rtr_cache_sessions_opened_total"
            ).value == 1
            assert registry.get(
                "ripki_rtr_cache_sessions_closed_total"
            ).value == 1
            assert registry.get("ripki_rtr_cache_sessions").value == 0


class TestNoOpLoad:
    def test_identical_reload_keeps_serial(self):
        cache = make_cache()
        serial = cache.serial
        assert cache.load([vrp("10.0.0.0/16", 24, 64500)]) == (0, 0)
        assert cache.serial == serial
        assert serial + 1 not in cache._diffs  # no empty diff recorded

    def test_identical_reload_bumps_no_counter(self):
        with obs.scope() as (registry, _tracer):
            cache = make_cache()
            advances = registry.get(
                "ripki_rtr_cache_serial_advances_total"
            ).value
            cache.load([vrp("10.0.0.0/16", 24, 64500)])
            assert registry.get(
                "ripki_rtr_cache_serial_advances_total"
            ).value == advances

    def test_identical_reload_wakes_no_router(self):
        cache = make_cache()
        pair, client, session = synced_pair(cache)
        cache.notify_session(session)
        pair.router_side.receive()  # drain the first (legitimate) notify
        cache.load([vrp("10.0.0.0/16", 24, 64500)])
        assert not cache.notify_session(session)  # de-duplicated
        assert pair.router_side.receive() == b""

    def test_first_load_always_advances_even_when_empty(self):
        cache = RTRCache()
        cache.load([])
        assert cache.serial == 1  # routers need an End of Data target

    def test_trust_anchor_rename_alone_is_a_noop(self):
        # The wire carries no trust-anchor names; a reload differing
        # only there must not wake the routers either.
        cache = make_cache()
        serial = cache.serial
        cache.load([VRP(Prefix.parse("10.0.0.0/16"), 24, ASN(64500), "other")])
        assert cache.serial == serial


class TestDecodeErrorFatality:
    def test_error_report_sent_once_then_quarantined(self):
        cache = make_cache()
        pair, client, session = synced_pair(cache)
        pair.router_side.send(b"\xff" * 16)  # undecodable
        cache.serve_session(session)
        replied, _ = decode_stream(pair.router_side.receive())
        assert [type(p) for p in replied] == [ErrorReportPDU]
        assert session.state is SessionState.QUARANTINED
        # Valid-looking queries after the error are untrusted bytes:
        # no reply, no second Error Report.
        pair.router_side.send(SerialQueryPDU(5, cache.serial).encode())
        cache.serve_session(session)
        assert pair.router_side.receive() == b""

    def test_quarantine_lifts_only_on_frame_aligned_reset_query(self):
        cache = make_cache()
        pair, client, session = synced_pair(cache)
        pair.router_side.send(b"\xff" * 16)
        cache.serve_session(session)
        pair.router_side.receive()
        # A Serial Query does not revive; a Reset Query does.
        pair.router_side.send(SerialQueryPDU(5, cache.serial).encode())
        cache.serve_session(session)
        assert session.state is SessionState.QUARANTINED
        pair.router_side.send(ResetQueryPDU().encode())
        cache.serve_session(session)
        assert session.state is SessionState.ACTIVE
        replied, _ = decode_stream(pair.router_side.receive())
        assert replied  # a full snapshot response

    def test_quarantines_are_counted_by_code(self):
        with obs.scope() as (registry, _tracer):
            cache = make_cache()
            bad = bytearray(ResetQueryPDU().encode())
            bad[1] = 99  # unknown PDU type, complete frame
            pair = TransportPair()
            session = cache.register(pair.cache_side)
            pair.router_side.send(bytes(bad))
            cache.serve_session(session)
            metric = registry.get("ripki_rtr_cache_sessions_quarantined_total")
            assert metric is not None
            assert metric.labels(code="unsupported_pdu_type").value == 1

    def test_router_error_report_quarantines_without_reply(self):
        cache = make_cache()
        pair, client, session = synced_pair(cache)
        pair.router_side.send(
            ErrorReportPDU(ErrorCode.INTERNAL_ERROR, b"", "router died").encode()
        )
        cache.serve_session(session)
        assert session.state is SessionState.QUARANTINED
        # Never answer an error with an error.
        assert pair.router_side.receive() == b""


class TestClientSerialNotify:
    def test_redundant_notify_sends_no_query(self):
        cache = make_cache()
        pair, client, _session = synced_pair(cache)
        # Notify at the serial the router already holds.
        pair.cache_side.send(
            SerialNotifyPDU(cache.session_id, cache.serial).encode()
        )
        client.poll()
        assert client.state is ClientState.SYNCHRONISED
        assert pair.cache_side.receive() == b""  # no Serial Query

    def test_redundant_notify_is_counted(self):
        with obs.scope() as (registry, _tracer):
            cache = make_cache()
            pair, client, _session = synced_pair(cache)
            pair.cache_side.send(
                SerialNotifyPDU(cache.session_id, cache.serial).encode()
            )
            client.poll()
            assert registry.get(
                "ripki_rtr_client_notify_noop_total"
            ).value == 1

    def test_new_serial_notify_still_queries(self):
        cache = make_cache()
        pair, client, _session = synced_pair(cache)
        cache.load([vrp("12.0.0.0/16", 16, 3)])
        pair.cache_side.send(
            SerialNotifyPDU(cache.session_id, cache.serial).encode()
        )
        client.poll()
        queries, _ = decode_stream(pair.cache_side.receive())
        assert any(isinstance(p, SerialQueryPDU) for p in queries)

    def test_session_mismatch_notify_forces_full_resync(self):
        cache = make_cache()
        pair, client, _session = synced_pair(cache)
        # A notify under a different session id means the cache
        # restarted: the client must go straight to a Reset Query, not
        # round-trip a Serial Query destined for a Cache Reset.
        pair.cache_side.send(SerialNotifyPDU(999, 42).encode())
        client.poll()
        queries, _ = decode_stream(pair.cache_side.receive())
        assert len(queries) == 1
        assert isinstance(queries[0], ResetQueryPDU)
        assert client.serial is None and client.session_id is None

    def test_session_mismatch_resync_completes(self):
        cache = make_cache()
        pair, client, session = synced_pair(cache)
        pair.cache_side.send(SerialNotifyPDU(999, 42).encode())
        client.poll()
        cache.serve_session(session)
        client.poll()
        assert client.state is ClientState.SYNCHRONISED
        assert client.session_id == cache.session_id
        assert client.serial == cache.serial

    def test_notify_while_syncing_is_deferred(self):
        cache = make_cache()
        pair = TransportPair()
        client = RTRClient(pair.router_side)
        client.start()  # SYNCING, snapshot not yet served
        pair.cache_side.send(
            SerialNotifyPDU(cache.session_id, cache.serial).encode()
        )
        client.poll()
        assert client.state is ClientState.SYNCING
