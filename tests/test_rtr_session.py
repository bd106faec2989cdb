"""Integration tests for RTR cache/client sessions."""

import pytest

from repro.net import ASN, Prefix
from repro.rpki.rtr import RTRCache, RTRClient, TransportPair
from repro.rpki.rtr.client import ClientState
from repro.rpki.vrp import VRP, OriginValidation


def vrp(prefix, max_length, asn):
    return VRP(Prefix.parse(prefix), max_length, ASN(asn), "test-ta")


@pytest.fixture()
def link():
    """One router connection: transports, cache, its session, client."""
    pair = TransportPair()
    cache = RTRCache(session_id=9)
    client = RTRClient(pair.router_side)
    return pair, cache, cache.register(pair.cache_side), client


def pump(cache, session, client, rounds=4):
    """Alternate service until the byte pipes drain."""
    for _ in range(rounds):
        cache.serve_session(session)
        client.poll()


class TestFullSync:
    def test_initial_snapshot(self, link):
        pair, cache, session, client = link
        cache.load([vrp("10.0.0.0/16", 24, 64500), vrp("2001:db8::/32", 48, 1)])
        client.start()
        pump(cache, session, client)
        assert client.state is ClientState.SYNCHRONISED
        assert client.serial == cache.serial == 1
        assert client.session_id == 9
        assert len(client) == 2

    def test_payloads_usable_for_origin_validation(self, link):
        pair, cache, session, client = link
        cache.load([vrp("10.0.0.0/16", 24, 64500)])
        client.start()
        pump(cache, session, client)
        payloads = client.payloads()
        assert payloads.validate_origin(
            Prefix.parse("10.0.1.0/24"), 64500
        ) is OriginValidation.VALID
        assert payloads.validate_origin(
            Prefix.parse("10.0.1.0/24"), 666
        ) is OriginValidation.INVALID

    def test_empty_cache_sync(self, link):
        pair, cache, session, client = link
        cache.load([])
        client.start()
        pump(cache, session, client)
        assert client.state is ClientState.SYNCHRONISED
        assert len(client) == 0

    def test_refresh_interval_propagates(self, link):
        pair, cache, session, client = link
        cache._refresh_interval = 1234
        cache.load([vrp("10.0.0.0/16", 16, 1)])
        client.start()
        pump(cache, session, client)
        assert client.refresh_interval == 1234


class TestIncrementalSync:
    def test_diff_applies_announce_and_withdraw(self, link):
        pair, cache, session, client = link
        cache.load([vrp("10.0.0.0/16", 24, 64500), vrp("11.0.0.0/16", 16, 2)])
        client.start()
        pump(cache, session, client)
        assert len(client) == 2

        cache.load([vrp("10.0.0.0/16", 24, 64500), vrp("12.0.0.0/16", 16, 3)])
        cache.notify_session(session)  # ... as seen by the router
        # The notify PDU must reach the router side:
        client.poll()           # sees Serial Notify, sends Serial Query
        pump(cache, session, client)
        assert client.state is ClientState.SYNCHRONISED
        assert client.serial == 2
        prefixes = {str(v.prefix) for v in client.vrps()}
        assert prefixes == {"10.0.0.0/16", "12.0.0.0/16"}

    def test_notify_while_synced_triggers_refresh(self, link):
        pair, cache, session, client = link
        cache.load([vrp("10.0.0.0/16", 16, 1)])
        client.start()
        pump(cache, session, client)
        cache.load([])  # withdraw everything
        cache.notify_session(session)
        client.poll()
        pump(cache, session, client)
        assert len(client) == 0
        assert client.serial == 2

    def test_explicit_refresh_without_changes(self, link):
        pair, cache, session, client = link
        cache.load([vrp("10.0.0.0/16", 16, 1)])
        client.start()
        pump(cache, session, client)
        client.refresh()
        pump(cache, session, client)
        assert client.state is ClientState.SYNCHRONISED
        assert len(client) == 1


class TestCacheReset:
    def test_stale_serial_forces_full_resync(self, link):
        pair, cache, session, client = link
        cache = RTRCache(session_id=9, history_limit=1)
        session = cache.register(pair.cache_side)
        cache.load([vrp("10.0.0.0/16", 16, 1)])
        client.start()
        pump(cache, session, client)
        # Age the client's serial out of the cache's diff history.
        cache.load([vrp("11.0.0.0/16", 16, 2)])
        cache.load([vrp("12.0.0.0/16", 16, 3)])
        client.refresh()
        pump(cache, session, client, rounds=6)
        assert client.state is ClientState.SYNCHRONISED
        assert client.serial == cache.serial
        assert {str(v.prefix) for v in client.vrps()} == {"12.0.0.0/16"}

    def test_wrong_session_id_gets_cache_reset(self, link):
        pair, cache, session, client = link
        cache.load([vrp("10.0.0.0/16", 16, 1)])
        client.start()
        pump(cache, session, client)
        client.session_id = 999  # simulate a cache restart mismatch
        client.refresh()
        pump(cache, session, client, rounds=6)
        # Cache Reset clears the stale session and resyncs fully...
        assert client.state is ClientState.SYNCHRONISED
        assert client.session_id == 9
        assert len(client) == 1


class TestErrors:
    def test_unknown_pdu_type_to_cache(self, link):
        pair, cache, session, client = link
        from repro.rpki.rtr.pdus import ResetQueryPDU

        data = bytearray(ResetQueryPDU().encode())
        data[1] = 99  # complete frame, unknown PDU type
        pair.router_side.send(bytes(data))
        cache.serve_session(session)
        client.poll()
        assert client.state is ClientState.ERROR
        assert client.last_error is not None

    def test_incomplete_garbage_is_buffered_not_fatal(self, link):
        pair, cache, session, client = link
        # Header claims a plausible-but-unfinished length: the cache
        # keeps buffering and stays silent rather than erroring on an
        # incomplete frame.
        pair.router_side.send(b"\x01\x02\x00\x07\x00\x00\x01\x00")
        cache.serve_session(session)
        client.poll()
        assert client.state is ClientState.DISCONNECTED

    def test_implausible_length_is_fatal_not_a_blackhole(self, link):
        pair, cache, session, client = link
        # A corrupt length field can claim gigabytes; waiting for that
        # frame to complete would silently black-hole the session, so
        # anything beyond MAX_PDU_SIZE is corrupt data on arrival.
        pair.router_side.send(b"\x01\x02garb\xff\xff\xff\xff")
        cache.serve_session(session)
        client.poll()
        assert client.state is ClientState.ERROR
        assert client.last_error is not None

    def test_withdraw_unknown_record_is_error(self, link):
        pair, cache, session, client = link
        from repro.rpki.rtr.pdus import (
            FLAG_WITHDRAW,
            CacheResponsePDU,
            EndOfDataPDU,
            prefix_pdu,
        )

        # Hand-craft a bogus diff withdrawing a record the client lacks.
        bogus = (
            CacheResponsePDU(9).encode()
            + prefix_pdu(FLAG_WITHDRAW, vrp("10.0.0.0/16", 16, 1)).encode()
            + EndOfDataPDU(9, 1).encode()
        )
        pair.cache_side.send(bogus)
        client.poll()
        assert client.state is ClientState.ERROR

    def test_prefix_pdu_outside_response_is_error(self, link):
        pair, cache, session, client = link
        from repro.rpki.rtr.pdus import FLAG_ANNOUNCE, prefix_pdu

        pair.cache_side.send(
            prefix_pdu(FLAG_ANNOUNCE, vrp("10.0.0.0/16", 16, 1)).encode()
        )
        client.poll()
        assert client.state is ClientState.ERROR

    def test_error_is_fatal_under_trickled_delivery(self, link):
        pair, cache, session, client = link
        from repro.rpki.rtr.pdus import (
            FLAG_ANNOUNCE,
            CacheResponsePDU,
            EndOfDataPDU,
            prefix_pdu,
        )

        record = prefix_pdu(FLAG_ANNOUNCE, vrp("10.0.0.0/16", 16, 1)).encode()
        pair.cache_side.send(record)
        client.poll()
        assert client.state is ClientState.ERROR
        pair.cache_side.receive()  # the client's own Error Report
        # A whole valid response, one PDU per poll: a dead session must
        # not walk back to SYNCHRONISED without ever having asked.
        for frame in (
            CacheResponsePDU(9).encode(),
            record,
            EndOfDataPDU(9, 5).encode(),
        ):
            pair.cache_side.send(frame)
            client.poll()
            assert client.state is ClientState.ERROR
        assert client.serial is None
        assert len(client) == 0
        assert pair.router_side.pending() == 0  # drained ...
        assert pair.cache_side.pending() == 0   # ... and nothing sent

    def test_duplicate_announcement_is_error(self, link):
        pair, cache, session, client = link
        from repro.rpki.rtr.pdus import (
            FLAG_ANNOUNCE,
            CacheResponsePDU,
            EndOfDataPDU,
            ErrorCode,
            prefix_pdu,
        )

        cache.load([vrp("10.0.0.0/16", 16, 1)])
        client.start()
        pump(cache, session, client)
        assert len(client) == 1
        # A diff that announces a record the table already holds.
        pair.cache_side.send(
            CacheResponsePDU(9).encode()
            + prefix_pdu(FLAG_ANNOUNCE, vrp("10.0.0.0/16", 16, 1)).encode()
            + EndOfDataPDU(9, 2).encode()
        )
        client.poll()
        assert client.state is ClientState.ERROR
        assert client.last_error.error_code is ErrorCode.DUPLICATE_ANNOUNCEMENT
        assert client.serial == 1 and len(client) == 1  # nothing committed


class TestCacheHousekeeping:
    def test_load_returns_diff_counts(self):
        cache = RTRCache()
        announced, withdrawn = cache.load(
            [vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]
        )
        assert (announced, withdrawn) == (2, 0)
        announced, withdrawn = cache.load([vrp("10.0.0.0/16", 16, 1)])
        assert (announced, withdrawn) == (0, 1)

    def test_history_pruning(self):
        cache = RTRCache(history_limit=2)
        for index in range(5):
            cache.load([vrp(f"10.{index}.0.0/16", 16, 1)])
        assert cache.serial == 5
        assert not cache.can_diff_from(1)
        assert cache.can_diff_from(4)
        assert cache.can_diff_from(5)

    def test_repr(self):
        cache = RTRCache()
        cache.load([vrp("10.0.0.0/16", 16, 1)])
        assert "1 VRPs" in repr(cache)
