"""Shared tables against the per-PDU state machine.

:meth:`RTRClient.poll` walks every PDU through :meth:`RTRClient._handle`
except that a response another router already ran cleanly from the
same table is adopted whole (:meth:`RTRClient._share`).  The oracle is
the same client with that shortcut switched off.  Both are fed the same
bytes in the same pieces; after every delivery the two must agree on
the table (order and object identity included), the open response,
the session state, the errors they raised and sent, and every metric
they recorded.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.net import ASN, Prefix
from repro.obs.metrics import MetricsRegistry
from repro.rpki.rtr import RTRClient, TransportPair
from repro.rpki.rtr.client import ClientState, decode_shared
from repro.rpki.rtr.pdus import (
    FLAG_ANNOUNCE,
    FLAG_WITHDRAW,
    CacheResetPDU,
    CacheResponsePDU,
    EndOfDataPDU,
    ErrorCode,
    ErrorReportPDU,
    IPv4PrefixPDU,
    IPv6PrefixPDU,
    SerialNotifyPDU,
)

SESSION = 7

# A small key space, so duplicates and unknown withdrawals are common.
KEYS = [
    (IPv4PrefixPDU, Prefix.parse("10.0.0.0/16"), 24, ASN(64500)),
    (IPv4PrefixPDU, Prefix.parse("10.0.0.0/16"), 24, ASN(64501)),
    (IPv4PrefixPDU, Prefix.parse("10.0.0.0/16"), 20, ASN(64500)),
    (IPv4PrefixPDU, Prefix.parse("10.1.0.0/16"), 16, ASN(64500)),
    (IPv4PrefixPDU, Prefix.parse("192.0.2.0/24"), 24, ASN(64502)),
    (IPv6PrefixPDU, Prefix.parse("2001:db8::/32"), 48, ASN(64500)),
    (IPv6PrefixPDU, Prefix.parse("2001:db8::/32"), 32, ASN(64503)),
]


def announce(index):
    cls, prefix, max_length, asn = KEYS[index]
    return cls(FLAG_ANNOUNCE, prefix, max_length, asn)


def withdraw(index):
    cls, prefix, max_length, asn = KEYS[index]
    return cls(FLAG_WITHDRAW, prefix, max_length, asn)


RESPONSE = CacheResponsePDU(SESSION)


def end(serial=1):
    return EndOfDataPDU(SESSION, serial)


keys = st.integers(min_value=0, max_value=len(KEYS) - 1)
prefix_pdus = st.one_of(keys.map(announce), keys.map(withdraw))
controls = st.sampled_from(
    [
        RESPONSE,
        CacheResponsePDU(SESSION + 1),   # a foreign session: fatal
        end(1),
        end(2),
        SerialNotifyPDU(SESSION, 2),
        SerialNotifyPDU(SESSION + 1, 2),
        CacheResetPDU(),
        ErrorReportPDU(ErrorCode.INTERNAL_ERROR, b"", "cache gave up"),
    ]
)


@st.composite
def responses(draw):
    """One response's PDUs: mostly well framed, sometimes not."""
    pdus = [RESPONSE] if draw(st.integers(0, 7)) else []
    pdus += draw(st.lists(prefix_pdus, max_size=10))
    if draw(st.integers(0, 7)):
        pdus.append(end(draw(st.integers(1, 3))))
    if not draw(st.integers(0, 5)):
        position = draw(st.integers(0, len(pdus)))
        pdus.insert(position, draw(controls))
    return pdus


# One delivery: the PDUs, and where their bytes are cut into the
# pieces the router reads one poll at a time.
deliveries = st.tuples(
    st.lists(responses(), min_size=1, max_size=2).map(
        lambda groups: [pdu for group in groups for pdu in group]
    ),
    st.lists(st.integers(min_value=0, max_value=4096), max_size=3),
)


class PerPduClient(RTRClient):
    """The oracle: every PDU goes through ``_handle``.

    It neither adopts a table another client committed from the same
    frame nor records its own, so it never reads the subject's work.
    """

    def _share(self, frame, handled, pdu, opened):
        return handled, None


def connect(cls):
    pair = TransportPair()
    client = cls(pair.router_side, trust_anchor="differential")
    client.start()
    pair.cache_side.receive()   # the Reset Query
    return pair, client, MetricsRegistry()


def deliver(endpoint, data):
    pair, client, registry = endpoint
    pair.cache_side.send(data)
    with obs.scope(registry):
        client.poll()
    return pair.cache_side.receive()   # what the router sent back


def assert_same(subject, oracle):
    (_pair, a, registry_a), (_pair, b, registry_b) = subject, oracle
    assert a.vrps() == b.vrps()
    for (key_a, vrp_a), (key_b, vrp_b) in zip(
        a._table.items(), b._table.items()
    ):
        assert key_a is key_b and vrp_a is vrp_b
    assert (a._pending is None) == (b._pending is None)
    if a._pending is not None:
        assert list(a._pending.items()) == list(b._pending.items())
        for (key_a, vrp_a), (key_b, vrp_b) in zip(
            a._pending.items(), b._pending.items()
        ):
            assert key_a is key_b and vrp_a is vrp_b
    assert a.state is b.state
    assert (a.session_id, a.serial, a.refresh_interval) == (
        b.session_id,
        b.serial,
        b.refresh_interval,
    )
    assert a.last_error == b.last_error
    assert a._buffer == b._buffer
    assert registry_a.snapshot() == registry_b.snapshot()


def pieces(data, cuts):
    bounds = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    return [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])] or [b""]


class TestWholeRunApply:
    @settings(max_examples=300, deadline=None)
    @given(script=st.lists(deliveries, min_size=1, max_size=5),
           broken=st.integers(0, 9).map(lambda n: n == 0))
    # A duplicate announcement within one response and across two.
    @example(script=[([RESPONSE, announce(0), announce(1), announce(0),
                       end()], [])], broken=False)
    @example(script=[([RESPONSE, announce(0), end(1)], []),
                     ([RESPONSE, announce(1), announce(0), end(2)], [])],
             broken=False)
    # A withdrawal of a record the router never held.
    @example(script=[([RESPONSE, announce(0), withdraw(1), end()], [])],
             broken=False)
    # One key announced and withdrawn (and back) within one response.
    @example(script=[([RESPONSE, announce(0), announce(2), withdraw(0),
                       announce(0), end()], [])], broken=False)
    # A prefix PDU before the Cache Response.
    @example(script=[([announce(0), RESPONSE, end()], [])], broken=False)
    # A response split mid-PDU by trickled delivery.
    @example(script=[([RESPONSE, announce(0), announce(1), announce(3),
                       announce(5), end()], [30, 50, 101])], broken=False)
    # A client already in ERROR drains and discards.
    @example(script=[([RESPONSE, announce(0), end()], [])], broken=True)
    @example(script=[([RESPONSE, announce(0),
                       ErrorReportPDU(ErrorCode.NO_DATA_AVAILABLE),
                       announce(1), end()], []),
                     ([RESPONSE, announce(2), end()], [])],
             broken=False)
    def test_matches_the_per_pdu_walk(self, script, broken):
        subject, oracle = connect(RTRClient), connect(PerPduClient)
        if broken:
            for _pair, client, registry in (subject, oracle):
                with obs.scope(registry):
                    client._fail(ErrorCode.INTERNAL_ERROR, "already broken")
                assert client.state is ClientState.ERROR
        for pdus, cuts in script:
            data = b"".join(pdu.encode() for pdu in pdus)
            for piece in pieces(data, cuts):
                assert deliver(subject, piece) == deliver(oracle, piece)
                assert_same(subject, oracle)


class TestFrames:
    @given(stream=st.lists(st.one_of(prefix_pdus, controls), max_size=24),
           cut=st.integers(min_value=0, max_value=15))
    def test_steps_pair_every_pdu_with_its_record(self, stream, cut):
        decode_shared.cache_clear()
        tail = announce(0).encode()[:cut]
        data = b"".join(pdu.encode() for pdu in stream) + tail
        frame = decode_shared(data, "steps")
        assert [pdu for pdu, _record in frame.steps] == stream
        assert frame.remainder == tail
        assert frame.tables == {}
        for pdu, record in frame.steps:
            if not isinstance(pdu, (IPv4PrefixPDU, IPv6PrefixPDU)):
                assert record is None
                continue
            key, vrp = record
            assert vrp == pdu.to_vrp("steps")
            assert key == (pdu.prefix, pdu.max_length, int(pdu.asn))
        # The same bytes are decoded once.
        assert decode_shared(data, "steps") is frame


class TestSharedTransitions:
    """A clean response is run once per (frame, base table)."""

    def test_the_first_router_walks_every_pdu(self):
        decode_shared.cache_clear()
        handled = []

        class Counting(RTRClient):
            def _handle(self, pdu, record, counters):
                handled.append(type(pdu).__name__)
                super()._handle(pdu, record, counters)

        stream = [RESPONSE, *map(announce, range(len(KEYS))), end(1)]
        data = b"".join(pdu.encode() for pdu in stream)
        first, oracle = connect(Counting), connect(PerPduClient)
        for endpoint in (first, oracle):
            assert deliver(endpoint, data) == b""
        assert handled == [type(pdu).__name__ for pdu in stream]
        assert_same(first, oracle)
        (transition,) = decode_shared(data, "differential").tables.values()
        assert transition.table is first[1]._table
        assert transition.stop == len(stream) - 1

    def test_a_second_router_adopts_the_first_routers_table(self):
        decode_shared.cache_clear()
        handled = []

        class Counting(RTRClient):
            def _handle(self, pdu, record, counters):
                handled.append(type(pdu).__name__)
                super()._handle(pdu, record, counters)

        first, second = connect(RTRClient), connect(Counting)
        oracle = connect(PerPduClient)
        for stream in (
            [RESPONSE, *map(announce, range(len(KEYS))), end(1)],
            [RESPONSE, withdraw(0), announce(0), withdraw(6), end(2)],
        ):
            data = b"".join(pdu.encode() for pdu in stream)
            for endpoint in (first, second, oracle):
                assert deliver(endpoint, data) == b""
            assert second[1]._table is first[1]._table
            assert oracle[1]._table is not first[1]._table
            assert_same(second, oracle)
        assert handled == ["CacheResponsePDU", "EndOfDataPDU"] * 2

    def test_a_serial_notify_inside_a_response_is_never_recorded(self):
        decode_shared.cache_clear()
        stream = [RESPONSE, announce(0), SerialNotifyPDU(SESSION, 2),
                  announce(1), end(1)]
        data = b"".join(pdu.encode() for pdu in stream)
        first, second = connect(RTRClient), connect(RTRClient)
        for endpoint in (first, second):
            deliver(endpoint, data)
            assert endpoint[1].state is ClientState.SYNCHRONISED
        assert decode_shared(data, "differential").tables == {}
        assert second[1]._table is not first[1]._table
        assert_same(first, second)

    def test_a_failed_response_is_never_recorded(self):
        decode_shared.cache_clear()
        stream = [RESPONSE, announce(0), withdraw(1), end(1)]
        data = b"".join(pdu.encode() for pdu in stream)
        subject, oracle = connect(RTRClient), connect(PerPduClient)
        assert deliver(subject, data) == deliver(oracle, data)
        assert subject[1].state is ClientState.ERROR
        assert decode_shared(data, "differential").tables == {}
        assert_same(subject, oracle)
