"""Hypothesis fuzzing of the RTR wire codec and session endpoints.

Four layers of property:

* **round-trip** — for every PDU type in :mod:`repro.rpki.rtr.pdus`,
  ``decode_pdu(pdu.encode())`` reproduces the PDU exactly and
  consumes exactly its encoded length; streams of PDUs survive
  :func:`decode_stream` with an empty remainder.
* **hostile bytes** — truncations, bit-flips, and arbitrary garbage
  either decode or raise a *typed* :class:`~repro.errors.ReproError`
  subclass; a raw ``struct.error`` / ``IndexError`` /
  ``UnicodeDecodeError`` escaping the codec is a bug.
* **shared decode** — the router side's memoised
  :func:`~repro.rpki.rtr.client.decode_shared` answers exactly as a
  fresh :func:`decode_stream` does for clean, cut and bit-flipped
  buffers alike, and never remembers a failure.
* **session resilience** — endpoints fed garbage through
  :class:`InMemoryTransport` never leak exceptions: the client parks
  in ``ERROR`` (or survives unharmed if the bytes merely buffered),
  the cache replies with an Error Report and stays serviceable, and
  a reconnect fully resynchronises.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.net import ASN, Address, Prefix
from repro.net.addr import IPV4, IPV6
from repro.rpki.rtr import RTRCache, RTRClient, TransportPair
from repro.rpki.rtr.client import FRAME_MEMO_SIZE, ClientState, decode_shared
from repro.rpki.rtr.errors import RTRProtocolError
from repro.rpki.rtr.pdus import (
    HEADER,
    CacheResetPDU,
    CacheResponsePDU,
    EndOfDataPDU,
    ErrorCode,
    ErrorReportPDU,
    IPv4PrefixPDU,
    IPv6PrefixPDU,
    ResetQueryPDU,
    SerialNotifyPDU,
    SerialQueryPDU,
    decode_pdu,
    decode_stream,
)
from repro.rpki.vrp import VRP

# -- strategies ---------------------------------------------------------------

session_ids = st.integers(min_value=0, max_value=(1 << 16) - 1)
serials = st.integers(min_value=0, max_value=(1 << 32) - 1)
asns = st.integers(min_value=0, max_value=(1 << 32) - 1).map(ASN)
flags = st.integers(min_value=0, max_value=255)


@st.composite
def prefix_pdus(draw, family=IPV4):
    bits = 32 if family == IPV4 else 128
    length = draw(st.integers(min_value=0, max_value=bits))
    value = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    prefix = Prefix.from_address(Address(family, value), length)
    max_length = draw(st.integers(min_value=length, max_value=bits))
    cls = IPv4PrefixPDU if family == IPV4 else IPv6PrefixPDU
    return cls(draw(flags), prefix, max_length, draw(asns))


error_reports = st.builds(
    ErrorReportPDU,
    error_code=st.sampled_from(list(ErrorCode)),
    erroneous_pdu=st.binary(max_size=64),
    error_text=st.text(max_size=64),
)

# One strategy per concrete PDU type — every class in pdus.py appears.
pdus = st.one_of(
    st.builds(SerialNotifyPDU, session_id=session_ids, serial=serials),
    st.builds(SerialQueryPDU, session_id=session_ids, serial=serials),
    st.just(ResetQueryPDU()),
    st.builds(CacheResponsePDU, session_id=session_ids),
    prefix_pdus(IPV4),
    prefix_pdus(IPV6),
    st.builds(
        EndOfDataPDU,
        session_id=session_ids,
        serial=serials,
        refresh_interval=serials,
        retry_interval=serials,
        expire_interval=serials,
    ),
    st.just(CacheResetPDU()),
    error_reports,
)


def assert_only_typed_errors(data):
    """Decode ``data``; anything raised must be a ReproError subclass."""
    try:
        decode_pdu(data)
    except ReproError:
        pass
    try:
        decode_stream(data)
    except ReproError:
        pass


# -- round-trips --------------------------------------------------------------


class TestRoundTrip:
    @given(pdu=pdus)
    def test_encode_decode_identity(self, pdu):
        encoded = pdu.encode()
        decoded, consumed = decode_pdu(encoded)
        assert decoded == pdu
        assert consumed == len(encoded)

    @given(pdu=pdus, trailer=st.binary(max_size=32))
    def test_decode_consumes_exactly_one_pdu(self, pdu, trailer):
        encoded = pdu.encode()
        decoded, consumed = decode_pdu(encoded + trailer)
        assert decoded == pdu
        assert consumed == len(encoded)

    @given(stream=st.lists(pdus, max_size=8))
    def test_stream_round_trip(self, stream):
        buffer = b"".join(pdu.encode() for pdu in stream)
        decoded, remainder = decode_stream(buffer)
        assert decoded == stream
        assert remainder == b""

    @given(stream=st.lists(pdus, min_size=1, max_size=4), data=st.data())
    def test_stream_buffers_incomplete_tail(self, stream, data):
        whole = b"".join(pdu.encode() for pdu in stream[:-1])
        tail = stream[-1].encode()
        cut = data.draw(
            st.integers(min_value=0, max_value=len(tail) - 1), label="cut"
        )
        decoded, remainder = decode_stream(whole + tail[:cut])
        assert decoded == stream[:-1]
        assert remainder == tail[:cut]  # kept for the next read


# -- hostile bytes ------------------------------------------------------------


class TestHostileBytes:
    @given(pdu=pdus, data=st.data())
    def test_truncation_raises_typed_error(self, pdu, data):
        encoded = pdu.encode()
        cut = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1), label="cut"
        )
        try:
            decode_pdu(encoded[:cut])
            assert False, "decoded a truncated PDU"
        except RTRProtocolError as error:
            assert isinstance(error, ReproError)
            assert error.error_code == ErrorCode.CORRUPT_DATA

    @given(pdu=pdus, data=st.data())
    def test_single_byte_flip_never_leaks_raw_exception(self, pdu, data):
        encoded = bytearray(pdu.encode())
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1),
            label="position",
        )
        flip = data.draw(st.integers(min_value=1, max_value=255), label="flip")
        encoded[position] ^= flip
        assert_only_typed_errors(bytes(encoded))

    @given(garbage=st.binary(max_size=256))
    def test_arbitrary_garbage_never_leaks_raw_exception(self, garbage):
        assert_only_typed_errors(garbage)

    @given(
        garbage=st.binary(min_size=HEADER.size, max_size=64),
        version=st.integers(min_value=0, max_value=255).filter(
            lambda v: v != 1
        ),
    )
    def test_wrong_version_is_rejected(self, garbage, version):
        # Force a non-v1 version byte; everything else stays arbitrary.
        data = bytes([version]) + garbage[1:]
        try:
            decode_pdu(data)
            assert False, "accepted a wrong protocol version"
        except RTRProtocolError as error:
            assert error.error_code in (
                ErrorCode.UNSUPPORTED_VERSION,
                ErrorCode.CORRUPT_DATA,  # header itself may claim len<8
            )


# -- shared decode ------------------------------------------------------------


@st.composite
def damaged_streams(draw):
    """A valid PDU stream, cut anywhere, with up to three bytes flipped."""
    stream = draw(st.lists(pdus, min_size=1, max_size=8))
    whole = b"".join(pdu.encode() for pdu in stream)
    buffer = bytearray(
        whole[: draw(st.integers(min_value=0, max_value=len(whole)))]
    )
    for _flip in range(draw(st.integers(min_value=0, max_value=3))):
        if buffer:
            position = draw(
                st.integers(min_value=0, max_value=len(buffer) - 1)
            )
            buffer[position] ^= draw(st.integers(min_value=1, max_value=255))
    return bytes(buffer)


class TestSharedDecode:
    @given(buffer=damaged_streams())
    def test_memoised_decode_equals_a_fresh_decode(self, buffer):
        try:
            expected = decode_stream(buffer)
        except RTRProtocolError as error:
            expected = error.error_code
        for _attempt in range(2):  # a miss, then whatever the memo kept
            try:
                frame = decode_shared(buffer, "fuzz")
            except RTRProtocolError as error:
                assert error.error_code == expected
                continue
            steps = frame.steps
            assert ([pdu for pdu, _record in steps], frame.remainder) == expected
            for pdu, record in steps:
                if isinstance(pdu, (IPv4PrefixPDU, IPv6PrefixPDU)):
                    key = (pdu.prefix, pdu.max_length, int(pdu.asn))
                    assert record == (key, pdu.to_vrp("fuzz"))
                else:
                    assert record is None

    def test_a_failure_is_never_remembered(self):
        decode_shared.cache_clear()
        corrupt = b"\x01\x02garb\xff\xff\xff\xff"
        for _attempt in range(2):
            try:
                decode_shared(corrupt, "fuzz")
                assert False, "decoded an implausible length"
            except RTRProtocolError as error:
                assert error.error_code == ErrorCode.CORRUPT_DATA
        info = decode_shared.cache_info()
        assert (info.hits, info.currsize) == (0, 0)
        assert info.maxsize == FRAME_MEMO_SIZE

    def test_a_damaged_copy_never_answers_for_the_clean_frame(self):
        clean = (
            CacheResponsePDU(7).encode()
            + IPv4PrefixPDU(1, Prefix.parse("10.0.0.0/16"), 24, ASN(64500))
            .encode()
            + EndOfDataPDU(7, 3).encode()
        )
        damaged = bytearray(clean)
        damaged[-25] ^= 0x01  # low byte of the ASN: still decodes
        for buffer in (clean, bytes(damaged), clean):
            steps = decode_shared(buffer, "fuzz").steps
            assert [pdu for pdu, _record in steps] == decode_stream(buffer)[0]
        assert decode_shared(clean, "fuzz").steps[1][0].asn == ASN(64500)
        assert decode_shared(bytes(damaged), "fuzz").steps[1][0].asn == ASN(
            64501
        )


# -- session resilience -------------------------------------------------------


def make_cache():
    cache = RTRCache(session_id=7)
    cache.load(
        [
            VRP(Prefix.parse("10.0.0.0/16"), 24, ASN(64500), "fuzz"),
            VRP(Prefix.parse("2001:db8::/32"), 48, ASN(64501), "fuzz"),
        ]
    )
    return cache


def vrp_keys(vrps):
    """(prefix, maxLength, asn) triples — the wire drops trust anchors."""
    return sorted((v.prefix, v.max_length, int(v.asn)) for v in vrps)


def synchronise(cache):
    """Fresh connection against ``cache``; returns the synced client."""
    pair = TransportPair()
    client = RTRClient(pair.router_side)
    client.start()
    cache.serve_session(cache.register(pair.cache_side))
    client.poll()
    assert client.state is ClientState.SYNCHRONISED
    return client


class TestSessionResilience:
    @settings(max_examples=50)
    @given(garbage=st.binary(min_size=1, max_size=128))
    def test_client_survives_garbage_and_reconnects(self, garbage):
        cache = make_cache()
        pair = TransportPair()
        client = RTRClient(pair.router_side)
        client.start()
        cache.serve_session(cache.register(pair.cache_side))
        pair.cache_side.send(garbage)  # hostile bytes after the snapshot
        client.poll()  # must never leak a raw exception
        assert client.state in (
            ClientState.SYNCHRONISED,  # garbage merely buffered
            ClientState.ERROR,  # garbage killed the session
        )
        if client.state is ClientState.ERROR:
            assert isinstance(client.last_error, ErrorReportPDU)
        # Recovery: a reconnect fully resynchronises against the
        # same cache, garbage notwithstanding.
        replacement = synchronise(cache)
        assert vrp_keys(replacement.vrps()) == vrp_keys(cache.vrps())

    @settings(max_examples=50)
    @given(garbage=st.binary(min_size=1, max_size=128))
    def test_cache_survives_garbage_and_keeps_serving(self, garbage):
        cache = make_cache()
        pair = TransportPair()
        session = cache.register(pair.cache_side)
        pair.router_side.send(garbage)
        cache.serve_session(session)  # must never leak a raw exception
        replied = pair.router_side.receive()
        if replied:  # a complete-but-corrupt query earns an Error Report
            decoded, _rest = decode_stream(replied)
            assert all(isinstance(p.encode(), bytes) for p in decoded)
        # Same connection: serving must keep not-raising, though the
        # framing may stay legitimately wedged (an incomplete garbage
        # header can declare a plausible frame the peer never
        # finishes — exactly a desynced TCP stream, cured only by
        # reconnecting; implausible lengths are rejected outright).
        for _attempt in range(2):
            pair.router_side.send(ResetQueryPDU().encode())
            cache.serve_session(session)
            pair.router_side.receive()
        # A fresh connection always gets a full snapshot.
        fresh = TransportPair()
        fresh.router_side.send(ResetQueryPDU().encode())
        cache.serve_session(cache.register(fresh.cache_side))
        decoded, rest = decode_stream(fresh.router_side.receive())
        assert rest == b""
        assert isinstance(decoded[0], CacheResponsePDU)
        assert any(
            isinstance(p, EndOfDataPDU) and p.serial == cache.serial
            for p in decoded
        )

    def test_fresh_session_still_works_after_many_garbage_rounds(self):
        # Deterministic tail check: alternate garbage and reconnects.
        cache = make_cache()
        for junk in (b"\x00", b"\xff" * 7, b"\x01\x0a" + b"\x00" * 30):
            pair = TransportPair()
            client = RTRClient(pair.router_side)
            client.start()
            pair.cache_side.send(junk)
            cache.serve_session(cache.register(pair.cache_side))
            client.poll()
        final = synchronise(cache)
        assert len(final.vrps()) == 2


# -- interleaved multi-session fuzz (the long-lived daemon) -------------------


class TestInterleavedDaemonSessions:
    """Hostile churn against the daemon: many sessions, one cache.

    Hypothesis drives the churn profile — population size, garbage
    and lag intensity, world mutation rate — and the invariant stays
    absolute: the run converges and every surviving router's table is
    bit-identical on the wire to the cache snapshot.  One router's
    garbage must never perturb its neighbours' sessions.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
        sessions=st.integers(min_value=2, max_value=10),
        rounds=st.integers(min_value=1, max_value=5),
        garbage=st.sampled_from([0.0, 0.2, 0.5]),
        lag=st.sampled_from([0.0, 0.25, 0.5]),
        disconnect=st.sampled_from([0.0, 0.2]),
    )
    def test_churned_daemon_always_converges(
        self, seed, sessions, rounds, garbage, lag, disconnect
    ):
        from repro.rtrd import (
            ChurnProfile,
            RTRDaemon,
            RtrdConfig,
            SyntheticVRPWorld,
            run_churn,
            wire_table,
        )

        world = SyntheticVRPWorld(30, seed=seed)
        daemon = RTRDaemon(RtrdConfig())
        daemon.publish(world.vrps())
        daemon.connect_many(sessions)
        profile = ChurnProfile(
            rounds=rounds,
            target_sessions=sessions,
            disconnect=disconnect,
            lag=lag,
            garbage=garbage,
            world_changes=6,
            seed=seed,
        )
        summary = run_churn(daemon, world, profile)
        assert summary.converged, summary
        assert summary.diverged == 0
        truth = wire_table(daemon.vrps())
        for router in daemon.manager.routers():
            assert router.alive
            assert wire_table(router.client.vrps()) == truth

    @settings(max_examples=20, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=64))
    def test_one_hostile_session_never_perturbs_neighbours(self, garbage):
        from repro.rtrd import RTRDaemon, wire_table
        from repro.rpki.vrp import VRP

        daemon = RTRDaemon()
        daemon.publish(
            [
                VRP(Prefix.parse("10.0.0.0/16"), 24, ASN(64500), "fuzz"),
                VRP(Prefix.parse("2001:db8::/32"), 48, ASN(64501), "fuzz"),
            ]
        )
        victim_a, hostile, victim_b = daemon.connect_many(3)
        hostile.pair.router_side.send(garbage)
        daemon.publish(
            [VRP(Prefix.parse("10.0.0.0/16"), 24, ASN(64500), "fuzz")]
        )
        truth = wire_table(daemon.vrps())
        for router in (victim_a, victim_b):
            assert router.synchronized
            assert wire_table(router.client.vrps()) == truth
