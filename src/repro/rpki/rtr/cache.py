"""RTR cache server (the relying-party side).

Holds the current VRP snapshot plus a bounded history of serial diffs
so routers can synchronise incrementally.  Updating the cache with a
new snapshot computes announce/withdraw diffs automatically; a reload
that changes nothing keeps the serial (and the routers) untouched.

Connection state is explicit: every connected router owns a
:class:`Session` (id, receive buffer, per-direction accounting, a
small state machine), created by :meth:`RTRCache.register` and torn
down by :meth:`RTRCache.unregister`.  Every call after that names the
session itself (:meth:`RTRCache.serve_session`,
:meth:`RTRCache.notify_session`); nothing is keyed by transport, let
alone by ``id(transport)``, whose values are recycled after garbage
collection and would let a new router inherit a dead session's
partial frame.

Per RFC 8210 an Error Report is fatal to the session: a decode error
(or a protocol violation) quarantines the session — buffered bytes
are untrusted once framing is lost — until a frame-aligned Reset
Query arrives, which models the router reconnecting and starting
over.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from repro.rpki.rtr.errors import RTRProtocolError
from repro.rpki.rtr.pdus import (
    FLAG_ANNOUNCE,
    FLAG_WITHDRAW,
    CacheResetPDU,
    CacheResponsePDU,
    EndOfDataPDU,
    ErrorCode,
    ErrorReportPDU,
    PDU,
    ResetQueryPDU,
    SerialNotifyPDU,
    SerialQueryPDU,
    decode_stream,
    prefix_pdu,
)
from repro.net.addr import IPV4
from repro.obs.runtime import metrics
from repro.rpki.rtr.transport import InMemoryTransport
from repro.rpki.vrp import VRP

# Encoded sizes (RFC 8210, version 1) of a snapshot response's parts:
# Cache Response, IPv4 Prefix, IPv6 Prefix, End of Data.
_RESPONSE_BYTES, _IPV4_BYTES, _IPV6_BYTES, _END_OF_DATA_BYTES = 8, 20, 32, 24


def _vrp_key(vrp: VRP) -> Tuple:
    return (vrp.prefix, vrp.max_length, int(vrp.asn))


class SessionState(enum.Enum):
    ACTIVE = "active"
    QUARANTINED = "quarantined"
    CLOSED = "closed"


class Session:
    """Cache-side state of one connected router.

    ``served_serial`` is the serial of the last End of Data we sent
    it; ``notified_serial`` de-duplicates Serial Notify pushes.  The
    byte counters split response traffic into snapshot vs diff
    payloads so the delta-vs-snapshot saving is measurable.
    """

    __slots__ = (
        "sid",
        "transport",
        "buffer",
        "state",
        "served_serial",
        "notified_serial",
        "snapshot_bytes_sent",
        "diff_bytes_sent",
    )

    def __init__(self, sid: int, transport: InMemoryTransport):
        self.sid = sid
        self.transport = transport
        self.buffer = b""
        self.state = SessionState.ACTIVE
        self.served_serial: Optional[int] = None
        self.notified_serial: Optional[int] = None
        self.snapshot_bytes_sent = 0
        self.diff_bytes_sent = 0

    @property
    def synchronized(self) -> bool:
        """The router has committed at least one End of Data."""
        return (
            self.state is SessionState.ACTIVE
            and self.served_serial is not None
        )

    def __repr__(self) -> str:
        return (
            f"<Session {self.sid} {self.state.value} "
            f"served={self.served_serial}>"
        )


class RTRCache:
    """A cache server speaking RTR over per-session transports."""

    def __init__(
        self,
        session_id: int = 1,
        history_limit: int = 16,
        refresh_interval: int = 3600,
    ):
        self.session_id = session_id
        self.serial = 0
        self._current: Dict[Tuple, VRP] = {}
        # serial -> (announced, withdrawn) leading *to* that serial.
        self._diffs: Dict[int, Tuple[List[VRP], List[VRP]]] = {}
        self._history_limit = history_limit
        self._refresh_interval = refresh_interval
        self._sid_counter = itertools.count(1)
        self._sessions: Dict[int, Session] = {}
        # Encoded-response caches, invalidated whenever the serial
        # moves: with thousands of sessions the same snapshot/diff is
        # served many times, so each is encoded once per serial.
        self._snapshot_frame: Optional[bytes] = None
        self._diff_frames: Dict[int, bytes] = {}

    # -- data management ---------------------------------------------------

    def load(self, payloads: Iterable[VRP]) -> Tuple[int, int]:
        """Install a new VRP snapshot; returns (announced, withdrawn).

        A no-change reload in steady state keeps the serial, records
        no diff, and bumps no counter — a refresh loop that re-derives
        the same world must not wake every connected router with a
        notify followed by an empty diff.  The very first load always
        advances (even when empty) so routers can End-of-Data against
        something.
        """
        new: Dict[Tuple, VRP] = {_vrp_key(v): v for v in payloads}
        announced = [v for key, v in new.items() if key not in self._current]
        withdrawn = [
            v for key, v in self._current.items() if key not in new
        ]
        self._current = new
        if self.serial > 0 and not announced and not withdrawn:
            return 0, 0
        self.serial += 1
        self._diffs[self.serial] = (announced, withdrawn)
        while len(self._diffs) > self._history_limit:
            del self._diffs[min(self._diffs)]
        self._snapshot_frame = None
        self._diff_frames.clear()
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_rtr_cache_serial_advances_total",
                "Snapshot loads that advanced the cache serial",
            ).inc()
            counters.counter(
                "ripki_rtr_cache_vrp_changes_total",
                "VRPs announced/withdrawn across snapshot loads",
                labelnames=("change",),
            ).labels(change="announce").inc(len(announced))
            counters.counter(
                "ripki_rtr_cache_vrp_changes_total",
                "VRPs announced/withdrawn across snapshot loads",
                labelnames=("change",),
            ).labels(change="withdraw").inc(len(withdrawn))
            counters.gauge(
                "ripki_rtr_cache_vrps", "VRPs in the cache's current snapshot"
            ).set(len(self._current))
            counters.gauge(
                "ripki_rtr_cache_serial", "The cache's current serial"
            ).set(self.serial)
        return len(announced), len(withdrawn)

    def vrps(self) -> List[VRP]:
        return list(self._current.values())

    def can_diff_from(self, serial: int) -> bool:
        """True when every diff after ``serial`` is still in history."""
        if serial == self.serial:
            return True
        needed = range(serial + 1, self.serial + 1)
        return bool(needed) and all(s in self._diffs for s in needed)

    # -- session lifecycle -------------------------------------------------

    def register(self, transport: InMemoryTransport) -> Session:
        """Open a new session for a router connection."""
        session = Session(next(self._sid_counter), transport)
        self._sessions[session.sid] = session
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_rtr_cache_sessions_opened_total",
                "Router sessions registered with the cache",
            ).inc()
            self._set_session_gauge(counters)
        return session

    def unregister(self, session: Session) -> None:
        """Tear a session down, evicting every per-session buffer."""
        if session.state is SessionState.CLOSED:
            return
        session.state = SessionState.CLOSED
        session.buffer = b""
        self._sessions.pop(session.sid, None)
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_rtr_cache_sessions_closed_total",
                "Router sessions torn down (buffers evicted)",
            ).inc()
            self._set_session_gauge(counters)

    def sessions(self) -> List[Session]:
        return list(self._sessions.values())

    def _set_session_gauge(self, counters) -> None:
        counters.gauge(
            "ripki_rtr_cache_sessions", "Currently registered router sessions"
        ).set(len(self._sessions))

    # -- protocol ------------------------------------------------------------

    def notify_session(self, session: Session) -> bool:
        """Serial-Notify one session; False when suppressed.

        Quarantined/closed sessions are skipped (the router must
        resync first), and a session already notified at this serial
        is not poked again.
        """
        if session.state is not SessionState.ACTIVE:
            return False
        if session.notified_serial == self.serial:
            return False
        session.transport.send(
            SerialNotifyPDU(self.session_id, self.serial).encode()
        )
        session.notified_serial = self.serial
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_rtr_cache_notifies_sent_total",
                "Serial Notify PDUs pushed to router sessions",
            ).inc()
        return True

    def serve_session(self, session: Session) -> None:
        """Process every pending query on one session."""
        if session.state is SessionState.CLOSED:
            return
        data = session.transport.receive()
        if session.state is SessionState.QUARANTINED:
            self._try_revive(session, data)
            return
        buffer = session.buffer + data
        try:
            pdus, remainder = decode_stream(buffer)
        except RTRProtocolError as error:
            self._quarantine(
                session, ErrorCode(error.error_code), str(error)
            )
            return
        session.buffer = remainder
        for pdu in pdus:
            self._handle(pdu, session)
            if session.state is not SessionState.ACTIVE:
                break  # RFC 8210: an Error Report ends the exchange

    def _try_revive(self, session: Session, data: bytes) -> None:
        """Quarantine exit: only a frame-aligned Reset Query counts.

        Once framing is lost, buffered bytes are untrusted — anything
        that is not a cleanly-decodable stream starting with a Reset
        Query is dropped on the floor, exactly as a closed TCP
        connection would drop it.
        """
        if not data:
            return
        try:
            pdus, remainder = decode_stream(data)
        except RTRProtocolError:
            return
        if not pdus or not isinstance(pdus[0], ResetQueryPDU):
            return
        session.state = SessionState.ACTIVE
        session.buffer = remainder
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_rtr_cache_sessions_revived_total",
                "Quarantined sessions revived by a fresh Reset Query",
            ).inc()
        for pdu in pdus:
            self._handle(pdu, session)
            if session.state is not SessionState.ACTIVE:
                break

    def _quarantine(
        self,
        session: Session,
        code: ErrorCode,
        message: str,
        erroneous: bytes = b"",
        reply: bool = True,
    ) -> None:
        """Fatal error: report it (once) and park the session."""
        if reply:
            session.transport.send(
                ErrorReportPDU(code, erroneous, message).encode()
            )
        session.state = SessionState.QUARANTINED
        session.buffer = b""
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_rtr_cache_sessions_quarantined_total",
                "Sessions parked after a fatal protocol error",
                labelnames=("code",),
            ).labels(code=code.name.lower()).inc()

    def _handle(self, pdu: PDU, session: Session) -> None:
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_rtr_cache_queries_total",
                "Router queries served, by PDU type",
                labelnames=("type",),
            ).labels(type=type(pdu).__name__).inc()
        if isinstance(pdu, ResetQueryPDU):
            self._send_snapshot(session)
        elif isinstance(pdu, SerialQueryPDU):
            if (
                pdu.session_id != self.session_id
                or not self.can_diff_from(pdu.serial)
            ):
                self._count_reset(counters)
                session.transport.send(CacheResetPDU().encode())
            else:
                self._send_diff(session, pdu.serial)
        elif isinstance(pdu, ErrorReportPDU):
            # The router reported a fatal error: its session is dead
            # on their side too.  Never answer an error with an error.
            self._quarantine(
                session,
                pdu.error_code,
                pdu.error_text,
                reply=False,
            )
        else:
            self._quarantine(
                session,
                ErrorCode.INVALID_REQUEST,
                f"unexpected {type(pdu).__name__} at cache",
                erroneous=pdu.encode(),
            )

    @staticmethod
    def _count_reset(counters) -> None:
        counters.counter(
            "ripki_rtr_cache_resets_sent_total",
            "Cache Reset PDUs sent (router must full-resync)",
        ).inc()

    # -- responses -----------------------------------------------------------

    def snapshot_frame(self) -> bytes:
        """The full snapshot response, encoded once per serial."""
        if self._snapshot_frame is None:
            out = bytearray(CacheResponsePDU(self.session_id).encode())
            for vrp in self._current.values():
                out += prefix_pdu(FLAG_ANNOUNCE, vrp).encode()
            out += EndOfDataPDU(
                self.session_id, self.serial, self._refresh_interval
            ).encode()
            self._snapshot_frame = bytes(out)
        return self._snapshot_frame

    def snapshot_frame_size(self) -> int:
        """``len(self.snapshot_frame())``, counted instead of encoded."""
        ipv4 = sum(
            1 for vrp in self._current.values() if vrp.prefix.family == IPV4
        )
        ipv6 = len(self._current) - ipv4
        return (
            _RESPONSE_BYTES
            + _IPV4_BYTES * ipv4
            + _IPV6_BYTES * ipv6
            + _END_OF_DATA_BYTES
        )

    def diff_frame(self, since: int) -> bytes:
        """The incremental response from ``since``, encoded once."""
        frame = self._diff_frames.get(since)
        if frame is None:
            out = bytearray(CacheResponsePDU(self.session_id).encode())
            for serial in range(since + 1, self.serial + 1):
                announced, withdrawn = self._diffs[serial]
                for vrp in announced:
                    out += prefix_pdu(FLAG_ANNOUNCE, vrp).encode()
                for vrp in withdrawn:
                    out += prefix_pdu(FLAG_WITHDRAW, vrp).encode()
            out += EndOfDataPDU(
                self.session_id, self.serial, self._refresh_interval
            ).encode()
            frame = bytes(out)
            self._diff_frames[since] = frame
        return frame

    def _send_snapshot(self, session: Session) -> None:
        metrics().counter(
            "ripki_rtr_cache_snapshots_sent_total",
            "Full snapshot responses served",
        ).inc()
        frame = self.snapshot_frame()
        session.transport.send(frame)
        session.snapshot_bytes_sent += len(frame)
        session.served_serial = self.serial

    def _send_diff(self, session: Session, since: int) -> None:
        metrics().counter(
            "ripki_rtr_cache_diffs_sent_total",
            "Incremental diff responses served",
        ).inc()
        frame = self.diff_frame(since)
        session.transport.send(frame)
        session.diff_bytes_sent += len(frame)
        session.served_serial = self.serial

    def __repr__(self) -> str:
        return (
            f"<RTRCache session={self.session_id} serial={self.serial} "
            f"{len(self._current)} VRPs, {len(self._sessions)} sessions>"
        )
