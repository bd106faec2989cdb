"""RTR client (the router side).

Maintains a local VRP table synchronised from a cache: Reset Query on
first contact or after a Cache Reset, Serial Query after a Serial
Notify.  The table is exposed as a
:class:`~repro.rpki.vrp.ValidatedPayloads` so a BGP speaker can run
RFC 6811 origin validation directly against it.

One cache feeds many routers the same bytes, so what depends only on
the bytes is done once (:func:`decode_shared`) and what depends on the
session — the RFC 8210 state machine — is done per router, one PDU at
a time.  A committed table is never written again, so the first router
to apply a response to a table walks it, and every other router that
applies the same response to the same table adopts the table it
committed (:meth:`RTRClient._share`).
"""

from __future__ import annotations

import collections
import enum
import functools
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.rpki.rtr.errors import RTRProtocolError
from repro.rpki.rtr.pdus import (
    FLAG_ANNOUNCE,
    CacheResetPDU,
    CacheResponsePDU,
    EndOfDataPDU,
    ErrorCode,
    ErrorReportPDU,
    IPv4PrefixPDU,
    IPv6PrefixPDU,
    PDU,
    ResetQueryPDU,
    SerialNotifyPDU,
    SerialQueryPDU,
    decode_stream,
)
from repro.obs.runtime import metrics
from repro.rpki.rtr.transport import InMemoryTransport
from repro.rpki.vrp import VRP, ValidatedPayloads

# Distinct receive buffers whose decode is remembered.  One pump round
# sees at most one Serial Notify, one snapshot, one Cache Reset and a
# diff per serial still in the cache's history (16 by default), however
# many routers there are; 64 leaves room for two caches' worth.  It is
# a constant, not a knob: a working set under the bound is unaffected
# by it, one over it only decodes again, and what the memo can pin is
# 64 frames either way.
FRAME_MEMO_SIZE = 64

# A prefix PDU's table entry: ``((prefix, max_length, asn), VRP)``.
Record = Tuple[Tuple, VRP]
Step = Tuple[PDU, Optional[Record]]
# A router's VRP table by record key.  Once committed at End of Data it
# is never written again; a response edits a copy.
Table = Dict[Tuple, VRP]

# Every client starts from, and a resync returns to, this one table, so
# the first response of every router has one base to share.
_EMPTY_TABLE: Table = {}


class Transition(NamedTuple):
    """A response that ran from ``base`` to its End of Data without error."""

    base: Table     # held, so its id() is not reused while this lives
    table: Table    # the committed result
    stop: int       # the step index of the End of Data


class Frame(NamedTuple):
    """One decoded receive buffer, as every router that reads it sees it.

    ``tables`` is the one mutable part: the transitions routers have
    run through this frame, keyed by (step index of the Cache
    Response, ``id`` of the base table).  It lives and dies with the
    frame, so :func:`decode_shared`'s memo bounds it.
    """

    steps: Tuple[Step, ...]
    remainder: bytes
    tables: Dict[Tuple[int, int], Transition]


@functools.lru_cache(maxsize=FRAME_MEMO_SIZE)
def decode_shared(buffer: bytes, trust_anchor: str) -> Frame:
    """:func:`decode_stream`, once per distinct byte string.

    Returns every complete PDU in ``buffer`` paired with its table
    entry (``None`` unless it is a prefix PDU), the remainder, and an
    empty transition memo.
    Decoding is a pure function of the bytes and the decoded part is
    immutable, so every router that receives the same frame shares one
    tuple of PDU objects, and every table that holds a record holds a
    reference to the one key and the one :class:`VRP` built here.
    The routers that read the frame fill its transition memo, so the
    next router with the same base adopts the committed table instead
    of building its own.  All of it lives as long as this memo or some
    table refers to it.

    The memo is keyed by content: a corrupted, truncated or
    garbage-prefixed buffer is a different key and takes the full
    checking decode, and a raised :class:`RTRProtocolError` is never
    remembered.  Two threads that miss on the same bytes both decode;
    either result is correct (as for the cache's encoded-frame caches).
    """
    pdus, remainder = decode_stream(buffer)
    steps = tuple((pdu, _record(pdu, trust_anchor)) for pdu in pdus)
    return Frame(steps, remainder, {})


def _record(pdu: PDU, trust_anchor: str) -> Optional[Record]:
    if not isinstance(pdu, (IPv4PrefixPDU, IPv6PrefixPDU)):
        return None
    vrp = pdu.to_vrp(trust_anchor)
    return (vrp.prefix, vrp.max_length, int(vrp.asn)), vrp


class ClientState(enum.Enum):
    DISCONNECTED = "disconnected"
    SYNCING = "syncing"
    SYNCHRONISED = "synchronised"
    ERROR = "error"


class RTRClient:
    """A router-side RTR endpoint over one transport.

    ``_table`` is the last committed table and is only ever rebound,
    never written: it may be the same object as other routers' tables
    (every client starts from one shared empty table, and a clean
    response adopts the table another router committed from the same
    base).  ``_pending`` is the open response's private copy.
    """

    def __init__(self, transport: InMemoryTransport, trust_anchor: str = "rtr"):
        self._transport = transport
        self._trust_anchor = trust_anchor
        self._buffer = b""
        self._table: Table = _EMPTY_TABLE
        self._pending: Optional[Table] = None
        self.state = ClientState.DISCONNECTED
        self.session_id: Optional[int] = None
        self.serial: Optional[int] = None
        self.refresh_interval: Optional[int] = None
        self.last_error: Optional[ErrorReportPDU] = None

    # -- queries ---------------------------------------------------------

    def start(self) -> None:
        """Initial synchronisation: full snapshot via Reset Query.

        The state transition precedes the send: a fault-injected
        transport may raise mid-query, and the session must already
        read as SYNCING (query outstanding) rather than stale.
        """
        self.state = ClientState.SYNCING
        self._transport.send(ResetQueryPDU().encode())

    def refresh(self) -> None:
        """Incremental synchronisation from the last known serial."""
        if self.session_id is None or self.serial is None:
            self.start()
            return
        self.state = ClientState.SYNCING
        self._transport.send(
            SerialQueryPDU(self.session_id, self.serial).encode()
        )

    # -- event pump --------------------------------------------------------

    def poll(self) -> None:
        """Consume every PDU the cache has queued for us.

        An error is fatal to the session (RFC 8210): once in ``ERROR``
        the client drains its socket and discards what it read.  Only
        a fresh client (a reconnect, or
        :meth:`~repro.rtrd.session.SessionManager.revive`) starts over.

        Every PDU goes through :meth:`_handle`, except that a response
        some router already ran cleanly from this table is adopted
        whole (:meth:`_share`).  Errors, state and counters are those
        of the per-PDU walk either way.
        """
        data = self._transport.receive()
        if self.state is ClientState.ERROR:
            return
        self._buffer += data
        try:
            frame = decode_shared(self._buffer, self._trust_anchor)
        except RTRProtocolError as error:
            self._fail(ErrorCode(error.error_code), str(error))
            return
        steps, self._buffer = frame.steps, frame.remainder
        counters = metrics()
        handled = 0
        opened = None   # the response this frame opened, if still clean
        while handled < len(steps) and self.state is not ClientState.ERROR:
            pdu, record = steps[handled]
            self._handle(pdu, record, counters)
            handled += 1
            if record is None and self.state is not ClientState.ERROR:
                handled, opened = self._share(frame, handled, pdu, opened)
        if counters.enabled:
            by_type = collections.Counter(
                type(pdu).__name__ for pdu, _record in steps[:handled]
            )
            for name, count in by_type.items():
                counters.counter(
                    "ripki_rtr_client_pdus_total",
                    "PDUs handled by the router side, by type",
                    labelnames=("type",),
                ).labels(type=name).inc(count)

    def _share(
        self, frame: Frame, handled: int, pdu: PDU, opened: Optional[Tuple]
    ) -> Tuple[int, Optional[Tuple]]:
        """Adopt or record the table a clean response commits.

        ``pdu``, the last of ``handled`` steps, was handled without
        error and is not a prefix PDU.  A Cache Response opens a
        response on a copy of the current table; if a router already
        ran this one from the same table to its End of Data, the
        committed table is the result whatever the router, so adopt it
        and go straight to the End of Data.  Otherwise the response is
        open (``(memo key, base)``) until a step other than a prefix
        PDU: an End of Data then records the transition — or adopts
        the one a racing thread recorded first — and anything else (a
        Serial Notify acts on router state) ends it unrecorded.

        Returns the next step to handle and the open response.
        """
        memo = frame.tables
        if isinstance(pdu, CacheResponsePDU):
            key = (handled - 1, id(self._table))
            known = memo.get(key)
            if known is None:
                return handled, (key, self._table)
            self._pending = known.table
            return known.stop, None
        if opened is not None and isinstance(pdu, EndOfDataPDU):
            key, base = opened
            self._table = memo.setdefault(
                key, Transition(base, self._table, handled - 1)
            ).table
        return handled, None

    def _handle(self, pdu: PDU, record: Optional[Record], counters) -> None:
        if record is not None:
            # A prefix PDU: by far the most common, so tested first.
            pending = self._pending
            if pending is None:
                self._fail(
                    ErrorCode.CORRUPT_DATA, "prefix PDU outside a response"
                )
                return
            key, vrp = record
            if pdu.flags & FLAG_ANNOUNCE:
                if key in pending:
                    self._fail(
                        ErrorCode.DUPLICATE_ANNOUNCEMENT, f"announce {vrp}"
                    )
                    return
                pending[key] = vrp
            elif key in pending:
                del pending[key]
            else:
                self._fail(
                    ErrorCode.WITHDRAWAL_OF_UNKNOWN_RECORD, f"withdraw {vrp}"
                )
        elif isinstance(pdu, SerialNotifyPDU):
            # Out-of-band poke: fetch the diff unless already syncing.
            if self.state is ClientState.SYNCING:
                return
            if self.session_id is None:
                self.session_id = pdu.session_id
            elif pdu.session_id != self.session_id:
                # The cache restarted under a fresh session: our table
                # and serial mean nothing to it any more.  Detecting
                # the mismatch here (instead of round-tripping a
                # Serial Query destined for a Cache Reset) goes
                # straight to the full resync.
                self._resync(
                    "ripki_rtr_client_notify_session_mismatch_total",
                    "Serial Notifies whose session id forced a resync",
                )
                return
            if self.serial is not None and pdu.serial == self.serial:
                # Already at the notified serial: a Serial Query would
                # only fetch an empty diff.
                counters.counter(
                    "ripki_rtr_client_notify_noop_total",
                    "Serial Notifies ignored because the serial was "
                    "already current",
                ).inc()
                return
            self.refresh()
        elif isinstance(pdu, CacheResponsePDU):
            if self.session_id is not None and pdu.session_id != self.session_id:
                self._fail(
                    ErrorCode.CORRUPT_DATA,
                    f"session id changed {self.session_id} -> {pdu.session_id}",
                )
                return
            self.session_id = pdu.session_id
            # Diffs apply on top of the current table; a response after
            # a Reset Query starts from scratch (table empty on first
            # sync, and we cleared it when we saw Cache Reset).
            # ``copy()`` clones the hash table; ``dict(table)`` would
            # re-insert every entry once withdrawals have left holes.
            self._pending = self._table.copy()
        elif isinstance(pdu, EndOfDataPDU):
            if self._pending is None:
                self._fail(ErrorCode.CORRUPT_DATA, "End of Data outside response")
                return
            self._table = self._pending
            self._pending = None
            if self.serial is None or pdu.serial != self.serial:
                counters.counter(
                    "ripki_rtr_client_serial_advances_total",
                    "End-of-Data PDUs that moved the router's serial",
                ).inc()
            self.serial = pdu.serial
            self.refresh_interval = pdu.refresh_interval
            self.state = ClientState.SYNCHRONISED
            counters.gauge(
                "ripki_rtr_client_vrps", "VRPs in the router's local table"
            ).set(len(self._table))
            counters.gauge(
                "ripki_rtr_client_serial", "The router's last committed serial"
            ).set(pdu.serial)
        elif isinstance(pdu, CacheResetPDU):
            self._resync(
                "ripki_rtr_client_resyncs_total",
                "Cache Resets forcing a full snapshot resync",
            )
        elif isinstance(pdu, ErrorReportPDU):
            self.last_error = pdu
            self.state = ClientState.ERROR
        else:
            self._fail(
                ErrorCode.UNSUPPORTED_PDU_TYPE,
                f"unexpected {type(pdu).__name__} at router",
            )

    def _resync(self, metric: str, help_text: str) -> None:
        """Drop every piece of session state and start from scratch.

        The session id is forgotten too — the trigger (a Cache Reset,
        or a Serial Notify under an unknown session) may follow a
        cache restart under a fresh session.
        """
        self._table = _EMPTY_TABLE
        self._pending = None
        self.serial = None
        self.session_id = None
        metrics().counter(metric, help_text).inc()
        self.start()

    def _fail(self, code: ErrorCode, message: str) -> None:
        self.state = ClientState.ERROR
        self._pending = None
        self._buffer = b""
        self.last_error = ErrorReportPDU(code, b"", message)
        metrics().counter(
            "ripki_rtr_client_errors_total",
            "Fatal session errors raised by the router side",
            labelnames=("code",),
        ).labels(code=code.name.lower()).inc()
        self._transport.send(self.last_error.encode())

    # -- table access -----------------------------------------------------------

    def vrps(self) -> List[VRP]:
        return list(self._table.values())

    def payloads(self) -> ValidatedPayloads:
        """A fresh ValidatedPayloads over the current table."""
        return ValidatedPayloads(self._table.values())

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (
            f"<RTRClient {self.state.value} serial={self.serial} "
            f"{len(self._table)} VRPs>"
        )
