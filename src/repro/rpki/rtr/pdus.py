"""RTR protocol data units (RFC 8210, version 1).

Every PDU shares an eight-byte header::

    0          8          16         24        31
    +----------+----------+-----------------------+
    | version  | pdu type |    session id / zero  |
    +----------+----------+-----------------------+
    |                    length                   |
    +---------------------------------------------+

Encoding and decoding are byte-exact per the RFC so a transcript of a
session is a valid RTR byte stream.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net import ASN, Prefix
from repro.net.addr import IPV4, IPV6
from repro.rpki.rtr.errors import RTRProtocolError
from repro.rpki.vrp import VRP

PROTOCOL_VERSION = 1
HEADER = struct.Struct("!BBHI")

# Largest frame either side will buffer for.  The biggest legitimate
# PDU is an Error Report embedding a full PDU plus diagnostic text —
# nowhere near 64 KiB.  Without a cap, a corrupt length field (the
# header's u32 can claim 4 GiB) would make the receiver buffer
# forever: no error, no progress, a silently black-holed session.
MAX_PDU_SIZE = 65536

FLAG_ANNOUNCE = 1
FLAG_WITHDRAW = 0


class PduType(enum.IntEnum):
    SERIAL_NOTIFY = 0
    SERIAL_QUERY = 1
    RESET_QUERY = 2
    CACHE_RESPONSE = 3
    IPV4_PREFIX = 4
    IPV6_PREFIX = 6
    END_OF_DATA = 7
    CACHE_RESET = 8
    ERROR_REPORT = 10


class ErrorCode(enum.IntEnum):
    CORRUPT_DATA = 0
    INTERNAL_ERROR = 1
    NO_DATA_AVAILABLE = 2
    INVALID_REQUEST = 3
    UNSUPPORTED_VERSION = 4
    UNSUPPORTED_PDU_TYPE = 5
    WITHDRAWAL_OF_UNKNOWN_RECORD = 6
    DUPLICATE_ANNOUNCEMENT = 7


class PDU:
    """Base class; subclasses implement ``body()`` and ``session_field``.

    Every PDU is immutable, so one decoded object can stand for the
    same bytes at every receiver.
    """

    pdu_type: PduType

    def session_field(self) -> int:
        return 0

    def body(self) -> bytes:
        return b""

    def encode(self) -> bytes:
        body = self.body()
        header = HEADER.pack(
            PROTOCOL_VERSION,
            int(self.pdu_type),
            self.session_field(),
            HEADER.size + len(body),
        )
        return header + body


@dataclass(frozen=True)
class SerialNotifyPDU(PDU):
    """Cache -> router: new data is available."""

    session_id: int
    serial: int
    pdu_type = PduType.SERIAL_NOTIFY

    def session_field(self) -> int:
        return self.session_id

    def body(self) -> bytes:
        return struct.pack("!I", self.serial)


@dataclass(frozen=True)
class SerialQueryPDU(PDU):
    """Router -> cache: send me the diff since ``serial``."""

    session_id: int
    serial: int
    pdu_type = PduType.SERIAL_QUERY

    def session_field(self) -> int:
        return self.session_id

    def body(self) -> bytes:
        return struct.pack("!I", self.serial)


@dataclass(frozen=True)
class ResetQueryPDU(PDU):
    """Router -> cache: send me everything."""

    pdu_type = PduType.RESET_QUERY


@dataclass(frozen=True)
class CacheResponsePDU(PDU):
    """Cache -> router: data follows."""

    session_id: int
    pdu_type = PduType.CACHE_RESPONSE

    def session_field(self) -> int:
        return self.session_id


@dataclass(frozen=True)
class IPv4PrefixPDU(PDU):
    """One IPv4 VRP, announced or withdrawn."""

    flags: int
    prefix: Prefix
    max_length: int
    asn: ASN
    pdu_type = PduType.IPV4_PREFIX

    def body(self) -> bytes:
        return struct.pack(
            "!BBBB4sI",
            self.flags,
            self.prefix.length,
            self.max_length,
            0,
            self.prefix.value.to_bytes(4, "big"),
            int(self.asn),
        )

    def to_vrp(self, trust_anchor: str = "rtr") -> VRP:
        return VRP(self.prefix, self.max_length, self.asn, trust_anchor)


@dataclass(frozen=True)
class IPv6PrefixPDU(PDU):
    """One IPv6 VRP, announced or withdrawn."""

    flags: int
    prefix: Prefix
    max_length: int
    asn: ASN
    pdu_type = PduType.IPV6_PREFIX

    def body(self) -> bytes:
        return struct.pack(
            "!BBBB16sI",
            self.flags,
            self.prefix.length,
            self.max_length,
            0,
            self.prefix.value.to_bytes(16, "big"),
            int(self.asn),
        )

    def to_vrp(self, trust_anchor: str = "rtr") -> VRP:
        return VRP(self.prefix, self.max_length, self.asn, trust_anchor)


def prefix_pdu(flags: int, vrp: VRP) -> PDU:
    """Build the family-appropriate prefix PDU for a VRP."""
    if vrp.prefix.family == IPV4:
        return IPv4PrefixPDU(flags, vrp.prefix, vrp.max_length, vrp.asn)
    return IPv6PrefixPDU(flags, vrp.prefix, vrp.max_length, vrp.asn)


@dataclass(frozen=True)
class EndOfDataPDU(PDU):
    """Cache -> router: transfer complete; includes refresh timers."""

    session_id: int
    serial: int
    refresh_interval: int = 3600
    retry_interval: int = 600
    expire_interval: int = 7200
    pdu_type = PduType.END_OF_DATA

    def session_field(self) -> int:
        return self.session_id

    def body(self) -> bytes:
        return struct.pack(
            "!IIII",
            self.serial,
            self.refresh_interval,
            self.retry_interval,
            self.expire_interval,
        )


@dataclass(frozen=True)
class CacheResetPDU(PDU):
    """Cache -> router: I cannot diff from your serial, reset."""

    pdu_type = PduType.CACHE_RESET


@dataclass(frozen=True)
class ErrorReportPDU(PDU):
    """Either direction: a fatal protocol error."""

    error_code: ErrorCode
    erroneous_pdu: bytes = b""
    error_text: str = ""
    pdu_type = PduType.ERROR_REPORT

    def session_field(self) -> int:
        return int(self.error_code)

    def body(self) -> bytes:
        text = self.error_text.encode("utf-8")
        return (
            struct.pack("!I", len(self.erroneous_pdu))
            + self.erroneous_pdu
            + struct.pack("!I", len(text))
            + text
        )


def decode_pdu(data: bytes) -> Tuple[PDU, int]:
    """Decode one PDU from the front of ``data``.

    Returns the PDU and the number of bytes consumed (its length
    field).  ``data`` must hold at least one whole PDU: a short header
    or a body shorter than the length field raises
    :class:`RTRProtocolError`, as does any malformed field.  For a
    receive buffer that may end mid-PDU use :func:`decode_stream`,
    which keeps the incomplete tail as its remainder.
    """
    if len(data) < HEADER.size:
        raise RTRProtocolError("truncated header", ErrorCode.CORRUPT_DATA)
    version, pdu_type_raw, session, length = HEADER.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise RTRProtocolError(
            f"unsupported version {version}", ErrorCode.UNSUPPORTED_VERSION
        )
    if length < HEADER.size or len(data) < length:
        raise RTRProtocolError("truncated PDU", ErrorCode.CORRUPT_DATA)
    body = data[HEADER.size:length]
    try:
        pdu_type = PduType(pdu_type_raw)
    except ValueError:
        raise RTRProtocolError(
            f"unknown PDU type {pdu_type_raw}", ErrorCode.UNSUPPORTED_PDU_TYPE
        ) from None

    if pdu_type is PduType.SERIAL_NOTIFY:
        pdu: PDU = SerialNotifyPDU(session, _u32(body, pdu_type))
    elif pdu_type is PduType.SERIAL_QUERY:
        pdu = SerialQueryPDU(session, _u32(body, pdu_type))
    elif pdu_type is PduType.RESET_QUERY:
        _expect(body, 0, pdu_type)
        pdu = ResetQueryPDU()
    elif pdu_type is PduType.CACHE_RESPONSE:
        _expect(body, 0, pdu_type)
        pdu = CacheResponsePDU(session)
    elif pdu_type is PduType.IPV4_PREFIX:
        pdu = _decode_prefix(body, IPV4, pdu_type)
    elif pdu_type is PduType.IPV6_PREFIX:
        pdu = _decode_prefix(body, IPV6, pdu_type)
    elif pdu_type is PduType.END_OF_DATA:
        if len(body) != 16:
            raise RTRProtocolError("bad End of Data body", ErrorCode.CORRUPT_DATA)
        serial, refresh, retry, expire = struct.unpack("!IIII", body)
        pdu = EndOfDataPDU(session, serial, refresh, retry, expire)
    elif pdu_type is PduType.CACHE_RESET:
        _expect(body, 0, pdu_type)
        pdu = CacheResetPDU()
    else:  # ERROR_REPORT
        pdu = _decode_error(body, session)
    return pdu, length


def decode_stream(buffer: bytes) -> Tuple[List[PDU], bytes]:
    """Decode every complete PDU in ``buffer``; return the remainder."""
    pdus: List[PDU] = []
    offset = 0
    while len(buffer) - offset >= HEADER.size:
        _v, _t, _s, length = HEADER.unpack_from(buffer, offset)
        if length < HEADER.size or length > MAX_PDU_SIZE:
            raise RTRProtocolError("bad length field", ErrorCode.CORRUPT_DATA)
        if len(buffer) - offset < length:
            break  # incomplete tail, keep buffering
        pdu, consumed = decode_pdu(buffer[offset:offset + length])
        pdus.append(pdu)
        offset += consumed
    return pdus, buffer[offset:]


def _u32(body: bytes, pdu_type: PduType) -> int:
    if len(body) != 4:
        raise RTRProtocolError(f"bad {pdu_type.name} body", ErrorCode.CORRUPT_DATA)
    return struct.unpack("!I", body)[0]


def _expect(body: bytes, size: int, pdu_type: PduType) -> None:
    if len(body) != size:
        raise RTRProtocolError(f"bad {pdu_type.name} body", ErrorCode.CORRUPT_DATA)


def _decode_prefix(body: bytes, family: int, pdu_type: PduType) -> PDU:
    addr_len = 4 if family == IPV4 else 16
    expected = 4 + addr_len + 4
    if len(body) != expected:
        raise RTRProtocolError(f"bad {pdu_type.name} body", ErrorCode.CORRUPT_DATA)
    flags, length, max_length, _zero = struct.unpack_from("!BBBB", body)
    value = int.from_bytes(body[4:4 + addr_len], "big")
    asn = ASN(struct.unpack_from("!I", body, 4 + addr_len)[0])
    bits = addr_len * 8
    if length > bits or not length <= max_length <= bits:
        raise RTRProtocolError(
            f"bad prefix/maxLength in {pdu_type.name}", ErrorCode.CORRUPT_DATA
        )
    host_bits = bits - length
    if host_bits and value & ((1 << host_bits) - 1):
        raise RTRProtocolError(
            "prefix has host bits set", ErrorCode.CORRUPT_DATA
        )
    prefix = Prefix(family, value, length)
    if family == IPV4:
        return IPv4PrefixPDU(flags, prefix, max_length, asn)
    return IPv6PrefixPDU(flags, prefix, max_length, asn)


def _decode_error(body: bytes, error_code_raw: int) -> ErrorReportPDU:
    try:
        error_code = ErrorCode(error_code_raw)
    except ValueError:
        error_code = ErrorCode.INTERNAL_ERROR
    if len(body) < 4:
        raise RTRProtocolError("bad Error Report body", ErrorCode.CORRUPT_DATA)
    pdu_len = struct.unpack_from("!I", body)[0]
    if len(body) < 4 + pdu_len + 4:
        raise RTRProtocolError("bad Error Report body", ErrorCode.CORRUPT_DATA)
    erroneous = body[4:4 + pdu_len]
    text_len = struct.unpack_from("!I", body, 4 + pdu_len)[0]
    text_start = 4 + pdu_len + 4
    if len(body) < text_start + text_len:
        raise RTRProtocolError("bad Error Report body", ErrorCode.CORRUPT_DATA)
    text = body[text_start:text_start + text_len].decode("utf-8", "replace")
    return ErrorReportPDU(error_code, erroneous, text)
