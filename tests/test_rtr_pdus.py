"""Unit tests for RTR PDU encoding/decoding (RFC 8210 framing)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import ASN, Prefix
from repro.rpki.rtr import (
    CacheResetPDU,
    CacheResponsePDU,
    EndOfDataPDU,
    ErrorCode,
    ErrorReportPDU,
    IPv4PrefixPDU,
    IPv6PrefixPDU,
    PduType,
    ResetQueryPDU,
    RTRProtocolError,
    SerialNotifyPDU,
    SerialQueryPDU,
    decode_pdu,
    decode_stream,
)
from repro.rpki.rtr.pdus import FLAG_ANNOUNCE, FLAG_WITHDRAW, HEADER, prefix_pdu
from repro.rpki.vrp import VRP


def roundtrip(pdu):
    decoded, consumed = decode_pdu(pdu.encode())
    assert consumed == len(pdu.encode())
    return decoded


class TestRoundtrips:
    def test_serial_notify(self):
        pdu = roundtrip(SerialNotifyPDU(session_id=7, serial=42))
        assert pdu == SerialNotifyPDU(7, 42)

    def test_serial_query(self):
        assert roundtrip(SerialQueryPDU(3, 9)) == SerialQueryPDU(3, 9)

    def test_reset_query_and_cache_reset(self):
        assert isinstance(roundtrip(ResetQueryPDU()), ResetQueryPDU)
        assert isinstance(roundtrip(CacheResetPDU()), CacheResetPDU)

    def test_cache_response(self):
        assert roundtrip(CacheResponsePDU(11)) == CacheResponsePDU(11)

    def test_ipv4_prefix(self):
        pdu = IPv4PrefixPDU(
            FLAG_ANNOUNCE, Prefix.parse("10.0.0.0/16"), 24, ASN(64500)
        )
        assert roundtrip(pdu) == pdu
        assert len(pdu.encode()) == HEADER.size + 12

    def test_ipv6_prefix(self):
        pdu = IPv6PrefixPDU(
            FLAG_WITHDRAW, Prefix.parse("2001:db8::/32"), 48, ASN(1)
        )
        assert roundtrip(pdu) == pdu
        assert len(pdu.encode()) == HEADER.size + 24

    def test_end_of_data(self):
        pdu = EndOfDataPDU(5, 100, 111, 222, 333)
        assert roundtrip(pdu) == pdu

    def test_error_report(self):
        inner = ResetQueryPDU().encode()
        pdu = ErrorReportPDU(ErrorCode.CORRUPT_DATA, inner, "boom")
        decoded = roundtrip(pdu)
        assert decoded.error_code is ErrorCode.CORRUPT_DATA
        assert decoded.erroneous_pdu == inner
        assert decoded.error_text == "boom"

    def test_prefix_pdu_factory(self):
        v4 = prefix_pdu(FLAG_ANNOUNCE, VRP(Prefix.parse("10.0.0.0/8"), 8, ASN(1)))
        v6 = prefix_pdu(FLAG_ANNOUNCE, VRP(Prefix.parse("2001:db8::/32"), 32, ASN(1)))
        assert isinstance(v4, IPv4PrefixPDU)
        assert isinstance(v6, IPv6PrefixPDU)
        assert v4.to_vrp().prefix == Prefix.parse("10.0.0.0/8")

    def test_pdus_are_immutable(self):
        # One decoded PDU is shared by every router that got its bytes.
        pdu, _consumed = decode_pdu(EndOfDataPDU(5, 100).encode())
        with pytest.raises(AttributeError):
            pdu.serial = 101
        assert hash(pdu) == hash(EndOfDataPDU(5, 100))


class TestMalformed:
    def test_truncated_header(self):
        with pytest.raises(RTRProtocolError):
            decode_pdu(b"\x01\x00")

    def test_wrong_version(self):
        data = bytearray(SerialQueryPDU(1, 1).encode())
        data[0] = 9
        with pytest.raises(RTRProtocolError) as excinfo:
            decode_pdu(bytes(data))
        assert excinfo.value.error_code == ErrorCode.UNSUPPORTED_VERSION

    def test_unknown_pdu_type(self):
        data = bytearray(ResetQueryPDU().encode())
        data[1] = 99
        with pytest.raises(RTRProtocolError) as excinfo:
            decode_pdu(bytes(data))
        assert excinfo.value.error_code == ErrorCode.UNSUPPORTED_PDU_TYPE

    def test_truncated_body(self):
        data = SerialQueryPDU(1, 1).encode()[:-2]
        with pytest.raises(RTRProtocolError):
            decode_pdu(data)

    def test_bad_prefix_host_bits(self):
        data = bytearray(
            IPv4PrefixPDU(
                FLAG_ANNOUNCE, Prefix.parse("10.0.0.0/16"), 24, ASN(1)
            ).encode()
        )
        data[HEADER.size + 7] = 0xFF  # set host bits in the address
        with pytest.raises(RTRProtocolError):
            decode_pdu(bytes(data))

    def test_bad_maxlength(self):
        data = bytearray(
            IPv4PrefixPDU(
                FLAG_ANNOUNCE, Prefix.parse("10.0.0.0/16"), 24, ASN(1)
            ).encode()
        )
        data[HEADER.size + 2] = 8  # maxLength below prefix length
        with pytest.raises(RTRProtocolError):
            decode_pdu(bytes(data))

    def test_bad_length_field(self):
        data = bytearray(ResetQueryPDU().encode())
        data[4:8] = (2).to_bytes(4, "big")  # length < header size
        with pytest.raises(RTRProtocolError):
            decode_stream(bytes(data))


class TestStreamDecoding:
    def test_multiple_pdus(self):
        stream = (
            SerialNotifyPDU(1, 5).encode()
            + ResetQueryPDU().encode()
            + EndOfDataPDU(1, 5).encode()
        )
        pdus, rest = decode_stream(stream)
        assert [type(p) for p in pdus] == [
            SerialNotifyPDU, ResetQueryPDU, EndOfDataPDU,
        ]
        assert rest == b""

    def test_partial_tail_buffered(self):
        stream = SerialNotifyPDU(1, 5).encode() + EndOfDataPDU(1, 5).encode()[:7]
        pdus, rest = decode_stream(stream)
        assert len(pdus) == 1
        assert len(rest) == 7

    def test_empty(self):
        assert decode_stream(b"") == ([], b"")


@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_serial_pdus_roundtrip_property(session, serial):
    assert roundtrip(SerialNotifyPDU(session, serial)) == SerialNotifyPDU(
        session, serial
    )
    assert roundtrip(SerialQueryPDU(session, serial)) == SerialQueryPDU(
        session, serial
    )


@given(
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.booleans(),
)
def test_ipv4_prefix_roundtrip_property(length, value, asn, announce):
    from repro.net import Address

    prefix = Prefix.from_address(Address(4, value), length)
    pdu = IPv4PrefixPDU(
        FLAG_ANNOUNCE if announce else FLAG_WITHDRAW, prefix, 32, ASN(asn)
    )
    assert roundtrip(pdu) == pdu
