"""Unit tests for repro.net.asn."""

import pytest

from repro.net import ASN
from repro.net.errors import ASNError


def test_basic_construction():
    asn = ASN(64500)
    assert asn == 64500
    assert str(asn) == "AS64500"
    assert repr(asn) == "ASN(64500)"


def test_is_int_subclass():
    assert ASN(5) + 1 == 6
    assert sorted([ASN(3), ASN(1)]) == [1, 3]
    assert hash(ASN(7)) == hash(7)


def test_range_validation():
    ASN(0)
    ASN((1 << 32) - 1)
    with pytest.raises(ASNError):
        ASN(1 << 32)
    with pytest.raises(ASNError):
        ASN(-1)


@pytest.mark.parametrize("value", [1.5, 1.0, True, False, "64500", "AS1", None])
def test_only_an_int_is_an_as_number(value):
    """No coercion: ``ASN(1.5)`` and ``ASN(True)`` were both AS1."""
    with pytest.raises(ASNError):
        ASN(value)


def test_an_asn_is_still_accepted():
    assert ASN(ASN(5)) == 5
    assert type(ASN(ASN(5))) is ASN
