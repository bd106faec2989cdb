"""Unit tests for RFC 6811 origin validation (repro.rpki.vrp).

The tail of this module is property-based: hypothesis generates VRP
sets and announcements, and the 0-5 annotation and three-state verdict
are checked against a linear-scan oracle written here, which shares no
code with ``repro.rpki.vrp`` (it never touches the index, ``VRP.covers``
or ``VRP.matches``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import ASN, Address, Prefix
from repro.net.addr import IPV4, IPV6
from repro.rov import annotate_route
from repro.errors import ReproError
from repro.rpki import VRP, OriginValidation, ValidatedPayloads
from repro.rpki.errors import ValidationStateError


def P(text):
    return Prefix.parse(text)


def vrp(prefix, max_length, asn, ta="RIPE"):
    return VRP(P(prefix), max_length, ASN(asn), ta)


@pytest.fixture()
def payloads():
    return ValidatedPayloads(
        [
            vrp("10.0.0.0/16", 24, 64500),
            vrp("192.0.2.0/24", 24, 64501),
            vrp("2001:db8::/32", 48, 64502),
        ]
    )


@pytest.mark.parametrize("value", ["bogus", "VALID", 1, None, ["valid"]])
def test_unknown_state_is_a_typed_error(value):
    with pytest.raises(ValidationStateError) as raised:
        OriginValidation(value)
    assert isinstance(raised.value, ReproError)
    assert isinstance(raised.value, ValueError)


def test_known_states_round_trip_through_their_values():
    for state in OriginValidation:
        assert OriginValidation(state.value) is state


class TestOriginValidation:
    def test_not_found(self, payloads):
        assert (
            payloads.validate_origin(P("203.0.113.0/24"), 64500)
            is OriginValidation.NOT_FOUND
        )

    def test_valid_exact(self, payloads):
        assert (
            payloads.validate_origin(P("192.0.2.0/24"), 64501)
            is OriginValidation.VALID
        )

    def test_valid_more_specific_within_maxlength(self, payloads):
        assert (
            payloads.validate_origin(P("10.0.1.0/24"), 64500)
            is OriginValidation.VALID
        )

    def test_invalid_beyond_maxlength(self, payloads):
        # /25 exceeds maxLength 24 even with the right origin.
        assert (
            payloads.validate_origin(P("10.0.1.0/25"), 64500)
            is OriginValidation.INVALID
        )

    def test_invalid_wrong_origin(self, payloads):
        assert (
            payloads.validate_origin(P("192.0.2.0/24"), 666)
            is OriginValidation.INVALID
        )

    def test_less_specific_than_vrp_is_not_covered(self, payloads):
        # A /15 is *less* specific than the 10.0/16 VRP: nothing covers it.
        assert (
            payloads.validate_origin(P("10.0.0.0/15"), 64500)
            is OriginValidation.NOT_FOUND
        )

    def test_any_matching_vrp_wins(self):
        payloads = ValidatedPayloads(
            [vrp("10.0.0.0/16", 16, 1), vrp("10.0.0.0/16", 16, 2)]
        )
        assert payloads.validate_origin(P("10.0.0.0/16"), 1) is OriginValidation.VALID
        assert payloads.validate_origin(P("10.0.0.0/16"), 2) is OriginValidation.VALID
        assert (
            payloads.validate_origin(P("10.0.0.0/16"), 3) is OriginValidation.INVALID
        )

    def test_covering_vrp_at_different_length(self):
        payloads = ValidatedPayloads([vrp("10.0.0.0/8", 8, 1)])
        # The /16 announcement is covered (by the /8 VRP) but too long.
        assert (
            payloads.validate_origin(P("10.5.0.0/16"), 1) is OriginValidation.INVALID
        )

    def test_ipv6(self, payloads):
        assert (
            payloads.validate_origin(P("2001:db8:1::/48"), 64502)
            is OriginValidation.VALID
        )
        assert (
            payloads.validate_origin(P("2001:db8::/64"), 64502)
            is OriginValidation.INVALID
        )

    def test_accepts_int_or_asn_origin(self, payloads):
        assert (
            payloads.validate_origin(P("192.0.2.0/24"), ASN(64501))
            is OriginValidation.VALID
        )


class TestContainer:
    def test_covering_vrps(self):
        payloads = ValidatedPayloads(
            [vrp("10.0.0.0/8", 8, 1), vrp("10.0.0.0/16", 16, 2)]
        )
        covering = payloads.covering_vrps(P("10.0.0.0/24"))
        assert len(covering) == 2

    def test_len_iter_contains(self, payloads):
        assert len(payloads) == 3
        assert vrp("10.0.0.0/16", 24, 64500) in payloads
        assert vrp("10.0.0.0/16", 24, 99999) not in payloads
        assert len(list(payloads)) == 3

    def test_asns(self, payloads):
        assert payloads.asns() == {64500, 64501, 64502}

    def test_add_after_construction(self):
        payloads = ValidatedPayloads()
        assert len(payloads) == 0
        payloads.add(vrp("10.0.0.0/8", 8, 1))
        assert payloads.covering_vrps(P("10.1.0.0/16"))


class TestVRP:
    def test_invalid_maxlength(self):
        with pytest.raises(ValueError):
            VRP(P("10.0.0.0/16"), 8, ASN(1))
        with pytest.raises(ValueError):
            VRP(P("10.0.0.0/16"), 33, ASN(1))

    def test_str_and_matches(self):
        entry = vrp("10.0.0.0/16", 24, 64500)
        assert "10.0.0.0/16-24" in str(entry)

    def test_enum_str(self):
        assert str(OriginValidation.VALID) == "valid"
        assert str(OriginValidation.NOT_FOUND) == "not_found"


# -- property: one RFC 6811, checked against a linear scan -------------------

_ORIGINS = (64500, 64501, 64502)


def _covers(entry, announced):
    """Plain-integer coverage: same family, no longer, same top bits."""
    shift = announced.bits - entry.prefix.length
    return (
        entry.prefix.family == announced.family
        and entry.prefix.length <= announced.length
        and announced.value >> shift == entry.prefix.value >> shift
    )


def _oracle(vrps, announced, origin):
    """(0-5 code, verdict) by scanning every VRP."""
    covering = [entry for entry in vrps if _covers(entry, announced)]
    if not covering:
        return 1, "not_found"
    if origin is None:
        return 2, "invalid"
    same_asn = [entry for entry in covering if int(entry.asn) == origin]
    fits = [
        entry for entry in covering if announced.length <= entry.max_length
    ]
    if any(entry in fits for entry in same_asn):
        return 0, "valid"
    return (4 if same_asn else 3 if fits else 5), "invalid"


@st.composite
def _prefixes(draw, family, bits):
    length = draw(st.integers(min_value=0, max_value=bits))
    value = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return Prefix.from_address(Address(family, value), length)


@st.composite
def _worlds(draw):
    """An announcement and VRPs placed around it: covering it, inside
    it (too specific to cover), or anywhere at all."""
    family, bits = draw(st.sampled_from([(IPV4, 32), (IPV6, 128)]))
    announced = draw(_prefixes(family, bits))
    vrps = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["covering", "covering", "inside", "any"]))
        if kind == "covering":
            prefix = announced.supernet(
                draw(st.integers(min_value=0, max_value=announced.length))
            )
        elif kind == "inside":
            host = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
            host &= (1 << (bits - announced.length)) - 1
            prefix = Prefix.from_address(
                Address(family, announced.value | host),
                draw(st.integers(min_value=announced.length, max_value=bits)),
            )
        else:
            prefix = draw(_prefixes(family, bits))
        # Half the VRPs allow no more-specifics, so too-long
        # announcements (codes 4 and 5) are not rare.
        max_length = draw(st.one_of(
            st.just(prefix.length),
            st.integers(min_value=prefix.length, max_value=bits),
        ))
        vrps.append(
            VRP(prefix, max_length, ASN(draw(st.sampled_from(_ORIGINS))))
        )
    origin = draw(st.sampled_from((None,) + _ORIGINS * 2))
    return vrps, announced, origin


class TestAgainstLinearScanOracle:
    @given(_worlds())
    def test_code_and_verdict_agree_with_oracle(self, world):
        vrps, announced, origin = world
        payloads = ValidatedPayloads(vrps)
        code, verdict = _oracle(vrps, announced, origin)
        assert annotate_route(payloads, announced, origin) == code
        assert payloads.validate_origin(announced, origin).value == verdict
        state, covering = payloads.validate_with_covering(announced, origin)
        assert state.value == verdict
        assert sorted(covering) == sorted(
            entry for entry in vrps if _covers(entry, announced)
        )

    @pytest.mark.parametrize("prefix, origin, code", [
        ("10.0.0.0/18", 64500, 0),
        ("11.0.0.0/8", 64500, 1),
        ("10.0.0.0/18", None, 2),
        ("10.0.0.0/18", 64501, 3),
        ("10.0.0.0/24", 64500, 4),
        ("10.0.0.0/24", 64501, 5),
    ])
    def test_each_code_by_hand(self, prefix, origin, code):
        vrps = [vrp("10.0.0.0/16", 20, 64500)]
        assert _oracle(vrps, P(prefix), origin)[0] == code
        assert annotate_route(ValidatedPayloads(vrps), P(prefix), origin) == code
