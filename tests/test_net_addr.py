"""Unit tests for repro.net.addr — address and prefix value types."""

import pytest

from repro.net import Address, AddressError, Prefix, PrefixError
from repro.net.addr import IPV4, IPV6


class TestAddressParsing:
    def test_parse_ipv4(self):
        addr = Address.parse("192.0.2.1")
        assert addr.family == IPV4
        assert addr.value == 0xC0000201
        assert str(addr) == "192.0.2.1"

    def test_parse_ipv4_extremes(self):
        assert Address.parse("0.0.0.0").value == 0
        assert Address.parse("255.255.255.255").value == (1 << 32) - 1

    @pytest.mark.parametrize(
        "bad",
        ["1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "a.b.c.d", "1.2.3.-4", ""],
    )
    def test_parse_ipv4_rejects(self, bad):
        with pytest.raises(AddressError):
            Address.parse(bad)

    def test_parse_ipv6_full(self):
        addr = Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert addr.family == IPV6
        assert str(addr) == "2001:db8::1"

    def test_parse_ipv6_compressed(self):
        assert Address.parse("::").value == 0
        assert Address.parse("::1").value == 1
        assert str(Address.parse("2001:db8::")) == "2001:db8::"

    def test_parse_ipv6_embedded_ipv4(self):
        addr = Address.parse("::ffff:192.0.2.1")
        assert addr.value == (0xFFFF << 32) | 0xC0000201

    def test_parse_ipv6_no_compression_needed(self):
        addr = Address.parse("1:2:3:4:5:6:7:8")
        assert str(addr) == "1:2:3:4:5:6:7:8"

    def test_format_picks_longest_zero_run(self):
        assert str(Address.parse("1:0:0:2:0:0:0:3")) == "1:0:0:2::3"

    def test_single_zero_group_not_compressed(self):
        assert str(Address.parse("1:0:2:3:4:5:6:7")) == "1:0:2:3:4:5:6:7"

    @pytest.mark.parametrize(
        "bad",
        [
            "1::2::3",
            "1:2:3:4:5:6:7:8:9",
            "1:2:3:4:5:6:7",
            "12345::",
            ":::",
            "g::1",
            "",
        ],
    )
    def test_parse_ipv6_rejects(self, bad):
        with pytest.raises(AddressError):
            Address.parse(bad)

    def test_out_of_range_value(self):
        with pytest.raises(AddressError):
            Address(IPV4, 1 << 32)
        with pytest.raises(AddressError):
            Address(IPV4, -1)

    def test_unknown_family(self):
        with pytest.raises(AddressError):
            Address(5, 0)

    @pytest.mark.parametrize(
        "fields", [(4, True), (4, False), (4, 1.0), (4.0, 1), (True, 1), (4, "1")]
    )
    def test_fields_must_be_exact_ints(self, fields):
        """A bool or float equals an int but is not one: refused, not kept."""
        with pytest.raises(AddressError):
            Address(*fields)


class TestAddressSemantics:
    def test_ordering_within_family(self):
        assert Address.parse("10.0.0.1") < Address.parse("10.0.0.2")

    def test_ordering_across_families(self):
        assert Address.parse("255.255.255.255") < Address.parse("::")

    def test_hash_and_equality(self):
        a = Address.parse("10.1.2.3")
        b = Address.parse("10.1.2.3")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Address.parse("10.1.2.4")

    def test_to_prefix(self):
        assert str(Address.parse("10.0.0.1").to_prefix()) == "10.0.0.1/32"
        assert Address.parse("::1").to_prefix().length == 128

    def test_repr_shows_literal(self):
        addr = Address.parse("198.51.100.7")
        assert repr(addr) == "Address('198.51.100.7')"


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.length == 8
        assert str(prefix) == "10.0.0.0/8"

    def test_parse_requires_slash(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0")

    def test_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/8")

    @pytest.mark.parametrize(
        "fields",
        [(4, 0, True), (4, 0, False), (4, False, 0), (4, 0.0, 0), (4.0, 0, 0),
         (4, 0, 8.0), (6, 0, "0")],
    )
    def test_fields_must_be_exact_ints(self, fields):
        """``Prefix(4, 0, True)`` once printed as ``0.0.0.0/True``."""
        with pytest.raises(PrefixError):
            Prefix(*fields)

    def test_rejects_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/33")
        with pytest.raises(PrefixError):
            Prefix.parse("2001:db8::/129")
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/x")

    def test_from_address_masks_host_bits(self):
        prefix = Prefix.from_address(Address.parse("10.1.2.3"), 16)
        assert str(prefix) == "10.1.0.0/16"

    def test_contains_address(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.contains(Address.parse("192.0.2.200"))
        assert not prefix.contains(Address.parse("192.0.3.0"))

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        assert outer.covers(Prefix.parse("10.5.0.0/16"))
        assert not outer.covers(Prefix.parse("11.0.0.0/16"))
        assert not Prefix.parse("10.5.0.0/16").covers(outer)

    def test_zero_length_prefix_contains_everything_in_family(self):
        default = Prefix.parse("0.0.0.0/0")
        assert default.contains(Address.parse("203.0.113.9"))
        assert not default.contains(Address.parse("::1"))

    def test_contains_rejects_other_family(self):
        assert not Prefix.parse("10.0.0.0/8").contains(Address.parse("::1"))

    def test_supernet(self):
        assert str(Prefix.parse("10.5.0.0/16").supernet(8)) == "10.0.0.0/8"
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/8").supernet(16)

    def test_addresses_iteration(self):
        addrs = list(Prefix.parse("192.0.2.0/30").addresses())
        assert [str(a) for a in addrs] == [
            "192.0.2.0",
            "192.0.2.1",
            "192.0.2.2",
            "192.0.2.3",
        ]

    def test_addresses_limit_guard(self):
        with pytest.raises(PrefixError):
            list(Prefix.parse("10.0.0.0/8").addresses())

    def test_nth_address(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert str(prefix.nth_address(0)) == "10.0.0.0"
        assert str(prefix.nth_address(255)) == "10.0.0.255"
        with pytest.raises(PrefixError):
            prefix.nth_address(256)
        with pytest.raises(PrefixError):
            prefix.nth_address(-1)

    def test_key_bits(self):
        assert Prefix.parse("128.0.0.0/1").key_bits() == 1
        assert Prefix.parse("0.0.0.0/0").key_bits() == 0

    def test_ordering_and_hash(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        assert a < b
        assert hash(a) != hash(b) or a != b
        assert a == Prefix.parse("10.0.0.0/8")

    def test_is_the_int_tuple(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert isinstance(prefix, tuple)
        assert tuple(prefix) == (4, 0x0A000000, 8)
        assert tuple(prefix.network) == (4, 0x0A000000)
        with pytest.raises(AttributeError):
            prefix.length = 9

    def test_hash_is_the_same_in_every_process(self, fresh_python):
        """It used to mix in the class object's address (ASLR)."""
        probe = (
            "from repro.net import Prefix; "
            "print(hash(Prefix.parse('10.0.0.0/8')))"
        )
        seen = {fresh_python(probe) for _ in range(2)}
        assert seen == {str(hash(Prefix.parse("10.0.0.0/8")))}

    def test_ipv6_prefix(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert prefix.contains(Address.parse("2001:db8:1::5"))
        assert not prefix.contains(Address.parse("2001:db9::"))
