"""Unit tests for repro.net.special — IANA special-purpose registries."""

import pytest

from repro.net import Address, Prefix, is_special_purpose


@pytest.mark.parametrize(
    "addr",
    [
        "10.1.2.3",
        "127.0.0.1",
        "192.168.1.1",
        "172.16.0.1",
        "169.254.1.1",
        "0.0.0.0",
        "255.255.255.255",
        "224.0.0.1",
        "240.0.0.1",
        "100.64.0.1",
        "198.18.0.1",
        "192.0.2.1",
        "198.51.100.1",
        "203.0.113.1",
        "::1",
        "::",
        "fe80::1",
        "fc00::1",
        "ff02::1",
        "2001:db8::1",
        "::ffff:10.0.0.1",
        "64:ff9b::1",
        "100::1",
    ],
)
def test_special_addresses_detected(addr):
    assert is_special_purpose(addr)


@pytest.mark.parametrize(
    "addr",
    [
        "8.8.8.8",
        "1.1.1.1",
        "193.0.0.1",
        "99.0.0.1",
        "172.32.0.1",   # just outside 172.16/12
        "100.128.0.1",  # just outside 100.64/10
        "198.20.0.1",   # just outside 198.18/15
        "223.255.255.255",
        "2600::1",
        "2a00::1",
        "fb00::1",      # just outside fc00::/7
    ],
)
def test_global_addresses_pass(addr):
    assert not is_special_purpose(addr)


def test_accepts_address_and_prefix_objects():
    assert is_special_purpose(Address.parse("10.0.0.1"))
    assert is_special_purpose(Prefix.parse("10.0.0.0/8"))
    assert is_special_purpose("192.168.0.0/16")
    assert not is_special_purpose(Prefix.parse("8.8.8.0/24"))


def test_registry_is_shared_instance():
    from repro.net.special import special_purpose_registry

    assert special_purpose_registry() is special_purpose_registry()
