"""IANA special-purpose address registries.

The paper (Section 3, step 2) excludes "all special-purpose IPv4 and
IPv6 addresses reserved by the IANA" from the DNS answers.  This module
reproduces the two registries (RFC 6890 and successors) as prefix
tables and exposes :func:`is_special_purpose`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.net.addr import Address, Prefix
from repro.net.trie import PrefixTrie

# (prefix, registry name) — IANA IPv4 Special-Purpose Address Registry.
_IPV4_SPECIAL: List[Tuple[str, str]] = [
    ("0.0.0.0/8", "This host on this network (RFC 1122)"),
    ("10.0.0.0/8", "Private-Use (RFC 1918)"),
    ("100.64.0.0/10", "Shared Address Space (RFC 6598)"),
    ("127.0.0.0/8", "Loopback (RFC 1122)"),
    ("169.254.0.0/16", "Link Local (RFC 3927)"),
    ("172.16.0.0/12", "Private-Use (RFC 1918)"),
    ("192.0.0.0/24", "IETF Protocol Assignments (RFC 6890)"),
    ("192.0.2.0/24", "Documentation TEST-NET-1 (RFC 5737)"),
    ("192.88.99.0/24", "6to4 Relay Anycast (RFC 7526)"),
    ("192.168.0.0/16", "Private-Use (RFC 1918)"),
    ("198.18.0.0/15", "Benchmarking (RFC 2544)"),
    ("198.51.100.0/24", "Documentation TEST-NET-2 (RFC 5737)"),
    ("203.0.113.0/24", "Documentation TEST-NET-3 (RFC 5737)"),
    ("224.0.0.0/4", "Multicast (RFC 5771)"),
    ("240.0.0.0/4", "Reserved (RFC 1112)"),
    ("255.255.255.255/32", "Limited Broadcast (RFC 8190)"),
]

# IANA IPv6 Special-Purpose Address Registry.
_IPV6_SPECIAL: List[Tuple[str, str]] = [
    ("::/128", "Unspecified Address (RFC 4291)"),
    ("::1/128", "Loopback Address (RFC 4291)"),
    ("::ffff:0:0/96", "IPv4-mapped Address (RFC 4291)"),
    ("64:ff9b::/96", "IPv4-IPv6 Translation (RFC 6052)"),
    ("100::/64", "Discard-Only Address Block (RFC 6666)"),
    ("2001::/23", "IETF Protocol Assignments (RFC 2928)"),
    ("2001:2::/48", "Benchmarking (RFC 5180)"),
    ("2001:db8::/32", "Documentation (RFC 3849)"),
    ("2001:10::/28", "ORCHID (RFC 4843)"),
    ("2002::/16", "6to4 (RFC 3056)"),
    ("fc00::/7", "Unique-Local (RFC 4193)"),
    ("fe80::/10", "Link-Local Unicast (RFC 4291)"),
    ("ff00::/8", "Multicast (RFC 4291)"),
]

_registry: Optional[PrefixTrie] = None


def special_purpose_registry() -> PrefixTrie:
    """Return the (lazily built, shared) special-purpose prefix trie.

    Values are the registry entry names, so callers can report *why*
    an address was rejected.
    """
    global _registry
    if _registry is None:
        trie: PrefixTrie = PrefixTrie()
        for text, name in _IPV4_SPECIAL + _IPV6_SPECIAL:
            trie.insert(Prefix.parse(text), name)
        _registry = trie
    return _registry


def is_special_purpose(target: Union[Address, Prefix, str]) -> bool:
    """True when the address (or any part of the prefix) is reserved.

    Accepts an :class:`Address`, a :class:`Prefix`, or a string literal
    of either.  A prefix counts as special when its *network* address
    falls inside a registry entry, which is the conservative choice for
    filtering DNS answers.
    """
    if isinstance(target, str):
        target = Prefix.parse(target) if "/" in target else Address.parse(target)
    if isinstance(target, Prefix):
        target = target.network
    return bool(special_purpose_registry().covering(target))
