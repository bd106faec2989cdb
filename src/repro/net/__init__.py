"""IP addressing primitives shared by every substrate.

This package provides from-scratch IPv4/IPv6 address and prefix types
(validated int tuples), a per-length prefix index with longest-prefix
and covering-prefix lookup, and the IANA special-purpose address
registries used to discard invalid DNS answers (paper, Section 3,
step 2).
"""

from repro.net.addr import (
    Address,
    Prefix,
    exact_ints,
    parse_address,
    parse_prefix,
)
from repro.net.asn import ASN
from repro.errors import ReproError
from repro.net.errors import AddressError, NetError, PrefixError
from repro.net.special import (
    is_special_purpose,
    special_purpose_registry,
)
from repro.net.trie import PrefixTrie

__all__ = [
    "ASN",
    "Address",
    "AddressError",
    "NetError",
    "Prefix",
    "PrefixError",
    "PrefixTrie",
    "ReproError",
    "exact_ints",
    "is_special_purpose",
    "parse_address",
    "parse_prefix",
    "special_purpose_registry",
]
