"""Unit tests for repro.net.trie — the per-length prefix index.

The tail of this module is property-based: hypothesis generates
dual-stack prefix sets and checks every trie lookup against a
sorted-linear-scan oracle that shares no code with the trie.
"""

import inspect
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Address, Prefix, PrefixTrie
from repro.net.addr import IPV4, IPV6


def P(text):
    return Prefix.parse(text)


def A(text):
    return Address.parse(text)


class TestInsertLookup:
    def test_exact_lookup(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        assert trie.lookup_exact(P("10.0.0.0/8")) == ["a"]
        assert trie.lookup_exact(P("10.0.0.0/9")) == []
        assert trie.lookup_exact(P("11.0.0.0/8")) == []

    def test_duplicate_values_per_prefix(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        trie.insert(P("10.0.0.0/8"), "b")
        assert sorted(trie.lookup_exact(P("10.0.0.0/8"))) == ["a", "b"]
        assert len(trie) == 2

    def test_contains(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        assert P("10.0.0.0/8") in trie
        assert P("10.0.0.0/16") not in trie

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(P("0.0.0.0/0"), "default")
        assert trie.covering(A("203.0.113.1")) == [(P("0.0.0.0/0"), "default")]


class TestCovering:
    def test_covering_order_shortest_first(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "eight")
        trie.insert(P("10.1.0.0/16"), "sixteen")
        trie.insert(P("10.1.2.0/24"), "twentyfour")
        result = trie.covering(A("10.1.2.3"))
        assert [v for _p, v in result] == ["eight", "sixteen", "twentyfour"]
        assert [p.length for p, _v in result] == [8, 16, 24]

    def test_covering_a_prefix(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "eight")
        trie.insert(P("10.1.0.0/16"), "sixteen")
        trie.insert(P("10.1.2.0/24"), "twentyfour")
        # Prefixes longer than the query's own length do not cover it.
        result = trie.covering(P("10.1.0.0/16"))
        assert [v for _p, v in result] == ["eight", "sixteen"]

    def test_covering_misses_siblings(self):
        trie = PrefixTrie()
        trie.insert(P("10.1.0.0/16"), "x")
        assert trie.covering(A("10.2.0.0")) == []

    def test_families_do_not_mix(self):
        trie = PrefixTrie()
        trie.insert(P("0.0.0.0/0"), "v4")
        trie.insert(P("::/0"), "v6")
        assert trie.covering(A("::1")) == [(P("::/0"), "v6")]
        assert trie.covering(A("1.2.3.4")) == [(P("0.0.0.0/0"), "v4")]


class TestLongestMatch:
    def test_longest_match(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "eight")
        trie.insert(P("10.1.0.0/16"), "sixteen")
        prefix, values = trie.lookup_longest(A("10.1.200.1"))
        assert prefix == P("10.1.0.0/16")
        assert values == ["sixteen"]

    def test_longest_match_collects_all_values_at_winner(self):
        trie = PrefixTrie()
        trie.insert(P("10.1.0.0/16"), "a")
        trie.insert(P("10.1.0.0/16"), "b")
        trie.insert(P("10.0.0.0/8"), "c")
        _prefix, values = trie.lookup_longest(A("10.1.0.1"))
        assert sorted(values) == ["a", "b"]

    def test_no_match_returns_none(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "x")
        assert trie.lookup_longest(A("11.0.0.1")) is None


class TestRemove:
    def test_remove_existing(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        assert trie.remove(P("10.0.0.0/8"), "a")
        assert trie.lookup_exact(P("10.0.0.0/8")) == []
        assert len(trie) == 0

    def test_remove_one_of_two(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        trie.insert(P("10.0.0.0/8"), "b")
        assert trie.remove(P("10.0.0.0/8"), "a")
        assert trie.lookup_exact(P("10.0.0.0/8")) == ["b"]

    def test_remove_missing(self):
        trie = PrefixTrie()
        assert not trie.remove(P("10.0.0.0/8"), "a")
        trie.insert(P("10.0.0.0/8"), "a")
        assert not trie.remove(P("10.0.0.0/8"), "b")
        assert not trie.remove(P("10.0.0.0/16"), "a")

    def test_remove_prunes_but_keeps_ancestors(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "short")
        trie.insert(P("10.1.2.0/24"), "long")
        assert trie.remove(P("10.1.2.0/24"), "long")
        assert trie.covering(A("10.1.2.3")) == [(P("10.0.0.0/8"), "short")]

    def test_last_prefix_of_a_length_takes_the_length_with_it(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "short")
        trie.insert(P("10.1.0.0/16"), "a")
        trie.insert(P("10.2.0.0/16"), "b")
        trie.insert(P("10.1.2.0/24"), "long")
        assert trie.remove(P("10.1.0.0/16"), "a")
        assert {p.length for p, _v in trie.items()} == {8, 16, 24}
        assert trie.remove(P("10.2.0.0/16"), "b")
        assert {p.length for p, _v in trie.items()} == {8, 24}
        assert trie.covering(A("10.1.2.3")) == [
            (P("10.0.0.0/8"), "short"), (P("10.1.2.0/24"), "long"),
        ]
        assert trie.covering(A("10.2.0.1")) == [(P("10.0.0.0/8"), "short")]
        # The length comes back, in order, when it is stored again.
        trie.insert(P("10.1.0.0/16"), "again")
        assert [v for _p, v in trie.covering(A("10.1.2.3"))] == [
            "short", "again", "long",
        ]


class TestPickle:
    def test_nested_v6_chain_pickles_without_recursion_headroom(self):
        # ::/0 ... /128, each inside the last.  A node-per-bit trie
        # recursed ~6 frames per prefix bit under pickle, so shipping a
        # study to a worker process needed sys.setrecursionlimit; the
        # index must round-trip with next to no stack, a fortiori at
        # the default limit.
        trie = PrefixTrie()
        host = A("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff")
        for length in range(129):
            trie.insert(Prefix.from_address(host, length), length)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            clone = pickle.loads(pickle.dumps(trie))
        finally:
            sys.setrecursionlimit(limit)
        assert list(clone.items()) == list(trie.items())
        assert clone.covering(host) == trie.covering(host)
        assert len(clone.covering(host)) == 129


class TestIteration:
    def test_items_roundtrip(self):
        trie = PrefixTrie()
        entries = [
            (P("10.0.0.0/8"), 1),
            (P("10.1.0.0/16"), 2),
            (P("192.0.2.0/24"), 3),
            (P("2001:db8::/32"), 4),
        ]
        for prefix, value in entries:
            trie.insert(prefix, value)
        assert sorted(trie.items()) == sorted(entries)

    def test_prefixes_distinct(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        trie.insert(P("10.0.0.0/8"), 2)
        assert list(trie.prefixes()) == [P("10.0.0.0/8")]

    def test_repr(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        assert "1 entries" in repr(trie)


def _family_prefixes(family, bits):
    @st.composite
    def strat(draw):
        length = draw(st.integers(min_value=0, max_value=bits))
        value = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        return Prefix.from_address(Address(family, value), length)

    return strat()


_any_prefix = st.one_of(
    _family_prefixes(IPV4, 32), _family_prefixes(IPV6, 128)
)


def _prefix_sets():
    """Dual-stack prefix lists; duplicates and nesting both allowed."""
    return st.lists(_any_prefix, min_size=0, max_size=24)


@st.composite
def _targets(draw, entries):
    """An Address or Prefix target, biased towards stored prefixes."""
    if entries and draw(st.booleans()):
        prefix = entries[
            draw(st.integers(min_value=0, max_value=len(entries) - 1))
        ]
        host_bits = prefix.bits - prefix.length
        host = (
            draw(st.integers(min_value=0, max_value=(1 << host_bits) - 1))
            if host_bits
            else 0
        )
        value = prefix.value | host
        if draw(st.booleans()):
            return Address(prefix.family, value)
        length = draw(
            st.integers(min_value=prefix.length, max_value=prefix.bits)
        )
        return Prefix.from_address(Address(prefix.family, value), length)
    if draw(st.booleans()):
        family, bits = draw(st.sampled_from(((IPV4, 32), (IPV6, 128))))
        return Address(
            family, draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        )
    return draw(_any_prefix)


class TestDifferentialProperties:
    """Trie lookups vs a linear-scan oracle over random prefix sets."""

    @staticmethod
    def build(entries):
        trie = PrefixTrie()
        for index, prefix in enumerate(entries):
            trie.insert(prefix, index)
        return trie

    @staticmethod
    def oracle_covering(entries, target):
        """All (prefix, value) pairs covering ``target``, shortest
        first, insertion order breaking ties — by linear scan."""
        if isinstance(target, Address):
            target = target.to_prefix()
        matches = [
            (prefix, index)
            for index, prefix in enumerate(entries)
            if prefix.family == target.family and prefix.covers(target)
        ]
        return sorted(matches, key=lambda item: item[0].length)

    @given(prefix_sets=_prefix_sets(), targets=st.data())
    def test_covering_matches_linear_scan(self, prefix_sets, targets):
        entries = prefix_sets
        trie = self.build(entries)
        target = targets.draw(_targets(entries), label="target")
        assert trie.covering(target) == self.oracle_covering(entries, target)

    @given(prefix_sets=_prefix_sets(), targets=st.data())
    def test_lookup_longest_matches_linear_scan(self, prefix_sets, targets):
        entries = prefix_sets
        trie = self.build(entries)
        target = targets.draw(_targets(entries), label="target")
        expected = self.oracle_covering(entries, target)
        result = trie.lookup_longest(target)
        if not expected:
            assert result is None
        else:
            longest = expected[-1][0]
            prefix, values = result
            assert prefix == longest
            assert values == [
                index for p, index in expected if p == longest
            ]

    @given(prefix_sets=_prefix_sets())
    def test_covered_pair_enumeration_matches_quadratic_scan(
        self, prefix_sets
    ):
        """Every stored (coverer, covered) pair the trie can express
        agrees with the O(n^2) definition of coverage."""
        entries = prefix_sets
        trie = self.build(entries)
        stored = list(trie.items())
        assert sorted(stored) == sorted(
            (prefix, index) for index, prefix in enumerate(entries)
        )
        trie_pairs = {
            (coverer, prefix)
            for prefix, _index in stored
            for coverer, _value in trie.covering(prefix)
        }
        naive_pairs = {
            (coverer, covered)
            for coverer in entries
            for covered in entries
            if coverer.family == covered.family and coverer.covers(covered)
        }
        assert trie_pairs == naive_pairs

    @given(prefix_sets=_prefix_sets(), targets=st.data())
    def test_remove_then_lookup_stays_consistent(self, prefix_sets, targets):
        entries = prefix_sets
        trie = self.build(entries)
        victim = targets.draw(
            st.integers(min_value=0, max_value=len(entries) - 1)
            if entries
            else st.just(-1),
            label="victim",
        )
        if victim >= 0:
            assert trie.remove(entries[victim], victim)
        survivors = [
            (prefix, index)
            for index, prefix in enumerate(entries)
            if index != victim
        ]
        target = targets.draw(_targets(entries), label="target")
        if isinstance(target, Address):
            target_prefix = target.to_prefix()
        else:
            target_prefix = target
        expected = sorted(
            (
                (prefix, index)
                for prefix, index in survivors
                if prefix.family == target_prefix.family
                and prefix.covers(target_prefix)
            ),
            key=lambda item: item[0].length,
        )
        assert trie.covering(target) == expected


class TestScale:
    def test_many_prefixes(self):
        trie = PrefixTrie()
        for i in range(512):
            trie.insert(Prefix(4, (10 << 24) | (i << 13), 19), i)
        assert len(trie) == 512
        target = A("10.0.33.7")
        prefix, values = trie.lookup_longest(target)
        assert prefix.length == 19
        # The /19 containing the address is index (value - base) >> 13.
        expected = (target.value - (10 << 24)) >> 13
        assert values == [expected]
        assert prefix.contains(target)
