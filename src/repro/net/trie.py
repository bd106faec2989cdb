"""Prefix index over CIDR prefixes.

The index stores one value list per exact prefix and supports the
three lookups every substrate needs:

* :meth:`PrefixTrie.lookup_exact` — value(s) stored at a prefix,
* :meth:`PrefixTrie.lookup_longest` — longest-prefix match for an
  address (BGP forwarding, RFC 6811 VRP matching),
* :meth:`PrefixTrie.covering` — *all* covering prefixes of an address
  or prefix, shortest first (paper Section 3, step 3: "we extract all
  covering prefixes").

Per address family it keeps one ``{length: {key_bits: [values]}}``
map and the sorted list of stored lengths, so a covering lookup is at
most one dict probe per stored length.  :class:`PrefixTrie`
multiplexes IPv4 and IPv6 internally so callers never care.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar, Union

from repro.net.addr import IPV4, IPV6, Address, Prefix, family_bits
from repro.obs.runtime import metrics

V = TypeVar("V")

_LOOKUP_HELP = "PrefixTrie lookups by operation"
_MATCH_BUCKETS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


class PrefixTrie(Generic[V]):
    """Dual-stack prefix index mapping prefixes to lists of values.

    The name is from its node-per-bit past; callers and the perf
    ledger address the class and its methods by name, so it stays.
    """

    def __init__(self):
        # family -> length -> top ``length`` bits of the network -> values
        self._levels: Dict[int, Dict[int, Dict[int, List[V]]]] = {
            IPV4: {}, IPV6: {},
        }
        # family -> stored lengths, ascending (covering = shortest first)
        self._stored_lengths: Dict[int, List[int]] = {IPV4: [], IPV6: []}
        self._count = 0

    def insert(self, prefix: Prefix, value: V) -> None:
        """Associate ``value`` with ``prefix`` (duplicates allowed)."""
        levels = self._levels[prefix.family]
        level = levels.get(prefix.length)
        if level is None:
            level = levels[prefix.length] = {}
            lengths = self._stored_lengths[prefix.family]
            lengths.append(prefix.length)
            lengths.sort()
        level.setdefault(prefix.key_bits(), []).append(value)
        self._count += 1

    def remove(self, prefix: Prefix, value: V) -> bool:
        """Remove one ``(prefix, value)`` association; True on success."""
        levels = self._levels[prefix.family]
        level = levels.get(prefix.length, {})
        key = prefix.key_bits()
        values = level.get(key)
        if not values or value not in values:
            return False
        values.remove(value)
        if not values:
            del level[key]
            if not level:
                del levels[prefix.length]
                self._stored_lengths[prefix.family].remove(prefix.length)
        self._count -= 1
        return True

    def lookup_exact(self, prefix: Prefix) -> List[V]:
        """Values stored at exactly ``prefix`` (empty list if none)."""
        counters = metrics()
        if counters.enabled:
            counters.counter(
                "ripki_trie_lookups_total", _LOOKUP_HELP, labelnames=("op",)
            ).labels(op="exact").inc()
        level = self._levels[prefix.family].get(prefix.length, {})
        return list(level.get(prefix.key_bits(), ()))

    def _covering(self, target: Union[Address, Prefix]) -> List[Tuple[Prefix, V]]:
        """Uninstrumented covering probe shared by the public lookups."""
        if isinstance(target, Address):
            target = target.to_prefix()
        levels = self._levels[target.family]
        value, bits = target.value, target.bits
        results: List[Tuple[Prefix, V]] = []
        for length in self._stored_lengths[target.family]:
            if length > target.length:
                break
            values = levels[length].get(value >> (bits - length))
            if values:
                prefix = target.supernet(length)
                for item in values:
                    results.append((prefix, item))
        return results

    def _record_lookup(self, op: str, results: List[Tuple[Prefix, V]]) -> None:
        """Count one logical lookup: op counter, matches, miss."""
        counters = metrics()
        if not counters.enabled:
            return
        counters.counter(
            "ripki_trie_lookups_total", _LOOKUP_HELP, labelnames=("op",)
        ).labels(op=op).inc()
        counters.histogram(
            "ripki_trie_covering_matches",
            "Covering prefixes found per lookup",
            buckets=_MATCH_BUCKETS,
        ).observe(len(results))
        if not results:
            counters.counter(
                "ripki_trie_misses_total",
                "Lookups finding no covering prefix",
            ).inc()

    def covering(self, target: Union[Address, Prefix]) -> List[Tuple[Prefix, V]]:
        """All stored prefixes covering ``target``, shortest first."""
        results = self._covering(target)
        self._record_lookup("covering", results)
        return results

    def lookup_longest(
        self, target: Union[Address, Prefix]
    ) -> Optional[Tuple[Prefix, List[V]]]:
        """Longest-prefix match; None when nothing covers ``target``."""
        matches = self._covering(target)
        self._record_lookup("longest", matches)
        if not matches:
            return None
        longest = matches[-1][0]
        values = [value for prefix, value in matches if prefix == longest]
        return longest, values

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate every stored ``(prefix, value)`` pair."""
        for family, levels in self._levels.items():
            bits = family_bits(family)
            for length in self._stored_lengths[family]:
                for key, values in levels[length].items():
                    prefix = Prefix(family, key << (bits - length), length)
                    for value in values:
                        yield prefix, value

    def prefixes(self) -> Iterator[Prefix]:
        """Iterate distinct stored prefixes."""
        seen = set()
        for prefix, _value in self.items():
            if prefix not in seen:
                seen.add(prefix)
                yield prefix

    def __contains__(self, prefix: Prefix) -> bool:
        return bool(self.lookup_exact(prefix))

    def __len__(self) -> int:
        """Number of stored associations (not distinct prefixes)."""
        return self._count

    def __repr__(self) -> str:
        distinct = sum(
            len(level)
            for levels in self._levels.values()
            for level in levels.values()
        )
        return f"<PrefixTrie {self._count} entries over {distinct} prefixes>"
