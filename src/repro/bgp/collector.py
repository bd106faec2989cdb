"""Route collectors and table dumps (RIPE RIS analogue).

A collector multi-hop-peers with a set of ASes and records each peer's
best route per prefix.  :class:`TableDump` is the "dump of the active
table" the paper's step (3) consumes: it supports extracting all
covering prefixes of an IP address together with the origin AS derived
from the right-most position of the AS path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.bgp.aspath import ASPath
from repro.bgp.propagation import RoutingState
from repro.net import ASN, Address, Prefix, PrefixTrie


@dataclass(frozen=True, slots=True)
class TableDumpEntry:
    """One row of a collector table dump."""

    prefix: Prefix
    path: ASPath
    peer: ASN  # the collector peer that contributed the row

    @property
    def origin(self) -> Optional[ASN]:
        """Right-most ASN; None when the origin position is an AS_SET."""
        return self.path.origin()

    @property
    def has_as_set(self) -> bool:
        return self.path.has_as_set()

    def __str__(self) -> str:
        return f"{self.prefix} | {self.path} | peer {self.peer}"


class TableDump:
    """An indexed set of table-dump rows."""

    def __init__(self, entries: Iterable[TableDumpEntry] = ()):
        self._entries: List[TableDumpEntry] = []
        self._trie: PrefixTrie = PrefixTrie()
        for entry in entries:
            self.add(entry)

    def add(self, entry: TableDumpEntry) -> None:
        self._entries.append(entry)
        self._trie.insert(entry.prefix, entry)

    def covering_entries(
        self, target: Union[Address, Prefix]
    ) -> List[TableDumpEntry]:
        """All rows whose prefix covers the address, shortest first."""
        return [entry for _prefix, entry in self._trie.covering(target)]

    def prefixes(self) -> Set[Prefix]:
        return {entry.prefix for entry in self._entries}

    def entries(self) -> List[TableDumpEntry]:
        return list(self._entries)

    def merge(self, other: "TableDump") -> "TableDump":
        """Union of two dumps (e.g. several RIS collectors)."""
        return TableDump(self._entries + other._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TableDumpEntry]:
        return iter(self._entries)

    def __repr__(self) -> str:
        return (
            f"<TableDump {len(self._entries)} rows over "
            f"{len(self.prefixes())} prefixes>"
        )


class RouteCollector:
    """A passive route collector peering with a set of ASes."""

    def __init__(self, name: str, peer_asns: Sequence[Union[int, ASN]]):
        self.name = name
        self.peer_asns: Tuple[ASN, ...] = tuple(ASN(a) for a in peer_asns)

    def collect(self, state: RoutingState) -> TableDump:
        """Dump each peer's best route for every prefix."""
        dump = TableDump()
        for prefix in state.prefixes():
            routes = state.routes_for(prefix)
            for peer in self.peer_asns:
                entry = routes.get(peer)
                if entry is not None:
                    dump.add(
                        TableDumpEntry(prefix=prefix, path=entry.path, peer=peer)
                    )
        return dump

    def __repr__(self) -> str:
        return f"<RouteCollector {self.name!r} {len(self.peer_asns)} peers>"
