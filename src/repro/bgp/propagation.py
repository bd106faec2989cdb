"""Policy-compliant route propagation.

For each announced prefix the engine computes every AS's best route
under the Gao–Rexford model using the standard three-stage breadth
first search (customer routes climb provider links, peer routes cross
one peering edge, provider routes descend customer links), with
shortest-path and lowest-neighbor tie-breaking inside each stage.
Multiple originations of the same prefix (anycast, MOAS conflicts,
hijacks) compete naturally.

ASes listed in ``enforcing`` perform RFC 6811 origin validation
against a :class:`~repro.rpki.vrp.ValidatedPayloads` set and refuse to
adopt *invalid* routes — the countermeasure whose deployment the paper
measures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.bgp.aspath import ASPath
from repro.bgp.messages import Announcement
from repro.bgp.policy import Relationship, RouteClass, may_export
from repro.bgp.topology import ASTopology
from repro.net import ASN, Prefix
from repro.rpki.vrp import OriginValidation, ValidatedPayloads


@dataclass(frozen=True)
class RibEntry:
    """An AS's best route for one prefix.

    ``path`` is the path as this AS would advertise it (starts with
    the AS itself, ends at the origin).  ``learned_from`` is None for
    self-originated routes.
    """

    prefix: Prefix
    path: ASPath
    route_class: RouteClass
    learned_from: Optional[ASN]

    @property
    def origin(self) -> Optional[ASN]:
        return self.path.origin()

    def __repr__(self) -> str:
        return f"<RibEntry {self.prefix} path=[{self.path}] {self.route_class.name}>"


class RoutingState:
    """Best routes of every AS for every propagated prefix."""

    def __init__(self, tables: Dict[Prefix, Dict[ASN, RibEntry]]):
        self._tables = tables

    def route_at(
        self, asn: Union[int, ASN], prefix: Prefix
    ) -> Optional[RibEntry]:
        return self._tables.get(prefix, {}).get(ASN(asn))

    def routes_for(self, prefix: Prefix) -> Dict[ASN, RibEntry]:
        return dict(self._tables.get(prefix, {}))

    def prefixes(self) -> List[Prefix]:
        return list(self._tables)

    def reachable_ases(self, prefix: Prefix) -> Set[ASN]:
        return set(self._tables.get(prefix, {}))

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        routes = sum(len(t) for t in self._tables.values())
        return f"<RoutingState {len(self._tables)} prefixes, {routes} routes>"


class PropagationEngine:
    """Computes :class:`RoutingState` from originations."""

    def __init__(self, topology: ASTopology):
        self._topology = topology

    def propagate(
        self,
        announcements: Iterable[Announcement],
        payloads: Optional[ValidatedPayloads] = None,
        enforcing: FrozenSet[ASN] = frozenset(),
        record_ases: Optional[Set[ASN]] = None,
    ) -> RoutingState:
        """Propagate all announcements and return the converged state.

        ``record_ases`` restricts the *stored* routes to the given ASes
        (e.g. collector peers) to bound memory on large runs; the
        computation itself always covers the full topology.
        """
        by_prefix: Dict[Prefix, List[Announcement]] = {}
        for announcement in announcements:
            by_prefix.setdefault(announcement.prefix, []).append(announcement)

        tables: Dict[Prefix, Dict[ASN, RibEntry]] = {}
        for prefix, group in by_prefix.items():
            table = self._route_prefix(prefix, group, payloads, enforcing)
            if record_ases is not None:
                table = {
                    asn: entry
                    for asn, entry in table.items()
                    if asn in record_ases
                }
            tables[prefix] = table
        return RoutingState(tables)

    # -- per-prefix computation -------------------------------------------

    def _accepts(
        self,
        asn: ASN,
        prefix: Prefix,
        path: ASPath,
        payloads: Optional[ValidatedPayloads],
        enforcing: FrozenSet[ASN],
    ) -> bool:
        """Import filter: loop prevention plus optional RFC 6811 drop."""
        if path.contains(asn):
            return False
        if payloads is None or asn not in enforcing:
            return True
        state = payloads.validate_origin(prefix, path.origin())
        return state is not OriginValidation.INVALID

    def _route_prefix(
        self,
        prefix: Prefix,
        announcements: List[Announcement],
        payloads: Optional[ValidatedPayloads],
        enforcing: FrozenSet[ASN],
    ) -> Dict[ASN, RibEntry]:
        topology = self._topology
        best: Dict[ASN, RibEntry] = {}

        # Stage 0 — origination. An origin always keeps its own route.
        for announcement in announcements:
            origin = announcement.origin
            if origin not in topology:
                continue
            best[origin] = RibEntry(
                prefix=prefix,
                path=announcement.initial_path(),
                route_class=RouteClass.ORIGIN,
                learned_from=None,
            )

        # Stage A — customer routes climb provider links.
        # Heap entries: (path length, sender ASN, receiver ASN, path@sender).
        heap: List[Tuple[int, int, int, ASPath]] = []
        for asn, entry in best.items():
            for provider in topology.providers(asn):
                heapq.heappush(
                    heap, (len(entry.path), int(asn), int(provider), entry.path)
                )
        while heap:
            _length, sender, receiver, sender_path = heapq.heappop(heap)
            receiver_asn = ASN(receiver)
            current = best.get(receiver_asn)
            if current is not None:
                # Heap pops in (length, sender) order, so the first
                # adoption is already the best customer route.
                continue
            if not self._accepts(receiver_asn, prefix, sender_path, payloads, enforcing):
                continue
            entry = RibEntry(
                prefix=prefix,
                path=sender_path.prepend(receiver_asn),
                route_class=RouteClass.CUSTOMER_ROUTE,
                learned_from=ASN(sender),
            )
            best[receiver_asn] = entry
            for provider in topology.providers(receiver_asn):
                heapq.heappush(
                    heap, (len(entry.path), receiver, int(provider), entry.path)
                )

        # Stage B — one peering hop. Only customer/origin routes are
        # exported to peers; a peer route never propagates further up
        # or sideways (valley-free).
        peer_candidates: List[Tuple[int, int, int, ASPath]] = []
        for asn, entry in best.items():
            if may_export(entry.route_class, Relationship.PEER):
                for peer in topology.peers(asn):
                    peer_candidates.append(
                        (len(entry.path), int(asn), int(peer), entry.path)
                    )
        for _length, sender, receiver, sender_path in sorted(peer_candidates):
            receiver_asn = ASN(receiver)
            if receiver_asn in best:
                continue
            if not self._accepts(receiver_asn, prefix, sender_path, payloads, enforcing):
                continue
            best[receiver_asn] = RibEntry(
                prefix=prefix,
                path=sender_path.prepend(receiver_asn),
                route_class=RouteClass.PEER_ROUTE,
                learned_from=ASN(sender),
            )

        # Stage C — routes descend customer links.
        heap = []
        for asn, entry in best.items():
            if may_export(entry.route_class, Relationship.CUSTOMER):
                for customer in topology.customers(asn):
                    heapq.heappush(
                        heap, (len(entry.path), int(asn), int(customer), entry.path)
                    )
        while heap:
            _length, sender, receiver, sender_path = heapq.heappop(heap)
            receiver_asn = ASN(receiver)
            if receiver_asn in best:
                continue
            if not self._accepts(receiver_asn, prefix, sender_path, payloads, enforcing):
                continue
            entry = RibEntry(
                prefix=prefix,
                path=sender_path.prepend(receiver_asn),
                route_class=RouteClass.PROVIDER_ROUTE,
                learned_from=ASN(sender),
            )
            best[receiver_asn] = entry
            for customer in topology.customers(receiver_asn):
                heapq.heappush(
                    heap, (len(entry.path), receiver, int(customer), entry.path)
                )

        return best
