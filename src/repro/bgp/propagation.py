"""Policy-compliant route propagation.

Every AS's best route under the Gao–Rexford model comes from the
standard three-stage search (customer routes climb provider links,
peer routes cross one peering edge, provider routes descend customer
links), with shortest-path and lowest-neighbor tie-breaking inside
each stage.  Multiple originations of the same prefix (anycast, MOAS
conflicts, hijacks) compete naturally.

:meth:`PropagationEngine.propagate` goes key → tree → materialise.
*Key:* a prefix's announcements reduce to one ``(origin, initial path,
rejected)`` per origin, ``rejected`` being the RFC 6811 verdict
*invalid* under the given :class:`~repro.rpki.vrp.ValidatedPayloads`,
looked up once per announcement and only when some AS enforces.
Nothing else of a prefix reaches the search, so equal keys share
routes.  *Tree:* one search per distinct key, over the topology's
frozen neighbor index, keeps per AS ``(path length, learned_from, route
class, origination)`` — predecessors, not a path per hop.  ASes listed
in ``enforcing`` refuse rejected originations: the countermeasure whose
deployment the paper measures.  *Materialise:* paths are built by
walking predecessors, once per tree and only for the ASes whose routes
are recorded, then stamped with each prefix of the key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.bgp.aspath import ASPath
from repro.bgp.messages import Announcement
from repro.bgp.policy import Relationship, RouteClass
from repro.bgp.topology import ASTopology, Links, NeighborIndex
from repro.net import ASN, Prefix
from repro.obs.runtime import metrics
from repro.rpki.vrp import OriginValidation, ValidatedPayloads

# Per origin of a key: (origin, initial path, rejected).  Per AS of a tree:
# (path length, learned_from, route class, index in the key of its origination).
Key = Tuple[Tuple[ASN, ASPath, bool], ...]
Tree = Dict[ASN, Tuple[int, Optional[ASN], RouteClass, int]]


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
        validating = payloads is not None and bool(enforcing)
        # The last origination per (prefix, origin) wins, in the first
        # one's place; an origin outside the topology originates
        # nothing, but its prefix is still listed.
        announced = 0
        by_prefix: Dict[Prefix, Dict[ASN, Tuple[ASN, ASPath, bool]]] = {}
        for announcement in announcements:
            announced += 1
            prefix, origin = announcement.prefix, announcement.origin
            origins = by_prefix.setdefault(prefix, {})
            if origin in self._topology:
                path = announcement.initial_path()
                rejected = validating and (
                    payloads.validate_origin(prefix, path.origin())
                    is OriginValidation.INVALID
                )
                origins[origin] = (origin, path, rejected)
        # First-announcement order is the collector's row order, hence
        # every dump digest: seed the tables before grouping.
        tables: Dict[Prefix, Dict[ASN, RibEntry]] = dict.fromkeys(by_prefix)
        groups: Dict[Key, List[Prefix]] = {}
        for prefix, origins in by_prefix.items():
            groups.setdefault(tuple(origins.values()), []).append(prefix)
        index = self._topology.neighbor_index()
        for key, prefixes in groups.items():
            rows = _materialise(key, _search(key, index, enforcing), record_ases)
            for prefix in prefixes:
                tables[prefix] = {
                    asn: RibEntry(prefix, path, route_class, learned_from)
                    for asn, path, route_class, learned_from in rows
                }

        count = metrics().counter
        count("ripki_bgp_announcements_total", "Announcements seen").inc(announced)
        count("ripki_bgp_route_trees_total", "Route trees built").inc(len(groups))
        return RoutingState(tables)


def _search(key: Key, index: NeighborIndex, enforcing: FrozenSet[ASN]) -> Tree:
    """Every AS's best route for one key."""
    # Who refuses each origination's routes: the enforcers, when origin
    # validation rejects it, and the ASes its initial path names (a loop;
    # ASes further along a path hold a route, so are never offered one).
    refusing = [
        frozenset(path) | enforcing if rejected else frozenset(path)
        for _origin, path, rejected in key
    ]
    # Stage 0 — origination.  An origin keeps its own route unfiltered.
    best: Tree = {
        origin: (len(path), None, RouteClass.ORIGIN, origination)
        for origination, (origin, path, _rejected) in enumerate(key)
    }
    # Stage A — customer routes climb provider links.
    _spread(best, index[Relationship.PROVIDER], RouteClass.CUSTOMER_ROUTE, refusing)
    # Stage B — one peering hop.  Every route so far is an origin's or
    # a customer's, so all are exported to peers; a peer route never
    # propagates further up or sideways (valley-free).
    peers = index[Relationship.PEER]
    offers = sorted(
        (length, sender, receiver, origination)
        for sender, (length, _from, _class, origination) in best.items()
        for receiver in peers[sender]
    )
    for length, sender, receiver, origination in offers:
        if receiver not in best and receiver not in refusing[origination]:
            best[receiver] = (length + 1, sender, RouteClass.PEER_ROUTE, origination)
    # Stage C — every route descends customer links.
    _spread(best, index[Relationship.CUSTOMER], RouteClass.PROVIDER_ROUTE, refusing)
    return best


def _spread(
    best: Tree, links: Links, route_class: RouteClass, refusing: List[FrozenSet[ASN]]
) -> None:
    """Hand the routes in ``best`` along ``links`` until none is new."""
    heap = [
        (length, sender, receiver, origination)
        for sender, (length, _from, _class, origination) in best.items()
        for receiver in links[sender]
    ]
    heapq.heapify(heap)
    while heap:
        # Offers pop in (path length, sender) order, so an AS's first
        # adoption is already its best route of this class.
        length, sender, receiver, origination = heapq.heappop(heap)
        if receiver in best or receiver in refusing[origination]:
            continue
        length += 1
        best[receiver] = (length, sender, route_class, origination)
        for onward in links[receiver]:
            heapq.heappush(heap, (length, receiver, onward, origination))


def _materialise(
    key: Key, best: Tree, record_ases: Optional[Set[ASN]]
) -> List[Tuple[ASN, ASPath, RouteClass, Optional[ASN]]]:
    """``(asn, path as it would advertise it, route class, learned_from)``
    per recorded AS, in the order the search adopted the routes."""
    paths = {origin: path for origin, path, _rejected in key}
    rows = []
    for asn, (_length, learned_from, route_class, _origination) in best.items():
        if record_ases is not None and asn not in record_ases:
            continue
        chain = [asn]  # up to the nearest AS whose path is already built
        while chain[-1] not in paths:
            chain.append(best[chain[-1]][1])
        for hop in reversed(chain[:-1]):
            paths[hop] = paths[best[hop][1]].prepend(hop)
        rows.append((asn, paths[asn], route_class, learned_from))
    return rows
