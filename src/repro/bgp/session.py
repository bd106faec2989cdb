"""Event-driven BGP session simulation.

While :mod:`repro.bgp.propagation` computes the converged routing
state algebraically, this module simulates the protocol dynamics:
speakers exchange UPDATE messages (announce/withdraw) over sessions,
maintain Adj-RIB-In / Loc-RIB / Adj-RIB-Out, and run the decision
process on every change.  The same Gao–Rexford preferences and
valley-free export rules apply, so for a static set of originations
the simulator converges to exactly the state the algebraic engine
computes — a property the test suite checks on random topologies.

The dynamic machinery enables what the static engine cannot express:

* withdrawing a hijack and watching the victim's routes heal,
* feeding routers *new* VRPs mid-flight (RTR refresh) and having them
  re-validate previously accepted routes (RFC 6811 revalidation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.bgp.aspath import ASPath
from repro.bgp.errors import BGPError
from repro.bgp.messages import Announcement
from repro.bgp.policy import Relationship, RouteClass, may_export
from repro.bgp.propagation import RibEntry, RoutingState
from repro.bgp.topology import ASTopology
from repro.net import ASN, Prefix
from repro.rpki.vrp import OriginValidation, ValidatedPayloads


@dataclass(frozen=True)
class UpdateMessage:
    """One UPDATE: an announcement (path set) or a withdrawal (None)."""

    sender: ASN
    receiver: ASN
    prefix: Prefix
    path: Optional[ASPath]  # None == withdraw

    @property
    def is_withdrawal(self) -> bool:
        return self.path is None


class BGPSpeaker:
    """One AS's BGP process."""

    def __init__(self, asn: ASN, topology: ASTopology):
        self.asn = asn
        self._topology = topology
        # Canonical (ASN-sorted) adjacency: the topology's dict is in
        # edge-insertion order, and _export iterates it, so without the
        # sort the emitted message sequence — and every downstream
        # trace — would depend on how the graph was constructed.
        self._neighbors = dict(
            sorted(topology.neighbors(asn).items(), key=lambda kv: int(kv[0]))
        )
        # adj_rib_in[prefix][neighbor] = path as received.
        self.adj_rib_in: Dict[Prefix, Dict[ASN, ASPath]] = {}
        self.loc_rib: Dict[Prefix, RibEntry] = {}
        self.adj_rib_out: Dict[Tuple[ASN, Prefix], ASPath] = {}
        self.originated: Dict[Prefix, Announcement] = {}
        self.payloads: Optional[ValidatedPayloads] = None
        self.enforcing = False

    # -- configuration -----------------------------------------------------

    def set_validation(
        self, payloads: Optional[ValidatedPayloads], enforcing: bool
    ) -> List[UpdateMessage]:
        """Install (new) VRPs; re-run the decision process everywhere.

        Returns the updates triggered by routes changing validity.
        """
        self.payloads = payloads
        self.enforcing = enforcing
        outgoing: List[UpdateMessage] = []
        # Sorted, not set order: a set iterates by hash and insertion
        # history, so the order would depend on which messages arrived
        # first — sorting keeps revalidation message order reproducible.
        prefixes = set(self.adj_rib_in) | set(self.loc_rib) | set(self.originated)
        for prefix in sorted(prefixes):
            outgoing.extend(self._decide(prefix))
        return outgoing

    # -- local origination -----------------------------------------------------

    def originate(self, announcement: Announcement) -> List[UpdateMessage]:
        self.originated[announcement.prefix] = announcement
        return self._decide(announcement.prefix)

    def withdraw_origination(self, prefix: Prefix) -> List[UpdateMessage]:
        if prefix in self.originated:
            del self.originated[prefix]
        return self._decide(prefix)

    # -- message handling ----------------------------------------------------------

    def receive(self, message: UpdateMessage) -> List[UpdateMessage]:
        """Apply one UPDATE from a neighbor and run the decision process."""
        if message.receiver != self.asn:
            raise BGPError(f"{self.asn} received a message for {message.receiver}")
        neighbor = message.sender
        if neighbor not in self._neighbors:
            raise BGPError(f"{self.asn} has no session with {neighbor}")
        rib_in = self.adj_rib_in.setdefault(message.prefix, {})
        if message.is_withdrawal:
            rib_in.pop(neighbor, None)
        else:
            rib_in[neighbor] = message.path
        return self._decide(message.prefix)

    # -- decision process ---------------------------------------------------------------

    def _acceptable(self, prefix: Prefix, path: ASPath) -> bool:
        if path.contains(self.asn):
            return False  # loop
        if not self.enforcing or self.payloads is None:
            return True
        return (
            self.payloads.validate_origin(prefix, path.origin())
            is not OriginValidation.INVALID
        )

    def _best_route(self, prefix: Prefix) -> Optional[RibEntry]:
        origination = self.originated.get(prefix)
        if origination is not None:
            return RibEntry(
                prefix=prefix,
                path=origination.initial_path(),
                route_class=RouteClass.ORIGIN,
                learned_from=None,
            )
        best: Optional[Tuple[int, int, int, ASN, ASPath]] = None
        for neighbor, path in self.adj_rib_in.get(prefix, {}).items():
            if not self._acceptable(prefix, path):
                continue
            relationship = self._neighbors[neighbor]
            route_class = RouteClass.from_relationship(relationship)
            # Rank: higher class, shorter path, lower neighbor ASN.
            key = (-int(route_class), len(path) + 1, int(neighbor))
            if best is None or key < best[:3]:
                best = (*key, neighbor, path)
        if best is None:
            return None
        _c, _l, _n, neighbor, path = best
        return RibEntry(
            prefix=prefix,
            path=path.prepend(self.asn),
            route_class=RouteClass.from_relationship(self._neighbors[neighbor]),
            learned_from=neighbor,
        )

    def _decide(self, prefix: Prefix) -> List[UpdateMessage]:
        new_best = self._best_route(prefix)
        old_best = self.loc_rib.get(prefix)
        if new_best == old_best:
            return []
        if new_best is None:
            del self.loc_rib[prefix]
        else:
            self.loc_rib[prefix] = new_best
        return self._export(prefix, new_best)

    def _export(
        self, prefix: Prefix, best: Optional[RibEntry]
    ) -> List[UpdateMessage]:
        outgoing: List[UpdateMessage] = []
        for neighbor, relationship in self._neighbors.items():
            key = (neighbor, prefix)
            should_send = best is not None and may_export(
                best.route_class, relationship
            )
            previously_sent = key in self.adj_rib_out
            if should_send:
                if self.adj_rib_out.get(key) != best.path:
                    self.adj_rib_out[key] = best.path
                    outgoing.append(
                        UpdateMessage(self.asn, neighbor, prefix, best.path)
                    )
            elif previously_sent:
                del self.adj_rib_out[key]
                outgoing.append(UpdateMessage(self.asn, neighbor, prefix, None))
        return outgoing

    def __repr__(self) -> str:
        return f"<BGPSpeaker {self.asn} {len(self.loc_rib)} routes>"


class SessionSimulator:
    """Deterministic FIFO message-passing over a topology."""

    def __init__(self, topology: ASTopology):
        self._topology = topology
        self.speakers: Dict[ASN, BGPSpeaker] = {
            node.asn: BGPSpeaker(node.asn, topology) for node in topology.ases()
        }
        self._queue: Deque[UpdateMessage] = deque()
        self.messages_processed = 0

    # -- event injection -----------------------------------------------------

    def announce(self, announcement: Announcement) -> None:
        speaker = self._speaker(announcement.origin)
        self._queue.extend(speaker.originate(announcement))

    def withdraw(self, prefix: Prefix, origin: ASN) -> None:
        speaker = self._speaker(ASN(origin))
        self._queue.extend(speaker.withdraw_origination(prefix))

    def configure_validation(
        self,
        payloads: Optional[ValidatedPayloads],
        enforcing: Iterable[ASN],
    ) -> None:
        """Give every AS the VRPs; enable enforcement on a subset."""
        enforcing_set = {ASN(a) for a in enforcing}
        for asn, speaker in self.speakers.items():
            self._queue.extend(
                speaker.set_validation(payloads, asn in enforcing_set)
            )

    def _speaker(self, asn: ASN) -> BGPSpeaker:
        try:
            return self.speakers[asn]
        except KeyError:
            raise BGPError(f"unknown AS: {asn}") from None

    # -- the event loop ------------------------------------------------------------

    def run(self, max_messages: int = 1_000_000) -> int:
        """Drain the queue to convergence; returns messages processed."""
        processed = 0
        while self._queue:
            if processed >= max_messages:
                raise BGPError(
                    f"no convergence after {max_messages} messages"
                )
            message = self._queue.popleft()
            receiver = self._speaker(message.receiver)
            self._queue.extend(receiver.receive(message))
            processed += 1
        self.messages_processed += processed
        return processed

    @property
    def converged(self) -> bool:
        return not self._queue

    # -- state access ------------------------------------------------------------------

    def routing_state(self) -> RoutingState:
        """The Loc-RIBs as a :class:`RoutingState` (engine-compatible)."""
        tables: Dict[Prefix, Dict[ASN, RibEntry]] = {}
        for asn, speaker in self.speakers.items():
            for prefix, entry in speaker.loc_rib.items():
                tables.setdefault(prefix, {})[asn] = entry
        return RoutingState(tables)

    def route_at(self, asn: ASN, prefix: Prefix) -> Optional[RibEntry]:
        return self._speaker(ASN(asn)).loc_rib.get(prefix)

    def __repr__(self) -> str:
        return (
            f"<SessionSimulator {len(self.speakers)} speakers, "
            f"{self.messages_processed} messages processed>"
        )
