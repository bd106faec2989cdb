"""Simulated routers and the session book-keeping of the daemon.

A :class:`SimulatedRouter` is one end-to-end connection: a
:class:`~repro.rpki.rtr.transport.TransportPair`, an
:class:`~repro.rpki.rtr.client.RTRClient` on the router side, and the
cache-side :class:`~repro.rpki.rtr.cache.Session` the hardened
:class:`~repro.rpki.rtr.cache.RTRCache` registered for it.  The
:class:`SessionManager` owns the population: connect/disconnect with
explicit session registration and teardown (buffers are evicted the
moment a router leaves), lag modelling (a lagging router stops
reading its socket, so notifies pile up and its serial falls behind),
and the per-router serve/poll step the daemon's dispatcher fans out.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.rpki.rtr.cache import RTRCache, Session, SessionState
from repro.rpki.rtr.client import ClientState, RTRClient
from repro.rpki.rtr.transport import TransportPair


class SimulatedRouter:
    """One simulated router connection against the daemon's cache."""

    __slots__ = ("name", "pair", "client", "session", "lag")

    def __init__(
        self,
        name: str,
        pair: TransportPair,
        client: RTRClient,
        session: Session,
    ):
        self.name = name
        self.pair = pair
        self.client = client
        self.session = session
        # Rounds this router will skip reading its socket for.  The
        # churn loop assigns and decrements it; while positive, the
        # router neither polls nor queries, so pushed notifies queue
        # up exactly as they would on an unread TCP socket.
        self.lag = 0

    @property
    def alive(self) -> bool:
        """Session still registered and not killed by a fatal error."""
        return (
            self.session.state is SessionState.ACTIVE
            and self.client.state is not ClientState.ERROR
        )

    @property
    def lagging(self) -> bool:
        return self.lag > 0

    @property
    def synchronized(self) -> bool:
        return self.client.state is ClientState.SYNCHRONISED

    @property
    def wedged(self) -> bool:
        """A query is outstanding but both pipes have drained.

        This is a desynchronized byte stream: garbage formed a
        plausible-but-unfinished frame in the cache's session buffer
        and swallowed the router's query, so neither side will ever
        send another byte.  A real router cures it with its query
        timeout — tear the connection down and reconnect.  (A lagging
        router is merely unread, not wedged.)
        """
        return (
            self.alive
            and not self.lagging
            and self.client.state is ClientState.SYNCING
            and self.pending_bytes() == 0
        )

    def pending_bytes(self) -> int:
        """Bytes queued in either direction of this connection."""
        return (
            self.pair.cache_side.pending() + self.pair.router_side.pending()
        )

    def __repr__(self) -> str:
        return (
            f"<SimulatedRouter {self.name} {self.client.state.value}/"
            f"{self.session.state.value} serial={self.client.serial}>"
        )


class SessionManager:
    """The daemon's router population over one hardened cache."""

    def __init__(self, cache: RTRCache):
        self._cache = cache
        self._routers: Dict[str, SimulatedRouter] = {}
        self._name_counter = itertools.count(1)
        self.total_connects = 0
        self.total_disconnects = 0

    def __len__(self) -> int:
        return len(self._routers)

    def routers(self) -> List[SimulatedRouter]:
        """Connection-order list of the current population."""
        return list(self._routers.values())

    def connect(self, name: Optional[str] = None) -> SimulatedRouter:
        """Open a fresh connection: new transports, session, client."""
        if name is None:
            name = f"router-{next(self._name_counter)}"
        if name in self._routers:
            raise ValueError(f"router {name!r} is already connected")
        pair = TransportPair()
        session = self._cache.register(pair.cache_side)
        client = RTRClient(pair.router_side, trust_anchor="rtr")
        router = SimulatedRouter(name, pair, client, session)
        self._routers[name] = router
        self.total_connects += 1
        client.start()
        return router

    def disconnect(self, name: str) -> SimulatedRouter:
        """Tear a connection down; the cache evicts its buffers."""
        router = self._routers.pop(name)
        self._cache.unregister(router.session)
        self.total_disconnects += 1
        return router

    def revive(self, router: SimulatedRouter) -> SimulatedRouter:
        """Restart the router software on an existing connection.

        Stale cache replies still queued for the dead client are
        dropped (the old process never read them), a fresh client
        takes over the router side, and its opening Reset Query is
        what lifts the cache-side quarantine — the frame-aligned
        revive path, as opposed to the disconnect/reconnect path that
        tears the session down entirely.
        """
        router.pair.router_side.receive()
        router.client = RTRClient(router.pair.router_side, trust_anchor="rtr")
        router.lag = 0
        router.client.start()
        return router

    def step_router(self, router: SimulatedRouter) -> None:
        """One serve/poll exchange for a single router.

        The cache side always serves (it cannot know the router is
        slow); a lagging router skips its read, leaving responses and
        notifies queued on its side of the pipe.
        """
        self._cache.serve_session(router.session)
        if not router.lagging:
            router.client.poll()

    # -- population views ---------------------------------------------------

    def alive(self) -> List[SimulatedRouter]:
        return [r for r in self._routers.values() if r.alive]

    def synchronized(self) -> List[SimulatedRouter]:
        return [r for r in self._routers.values() if r.synchronized]

    def quarantined(self) -> List[SimulatedRouter]:
        return [
            r
            for r in self._routers.values()
            if r.session.state is SessionState.QUARANTINED
        ]

    def __repr__(self) -> str:
        return (
            f"<SessionManager {len(self._routers)} routers "
            f"({len(self.synchronized())} synchronized)>"
        )
