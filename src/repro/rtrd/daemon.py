"""The long-lived RTR cache daemon.

:class:`RTRDaemon` is the push-side counterpart of ``repro.serve``'s
pull-side query service: instead of answering queries against a
frozen index, it *pushes* world changes to every connected router.
One :class:`~repro.rpki.rtr.cache.RTRCache` holds the VRP snapshot
and its bounded diff history; a
:class:`~repro.rtrd.session.SessionManager` holds the router
population; :meth:`publish` installs a new VRP world, fans a Serial
Notify out to every synchronized session, and pumps the resulting
serve/poll exchanges to quiescence.

Every serve/poll round goes through the shared ordered-dispatch
primitive (:func:`repro.exec.dispatch.run_batches`) over contiguous
router batches cut by the executor's planner
(:func:`repro.exec.sharding.plan_batches`).  ``auto`` pumps inline on
the calling thread, whatever ``workers`` says: a publish costs one
decode per distinct frame and one per-PDU walk per distinct (response,
base table), which every other router with that base adopts
(:mod:`repro.rpki.rtr.client`), and a GIL-bound pool that starts
afresh every round only slows that down.  ``mode="thread"``
still runs the batches on a pool, and serial and threaded pumps
produce identical router tables and identical counter totals.
Batches are disjoint router sets and the cache's world state is
read-only during a pump, so threads never contend on session state;
the encoded snapshot/diff frame caches are a benign race (both
threads compute the same bytes).  A publish sizes the full-snapshot
response it reports by counting VRPs per family, so the snapshot is
encoded only when some router asks for it.

:meth:`RTRDaemon.pump` is the one place that measures pushed bytes:
every pump — a publish's, a connect's, a catch-up's or a restart's —
adds what it served to the daemon's totals and to
``ripki_rtrd_push_bytes_total``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.dispatch import resolve_mode, run_batches
from repro.exec.sharding import Batch, plan_batches
from repro.obs.runtime import metrics, tracer
from repro.rpki.rtr.cache import RTRCache
from repro.rpki.rtr.pdus import FLAG_ANNOUNCE, prefix_pdu
from repro.rpki.vrp import VRP
from repro.rtrd.session import SessionManager, SimulatedRouter

DISPATCH_MODES: Tuple[str, ...] = ("auto", "serial", "thread")

# The daemon's latency objective in an attached SLO tracker: one
# event per publish, good when the fan-out met the deadline.
PUSH_SLO = "rtrd.push"

# Serve/poll rounds a single pump may take before giving up; a
# healthy exchange converges in 2-3 (notify -> query -> diff).
MAX_PUMP_ROUNDS = 12

PUSH_LATENCY_METRIC = "ripki_rtrd_push_seconds"
PUSH_BYTES_METRIC = "ripki_rtrd_push_bytes_total"
PUBLISHES_METRIC = "ripki_rtrd_publishes_total"

_METRIC_HELP = {
    PUSH_LATENCY_METRIC:
        "Wall time from publish to all-sessions-converged",
    PUSH_BYTES_METRIC:
        "Response bytes pushed to routers, by response kind",
    PUBLISHES_METRIC:
        "World publishes, by outcome (advanced vs no-op)",
}


def wire_table(vrps: Iterable[VRP]) -> bytes:
    """Canonical wire encoding of a VRP table.

    Sorted announce-flagged prefix PDUs — the byte string two tables
    must share to count as bit-identical *on the wire* (the wire
    carries no trust-anchor names, so tables that differ only there
    compare equal, exactly as a router would see them).
    """
    return b"".join(
        sorted(prefix_pdu(FLAG_ANNOUNCE, vrp).encode() for vrp in vrps)
    )


@dataclass(frozen=True)
class RtrdConfig:
    """Every dispatch knob of one daemon."""

    workers: int = 1
    mode: str = "auto"                # auto | serial | thread
    history_limit: int = 16

    def __post_init__(self):
        if self.mode not in DISPATCH_MODES:
            raise ValueError(
                f"mode must be one of {DISPATCH_MODES}, got {self.mode!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def resolved_mode(self) -> str:
        return resolve_mode(self.mode, self.workers, parallel="serial")


@dataclass
class PublishStats:
    """Accounting for one :meth:`RTRDaemon.publish` call."""

    serial: int
    announced: int = 0
    withdrawn: int = 0
    advanced: bool = False
    notified: int = 0
    rounds: int = 0
    elapsed_s: float = 0.0
    delta_bytes: int = 0            # diff-response bytes this publish
    snapshot_bytes: int = 0         # snapshot-response bytes this publish
    # Size of ONE full-snapshot response for the post-publish world —
    # what every notified router would have paid without diffs.
    snapshot_frame_bytes: int = 0
    synchronized: int = 0


def summarize_publishes(
    daemon: "RTRDaemon", elapsed_s: Optional[float] = None
) -> Dict[str, object]:
    """JSON-ready summary of a daemon's publish history.

    The CLI's closing table, its ``--json`` payload and the CI smoke
    checks all consume this one shape.  Push-latency
    quantiles are bucket-estimated with the same estimator the live
    SLO gauges use (:func:`repro.obs.window.estimate_quantiles`).
    """
    from repro.obs.window import estimate_quantiles

    advanced = [s for s in daemon.publishes if s.advanced]
    latencies = [s.elapsed_s for s in advanced]
    p50, p99 = (
        estimate_quantiles(latencies, (0.50, 0.99))
        if latencies
        else (0.0, 0.0)
    )
    notified = sum(s.notified for s in advanced)
    equivalent = sum(s.snapshot_frame_bytes * s.notified for s in advanced)
    # What the publishes' own pumps pushed (connects and restarts
    # snapshot whatever the diffs save).
    pushed = sum(s.delta_bytes + s.snapshot_bytes for s in advanced)
    manager = daemon.manager
    summary: Dict[str, object] = {
        "mode": daemon.config.resolved_mode,
        "serial": daemon.serial,
        "publishes": len(daemon.publishes),
        "advanced": len(advanced),
        "noop": len(daemon.publishes) - len(advanced),
        "sessions": len(manager),
        "synchronized": len(manager.synchronized()),
        "quarantined": len(manager.quarantined()),
        "total_connects": manager.total_connects,
        "total_disconnects": manager.total_disconnects,
        "push_p50_ms": round(p50 * 1000, 3),
        "push_p99_ms": round(p99 * 1000, 3),
        "notified": notified,
        "delta_bytes": daemon.delta_bytes,
        "snapshot_bytes": daemon.snapshot_bytes,
        "snapshot_equivalent_bytes": equivalent,
        # >1 means the publishes' pushes are cheaper than
        # re-snapshotting every notified router each publish.
        "delta_saving_ratio": (
            round(equivalent / pushed, 3) if pushed else 0.0
        ),
    }
    if elapsed_s is not None:
        summary["elapsed_s"] = round(elapsed_s, 3)
    return summary


class RTRDaemon:
    """A long-running RTR cache server over simulated router sessions."""

    def __init__(
        self,
        config: Optional[RtrdConfig] = None,
        cache: Optional[RTRCache] = None,
    ):
        self.config = config or RtrdConfig()
        self._cache = cache or RTRCache(
            history_limit=self.config.history_limit
        )
        self._manager = SessionManager(self._cache)
        self._clock: Callable[[], float] = time.perf_counter
        self._slo = None
        self._health = None
        self._push_deadline_s = 1.0
        self.publishes: List[PublishStats] = []
        # Response bytes every pump has pushed, by kind.
        self.delta_bytes = 0
        self.snapshot_bytes = 0

    # -- wiring ------------------------------------------------------------

    @property
    def cache(self) -> RTRCache:
        return self._cache

    @property
    def manager(self) -> SessionManager:
        return self._manager

    @property
    def serial(self) -> int:
        return self._cache.serial

    def vrps(self) -> List[VRP]:
        return self._cache.vrps()

    def attach_telemetry(
        self,
        slo=None,
        health=None,
        clock: Optional[Callable[[], float]] = None,
        push_deadline_s: float = 1.0,
    ) -> "RTRDaemon":
        """Wire publishes into the live telemetry plane.

        ``slo`` (an :class:`~repro.obs.window.SLOTracker`) gets a
        ``rtrd.push`` latency objective — each publish's fan-out wall
        time is one event, good when it met ``push_deadline_s``.
        ``health`` (an :class:`~repro.obs.http.HealthSource`) is
        stamped after every publish, driving ``/health``'s freshness
        and ``/ready``.  Returns ``self`` to chain.
        """
        self._slo = slo
        self._health = health
        if clock is not None:
            self._clock = clock
        self._push_deadline_s = push_deadline_s
        if slo is not None:
            slo.declare(
                PUSH_SLO, threshold_s=push_deadline_s, target=0.95
            )
        return self

    # -- router lifecycle --------------------------------------------------

    def connect(self, name: Optional[str] = None) -> SimulatedRouter:
        """Connect a router and pump its initial full sync."""
        router = self._manager.connect(name)
        self.pump([router])
        return router

    def connect_many(self, count: int) -> List[SimulatedRouter]:
        """Connect ``count`` routers, then sync them all in one pump."""
        routers = [self._manager.connect() for _ in range(count)]
        self.pump(routers)
        return routers

    def disconnect(self, name: str) -> SimulatedRouter:
        return self._manager.disconnect(name)

    def routers(self) -> List[SimulatedRouter]:
        return self._manager.routers()

    # -- the push path -----------------------------------------------------

    def publish(self, vrps: Iterable[VRP]) -> PublishStats:
        """Install a new VRP world and push it to every router.

        A no-change publish is a true no-op on the wire: the hardened
        cache keeps its serial, so no session is notified and no
        router round-trips an empty diff.
        """
        started = self._clock()
        trace = tracer()
        with trace.span("rtrd.publish"):
            before_delta, before_snapshot = (
                self.delta_bytes, self.snapshot_bytes
            )
            serial_before = self._cache.serial
            with trace.span("rtrd.cache.load"):  # the diff build
                announced, withdrawn = self._cache.load(vrps)
            stats = PublishStats(
                serial=self._cache.serial,
                announced=announced,
                withdrawn=withdrawn,
                advanced=self._cache.serial != serial_before,
            )
            if stats.advanced:
                stats.snapshot_frame_bytes = self._cache.snapshot_frame_size()
                with trace.span("rtrd.notify"):
                    stats.notified = sum(
                        1
                        for session in self._cache.sessions()
                        if session.synchronized
                        and self._cache.notify_session(session)
                    )
                stats.rounds = self.pump()
            stats.delta_bytes = self.delta_bytes - before_delta
            stats.snapshot_bytes = self.snapshot_bytes - before_snapshot
            stats.synchronized = len(self._manager.synchronized())
        stats.elapsed_s = self._clock() - started
        self.publishes.append(stats)
        self._record_publish(stats)
        return stats

    def synchronize(self) -> int:
        """Notify every synchronized session and pump to quiescence.

        The catch-up path for routers whose lag just cleared: their
        queued notifies are finally read, stale serials turn into
        multi-serial diffs (or a Cache Reset once history has moved
        past them).  Returns the rounds used.
        """
        for session in self._cache.sessions():
            if session.synchronized:
                self._cache.notify_session(session)
        return self.pump()

    def pump(
        self, routers: Optional[Sequence[SimulatedRouter]] = None
    ) -> int:
        """Serve/poll rounds until the byte pipes drain.

        Lagging routers are served but never polled, and their unread
        responses do not count against quiescence (an unread socket
        is not undelivered work).  The response bytes served are added
        to :attr:`delta_bytes` / :attr:`snapshot_bytes` and to
        ``ripki_rtrd_push_bytes_total``.
        """
        population = (
            list(routers) if routers is not None else self._manager.routers()
        )
        before_delta, before_snapshot = self._byte_totals(population)
        rounds = 0
        with tracer().span(
            "rtrd.pump",
            routers=len(population),
            mode=self.config.resolved_mode,
        ) as root:
            while rounds < MAX_PUMP_ROUNDS:
                if not self._pending(population):
                    break
                self._step_all(population, root)
                rounds += 1
        after_delta, after_snapshot = self._byte_totals(population)
        self._count_bytes(
            after_delta - before_delta, after_snapshot - before_snapshot
        )
        return rounds

    @staticmethod
    def _pending(population: Sequence[SimulatedRouter]) -> bool:
        for router in population:
            if router.pair.cache_side.pending():
                return True
            if not router.lagging and router.pair.router_side.pending():
                return True
        return False

    # -- dispatch ----------------------------------------------------------

    def _step_all(
        self, population: Sequence[SimulatedRouter], root
    ) -> None:
        run_batches(
            self._step_batch,
            plan_batches(population, workers=self.config.workers),
            workers=self.config.workers,
            mode=self.config.resolved_mode,
            root=root,
        )

    def _step_batch(self, batch: Batch) -> None:
        with tracer().span(
            "rtrd.batch", batch=batch.index, routers=len(batch)
        ):
            for router in batch.items:
                self._manager.step_router(router)

    # -- accounting --------------------------------------------------------

    @staticmethod
    def _byte_totals(
        population: Sequence[SimulatedRouter],
    ) -> Tuple[int, int]:
        delta = snapshot = 0
        for router in population:
            delta += router.session.diff_bytes_sent
            snapshot += router.session.snapshot_bytes_sent
        return delta, snapshot

    def _count_bytes(self, delta: int, snapshot: int) -> None:
        self.delta_bytes += delta
        self.snapshot_bytes += snapshot
        counters = metrics()
        if counters.enabled:
            bytes_counter = counters.counter(
                PUSH_BYTES_METRIC,
                _METRIC_HELP[PUSH_BYTES_METRIC],
                labelnames=("kind",),
            )
            bytes_counter.labels(kind="diff").inc(delta)
            bytes_counter.labels(kind="snapshot").inc(snapshot)

    def _record_publish(self, stats: PublishStats) -> None:
        counters = metrics()
        if counters.enabled:
            counters.counter(
                PUBLISHES_METRIC,
                _METRIC_HELP[PUBLISHES_METRIC],
                labelnames=("outcome",),
            ).labels(
                outcome="advanced" if stats.advanced else "noop"
            ).inc()
            if stats.advanced:
                counters.histogram(
                    PUSH_LATENCY_METRIC, _METRIC_HELP[PUSH_LATENCY_METRIC]
                ).observe(stats.elapsed_s)
        if stats.advanced:
            if self._slo is not None:
                self._slo.observe(
                    PUSH_SLO,
                    stats.elapsed_s,
                    ok=stats.elapsed_s <= self._push_deadline_s,
                )
            if self._health is not None:
                self._health.mark_refresh()
                self._health.set_detail(
                    serial=stats.serial,
                    sessions=len(self._manager),
                )

    # -- verification ------------------------------------------------------

    @property
    def converged(self) -> bool:
        """Every alive, non-lagging router holds the current serial."""
        return all(
            router.client.serial == self._cache.serial
            for router in self._manager.routers()
            if router.alive and not router.lagging
        )

    def diverged_routers(self) -> List[SimulatedRouter]:
        """Alive, non-lagging routers whose table differs on the wire.

        Tables share their record objects, so each distinct one is
        encoded once per call; every router's sorted wire bytes are
        still compared with the cache's in full.
        """
        truth = wire_table(self._cache.vrps())
        encoded: Dict[int, Tuple[VRP, bytes]] = {}

        def encode(vrp: VRP) -> bytes:
            entry = encoded.get(id(vrp))
            if entry is None:
                # Holding the VRP keeps its id from being reused.
                entry = encoded[id(vrp)] = (
                    vrp, prefix_pdu(FLAG_ANNOUNCE, vrp).encode()
                )
            return entry[1]

        return [
            router
            for router in self._manager.routers()
            if router.alive
            and not router.lagging
            and b"".join(sorted(map(encode, router.client.vrps()))) != truth
        ]

    def __repr__(self) -> str:
        return (
            f"<RTRDaemon serial={self._cache.serial} "
            f"{len(self._manager)} routers "
            f"{len(self._cache.vrps())} VRPs>"
        )
