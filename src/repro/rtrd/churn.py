"""Seeded router-churn load generator for the RTR daemon.

Drives an :class:`~repro.rtrd.daemon.RTRDaemon` through rounds of
realistic misbehaviour: routers connect and disconnect, some stop
reading their sockets for a few rounds (lag), some blast garbage
bytes mid-session, and the VRP world keeps changing underneath.
Everything draws from one :class:`~repro.crypto.rng.DeterministicRNG`
seed, so a churn run is replayable bit-for-bit — the property the
differential harness leans on to assert that every surviving router's
table is identical to the cache snapshot no matter the interleaving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.crypto.rng import DeterministicRNG, Seed
from repro.net import ASN, Prefix
from repro.rpki.vrp import VRP
from repro.rtrd.daemon import RTRDaemon


class SyntheticVRPWorld:
    """A deterministic, mutating VRP universe.

    Prefixes are allocated from a monotone index (so they never
    collide); ASNs and maxLengths are drawn from the seeded stream.
    :meth:`advance` withdraws some existing VRPs and announces fresh
    ones, producing exactly the announce/withdraw churn an RTR cache
    must turn into serial diffs.
    """

    def __init__(self, size: int, seed: Seed = "rtrd-world"):
        self._rng = DeterministicRNG(seed).fork("vrps")
        self._index = itertools.count(1)
        self._vrps: Dict[Tuple, VRP] = {}
        self.grow(size)

    def _mint(self) -> VRP:
        # Index-addressed /24s cover the v4 space without collisions.
        prefix = Prefix(4, next(self._index) << 8, 24)
        max_length = self._rng.randint(24, 28)
        asn = ASN(self._rng.randint(64496, 65534))
        vrp = VRP(prefix, max_length, asn, "rtrd-world")
        self._vrps[(vrp.prefix, vrp.max_length, int(vrp.asn))] = vrp
        return vrp

    def grow(self, count: int) -> None:
        for _ in range(count):
            self._mint()

    def advance(self, changes: int) -> Tuple[int, int]:
        """Mutate the world by ``changes`` VRPs; (announced, withdrawn).

        Half the changes withdraw existing VRPs (capped by what
        exists), the rest announce fresh ones — total size drifts
        slowly while every round still exercises both diff flags.
        """
        withdraw = min(changes // 2, len(self._vrps))
        for key in self._rng.sample(sorted(self._vrps), withdraw):
            del self._vrps[key]
        announce = changes - withdraw
        self.grow(announce)
        return announce, withdraw

    def vrps(self) -> List[VRP]:
        return list(self._vrps.values())

    def __len__(self) -> int:
        return len(self._vrps)


# The longest a lagging router stays read-silent, in rounds.
MAX_LAG_ROUNDS = 3


@dataclass(frozen=True)
class ChurnProfile:
    """One seeded churn scenario.

    Fractions apply to the population each round: ``disconnect``
    removes routers for good, ``lag`` makes routers stop reading for
    up to ``MAX_LAG_ROUNDS`` rounds, ``garbage`` injects junk bytes
    mid-stream (quarantining the session until the simulated router
    software restarts).  ``world_changes`` VRPs mutate per round.
    """

    rounds: int = 8
    target_sessions: int = 32
    disconnect: float = 0.05
    lag: float = 0.1
    garbage: float = 0.05
    world_changes: int = 20
    seed: Seed = "rtrd-churn"

    def __post_init__(self):
        for name in ("disconnect", "lag", "garbage"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a fraction, got {value}")
        if self.rounds < 1 or self.target_sessions < 1:
            raise ValueError("rounds and target_sessions must be >= 1")


@dataclass
class ChurnSummary:
    """What a churn run did and where it ended up."""

    rounds: int = 0
    connects: int = 0
    disconnects: int = 0
    revives: int = 0
    wedge_reconnects: int = 0
    garbage_frames: int = 0
    lag_assignments: int = 0
    world_announced: int = 0
    world_withdrawn: int = 0
    final_serial: int = 0
    final_sessions: int = 0
    final_synchronized: int = 0
    final_quarantined: int = 0
    diverged: int = 0
    converged: bool = False
    publish_rounds: List[int] = field(default_factory=list)


def run_churn(
    daemon: RTRDaemon,
    world: SyntheticVRPWorld,
    profile: ChurnProfile,
) -> ChurnSummary:
    """Drive ``daemon`` through ``profile.rounds`` rounds of churn.

    Round shape: restart broken routers (half revived in place via a
    fresh Reset Query, half torn down and reconnected), disconnect a
    few healthy ones, top the population back up to target, inject
    garbage and lag, then mutate the world and publish it.  After the
    last round all lag is cleared and the daemon synchronizes, so the
    summary's convergence fields describe a quiescent end state.
    """
    summary = ChurnSummary()
    manager = daemon.manager
    rng = DeterministicRNG(profile.seed).fork("churn")
    for round_index in range(profile.rounds):
        round_rng = rng.fork(f"round-{round_index}")
        _restart_broken(daemon, round_rng, summary)
        _disconnect_some(daemon, round_rng, profile, summary)
        while len(manager) < profile.target_sessions:
            daemon.connect()
            summary.connects += 1
        _inject_garbage(daemon, round_rng, profile, summary)
        _assign_lag(daemon, round_rng, profile, summary)
        announced, withdrawn = world.advance(profile.world_changes)
        summary.world_announced += announced
        summary.world_withdrawn += withdrawn
        stats = daemon.publish(world.vrps())
        summary.publish_rounds.append(stats.rounds)
        for router in manager.routers():
            if router.lag > 0:
                router.lag -= 1
        summary.rounds += 1
    # Quiesce: every straggler catches up, then judge convergence.
    # Iterated because a poisoned session buffer can stay dormant
    # under an idle router and only break (wedge or quarantine) when
    # the catch-up traffic finally touches it.
    for router in manager.routers():
        router.lag = 0
    for attempt in range(3):
        _restart_broken(daemon, rng.fork(f"final-{attempt}"), summary)
        daemon.synchronize()
        if all(
            router.alive and not router.wedged
            for router in manager.routers()
        ):
            break
    summary.final_serial = daemon.serial
    summary.final_sessions = len(manager)
    summary.final_synchronized = len(manager.synchronized())
    summary.final_quarantined = len(manager.quarantined())
    summary.diverged = len(daemon.diverged_routers())
    summary.converged = daemon.converged and summary.diverged == 0
    return summary


def _restart_broken(
    daemon: RTRDaemon, rng: DeterministicRNG, summary: ChurnSummary
) -> None:
    """Restart every router whose session died or stream wedged.

    Dead sessions split deterministically between the two recovery
    paths: an in-place software restart (Reset Query revives the
    quarantined session) and a full reconnect (teardown plus a fresh
    session).  A *wedged* router — its query swallowed by a poisoned
    session buffer — always reconnects: only tearing the connection
    down resynchronises a desynced byte stream, exactly like the
    query timeout a real router would fire.
    """
    manager = daemon.manager
    broken = [r for r in manager.routers() if not r.alive or r.wedged]
    for router in broken:
        if router.wedged or rng.random() >= 0.5:
            daemon.disconnect(router.name)
            daemon.connect()
            if router.wedged:
                summary.wedge_reconnects += 1
            summary.disconnects += 1
            summary.connects += 1
        else:
            manager.revive(router)
            summary.revives += 1
    if broken:
        daemon.pump()


def _disconnect_some(
    daemon: RTRDaemon,
    rng: DeterministicRNG,
    profile: ChurnProfile,
    summary: ChurnSummary,
) -> None:
    routers = daemon.manager.routers()
    count = int(len(routers) * profile.disconnect)
    for router in rng.sample(routers, min(count, len(routers))):
        daemon.disconnect(router.name)
        summary.disconnects += 1


def _inject_garbage(
    daemon: RTRDaemon,
    rng: DeterministicRNG,
    profile: ChurnProfile,
    summary: ChurnSummary,
) -> None:
    alive = daemon.manager.alive()
    count = int(len(alive) * profile.garbage)
    for router in rng.sample(alive, min(count, len(alive))):
        junk = rng.bytes(rng.randint(1, 40))
        router.pair.router_side.send(junk)
        summary.garbage_frames += 1


def _assign_lag(
    daemon: RTRDaemon,
    rng: DeterministicRNG,
    profile: ChurnProfile,
    summary: ChurnSummary,
) -> None:
    candidates = [r for r in daemon.manager.alive() if not r.lagging]
    count = int(len(candidates) * profile.lag)
    for router in rng.sample(candidates, min(count, len(candidates))):
        router.lag = rng.randint(1, MAX_LAG_ROUNDS)
        summary.lag_assignments += 1
