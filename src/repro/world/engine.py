"""The time-stepped CA/publication world engine.

:class:`WorldEngine` advances virtual time in fixed steps over a live
:class:`repro.rpki.Repository`.  Each step, every certificate
authority (the RIR trust anchors and the delegated organisation CAs)
makes its seeded decisions — re-sign the manifest and CRL on
schedule, issue a ROA on a still-unsigned holding, withdraw or let
expire a published ROA, stage or complete a key rollover, or suffer a
publication-point outage that leaves everything to go stale — and a
:class:`~repro.world.view.RelyingPartyView` then observes the result
under strict RFC 9286-style freshness rules.

Everything is a pure function of ``(seed, profile, step)``: the
per-CA decisions come from a :class:`repro.faults.FaultPlan`, key
material from :class:`~repro.crypto.DeterministicRNG` forks, and all
iteration is in sorted order — so the same seed replays the same
event ledger and per-step VRP sets bit-for-bit, on any backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto import DeterministicRNG
from repro.faults import (
    WORLD_CRL_SKIP,
    WORLD_KEY_ROLLOVER,
    WORLD_MANIFEST_SKIP,
    WORLD_PP_OUTAGE,
    WORLD_ROA_ISSUE,
    WORLD_ROA_WITHDRAW,
    FaultPlan,
)
from repro.net import ASN, Prefix
from repro.rpki import (
    CertificateAuthority,
    Repository,
    ResourceSet,
    TrustAnchorLocator,
    ValidatedPayloads,
)
from repro.rpki.cert import ResourceCertificate
from repro.rpki.crl import issue_crl
from repro.rpki.manifest import issue_manifest
from repro.rpki.roa import issue_roa
from repro.world import events as ev
from repro.world.events import EventLedger, WorldEvent
from repro.world.scenarios import world_plan
from repro.world.view import RelyingPartyView, ViewObservation, vrp_rows


# The world's clock and object lifetimes, in the simulation's day
# units (the ecosystem's certificates use the same scale).  One step
# is one day and manifests and CRLs are valid for a day and a half, so
# one missed re-sign leaves a point current and two open a stale
# window; ``WorldConfig.grace`` (two days by default) is how long a
# relying party keeps a stale point's VRPs before dropping them.
STEP = 1.0
MANIFEST_VALIDITY = 1.5
CRL_VALIDITY = 1.5
ROA_VALIDITY = 15.0
# Synthetic-world shape (WorldEngine.synthetic only).
SYNTHETIC_CAS = 8
SYNTHETIC_PREFIXES = 6


@dataclass(frozen=True)
class WorldConfig:
    """What a world run is: its CA behaviour profile, seed and the
    relying party's grace window (see the constants above)."""

    profile: str = "calm"
    seed: int = 0
    grace: float = 2.0


@dataclass
class _Actor:
    """One CA's mutable world-side state."""

    name: str
    ca: CertificateAuthority
    parent: Optional[CertificateAuthority]  # None for trust anchors
    holdings: Dict[Prefix, ASN] = field(default_factory=dict)
    manifest_number: int = 1
    roa_sequence: int = 0
    retiring: Optional[ResourceCertificate] = None
    retired_fingerprint: Optional[str] = None


@dataclass
class WorldStep:
    """One advanced step: its events and the observed VRP set."""

    index: int
    time: float
    observation: ViewObservation
    events: List[WorldEvent] = field(default_factory=list)
    vrps_added: int = 0
    vrps_removed: int = 0

    @property
    def payloads(self) -> ValidatedPayloads:
        return self.observation.payloads


@dataclass
class WorldSummary:
    """Aggregates over a run, for ``obs.world_report`` and JSON."""

    profile: str
    seed: int
    steps: int
    authorities: int
    events_by_kind: Dict[str, int]
    final_vrps: int
    vrps_added_total: int
    vrps_removed_total: int
    stale_point_observations: int
    dropped_point_observations: int
    ledger_digest: str
    delta_sizes: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict shape for ``obs.world_report`` and JSON dumps."""
        return {
            "profile": self.profile,
            "seed": self.seed,
            "steps": self.steps,
            "authorities": self.authorities,
            "events_by_kind": dict(self.events_by_kind),
            "final_vrps": self.final_vrps,
            "vrps_added_total": self.vrps_added_total,
            "vrps_removed_total": self.vrps_removed_total,
            "stale_point_observations": self.stale_point_observations,
            "dropped_point_observations": self.dropped_point_observations,
            "ledger_digest": self.ledger_digest,
            "delta_sizes": list(self.delta_sizes),
        }


class WorldEngine:
    """Steps the CA-side world; see the module docstring."""

    def __init__(
        self,
        repository: Repository,
        tals: List[TrustAnchorLocator],
        actors: List[_Actor],
        config: WorldConfig,
        start_time: float = 0.0,
    ):
        self._repository = repository
        self._tals = tals
        self._actors = sorted(actors, key=lambda a: a.name)
        self._config = config
        self._plan: FaultPlan = world_plan(config.profile, seed=config.seed)
        self._view = RelyingPartyView(repository, tals, grace=config.grace)
        self._ledger = EventLedger()
        self._step_index = 0
        self._time = start_time
        self._steps: List[WorldStep] = []
        # Bootstrap: republish every point with real validity windows
        # (the adoption model publishes with effectively-infinite
        # ones) and take the step-0 observation.
        for actor in self._actors:
            self._publish_point(actor, self._time)
        self._observe_step()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_ecosystem(
        cls, world, config: Optional[WorldConfig] = None
    ) -> "WorldEngine":
        """Drive the CA hierarchy an adoption model already built.

        ``world`` is a built :class:`repro.web.WebEcosystem`; the
        engine takes over its repository, trust anchors, and the
        retained CA objects, so stepped VRP churn lands on exactly
        the prefixes the measurement funnel resolves against.
        """
        config = config or WorldConfig()
        adoption = world.adoption
        if not adoption.anchors:
            raise ValueError(
                "the ecosystem's adoption outcome retains no CA objects"
            )
        organisations = {org.name: org for org in world.organisations}
        anchors_by_fp = {
            anchor.keypair.public.fingerprint(): anchor
            for anchor in adoption.anchors.values()
        }
        actors: List[_Actor] = [
            _Actor(name=anchor.name, ca=anchor, parent=None)
            for anchor in adoption.anchors.values()
        ]
        for name in sorted(adoption.authorities):
            ca = adoption.authorities[name]
            parent = anchors_by_fp[ca.certificate.issuer_fingerprint]
            holdings = dict(organisations[name].prefixes) if name in organisations else {}
            actors.append(
                _Actor(name=name, ca=ca, parent=parent, holdings=holdings)
            )
        return cls(
            repository=adoption.repository,
            tals=list(adoption.tals),
            actors=actors,
            config=config,
            start_time=world.config.adoption.validation_time,
        )

    @classmethod
    def synthetic(cls, config: Optional[WorldConfig] = None) -> "WorldEngine":
        """A self-contained world (no ecosystem build required).

        One trust anchor delegates ``SYNTHETIC_CAS`` CAs, each holding
        ``SYNTHETIC_PREFIXES`` /20s out of 60.0.0.0/8 with a
        documentation-range origin AS; half of each CA's holdings
        start signed.  Useful for unit tests and benchmarks.
        """
        config = config or WorldConfig()
        rng = DeterministicRNG(config.seed).fork("world-synthetic")
        anchor = CertificateAuthority.create_trust_anchor(
            "WORLD-TA", rng.fork("ta")
        )
        repository = Repository()
        repository.add_trust_anchor(anchor.certificate)
        tals = [TrustAnchorLocator.for_authority(anchor)]
        actors: List[_Actor] = [_Actor(name="WORLD-TA", ca=anchor, parent=None)]

        base = 60 << 24
        initial_roas: Dict[str, List] = {}
        for index in range(SYNTHETIC_CAS):
            name = f"CA-{index:02d}"
            asn = ASN(64496 + index)
            holdings: Dict[Prefix, ASN] = {}
            for offset in range(SYNTHETIC_PREFIXES):
                value = base + ((index * SYNTHETIC_PREFIXES + offset) << 12)
                holdings[Prefix(4, value, 20)] = asn
            ca = anchor.issue_child_ca(
                name,
                ResourceSet(prefixes=holdings.keys()).with_asns([asn]),
            )
            actors.append(
                _Actor(name=name, ca=ca, parent=anchor, holdings=holdings)
            )
            signed = sorted(holdings, key=str)[
                : max(1, len(holdings) // 2)
            ]
            initial_roas[name] = [
                issue_roa(ca, asn, [(prefix, 24)]) for prefix in signed
            ]

        from repro.rpki.repository import publish_ca_products

        for actor in actors:
            publish_ca_products(
                repository, actor.ca, initial_roas.get(actor.name, [])
            )
        return cls(
            repository=repository,
            tals=tals,
            actors=actors,
            config=config,
            start_time=0.0,
        )

    # -- accessors ------------------------------------------------------

    @property
    def config(self) -> WorldConfig:
        return self._config

    @property
    def repository(self) -> Repository:
        return self._repository

    @property
    def tals(self) -> List[TrustAnchorLocator]:
        return list(self._tals)

    @property
    def ledger(self) -> EventLedger:
        return self._ledger

    @property
    def time(self) -> float:
        return self._time

    @property
    def steps(self) -> List[WorldStep]:
        return list(self._steps)

    @property
    def current(self) -> WorldStep:
        """The most recent step (step 0 right after construction)."""
        return self._steps[-1]

    @property
    def payloads(self) -> ValidatedPayloads:
        return self.current.payloads

    def authorities(self) -> List[str]:
        return [actor.name for actor in self._actors]

    # -- stepping -------------------------------------------------------

    def step(self) -> WorldStep:
        """Advance one step: mutate, publish, observe."""
        self._step_index += 1
        self._time += STEP
        outages = set()
        for actor in self._actors:
            if self._decide(WORLD_PP_OUTAGE, actor):
                outages.add(actor.name)
                self._emit(ev.PP_OUTAGE, actor.name)
                continue
            self._mutate_actor(actor)
        for actor in self._actors:
            if actor.name in outages:
                continue
            self._publish_point(
                actor,
                self._time,
                skip_manifest=self._decide(WORLD_MANIFEST_SKIP, actor),
                skip_crl=self._decide(WORLD_CRL_SKIP, actor),
            )
        return self._observe_step()

    def run(self, steps: int) -> List[WorldStep]:
        return [self.step() for _ in range(steps)]

    def summary(self) -> WorldSummary:
        stale = sum(s.observation.stale_points for s in self._steps)
        dropped = sum(s.observation.dropped_points for s in self._steps)
        return WorldSummary(
            profile=self._config.profile,
            seed=self._config.seed,
            steps=self._step_index,
            authorities=len(self._actors),
            events_by_kind=self._ledger.counts_by_kind(),
            final_vrps=len(self.payloads),
            vrps_added_total=sum(s.vrps_added for s in self._steps),
            vrps_removed_total=sum(s.vrps_removed for s in self._steps),
            stale_point_observations=stale,
            dropped_point_observations=dropped,
            ledger_digest=self._ledger.digest(),
            delta_sizes=[
                s.vrps_added + s.vrps_removed for s in self._steps[1:]
            ],
        )

    # -- per-actor lifecycle --------------------------------------------

    def _decide(self, kind: str, actor: _Actor) -> bool:
        return self._plan.should_fail(
            kind, f"{actor.name}#{self._step_index}", 0
        )

    def _emit(self, kind: str, subject: str, **detail) -> None:
        self._ledger.append(
            WorldEvent.make(
                self._step_index, self._time, kind, subject, **detail
            )
        )

    def _mutate_actor(self, actor: _Actor) -> None:
        self._complete_rollover(actor)
        if (
            actor.parent is not None
            and actor.retiring is None
            and self._decide(WORLD_KEY_ROLLOVER, actor)
        ):
            self._stage_rollover(actor)
        point = self._repository.point_for(
            actor.ca.keypair.public.fingerprint()
        )
        self._expire_roas(actor, point)
        if self._decide(WORLD_ROA_WITHDRAW, actor) and point.roas:
            name = sorted(point.roas)[0]
            withdrawn = point.roas[name]
            point.remove(name)
            self._emit(
                ev.ROA_WITHDRAWN,
                actor.name,
                object=name,
                prefixes=",".join(str(e.prefix) for e in withdrawn.prefixes),
            )
        if self._decide(WORLD_ROA_ISSUE, actor) and actor.holdings:
            self._issue_roa(actor, point)

    def _expire_roas(self, actor: _Actor, point) -> None:
        for name in sorted(point.roas):
            roa = point.roas[name]
            if roa.ee_certificate.not_after < self._time:
                point.remove(name)
                self._emit(
                    ev.ROA_EXPIRED,
                    actor.name,
                    object=name,
                    prefixes=",".join(str(e.prefix) for e in roa.prefixes),
                )

    def _issue_roa(self, actor: _Actor, point) -> None:
        signed = {
            entry.prefix
            for roa in point.roas.values()
            for entry in roa.prefixes
        }
        unsigned = sorted(
            (p for p in actor.holdings if p not in signed), key=str
        )
        if not unsigned:
            return
        prefix = unsigned[0]
        origin = actor.holdings[prefix]
        max_length = max(prefix.length, 24 if prefix.family == 4 else 48)
        roa = issue_roa(
            actor.ca,
            origin,
            [(prefix, max_length)],
            not_before=self._time,
            not_after=self._time + ROA_VALIDITY,
        )
        actor.roa_sequence += 1
        name = f"world-{actor.roa_sequence}.roa"
        point.add_roa(name, roa)
        self._emit(
            ev.ROA_ISSUED,
            actor.name,
            object=name,
            prefix=str(prefix),
            asn=int(origin),
        )

    def _stage_rollover(self, actor: _Actor) -> None:
        old_certificate = actor.parent.rollover_child(actor.ca)
        actor.retiring = old_certificate
        actor.retired_fingerprint = old_certificate.fingerprint()
        old_point = self._repository.lookup(old_certificate.fingerprint())
        new_point = self._repository.point_for(
            actor.ca.keypair.public.fingerprint()
        )
        # Re-sign every published product under the new key; the old
        # point keeps serving the old-key copies until completion.
        if old_point is not None:
            for name in sorted(old_point.roas):
                roa = old_point.roas[name]
                new_point.add_roa(
                    name,
                    issue_roa(
                        actor.ca,
                        roa.as_id,
                        list(roa.prefixes),
                        not_before=roa.ee_certificate.not_before,
                        not_after=roa.ee_certificate.not_after,
                    ),
                )
            for name in sorted(old_point.child_certificates):
                new_point.add_certificate(
                    name, old_point.child_certificates[name]
                )
        self._emit(
            ev.ROLLOVER_STAGED,
            actor.name,
            new_serial=actor.ca.certificate.serial,
            old_serial=old_certificate.serial,
        )

    def _complete_rollover(self, actor: _Actor) -> None:
        if actor.retiring is None:
            return
        actor.parent.revoke(actor.retiring.serial)
        self._repository.remove_point(actor.retired_fingerprint)
        parent_point = self._repository.lookup(
            actor.parent.keypair.public.fingerprint()
        )
        if parent_point is not None:
            parent_point.remove(f"{actor.name}-pre.cer")
        self._emit(
            ev.ROLLOVER_COMPLETED,
            actor.name,
            revoked_serial=actor.retiring.serial,
        )
        actor.retiring = None
        actor.retired_fingerprint = None

    def _publish_point(
        self,
        actor: _Actor,
        now: float,
        skip_manifest: bool = False,
        skip_crl: bool = False,
    ) -> None:
        """Re-publish one CA's point: children, CRL, and manifest."""
        point = self._repository.point_for(
            actor.ca.keypair.public.fingerprint()
        )
        for child in actor.ca.children:
            point.add_certificate(f"{child.name}.cer", child.certificate)
        # A mid-rollover child keeps its superseded certificate
        # published until the rollover completes.
        for child_actor in self._actors:
            if (
                child_actor.parent is actor.ca
                and child_actor.retiring is not None
            ):
                point.add_certificate(
                    f"{child_actor.name}-pre.cer", child_actor.retiring
                )
        if skip_crl:
            self._emit(ev.CRL_SKIPPED, actor.name)
        else:
            point.crl = issue_crl(
                actor.ca,
                this_update=now,
                next_update=now + CRL_VALIDITY,
            )
        if skip_manifest:
            self._emit(ev.MANIFEST_SKIPPED, actor.name)
        else:
            actor.manifest_number += 1
            point.manifest = issue_manifest(
                actor.ca,
                point.object_hashes(),
                manifest_number=actor.manifest_number,
                this_update=now,
                next_update=now + MANIFEST_VALIDITY,
            )

    # -- observation ----------------------------------------------------

    def _observe_step(self) -> WorldStep:
        observation = self._view.observe(self._time)
        rows = set(observation.rows())
        previous = (
            set(self._steps[-1].observation.rows()) if self._steps else set()
        )
        step = WorldStep(
            index=self._step_index,
            time=self._time,
            observation=observation,
            vrps_added=len(rows - previous),
            vrps_removed=len(previous - rows),
        )
        self._emit(
            ev.STEP_OBSERVED,
            "world",
            vrps=observation.total_vrps,
            fresh=observation.fresh_vrps,
            stale=observation.stale_vrps,
            fresh_points=observation.fresh_points,
            stale_points=observation.stale_points,
            dropped_points=observation.dropped_points,
            rejected=observation.rejected_objects,
            added=step.vrps_added,
            removed=step.vrps_removed,
        )
        step.events = self._ledger.events_for_step(self._step_index)
        self._steps.append(step)
        return step
