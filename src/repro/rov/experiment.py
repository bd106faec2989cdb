"""Controlled ROV adoption-inference experiments.

Reuter et al.'s methodology, replayed over the synthetic topology: a
runner announces seeded *anchor*/*experiment* prefix pairs from chosen
origin ASes — the anchor carries a matching ROA (valid), the
experiment prefix carries a deliberately conflicting one (invalid,
wrong origin ASN and/or exceeded maxLength) — propagates both, and
compares what a seeded vantage-point set observes:

* a vantage that carries the *invalid* route proves every AS on that
  path (except the origin) forwards invalids: **non-enforcing**;
* a vantage that carries the anchor route but lost the invalid proves
  at least one AS among {vantage} + anchor-path interior dropped it.
  Subtracting every AS seen on *any* invalid path this round leaves
  the *candidate* set; a singleton pinpoints an **enforcing** AS.

The elimination is sound because the two announcements are identical
except for the prefix value: absent enforcement the invalid converges
to exactly the anchor's routing state, so any divergence is caused by
enforcers — and an enforcer never appears on an invalid path, so it
can never be eliminated from its own candidate set.

ASes with neither kind of evidence are **inconclusive** — precisely
the ones the sampled vantage sets never covered decisively.

Every run is deterministic per ``(seed, topology digest, experiment
spec)``: round inputs derive from a :class:`DeterministicRNG` forked
from those three values, per-round evidence is merged by commutative
integer sums, so serial and process-pool dispatch produce
bit-identical reports (pinned by ``RovReport.digest``).
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.bgp.messages import Announcement
from repro.bgp.propagation import PropagationEngine
from repro.bgp.topology import ASRole, ASTopology
from repro.crypto import DeterministicRNG
from repro.exec.dispatch import resolve_mode, run_batches
from repro.exec.sharding import Batch, plan_batches
from repro.net import ASN, Prefix
from repro.rov.annotation import ANNOTATION_VALID, annotate_route
from repro.rpki.vrp import VRP, ValidatedPayloads

# RFC 2544 benchmarking range: guaranteed disjoint from the RIR pools
# the ecosystem allocates from, so experiment announcements never
# collide with production prefixes.
EXPERIMENT_RANGE = Prefix.parse("198.18.0.0/15")
_MAX_ROUNDS = 256  # (2 ** (24 - 15)) / 2 anchor/experiment /24 pairs

# Every WRONG_LENGTH_EVERY-th round announces a maxLength-violating
# experiment prefix instead of a wrong-origin one; every BOTH_EVERY-th
# violates both clauses at once.
WRONG_LENGTH_EVERY = 4
BOTH_EVERY = 10


def experiment_prefix_pair(index: int) -> Tuple[Prefix, Prefix]:
    """The (anchor, experiment) /24 pair for one round."""
    if not 0 <= index < _MAX_ROUNDS:
        raise ValueError(f"round index {index} outside [0, {_MAX_ROUNDS})")
    base = EXPERIMENT_RANGE.value
    anchor = Prefix(4, base + ((2 * index) << 8), 24)
    experiment = Prefix(4, base + ((2 * index + 1) << 8), 24)
    return anchor, experiment


def topology_digest(topology: ASTopology) -> str:
    """SHA-256 over the canonical node and edge lists.

    Sorted by ASN so two topologies describing the same graph hash
    identically regardless of construction (insertion) order.
    """
    digest = hashlib.sha256()
    for node in sorted(topology.ases(), key=lambda n: int(n.asn)):
        digest.update(
            f"N|{int(node.asn)}|{node.name}|{node.role.value}|"
            f"{node.organisation}\n".encode()
        )
    for asn in sorted(topology.asns(), key=int):
        neighbors = topology.neighbors(asn)
        for neighbor in sorted(neighbors, key=int):
            digest.update(
                f"E|{int(asn)}|{int(neighbor)}|"
                f"{neighbors[neighbor].name}\n".encode()
            )
    return digest.hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """Shape of one measurement campaign."""

    rounds: int = 64
    vantage_count: int = 12
    seed: int = 2015

    def __post_init__(self):
        if not 1 <= self.rounds <= _MAX_ROUNDS:
            raise ValueError(f"rounds must be within [1, {_MAX_ROUNDS}]")
        if self.vantage_count < 1:
            raise ValueError("vantage_count must be positive")

    def describe(self) -> str:
        return (
            f"rounds={self.rounds}|vantages={self.vantage_count}"
            f"|seed={self.seed}|wl={WRONG_LENGTH_EVERY}"
            f"|both={BOTH_EVERY}"
        )


class Verdict(enum.Enum):
    ENFORCING = "enforcing"
    NON_ENFORCING = "non_enforcing"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ASVerdict:
    """Classification of one AS with its supporting evidence."""

    asn: ASN
    verdict: Verdict
    confidence: float
    invalid_observations: int   # rounds this AS appeared on an invalid path
    pinpoint_observations: int  # rounds a singleton candidate blamed it
    suspect_observations: int   # rounds it appeared in any candidate set
    anchor_observations: int    # rounds it appeared on an anchor path

    def row(self) -> Tuple[int, str, str, int, int, int, int]:
        return (
            int(self.asn),
            self.verdict.value,
            f"{self.confidence:.6f}",
            self.invalid_observations,
            self.pinpoint_observations,
            self.suspect_observations,
            self.anchor_observations,
        )


@dataclass(frozen=True)
class RoundResult:
    """One round's canonical, merge-ready outcome."""

    index: int
    origin: int
    annotation_rows: Tuple[Tuple[int, int], ...]  # (code, count)
    evidence: Tuple[Tuple[int, int, int, int, int], ...]  # (asn, i, p, s, a)
    vantage_observations: int


@dataclass
class RovReport:
    """The campaign's verdicts plus everything needed to replay it."""

    verdicts: Dict[ASN, ASVerdict]
    annotations: Dict[int, int]
    rounds: int
    vantage_observations: int
    topology_digest: str
    spec: ExperimentSpec
    enforcing_input: int = 0
    conflicts: int = 0

    def histogram(self) -> Dict[str, int]:
        counts = {verdict.value: 0 for verdict in Verdict}
        for entry in self.verdicts.values():
            counts[entry.verdict.value] += 1
        return counts

    @property
    def digest(self) -> str:
        """Replay digest over every verdict row (CI pins this)."""
        digest = hashlib.sha256()
        digest.update(self.topology_digest.encode())
        digest.update(self.spec.describe().encode())
        for asn in sorted(self.verdicts, key=int):
            digest.update("|".join(
                str(part) for part in self.verdicts[asn].row()
            ).encode())
            digest.update(b"\n")
        for code in sorted(self.annotations):
            digest.update(f"A|{code}|{self.annotations[code]}\n".encode())
        return digest.hexdigest()

    def false_positives(self, true_enforcing: Iterable[ASN]) -> List[ASN]:
        """Conclusive verdicts contradicting a known ground truth."""
        truth = {ASN(a) for a in true_enforcing}
        wrong: List[ASN] = []
        for asn, entry in sorted(self.verdicts.items(), key=lambda kv: int(kv[0])):
            if entry.verdict is Verdict.ENFORCING and asn not in truth:
                wrong.append(asn)
            elif entry.verdict is Verdict.NON_ENFORCING and asn in truth:
                wrong.append(asn)
        return wrong

    def snippet_line(
        self, true_enforcing: Optional[Iterable[ASN]] = None
    ) -> str:
        """The Snippet 2 summary format: ``<#vantage points>|<#non-rov
        AS>|<#rov candidates>|<#rov enforcers>|<#false positives>``."""
        histogram = self.histogram()
        candidates = sum(
            1 for entry in self.verdicts.values()
            if entry.suspect_observations > 0
            and entry.verdict is not Verdict.NON_ENFORCING
        )
        false_count = (
            len(self.false_positives(true_enforcing))
            if true_enforcing is not None
            else 0
        )
        return (
            f"{self.vantage_observations}"
            f"|{histogram[Verdict.NON_ENFORCING.value]}"
            f"|{candidates}"
            f"|{histogram[Verdict.ENFORCING.value]}"
            f"|{false_count}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "digest": self.digest,
            "topology_digest": self.topology_digest,
            "spec": self.spec.describe(),
            "rounds": self.rounds,
            "vantage_observations": self.vantage_observations,
            "enforcing_input": self.enforcing_input,
            "conflicts": self.conflicts,
            "histogram": self.histogram(),
            "annotations": {
                str(code): count
                for code, count in sorted(self.annotations.items())
            },
            "snippet": self.snippet_line(),
            "verdicts": [
                list(self.verdicts[asn].row())
                for asn in sorted(self.verdicts, key=int)
            ],
        }


@dataclass(frozen=True)
class ExperimentRound:
    """The seeded inputs of one round (pure function of the spec)."""

    index: int
    origin: ASN
    vantages: Tuple[ASN, ...]
    anchor: Prefix
    experiment: Prefix
    vrps: Tuple[VRP, ...]


def build_round(
    topology: ASTopology,
    spec: ExperimentSpec,
    digest: str,
    index: int,
) -> ExperimentRound:
    """Derive one round's inputs from ``(seed, topology digest, spec)``."""
    rng = DeterministicRNG(
        f"rov:{digest}:{spec.seed}:{spec.describe()}"
    ).fork(f"round:{index}")
    asns = sorted(topology.asns(), key=int)
    origin = rng.choice(asns)
    pool = [asn for asn in asns if asn != origin]
    vantages = tuple(rng.sample(pool, min(spec.vantage_count, len(pool))))
    anchor, experiment = experiment_prefix_pair(index)

    wrong_origin = ASN(64496 + index)  # documentation range, never in-topology
    both = index % BOTH_EVERY == BOTH_EVERY - 1
    wrong_length = (
        not both and index % WRONG_LENGTH_EVERY == WRONG_LENGTH_EVERY - 1
    )
    vrps = [VRP(anchor, anchor.length, origin, trust_anchor="rov-anchor")]
    if both:
        cover = experiment.supernet(experiment.length - 1)
        vrps.append(VRP(cover, cover.length, wrong_origin, "rov-experiment"))
    elif wrong_length:
        cover = experiment.supernet(experiment.length - 1)
        vrps.append(VRP(cover, cover.length, origin, "rov-experiment"))
    else:
        vrps.append(VRP(experiment, experiment.length, wrong_origin,
                        "rov-experiment"))
    return ExperimentRound(
        index=index,
        origin=origin,
        vantages=vantages,
        anchor=anchor,
        experiment=experiment,
        vrps=tuple(vrps),
    )


def run_round(
    engine: PropagationEngine,
    round_input: ExperimentRound,
    enforcing: FrozenSet[ASN],
) -> RoundResult:
    """Propagate one anchor/experiment pair and extract the evidence."""
    payloads = ValidatedPayloads(round_input.vrps)
    origin = round_input.origin
    state = engine.propagate(
        [
            Announcement(prefix=round_input.anchor, origin=origin),
            Announcement(prefix=round_input.experiment, origin=origin),
        ],
        payloads=payloads,
        enforcing=enforcing,
        record_ases=set(round_input.vantages),
    )

    annotations: Dict[int, int] = {}
    invalid_ases: set = set()
    anchor_paths: Dict[ASN, Tuple[ASN, ...]] = {}
    observations = 0
    for vantage in round_input.vantages:
        anchor_entry = state.route_at(vantage, round_input.anchor)
        invalid_entry = state.route_at(vantage, round_input.experiment)
        if anchor_entry is not None:
            observations += 1
            anchor_paths[vantage] = tuple(anchor_entry.path)
            code = annotate_route(
                payloads, round_input.anchor, anchor_entry.origin
            )
            annotations[code] = annotations.get(code, 0) + 1
        if invalid_entry is not None:
            observations += 1
            invalid_ases.update(
                asn for asn in invalid_entry.path if asn != origin
            )
            code = annotate_route(
                payloads, round_input.experiment, invalid_entry.origin
            )
            annotations[code] = annotations.get(code, 0) + 1

    invalid_set = frozenset(invalid_ases)
    suspects: set = set()
    pinpointed: set = set()
    anchor_seen: set = set()
    for vantage, path in anchor_paths.items():
        anchor_seen.update(asn for asn in path if asn != origin)
        if state.route_at(vantage, round_input.experiment) is not None:
            continue
        # Anchor arrived, invalid vanished: somebody in {vantage} +
        # path interior dropped it.  Remove everyone proven
        # non-enforcing this round; a singleton is a pinpoint.
        candidates = frozenset(path) - {origin} - invalid_set
        if not candidates:
            continue
        suspects.update(candidates)
        if len(candidates) == 1:
            pinpointed.update(candidates)

    evidence: List[Tuple[int, int, int, int, int]] = []
    for asn in sorted(invalid_set | suspects | anchor_seen, key=int):
        evidence.append((
            int(asn),
            1 if asn in invalid_set else 0,
            1 if asn in pinpointed else 0,
            1 if asn in suspects else 0,
            1 if asn in anchor_seen else 0,
        ))
    return RoundResult(
        index=round_input.index,
        origin=int(origin),
        annotation_rows=tuple(sorted(annotations.items())),
        evidence=tuple(evidence),
        vantage_observations=observations,
    )


def _run_rounds(
    topology: ASTopology,
    enforcing_rows: Tuple[int, ...],
    spec: ExperimentSpec,
    digest: str,
    batch: Batch,
) -> List[RoundResult]:
    """Run a contiguous slice of rounds (picklable for process pools)."""
    enforcing = frozenset(ASN(a) for a in enforcing_rows)
    engine = PropagationEngine(topology)
    return [
        run_round(engine, build_round(topology, spec, digest, index), enforcing)
        for index in batch.items
    ]


DEFAULT_ENFORCEMENT_RATES: Dict[ASRole, float] = {
    ASRole.TIER1: 0.40,
    ASRole.TRANSIT: 0.30,
    ASRole.EYEBALL: 0.15,
    ASRole.HOSTER: 0.10,
    ASRole.CDN: 0.25,
    ASRole.STUB: 0.05,
}


def seeded_enforcers(
    topology: ASTopology,
    seed: Union[int, str] = 2015,
    rates: Optional[Dict[ASRole, float]] = None,
    scale: float = 1.0,
) -> FrozenSet[ASN]:
    """A deterministic ground-truth ROV deployment.

    Each AS enforces with a role-dependent probability drawn from a
    per-AS RNG fork, so the outcome for one AS never depends on
    iteration order or on how many other ASes exist.
    """
    rates = rates or DEFAULT_ENFORCEMENT_RATES
    root = DeterministicRNG(f"rov-deployment:{seed}")
    chosen = []
    for node in topology.ases():
        rate = min(1.0, rates.get(node.role, 0.0) * scale)
        if root.fork(f"as:{int(node.asn)}").random() < rate:
            chosen.append(node.asn)
    return frozenset(chosen)


class RovExperimentRunner:
    """Runs a campaign and classifies every AS of the topology."""

    def __init__(
        self,
        topology: ASTopology,
        enforcing: Iterable[Union[int, ASN]],
        spec: Optional[ExperimentSpec] = None,
    ):
        self._topology = topology
        self._enforcing = frozenset(ASN(a) for a in enforcing)
        self._spec = spec or ExperimentSpec()
        self._digest = topology_digest(topology)

    @property
    def spec(self) -> ExperimentSpec:
        return self._spec

    @property
    def topology_digest(self) -> str:
        return self._digest

    def rounds(self) -> List[ExperimentRound]:
        """The seeded inputs of every round (for oracles and tests)."""
        return [
            build_round(self._topology, self._spec, self._digest, index)
            for index in range(self._spec.rounds)
        ]

    def run(self, workers: int = 1) -> RovReport:
        """Run every round; ``workers > 1`` runs them in a process pool."""
        shard_results = run_batches(
            functools.partial(
                _run_rounds,
                self._topology,
                self._enforcing_rows(),
                self._spec,
                self._digest,
            ),
            plan_batches(range(self._spec.rounds), workers=workers),
            workers=workers,
            mode=resolve_mode("auto", workers, parallel="process"),
        )
        results = [result for shard in shard_results for result in shard]
        report = self._aggregate(results)
        self._record_metrics(report)
        return report

    # -- internals --------------------------------------------------------

    def _enforcing_rows(self) -> Tuple[int, ...]:
        return tuple(sorted(int(asn) for asn in self._enforcing))

    def _aggregate(self, results: List[RoundResult]) -> RovReport:
        totals: Dict[int, List[int]] = {}
        annotations: Dict[int, int] = {}
        observations = 0
        for result in results:
            observations += result.vantage_observations
            for code, count in result.annotation_rows:
                annotations[code] = annotations.get(code, 0) + count
            for asn, invalid, pinpoint, suspect, anchor in result.evidence:
                entry = totals.setdefault(asn, [0, 0, 0, 0])
                entry[0] += invalid
                entry[1] += pinpoint
                entry[2] += suspect
                entry[3] += anchor

        verdicts: Dict[ASN, ASVerdict] = {}
        conflicts = 0
        for asn in sorted(self._topology.asns(), key=int):
            invalid, pinpoint, suspect, anchor = totals.get(int(asn), (0, 0, 0, 0))
            if invalid and pinpoint:
                conflicts += 1
            if pinpoint:
                verdict = Verdict.ENFORCING
                confidence = 1.0 - 0.5 ** pinpoint
            elif invalid:
                verdict = Verdict.NON_ENFORCING
                confidence = 1.0 - 0.5 ** invalid
            else:
                verdict = Verdict.INCONCLUSIVE
                confidence = 0.0
            verdicts[asn] = ASVerdict(
                asn=asn,
                verdict=verdict,
                confidence=confidence,
                invalid_observations=invalid,
                pinpoint_observations=pinpoint,
                suspect_observations=suspect,
                anchor_observations=anchor,
            )
        return RovReport(
            verdicts=verdicts,
            annotations=annotations,
            rounds=len(results),
            vantage_observations=observations,
            topology_digest=self._digest,
            spec=self._spec,
            enforcing_input=len(self._enforcing),
            conflicts=conflicts,
        )

    def _record_metrics(self, report: RovReport) -> None:
        from repro.obs import runtime

        registry = runtime.metrics()
        if not getattr(registry, "enabled", False):
            return
        registry.counter(
            "ripki_rov_experiments_total",
            "ROV anchor/experiment rounds executed",
        ).inc(report.rounds)
        verdict_counter = registry.counter(
            "ripki_rov_verdicts_total",
            "AS classifications by verdict",
            labelnames=("verdict",),
        )
        for verdict, count in report.histogram().items():
            verdict_counter.labels(verdict=verdict).inc(count)
        annotation_counter = registry.counter(
            "ripki_rov_annotations_total",
            "Observed routes by 0-5 validity annotation",
            labelnames=("code",),
        )
        for code, count in sorted(report.annotations.items()):
            annotation_counter.labels(code=str(code)).inc(count)
        registry.counter(
            "ripki_rov_vantage_observations_total",
            "Vantage-point route observations collected",
        ).inc(report.vantage_observations)
