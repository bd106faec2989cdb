"""The what-if counterfactual engine.

``whatif(ecosystem, sign=[...], enforce=[...])`` answers the question
the paper's tragic finding begs: *if* these organisations signed ROAs
and *if* those ASes enforced ROV, how would the web ecosystem's
exposure change?

The engine runs the measurement funnel **once** to fix the per-domain
(prefix, origin) pairs — the routing-derived inputs of Figs. 2 and 4 —
then evaluates each :class:`~repro.rov.futures.AdoptionFuture` by

1. augmenting the validated payloads with synthetic ROAs for every
   signing organisation (generous maxLength, matching the adoption
   model's operator behaviour),
2. re-validating every pair to recompute the Fig. 2 state fractions
   and Fig. 4 RPKI-enabled shares, and
3. replaying a fixed, seeded sample of prefix hijacks against the
   future's enforcing set to measure control-plane exposure (mean
   attacker capture and the share of fully blocked hijacks).

The hijack sample is drawn once per engine, so every future is scored
against the *same* attacks — a paired comparison.  All computation is
pure arithmetic over seeded inputs: a fixed seed yields bit-identical
:class:`ExposureDelta` lists across serial and process-pool
dispatch.  The engine deliberately keeps no reference to the built
ecosystem, so it pickles cheaply into process pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.bgp.hijack import HijackScenario
from repro.bgp.messages import Announcement
from repro.bgp.topology import ASTopology
from repro.crypto import DeterministicRNG
from repro.exec.dispatch import resolve_mode, run_batches
from repro.exec.sharding import Batch, plan_batches
from repro.net import ASN, Prefix
from repro.rov.futures import AdoptionFuture
from repro.rpki.vrp import VRP, OriginValidation, ValidatedPayloads

_DELTA_FIELDS = (
    "valid_fraction",
    "invalid_fraction",
    "not_found_fraction",
    "rpki_enabled_share",
    "rpki_enabled_cdn_share",
    "hijack_capture_mean",
    "hijack_blocked_share",
)


@dataclass(frozen=True)
class ExposureSnapshot:
    """Fig. 2 / Fig. 4-style outcome under one payload+enforcement mix."""

    domains: int
    usable_domains: int
    pair_count: int
    valid_fraction: float
    invalid_fraction: float
    not_found_fraction: float
    rpki_enabled_share: float
    rpki_enabled_cdn_share: float
    hijack_attempts: int
    hijack_capture_mean: float
    hijack_blocked_share: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "domains": self.domains,
            "usable_domains": self.usable_domains,
            "pair_count": self.pair_count,
            "valid_fraction": round(self.valid_fraction, 9),
            "invalid_fraction": round(self.invalid_fraction, 9),
            "not_found_fraction": round(self.not_found_fraction, 9),
            "rpki_enabled_share": round(self.rpki_enabled_share, 9),
            "rpki_enabled_cdn_share": round(self.rpki_enabled_cdn_share, 9),
            "hijack_attempts": self.hijack_attempts,
            "hijack_capture_mean": round(self.hijack_capture_mean, 9),
            "hijack_blocked_share": round(self.hijack_blocked_share, 9),
        }


@dataclass(frozen=True)
class ExposureDelta:
    """How one adoption future shifts the baseline outcome."""

    future: str
    signing_orgs: int
    enforcing_count: int
    baseline: ExposureSnapshot
    outcome: ExposureSnapshot

    def deltas(self) -> Dict[str, float]:
        return {
            name: getattr(self.outcome, name) - getattr(self.baseline, name)
            for name in _DELTA_FIELDS
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "future": self.future,
            "signing_orgs": self.signing_orgs,
            "enforcing_count": self.enforcing_count,
            "outcome": self.outcome.to_dict(),
            "deltas": {
                name: round(value, 9)
                for name, value in sorted(self.deltas().items())
            },
        }


@dataclass(frozen=True)
class _DomainRow:
    """The funnel outcome the engine keeps per domain."""

    rank: int
    usable: bool
    is_cdn: bool
    pairs: Tuple[Tuple[Prefix, ASN], ...]


@dataclass(frozen=True)
class _HijackCase:
    victim_prefix: Prefix
    victim_origin: ASN
    attacker: ASN


class WhatIfEngine:
    """Scores adoption futures against one funnel baseline."""

    def __init__(
        self,
        world,
        *,
        hijack_samples: int = 20,
        seed: Union[int, str] = 2015,
        result=None,
    ):
        if result is None:
            from repro.core import MeasurementStudy

            result = MeasurementStudy.from_ecosystem(world).run()
        self._topology: ASTopology = world.topology
        self._base_vrps: Tuple[VRP, ...] = tuple(world.payloads())
        self._org_prefixes: Dict[str, Tuple[Tuple[Prefix, ASN], ...]] = {
            org.name: tuple(sorted(org.prefixes.items()))
            for org in world.organisations
        }
        self._rows: Tuple[_DomainRow, ...] = tuple(
            _DomainRow(
                rank=measurement.rank,
                usable=measurement.usable,
                is_cdn=measurement.is_cdn(),
                pairs=tuple(
                    (pair.prefix, pair.origin)
                    for pair in measurement.combined_pairs()
                ),
            )
            for measurement in result.by_rank()
        )
        self._seed = seed
        self._cases = self._draw_hijack_cases(hijack_samples)
        self._baseline: Optional[ExposureSnapshot] = None

    # -- public API -------------------------------------------------------

    def baseline(
        self, base_payloads: Optional[ValidatedPayloads] = None
    ) -> ExposureSnapshot:
        if base_payloads is not None:
            return self._snapshot(base_payloads, frozenset())
        if self._baseline is None:
            self._baseline = self._snapshot(
                ValidatedPayloads(self._base_vrps), frozenset()
            )
        return self._baseline

    def run(
        self,
        future: AdoptionFuture,
        base_payloads: Optional[ValidatedPayloads] = None,
    ) -> ExposureDelta:
        """Score one future against the (optionally overridden) baseline.

        ``base_payloads`` couples the engine to an evolving world: pass
        a :class:`~repro.world.engine.WorldStep`'s payloads to evaluate
        the future against that step's VRP set instead of the built
        ecosystem's.
        """
        payloads = self._augmented(future, base_payloads)
        outcome = self._snapshot(payloads, frozenset(future.enforce))
        delta = ExposureDelta(
            future=future.name,
            signing_orgs=len(future.sign),
            enforcing_count=len(future.enforce),
            baseline=self.baseline(base_payloads),
            outcome=outcome,
        )
        self._record_metrics(delta)
        return delta

    def run_futures(
        self,
        futures: Sequence[AdoptionFuture],
        workers: int = 1,
    ) -> List[ExposureDelta]:
        """Score a sweep in input order; ``workers > 1`` scores it in a
        process pool."""
        batches = plan_batches(futures, workers=workers)
        if len(batches) > 1:
            self.baseline()  # compute once so every batch inherits it
        scored = run_batches(
            self._run_batch,
            batches,
            workers=workers,
            mode=resolve_mode("auto", workers, parallel="process"),
        )
        return [delta for batch in scored for delta in batch]

    def _run_batch(self, batch: Batch) -> List[ExposureDelta]:
        return [self.run(future) for future in batch.items]

    # -- internals --------------------------------------------------------

    def _draw_hijack_cases(self, samples: int) -> Tuple[_HijackCase, ...]:
        pairs = sorted({
            pair for row in self._rows if row.usable for pair in row.pairs
        })
        asns = sorted(self._topology.asns(), key=int)
        if not pairs or len(asns) < 2:
            return ()
        rng = DeterministicRNG(f"rov-whatif:{self._seed}")
        cases = []
        for index in range(samples):
            case_rng = rng.fork(f"case:{index}")
            prefix, origin = case_rng.choice(pairs)
            attacker = case_rng.choice([a for a in asns if a != origin])
            cases.append(_HijackCase(prefix, origin, attacker))
        return tuple(cases)

    def _augmented(
        self,
        future: AdoptionFuture,
        base_payloads: Optional[ValidatedPayloads],
    ) -> ValidatedPayloads:
        base = (
            tuple(base_payloads)
            if base_payloads is not None
            else self._base_vrps
        )
        if not future.sign:
            return ValidatedPayloads(base)
        existing = {(vrp.prefix, int(vrp.asn)) for vrp in base}
        synthetic: List[VRP] = []
        for org_name in future.sign:
            for prefix, origin in self._org_prefixes.get(org_name, ()):
                if (prefix, int(origin)) in existing:
                    continue
                # Generous maxLength, like the adoption model: keeps
                # announced more-specifics valid (/24 v4, /48 v6).
                max_length = max(
                    prefix.length, 24 if prefix.family == 4 else 48
                )
                synthetic.append(
                    VRP(prefix, max_length, origin, trust_anchor="whatif")
                )
        return ValidatedPayloads(base + tuple(synthetic))

    def _snapshot(
        self,
        payloads: ValidatedPayloads,
        enforcing: FrozenSet[ASN],
    ) -> ExposureSnapshot:
        state_cache: Dict[Tuple[Prefix, ASN], OriginValidation] = {}

        def validate(prefix: Prefix, origin: ASN) -> OriginValidation:
            key = (prefix, origin)
            if key not in state_cache:
                state_cache[key] = payloads.validate_origin(prefix, origin)
            return state_cache[key]

        usable = 0
        pair_count = 0
        valid_sum = invalid_sum = notfound_sum = 0.0
        enabled = 0
        cdn_usable = 0
        cdn_enabled = 0
        for row in self._rows:
            if not row.usable or not row.pairs:
                continue
            usable += 1
            pair_count += len(row.pairs)
            states = [validate(prefix, origin) for prefix, origin in row.pairs]
            total = len(states)
            valid = sum(1 for s in states if s is OriginValidation.VALID)
            invalid = sum(1 for s in states if s is OriginValidation.INVALID)
            valid_sum += valid / total
            invalid_sum += invalid / total
            notfound_sum += (total - valid - invalid) / total
            row_enabled = any(s is not OriginValidation.NOT_FOUND for s in states)
            if row_enabled:
                enabled += 1
            if row.is_cdn:
                cdn_usable += 1
                if row_enabled:
                    cdn_enabled += 1

        scenario = HijackScenario(self._topology)
        captures: List[float] = []
        blocked = 0
        for case in self._cases:
            outcome = scenario.run(
                Announcement(prefix=case.victim_prefix,
                             origin=case.victim_origin),
                case.attacker,
                payloads=payloads,
                enforcing=enforcing,
            )
            captures.append(outcome.capture_fraction)
            # Blocked: nobody beyond the attacker's own AS routes to it.
            if not (outcome.attacker_captured - {case.attacker}):
                blocked += 1

        return ExposureSnapshot(
            domains=len(self._rows),
            usable_domains=usable,
            pair_count=pair_count,
            valid_fraction=valid_sum / usable if usable else 0.0,
            invalid_fraction=invalid_sum / usable if usable else 0.0,
            not_found_fraction=notfound_sum / usable if usable else 0.0,
            rpki_enabled_share=enabled / usable if usable else 0.0,
            rpki_enabled_cdn_share=(
                cdn_enabled / cdn_usable if cdn_usable else 0.0
            ),
            hijack_attempts=len(self._cases),
            hijack_capture_mean=(
                sum(captures) / len(captures) if captures else 0.0
            ),
            hijack_blocked_share=(
                blocked / len(self._cases) if self._cases else 0.0
            ),
        )

    def _record_metrics(self, delta: ExposureDelta) -> None:
        from repro.obs import runtime

        registry = runtime.metrics()
        if not getattr(registry, "enabled", False):
            return
        registry.counter(
            "ripki_rov_futures_total",
            "Adoption futures scored by the what-if engine",
        ).inc()
        registry.counter(
            "ripki_rov_hijack_replays_total",
            "Seeded hijack scenarios replayed for exposure scoring",
        ).inc(delta.outcome.hijack_attempts)

    # Pickling: everything the engine keeps is plain data, but the
    # memoized baseline travels along so process shards never recompute
    # it (and can never diverge from the parent's).
    def __getstate__(self):
        self.baseline()
        return self.__dict__

    def __repr__(self) -> str:
        return (
            f"<WhatIfEngine {len(self._rows)} domains, "
            f"{len(self._base_vrps)} base VRPs, "
            f"{len(self._cases)} hijack cases>"
        )


def whatif(
    world,
    sign: Sequence[str] = (),
    enforce: Sequence[Union[int, ASN]] = (),
    *,
    name: str = "adhoc",
    hijack_samples: int = 20,
    seed: Union[int, str] = 2015,
    engine: Optional[WhatIfEngine] = None,
    result=None,
) -> ExposureDelta:
    """One-shot counterfactual: ``whatif(world, sign=[...], enforce=[...])``.

    Builds (or reuses) a :class:`WhatIfEngine` and scores a single
    future.  Pass ``engine=`` when sweeping many futures so the funnel
    runs once.
    """
    engine = engine or WhatIfEngine(
        world, hijack_samples=hijack_samples, seed=seed, result=result
    )
    future = AdoptionFuture(
        name=name,
        sign=tuple(sign),
        enforce=tuple(ASN(a) for a in enforce),
    )
    return engine.run(future)
