"""Continuous measurement acceleration (Figure 1's side observation).

"As a side observation, in future work it should be explored how this
fact [www and w/o-www mostly share prefixes] can help accelerate
continuous DNS measurements."

:class:`ContinuousStudy` implements that idea: after a full baseline
campaign, each refresh re-resolves only the apex (w/o-www) form of
every domain and re-measures the ``www`` form *only* when

* the apex answer changed since the last campaign, or
* the two forms disagreed last time (no equality to exploit), or
* the previous www measurement was unusable.

For the >90% of domains whose forms agree and whose hosting did not
move, the previous www measurement is carried over — roughly halving
the query volume of a steady-state campaign.  The price is bounded
staleness, which :func:`compare_results` quantifies against a full
re-run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import (
    Funnel,
    MeasurementStudy,
    RunConfig,
    StudyResult,
    StudyStatistics,
)
from repro.core.records import DomainMeasurement, NameMeasurement
from repro.obs.runtime import metrics

# The refresh loop's own objective name in an attached SLO tracker.
REFRESH_SLO = "refresh"

REFRESH_QUERIES_METRIC = "ripki_refresh_queries_total"
REFRESH_CARRYOVER_METRIC = "ripki_refresh_carryover_total"
_REFRESH_HELP = {
    REFRESH_QUERIES_METRIC:
        "Name forms actually re-measured by refresh campaigns",
    REFRESH_CARRYOVER_METRIC:
        "Name forms served from the previous campaign or the cache",
}


@dataclass
class RefreshStats:
    """Work accounting for one refresh campaign.

    The www/apex equality heuristic only ever skips ``www`` forms, so
    ``apex_carried_over`` stays zero on heuristic refreshes; the
    snapshot cache (``RunConfig.cache``) also serves unchanged apex
    forms, and cache-backed refreshes count those here.
    """

    apex_measured: int = 0
    www_measured: int = 0
    www_carried_over: int = 0
    apex_carried_over: int = 0

    @property
    def total_queries(self) -> int:
        return self.apex_measured + self.www_measured

    @property
    def total_carried(self) -> int:
        return self.www_carried_over + self.apex_carried_over

    @property
    def saving_fraction(self) -> float:
        """Fraction of this campaign's name forms served without a query.

        Equals the legacy ``1 - total_queries / (2 * apex_measured)``
        on heuristic refreshes (where every apex is re-measured and
        every skipped form is a www), and extends to cache-backed
        refreshes where apex forms can be carried over too.
        """
        forms = self.total_queries + self.total_carried
        if forms == 0:
            return 0.0
        return 1.0 - self.total_queries / forms

    def to_metrics(self, registry) -> None:
        """Tick this campaign's work into ``registry``'s counters."""
        registry.counter(
            REFRESH_QUERIES_METRIC, _REFRESH_HELP[REFRESH_QUERIES_METRIC]
        ).inc(self.total_queries)
        registry.counter(
            REFRESH_CARRYOVER_METRIC, _REFRESH_HELP[REFRESH_CARRYOVER_METRIC]
        ).inc(self.total_carried)


@dataclass
class StalenessReport:
    """Divergence of an incremental result from a full re-run."""

    compared: int = 0
    stale_domains: List[str] = field(default_factory=list)

    @property
    def stale_fraction(self) -> float:
        if not self.compared:
            return 0.0
        return len(self.stale_domains) / self.compared


def _apex_fingerprint(measurement: NameMeasurement) -> Tuple:
    return (
        measurement.resolved,
        tuple(sorted(str(a) for a in measurement.addresses)),
    )


class CampaignSink:
    """Observer protocol for :meth:`ContinuousStudy.attach`.

    A sink rides the campaign loop: ``on_attach`` fires once when the
    sink is attached, ``before_campaign`` fires before each baseline
    or refresh starts measuring (this is where a sink may mutate the
    study's inputs — :class:`~repro.world.WorldSink` advances the CA
    world here), and ``on_campaign`` fires after each completed
    campaign.  The base class is all no-ops so sinks override only
    what they need.
    """

    def on_attach(self, continuous: "ContinuousStudy") -> None:
        """Called once, when attached."""

    def before_campaign(
        self, continuous: "ContinuousStudy", campaign_index: int
    ) -> None:
        """Called before campaign ``campaign_index`` (0 = baseline)."""

    def on_campaign(
        self,
        continuous: "ContinuousStudy",
        result: StudyResult,
        elapsed_s: float,
        campaigns: int,
    ) -> None:
        """Called after every completed baseline or refresh."""


class TelemetrySink(CampaignSink):
    """Wires the campaign loop into the live telemetry plane.

    ``slo`` (an :class:`~repro.obs.window.SLOTracker`) gets a
    ``refresh`` latency objective — each campaign's wall time is one
    event, good when it met ``refresh_deadline_s`` — so the exported
    error-budget gauge answers "how often is this loop falling behind
    the world".  ``health`` (an :class:`~repro.obs.http.HealthSource`)
    is stamped after every campaign, which is what drives ``/health``'s
    ``last_refresh_age_s`` and ``/ready``.  An injected ``clock``
    makes campaign durations (and therefore the SLO windows)
    deterministic under virtual time.
    """

    def __init__(
        self,
        slo=None,
        health=None,
        clock: Optional[Callable[[], float]] = None,
        refresh_deadline_s: float = 60.0,
    ):
        self._slo = slo
        self._health = health
        self._clock = clock
        self.refresh_deadline_s = refresh_deadline_s

    def on_attach(self, continuous: "ContinuousStudy") -> None:
        if self._clock is not None:
            continuous.set_clock(self._clock)
        if self._slo is not None:
            self._slo.declare(
                REFRESH_SLO,
                threshold_s=self.refresh_deadline_s,
                target=0.95,
            )

    def on_campaign(
        self,
        continuous: "ContinuousStudy",
        result: StudyResult,
        elapsed_s: float,
        campaigns: int,
    ) -> None:
        if self._slo is not None:
            self._slo.observe(
                REFRESH_SLO,
                elapsed_s,
                ok=elapsed_s <= self.refresh_deadline_s,
            )
        if self._health is not None:
            self._health.mark_refresh()
            self._health.set_detail(campaigns=campaigns)


class RtrSink(CampaignSink):
    """Feeds each campaign's validated payloads to an RTR daemon.

    After every completed baseline or refresh, ``daemon`` (an
    :class:`~repro.rtrd.daemon.RTRDaemon`) republishes the study's VRP
    set to its connected routers.  A campaign that re-derives an
    unchanged world is a wire no-op: the hardened cache keeps its
    serial and no router is notified.  The per-publish
    :class:`~repro.rtrd.daemon.PublishStats` are collected on
    ``publishes`` for reporting.
    """

    def __init__(self, daemon):
        self._daemon = daemon
        self.publishes: List = []

    @property
    def daemon(self):
        return self._daemon

    def on_campaign(
        self,
        continuous: "ContinuousStudy",
        result: StudyResult,
        elapsed_s: float,
        campaigns: int,
    ) -> None:
        self.publishes.append(self._daemon.publish(continuous.study.payloads))


class ContinuousStudy:
    """A repeatable campaign over one study configuration.

    With a plain config the refresh uses the paper's www/apex equality
    heuristic (bounded staleness, roughly halved query volume), through
    one :class:`~repro.core.pipeline.Funnel` per campaign: each
    distinct address and pair is computed once, and a config's fault
    plan and retry policy apply to a refresh exactly as to the
    baseline, so a refresh of an unchanged world equals it.  With
    a cache-carrying :class:`~repro.core.pipeline.RunConfig` the
    refresh instead runs the study through the snapshot cache: every
    form whose inputs are unchanged is carried over *exactly* (no
    staleness), and the refresh accounting is derived from the cache
    hit/miss counters.

    Side effects compose through :meth:`attach`: pass any number of
    :class:`CampaignSink` objects (:class:`TelemetrySink`,
    :class:`RtrSink`, :class:`~repro.world.WorldSink`, or your own)
    and each baseline/refresh notifies them in attachment order.
    """

    def __init__(
        self, study: MeasurementStudy, config: Optional[RunConfig] = None
    ):
        self._study = study
        self._config = config
        self._previous: Optional[StudyResult] = None
        self._sinks: List[CampaignSink] = []
        self._telemetry_clock: Callable[[], float] = time.perf_counter
        self._last_refresh_at: Optional[float] = None
        self._campaigns = 0

    @property
    def study(self) -> MeasurementStudy:
        """The underlying study (sinks read/replace its inputs)."""
        return self._study

    @property
    def config(self) -> Optional[RunConfig]:
        return self._config

    @property
    def sinks(self) -> Tuple[CampaignSink, ...]:
        return tuple(self._sinks)

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Replace the campaign wall clock (virtual time in tests)."""
        self._telemetry_clock = clock

    def attach(self, *sinks: CampaignSink) -> "ContinuousStudy":
        """Attach campaign sinks; returns ``self`` to chain.

        Sinks are notified in attachment order on every baseline and
        refresh; see :class:`CampaignSink` for the hook points.
        """
        for sink in sinks:
            sink.on_attach(self)
            self._sinks.append(sink)
        return self

    @property
    def last_refresh_age_s(self) -> Optional[float]:
        """Seconds since the last completed campaign (None before
        the baseline)."""
        if self._last_refresh_at is None:
            return None
        return self._telemetry_clock() - self._last_refresh_at

    def _record_campaign(
        self, result: StudyResult, elapsed: float, campaigns: int
    ) -> None:
        self._last_refresh_at = self._telemetry_clock()
        for sink in self._sinks:
            sink.on_campaign(self, result, elapsed, campaigns)

    def baseline(self) -> StudyResult:
        """The initial full campaign (both name forms everywhere)."""
        started = self._telemetry_clock()
        for sink in self._sinks:
            sink.before_campaign(self, 0)
        if self._config is not None:
            result = self._study.run(config=self._config)
        else:
            result = self._study.run()
        self._previous = result
        self._campaigns = 1
        self._record_campaign(
            result, self._telemetry_clock() - started, self._campaigns
        )
        return result

    def refresh(self) -> Tuple[StudyResult, RefreshStats]:
        """An incremental campaign; see the class docstring for modes."""
        if self._previous is None:
            raise RuntimeError("call baseline() before refresh()")
        started = self._telemetry_clock()
        for sink in self._sinks:
            sink.before_campaign(self, self._campaigns)
        if self._config is not None and self._config.cache is not None:
            result, stats = self._cached_refresh()
        else:
            result, stats = self._heuristic_refresh()
        stats.to_metrics(metrics())
        self._previous = result
        self._campaigns += 1
        self._record_campaign(
            result, self._telemetry_clock() - started, self._campaigns
        )
        return result, stats

    def _cached_refresh(self) -> Tuple[StudyResult, RefreshStats]:
        result = self._study.run(config=self._config)
        hits = result.statistics.cache_hits_by_stage
        misses = result.statistics.cache_misses_by_stage
        stats = RefreshStats(
            apex_measured=misses.get("dns.plain", 0)
            + misses.get("form.plain", 0),
            www_measured=misses.get("dns.www", 0)
            + misses.get("form.www", 0),
            www_carried_over=hits.get("dns.www", 0)
            + hits.get("form.www", 0),
            apex_carried_over=hits.get("dns.plain", 0)
            + hits.get("form.plain", 0),
        )
        return result, stats

    def _heuristic_refresh(self) -> Tuple[StudyResult, RefreshStats]:
        stats = RefreshStats()
        funnel = Funnel(self._study, self._config)
        measurements: List[DomainMeasurement] = []
        for domain in self._study.ranking:
            prior = self._previous.lookup(domain.name)
            plain = funnel.measure_form(domain.name, "plain")
            stats.apex_measured += 1
            if self._must_remeasure_www(prior, plain):
                www = funnel.measure_form(domain.www_name, "www")
                stats.www_measured += 1
            else:
                www = prior.www
                stats.www_carried_over += 1
            measurements.append(
                DomainMeasurement(domain=domain, www=www, plain=plain)
            )
        funnel.finish()
        aggregate = StudyStatistics.from_measurements(measurements)
        aggregate.to_metrics(
            metrics(),
            resilient=self._config is not None and self._config.resilient,
        )
        return StudyResult(measurements, aggregate), stats

    @staticmethod
    def _must_remeasure_www(
        prior: Optional[DomainMeasurement], plain: NameMeasurement
    ) -> bool:
        if prior is None or not prior.www.usable:
            return True
        if _apex_fingerprint(prior.plain) != _apex_fingerprint(plain):
            return True
        overlap = prior.prefix_overlap()
        # Only domains whose forms fully agreed are safe to skip.
        return overlap is None or overlap < 1.0


def compare_results(
    incremental: StudyResult, full: StudyResult
) -> StalenessReport:
    """Count domains whose incremental www data diverges from truth."""
    report = StalenessReport()
    for measurement in incremental:
        truth = full.lookup(measurement.domain.name)
        if truth is None:
            continue
        report.compared += 1
        stale = _apex_fingerprint(measurement.www) != _apex_fingerprint(
            truth.www
        ) or set(measurement.www.pairs) != set(truth.www.pairs)
        if stale:
            report.stale_domains.append(measurement.domain.name)
    return report
