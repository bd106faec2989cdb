"""The six ledger workloads.

Every workload is a class with the same four methods, driven by
``run.py``:

* ``__init__(seed, params, toy)`` — set-up (lands in ``setup_s``);
* ``rep(tracer)`` — one repetition: times its phases with
  ``perf_counter``, checks its outputs *after* the clock stops, and
  returns a :class:`Rep`.  Under a live tracer the same code also
  records spans and swaps layer functions for timing wrappers;
* ``finish()`` — correctness checks too expensive to repeat per rep,
  returns ``(attempted, failed)``;
* ``extras(tracer)`` — traced pass only: layer measurements that are
  not part of a repetition (write-side tries, other backends, ...).

:class:`BaseWorkload` holds the empty ``finish`` and ``extras``.

The seed reaches the program only through ``EcosystemConfig(seed=)``,
``LoadProfile(seed=)`` and ``SyntheticVRPWorld(seed=)``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from harness import END, NAME, PARENT, START, WORK_DIR, WORKERS, percentile
from spec import TOY_ORGS

from repro import obs
from repro.bgp import PropagationEngine, RouteCollector
from repro.cache import session as cache_session
from repro.cache.session import CacheSession
from repro.cache.store import store_path
from repro.core import (
    CacheConfig,
    MeasurementStudy,
    RunConfig,
    figure1_www_overlap,
    figure2_rpki_outcome,
    figure4_rpki_cdn,
    pipeline_statistics,
    table1_top_covered,
)
from repro.core.dns_mapping import measure_name
from repro.core.pipeline import RUN_MODES
from repro.core.prefix_mapping import map_addresses
from repro.core.reports import render_table1
from repro.core.rpki_validation import validate_pairs
from repro.dns import PublicResolver
from repro.exec import decode_measurements, encode_measurements, plan_shards
from repro.net import PrefixTrie
from repro.rpki import ValidatedPayloads
from repro.rpki.rtr.cache import RTRCache
from repro.rpki.validator import RelyingParty
from repro.rtrd import (
    RTRDaemon,
    RtrdConfig,
    SyntheticVRPWorld,
    summarize_publishes,
    wire_table,
)
from repro.serve import (
    LoadProfile,
    QueryService,
    ServeConfig,
    ServingIndex,
    generate_load,
)
from repro.web import EcosystemConfig, WebEcosystem
from repro.web.adoption import AdoptionModel
from repro.web.alexa import AlexaRanking
from repro.web.hosting import HostingModel

clock = time.perf_counter


@dataclass
class Rep:
    """What one repetition measured (wall clock)."""

    seconds: float                       # the timed part, whole
    samples: Dict[str, List[float]]      # end-to-end metric -> readings
    attempted: int
    failed: int
    layers: Dict[str, float] = field(default_factory=dict)  # traced only


class BaseWorkload:
    """The defaults: nothing to check after the reps, no extra layers."""

    def finish(self) -> Tuple[int, int]:
        return 0, 0

    def extras(self, tracer) -> Dict[str, float]:
        return {}


def build_world(seed: int, params: Dict[str, int], toy: bool) -> WebEcosystem:
    orgs = TOY_ORGS if toy else {}
    return WebEcosystem.build(
        EcosystemConfig(domain_count=params["domains"], seed=seed, **orgs)
    )


def differing(result, reference) -> int:
    """Domains whose measurement differs from the reference's."""
    ours, theirs = list(result), list(reference)
    return abs(len(ours) - len(theirs)) + sum(
        1 for a, b in zip(ours, theirs) if a != b
    )


def degraded(result) -> int:
    return sum(1 for measurement in result if measurement.degraded)


def timed(call):
    """``(result, seconds)`` of one call."""
    started = clock()
    result = call()
    return result, clock() - started


# -- study_cold ----------------------------------------------------------------


class StudyCold(BaseWorkload):
    """build -> serial funnel -> Section-4 reports, fresh world each rep."""

    def __init__(self, seed: int, params: Dict[str, int], toy: bool):
        self.seed, self.params, self.toy = seed, params, toy
        self.reference = None   # first rep's result
        self.world = None       # last rep's world, for finish()

    def rep(self, tracer) -> Rep:
        count = tracer.count
        with contextlib.ExitStack() as stack:
            for owner, attr, name, hook in (
                (AlexaRanking, "generate", "web.alexa.generate", None),
                (AdoptionModel, "build", "web.adoption.build", None),
                (HostingModel, "build", "web.hosting.build", None),
                (RelyingParty, "validate", "rpki.validator.validate",
                 lambda out: count("rpki.validator.vrps", len(out[0]))),
                (PropagationEngine, "propagate",
                 "bgp.propagation.propagate", None),
                (RouteCollector, "collect", "bgp.collector.collect",
                 lambda dump: count("bgp.collector.entries", len(dump))),
            ):
                stack.enter_context(tracer.patch(owner, attr, name, hook))
            # The previous world must be gone, cycles and all, before the
            # clock starts; run.py's collect ran while it was still held.
            self.world = None
            gc.collect()
            mark = tracer.mark()
            started = clock()
            with tracer.span("web.ecosystem.build"):
                world = build_world(self.seed, self.params, self.toy)
            study = MeasurementStudy.from_ecosystem(world)
            with tracer.span("core.pipeline.run"):
                result = study.run()
            with tracer.span("core.reports.render"):
                pipeline_statistics(result)
                figure1_www_overlap(result)
                figure2_rpki_outcome(result)
                figure4_rpki_cdn(result)
                render_table1(table1_top_covered(result))
            seconds = clock() - started
        self.world = world
        if self.reference is None:
            self.reference = result
        rep = Rep(
            seconds,
            {"study_s": [seconds]},
            attempted=len(result),
            failed=differing(result, self.reference) + degraded(result),
        )
        if tracer.enabled:
            count("bgp.propagation.announcements", len(world.announcements))
            count("bgp.propagation.ases", len(world.topology))
            rep.layers = self._layers(tracer, mark)
        return rep

    @staticmethod
    def _layers(tracer, mark: int) -> Dict[str, float]:
        layers = {
            f"{name}_s": tracer.seconds(name, mark)
            for name in (
                "web.ecosystem.build",
                "web.alexa.generate",
                "web.adoption.build",
                "web.hosting.build",
                "rpki.validator.validate",
                "bgp.propagation.propagate",
                "bgp.collector.collect",
                "core.pipeline.run",
                "core.reports.render",
            )
        }
        # rpki.validator runs inside web.adoption, so it is no child
        # of the build span itself.
        layers["web.ecosystem.self_s"] = layers["web.ecosystem.build_s"] - sum(
            layers[f"{child}_s"]
            for child in (
                "web.alexa.generate",
                "web.adoption.build",
                "web.hosting.build",
                "bgp.propagation.propagate",
                "bgp.collector.collect",
            )
        )
        layers.update(tracer.take_counts())
        layers["bgp.propagation.us_per_announcement"] = (
            layers["bgp.propagation.propagate_s"]
            / layers["bgp.propagation.announcements"]
            * 1e6
        )
        return layers

    def finish(self) -> Tuple[int, int]:
        """The funnel counters must rebuild the statistics exactly."""
        study = MeasurementStudy.from_ecosystem(self.world)
        with obs.scope() as (registry, _collector):
            result = study.run()
        failed = differing(result, self.reference)
        if not result.statistics.consistent_with(registry):
            failed += len(result)
        return len(result), failed


# -- funnel_steady / funnel_sharded --------------------------------------------


class FunnelSteady(BaseWorkload):
    """``study.run()`` serial, null obs runtime, world built in set-up."""

    def __init__(self, seed: int, params: Dict[str, int], toy: bool):
        self.world = build_world(seed, params, toy)
        self.study = MeasurementStudy.from_ecosystem(self.world)
        self.domains = params["domains"]
        self.reference = None

    run_span = "core.pipeline.run"

    def run(self):
        return self.study.run()

    def rep(self, tracer) -> Rep:
        started = clock()
        with tracer.span(self.run_span):
            result = self.run()
        seconds = clock() - started
        if self.reference is None:
            self.reference = result
        rep = Rep(
            seconds,
            {"domains_per_s": [self.domains / seconds]},
            attempted=len(result),
            failed=differing(result, self.reference) + degraded(result),
        )
        if tracer.enabled:
            rep.layers = self.rep_layers(tracer, seconds)
        return rep

    def rep_layers(self, tracer, run_s: float) -> Dict[str, float]:
        """The three funnel stages over all 2N name forms, called directly.

        Once clean (one span per pass: the stage's own cost) and once
        with the read-side functions under the stages patched, so the
        per-call spans nest under the pass that made them.
        """
        resolver = self.study.resolver
        dump, payloads = self.study.table_dump, self.study.payloads
        names = [
            name
            for domain in self.study.ranking
            for name in (domain.www_name, domain.name)
        ]

        def passes(prefix: str):
            with tracer.span(f"{prefix}core.dns_mapping.measure"):
                forms = [measure_name(resolver, name) for name in names]
            mapped = [f for f in forms if f.resolved and f.addresses]
            with tracer.span(f"{prefix}core.prefix_mapping.map"):
                pairs = [map_addresses(dump, form) for form in mapped]
            with tracer.span(f"{prefix}core.rpki_validation.validate"):
                for form, form_pairs in zip(mapped, pairs):
                    form.pairs = validate_pairs(payloads, form_pairs)
            return forms, mapped, pairs

        mark = tracer.mark()
        forms, mapped, pairs = passes("")
        with contextlib.ExitStack() as stack:
            for owner, attr, name in (
                (PublicResolver, "resolve", "dns.resolver.resolve"),
                (PrefixTrie, "covering", "net.trie.covering"),
                (ValidatedPayloads, "validate_origin",
                 "rpki.vrp.validate_origin"),
            ):
                stack.enter_context(tracer.patch(owner, attr, name))
            passes("nested:")
        layers = {
            f"{name}_s": tracer.seconds(name, mark)
            for name in (
                "core.dns_mapping.measure",
                "core.prefix_mapping.map",
                "core.rpki_validation.validate",
                "dns.resolver.resolve",
                "net.trie.covering",
                "rpki.vrp.validate_origin",
            )
        }
        layers["core.pipeline.run_s"] = run_s
        # By construction: run = three stage passes + accumulate and
        # bookkeeping.
        layers["core.pipeline.self_s"] = run_s - (
            layers["core.dns_mapping.measure_s"]
            + layers["core.prefix_mapping.map_s"]
            + layers["core.rpki_validation.validate_s"]
        )
        addresses = sum(len(form.addresses) for form in forms)
        layers["core.dns_mapping.addresses"] = addresses
        layers["core.prefix_mapping.lookups"] = sum(
            len(form.addresses) for form in mapped
        )
        layers["core.prefix_mapping.pairs"] = sum(len(p) for p in pairs)
        layers["core.prefix_mapping.unreachable"] = sum(
            form.unreachable_addresses for form in mapped
        )
        layers["core.rpki_validation.pairs"] = sum(
            len(form.pairs) for form in mapped
        )
        return layers

    def extras(self, tracer) -> Dict[str, float]:
        """Write-side tries (should move set-up, not the funnel) and
        the cost of the program's own telemetry."""
        entries = list(self.study.table_dump)
        trie: PrefixTrie = PrefixTrie()
        with tracer.span("net.trie.insert"):
            for entry in entries:
                trie.insert(entry.prefix, entry)
        with tracer.span("net.trie.remove"):
            for entry in entries:
                trie.remove(entry.prefix, entry)
        vrps = list(self.study.payloads)
        with tracer.span("rpki.vrp.build"):
            ValidatedPayloads(vrps)
        with tracer.span("core.pipeline.run"):
            plain = self.study.run()
        with obs.scope() as (_registry, collector):
            with tracer.span("obs.enabled.run"):
                observed = self.study.run()
        if observed != plain:
            raise AssertionError("obs.enable() changed the study result")
        return {
            "net.trie.insert_s": tracer.durations("net.trie.insert")[-1],
            "net.trie.remove_s": tracer.durations("net.trie.remove")[-1],
            "net.trie.prefixes": len(entries),
            "rpki.vrp.build_s": tracer.durations("rpki.vrp.build")[-1],
            "obs.overhead_ratio": (
                tracer.durations("obs.enabled.run")[-1]
                / tracer.durations("core.pipeline.run")[-1]
            ),
            "obs.spans": len(collector.spans()),
        }


class FunnelSharded(FunnelSteady):
    """The same funnel through ``repro.exec``; must equal the serial run."""

    def __init__(self, seed: int, params: Dict[str, int], toy: bool):
        super().__init__(seed, params, toy)
        self.reference = self.study.run()
        self.config = RunConfig(workers=WORKERS, mode="auto")

    run_span = "exec.auto.run"

    def run(self):
        return self.study.run(self.config)

    def rep_layers(self, tracer, run_s: float) -> Dict[str, float]:
        return {}   # the stage passes belong to funnel_steady

    def extras(self, tracer) -> Dict[str, float]:
        study, reference = self.study, self.reference
        domains = list(study.ranking)
        layers: Dict[str, float] = {
            "exec.sharding.shards": len(plan_shards(domains, workers=WORKERS))
        }
        with tracer.span("exec.codec.encode"):
            wire = encode_measurements(list(reference))
        with tracer.span("exec.codec.decode"):
            decoded = decode_measurements(wire, domains)
        if decoded != list(reference):
            raise AssertionError("codec round trip changed measurements")
        layers["exec.codec.encode_s"] = tracer.seconds("exec.codec.encode")
        layers["exec.codec.decode_s"] = tracer.seconds("exec.codec.decode")
        layers["exec.codec.bytes"] = len(
            pickle.dumps(wire, pickle.HIGHEST_PROTOCOL)
        )

        def run(span: str, config):
            with tracer.span(span):
                result = study.run(config) if config else study.run()
            if result != reference:
                raise AssertionError(f"{span}: result differs from serial")
            return result, tracer.durations(span)[-1]

        _result, serial_s = run("core.pipeline.run", None)
        _result, sharded_serial_s = run(
            "exec.serial.run", RunConfig(workers=WORKERS, mode="serial")
        )
        layers["exec.executor.serial_overhead_s"] = sharded_serial_s - serial_s
        report = None
        for mode in ("process", "workers", "thread"):
            if mode in RUN_MODES:
                result, layers[f"exec.{mode}.run_s"] = run(
                    f"exec.{mode}.run", RunConfig(workers=WORKERS, mode=mode)
                )
                if mode == "workers" or report is None:
                    report = result.scheduler_report
        if report is not None:
            layers["exec.scheduler.stolen"] = report.stolen
            layers["exec.scheduler.redispatched"] = report.redispatched
        _result, auto_s = run("exec.auto.run", self.config)
        layers["exec.speedup_vs_serial"] = serial_s / auto_s
        return layers


# -- cache_cycle ---------------------------------------------------------------


class CacheCycle(BaseWorkload):
    """cold (write) -> warm (read) -> rehost 5% -> churn (read+write)."""

    def __init__(self, seed: int, params: Dict[str, int], toy: bool):
        self.world = build_world(seed, params, toy)
        self.study = MeasurementStudy.from_ecosystem(self.world)
        self.uncached = self.study.run()
        self.generation = 0
        WORK_DIR.mkdir(parents=True, exist_ok=True)

    def rep(self, tracer) -> Rep:
        study = self.study
        self.generation += 1
        directory = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        config = RunConfig(cache=CacheConfig(directory))
        try:
            with contextlib.ExitStack() as stack:
                for owner, attr, name in (
                    (cache_session, "zone_digest", "cache.fingerprint.digest"),
                    (cache_session, "dump_digest", "cache.fingerprint.digest"),
                    (cache_session, "vrp_digest", "cache.fingerprint.digest"),
                    (cache_session, "vrp_items", "cache.fingerprint.digest"),
                    (cache_session, "config_fingerprint",
                     "cache.fingerprint.digest"),
                    (cache_session, "load_store", "cache.store.load"),
                    (CacheSession, "open", "cache.session.open"),
                    (CacheSession, "save", "cache.session.save"),
                ):
                    stack.enter_context(tracer.patch(owner, attr, name))
                mark = tracer.mark()
                started = clock()
                with tracer.span("cache.cold.run"):
                    cold, cold_s = timed(lambda: study.run(config))
                with tracer.span("cache.warm.run"):
                    warm, warm_s = timed(lambda: study.run(config))
                self.world.rehost(0.05, generation=self.generation)
                with tracer.span("cache.churn.run"):
                    churn, churn_s = timed(lambda: study.run(config))
                seconds = clock() - started
            store_bytes = os.path.getsize(store_path(directory))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        before = self.uncached
        with tracer.span("core.pipeline.uncached"):
            self.uncached, uncached_s = timed(study.run)
        warm_misses = sum(warm.statistics.cache_misses_by_stage.values())
        rep = Rep(
            seconds,
            {
                "cache_cold_s": [cold_s],
                "cache_warm_s": [warm_s],
                "cache_churn_s": [churn_s],
            },
            attempted=3 * len(cold),
            failed=(
                differing(cold, before)
                + differing(warm, before)
                + differing(churn, self.uncached)
                + warm_misses
            ),
        )
        if tracer.enabled:
            stats = churn.statistics
            hits, misses = stats.cache_hits_total, stats.cache_misses_total
            rep.layers = {
                "cache.fingerprint.digest_s":
                    tracer.seconds("cache.fingerprint.digest", mark),
                "cache.session.open_s":
                    tracer.seconds("cache.session.open", mark),
                "cache.store.load_s": tracer.seconds("cache.store.load", mark),
                "cache.session.save_s":
                    tracer.seconds("cache.session.save", mark),
                "cache.store.bytes": store_bytes,
                "cache.hits": hits,
                "cache.misses": misses,
                "cache.invalidated":
                    sum(stats.cache_invalidated_by_stage.values()),
                "cache.hit_ratio": hits / (hits + misses),
                "core.pipeline.uncached_s": uncached_s,
                "cache.warm_over_uncached": warm_s / uncached_s,
            }
        return rep


# -- serve_mixed ---------------------------------------------------------------


class ServeMixed(BaseWorkload):
    """One closed-loop client calling ``QueryService.query`` serially."""

    def __init__(self, seed: int, params: Dict[str, int], toy: bool):
        self.seed, self.params = seed, params
        world = build_world(seed, params, toy)
        self.study = MeasurementStudy.from_ecosystem(world)
        self.result = self.study.run()
        self.index = ServingIndex.build(self.study, self.result)
        self.profile = LoadProfile(
            queries=params["queries"], seed=seed, zipf_exponent=1.1
        )
        self.queries = generate_load(self.index, self.profile)
        self.service = QueryService(
            self.index, ServeConfig(mode="serial", simulated_io_s=0.0)
        )
        # The oracle: the same queries asked of the index directly.
        self.expected = [self._direct(query) for query in self.queries]
        self.responses = None   # last rep's, for finish()

    def _direct(self, query):
        index = self.index
        if query.kind == "validate":
            return index.validate(query.prefix, query.origin)
        if query.kind == "lookup":
            return index.lookup(query.address)
        if query.kind == "domain":
            return index.domain(query.name)
        return index.rank_slice(query.first, query.last)

    def rep(self, tracer) -> Rep:
        responses, latencies = [], []
        with contextlib.ExitStack() as stack:
            for kind in ("validate", "lookup", "domain", "rank_slice"):
                stack.enter_context(
                    tracer.patch(ServingIndex, kind, f"serve.index.{kind}")
                )
            stack.enter_context(
                tracer.patch(QueryService, "query", "serve.service.query")
            )
            ask = self.service.query   # bound after the patch is in
            mark = tracer.mark()
            started = clock()
            for query in self.queries:
                asked = clock()
                responses.append(ask(query))
                latencies.append(clock() - asked)
            seconds = clock() - started
        self.responses = responses
        point = [
            latency
            for query, latency in zip(self.queries, latencies)
            if query.kind != "rank_slice"
        ]
        slices = [
            latency
            for query, latency in zip(self.queries, latencies)
            if query.kind == "rank_slice"
        ]
        rep = Rep(
            seconds,
            {
                "serve_qps": [len(self.queries) / seconds],
                "serve_point_p99_us": [percentile(point, 99) * 1e6],
                "serve_slice_p99_ms": [percentile(slices, 99) * 1e3],
            },
            attempted=len(responses),
            failed=sum(
                1
                for response, answer in zip(responses, self.expected)
                if not response.ok or response.answer != answer
            ),
        )
        if tracer.enabled:
            rep.layers = self._layers(tracer, mark)
        return rep

    def _layers(self, tracer, mark: int) -> Dict[str, float]:
        spans = tracer.spans
        layers: Dict[str, float] = {"serve.queries": len(self.queries)}
        for kind, unit, scale in (
            ("validate", "us", 1e6),
            ("lookup", "us", 1e6),
            ("domain", "us", 1e6),
            ("rank_slice", "ms", 1e3),
        ):
            layers[f"serve.index.{kind}_{unit}"] = scale * statistics.median(
                tracer.durations(f"serve.index.{kind}", mark)
            )
        # guard + record + metrics: a query span minus its index call.
        overheads = [
            (spans[span[PARENT]][END] - spans[span[PARENT]][START])
            - (span[END] - span[START])
            for span in spans[mark:]
            if span[NAME].startswith("serve.index.")
        ]
        layers["serve.service.overhead_us"] = 1e6 * statistics.median(overheads)
        return layers

    def finish(self) -> Tuple[int, int]:
        """Threaded dispatch must return the serial responses.

        Also times it: ``extras`` reports the run as serve.thread.qps.
        """
        threaded, self.threaded_s = timed(
            lambda: QueryService(
                self.index, ServeConfig(workers=WORKERS, mode="thread")
            ).run(self.queries)
        )
        failed = sum(
            1 for ours, theirs in zip(threaded, self.responses) if ours != theirs
        ) + abs(len(threaded) - len(self.responses))
        return len(threaded), failed

    def extras(self, tracer) -> Dict[str, float]:
        with tracer.span("serve.index.build"):
            ServingIndex.build(self.study, self.result)
        with tracer.span("serve.loadgen.generate"):
            generate_load(self.index, self.profile)
        return {
            "serve.index.build_s": tracer.seconds("serve.index.build"),
            "serve.loadgen.generate_s":
                tracer.seconds("serve.loadgen.generate"),
            "serve.thread.qps": len(self.queries) / self.threaded_s,
        }


# -- rtr_fanout ----------------------------------------------------------------


class RtrFanout(BaseWorkload):
    """publish -> notify -> every router converged, fresh daemon each rep."""

    def __init__(self, seed: int, params: Dict[str, int], toy: bool):
        self.seed, self.params = seed, params
        self.daemon = None   # last rep's, for finish()

    def rep(self, tracer) -> Rep:
        params = self.params
        world = SyntheticVRPWorld(params["vrps"], seed=self.seed)
        daemon = RTRDaemon(RtrdConfig(workers=WORKERS))
        daemon.publish(world.vrps())
        mark = tracer.mark()
        started = clock()
        with tracer.span("rtrd.connect"):
            _routers, connect_s = timed(
                lambda: daemon.connect_many(params["sessions"])
            )
        publishes = []
        for _ in range(params["publishes"]):
            world.advance(params["changes"])
            vrps = world.vrps()
            with tracer.span("rtrd.publish"):
                _stats, publish_s = timed(lambda: daemon.publish(vrps))
            publishes.append(publish_s * 1e3)
        seconds = clock() - started
        self.daemon = daemon
        summary = summarize_publishes(daemon)
        failed = params["sessions"] - summary["synchronized"]
        if not daemon.converged or summary["delta_saving_ratio"] <= 1.0:
            failed = params["sessions"]
        rep = Rep(
            seconds,
            {
                "rtr_connect_per_s": [params["sessions"] / connect_s],
                "rtr_publish_p50_ms": publishes,
            },
            attempted=params["sessions"],
            failed=failed,
        )
        if tracer.enabled:
            rep.layers = {
                "rtrd.connect_s": tracer.seconds("rtrd.connect", mark),
                "rtrd.publish_s": tracer.seconds("rtrd.publish", mark),
                "rtrd.notified": summary["notified"],
                "rtrd.delta_bytes": summary["delta_bytes"],
                "rtrd.snapshot_equivalent_bytes":
                    summary["snapshot_equivalent_bytes"],
                "rtrd.delta_saving_ratio": summary["delta_saving_ratio"],
                "rtrd.synchronized": summary["synchronized"],
            }
        return rep

    def finish(self) -> Tuple[int, int]:
        """Every router's table equals the cache's, byte for byte."""
        return (
            len(self.daemon.routers()),
            len(self.daemon.diverged_routers()),
        )

    def extras(self, tracer) -> Dict[str, float]:
        params = self.params
        world = SyntheticVRPWorld(params["vrps"], seed=self.seed)
        first = world.vrps()
        world.advance(params["changes"])
        second = world.vrps()
        with tracer.span("rtrd.wire_table"):
            wire_table(second)
        cache = RTRCache()
        cache.load(first)
        with tracer.span("rpki.rtr.cache.load"):
            cache.load(second)   # the diff build
        return {
            "rtrd.wire_table_s": tracer.seconds("rtrd.wire_table"),
            "rpki.rtr.cache.load_s": tracer.seconds("rpki.rtr.cache.load"),
        }


CLASSES = {
    "study_cold": StudyCold,
    "funnel_steady": FunnelSteady,
    "funnel_sharded": FunnelSharded,
    "cache_cycle": CacheCycle,
    "serve_mixed": ServeMixed,
    "rtr_fanout": RtrFanout,
}
