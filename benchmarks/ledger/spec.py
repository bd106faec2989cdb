"""What the perf ledger measures: workloads, sizes, metric names.

Three tables live here because ``BENCHMARK.json`` has no room for
them (its key set is fixed by the driver contract):

* ``WORKLOADS`` — the six named workloads with their full and toy
  sizes and the repetition plan of the traced pass;
* ``END_TO_END`` — the thirteen end-to-end metrics of ISSUE 11 (unit,
  direction, regression bound, the workloads that report them).
  These are what ``compare.py`` gates between two sets of runs;
* ``PER_LAYER`` — the per-layer metrics of the traced pass, each tied
  to the one workload whose traced pass measures it.

``BENCHMARK.json`` carries the *contract* view.  The driver gates
every ``end_to_end`` metric it declares on every workload: its spread
over ten seeds must stay within its bound, a bound is at most 0.25,
the median may not be 0, and a time may not read the same on every
run.  That leaves ``CONTRACT_END_TO_END``: the two metrics that exist
on all six workloads and are steady enough on a shared box
(``setup_s`` is exempt from the spread rule).  Wall-clock times of
one commit spread by 8-38 % over ten runs on the box the baselines
were taken on (README.md, *Baselines*), so no timing can carry a
driver gate there, and a metric of one workload has no honest
reading on the other five.  The other eleven metrics are declared,
by the same names, in the unbounded ``per_layer`` list after
``PER_LAYER`` itself (``CONTRACT_PER_LAYER``): every traced run prints
them, measured on that pass's untraced repetitions, and a metric or
layer the workload does not have reads 0.  ``test_ledger.py`` asserts
the two views agree.

Bounds: every timing bound is 0.25.  ISSUE 11 asked for 0.10-0.20,
but a gate tighter than the spread between runs of one commit fails
on identical code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: Dict[str, int]          # the measured size
    toy: Dict[str, int]           # test_ledger.py only
    min_reps: int                 # timed repetitions, at least
    trace_reps: Tuple[int, int]   # (untraced, traced) reps of --trace 1


# Toy worlds also shrink the organisation counts (EcosystemConfig
# floors them at ~300 ASes, a 4 s build whatever the domain count).
TOY_ORGS = {"transit_count": 3, "eyeball_count": 6, "hoster_count": 12}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "study_cold",
            "5000 domains, >=3 reps: fresh world build, serial funnel, "
            "Section-4 reports. Build is ~80% of a rep, so a "
            "BGP/topology optimisation shows here and nowhere else.",
            size={"domains": 5000},
            toy={"domains": 200},
            min_reps=3,
            trace_reps=(1, 2),
        ),
        Workload(
            "funnel_steady",
            "10000 domains, >=5 reps: serial funnel on a world built in "
            "set-up; only dns/trie/vrp/core read paths work. A trie or "
            "stage-loop change shows here; a BGP change must show none.",
            size={"domains": 10000},
            toy={"domains": 200},
            min_reps=5,
            trace_reps=(2, 2),
        ),
        Workload(
            "funnel_sharded",
            "10000 domains, >=4 reps: same funnel through repro.exec, "
            "min(2,nproc) workers, mode=auto; the only workload where "
            "plan/dispatch/codec/merge work; survives a backend being "
            "deleted.",
            size={"domains": 10000},
            toy={"domains": 200},
            min_reps=4,
            trace_reps=(2, 2),
        ),
        Workload(
            "cache_cycle",
            "1500 domains, >=3 cycles, fresh cache dir each: cold run "
            "(write), warm run (read), rehost 5%, churn run "
            "(read+write). A store format that trades writes for reads "
            "shows.",
            size={"domains": 1500},
            toy={"domains": 150},
            min_reps=3,
            trace_reps=(1, 2),
        ),
        Workload(
            "serve_mixed",
            "5000-domain index, 12000 Zipf(1.1) DEFAULT_MIX queries, "
            ">=3 reps, one closed-loop client, no simulated IO. Point "
            "queries and rank_slice have separate latencies; neither "
            "hides the other.",
            size={"domains": 5000, "queries": 12000},
            toy={"domains": 200, "queries": 600},
            min_reps=3,
            trace_reps=(1, 2),
        ),
        Workload(
            "rtr_fanout",
            "200 sessions, 1000 VRPs, 12 x (advance 50; publish), >=3 "
            "reps, fresh RTRDaemon each. Connect is its own metric so a "
            "publish-side change cannot pay for itself there.",
            size={"sessions": 200, "vrps": 1000, "publishes": 12,
                  "changes": 50},
            toy={"sessions": 16, "vrps": 100, "publishes": 3,
                 "changes": 10},
            min_reps=3,
            trace_reps=(1, 2),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                       # "lower" | "higher"
    bound: Optional[float] = None     # end-to-end only
    workloads: Tuple[str, ...] = ()   # the workloads that report it
    # Per-layer counts only: "rep" repeats between the repetitions of
    # one run (the harness asserts it), "run" only between two runs of
    # one seed (cache counts differ by rehost generation).
    exact: Optional[str] = None


ALL = tuple(WORKLOADS)

# Every run prints these (the last stdout line under --trace 0).
CONTRACT_END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, ALL),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, ALL),
)

# The metrics of ISSUE 11 that the contract's end_to_end list cannot
# hold: the timings, each of one or two workloads, and failed_share,
# which is always 0 (the driver reads it as ``failed`` / ``attempted``).
WORKLOAD_END_TO_END: Tuple[Metric, ...] = (
    Metric("study_s", "s", "lower", 0.25, ("study_cold",)),
    Metric("domains_per_s", "domains/s", "higher", 0.25,
           ("funnel_steady", "funnel_sharded")),
    Metric("cache_cold_s", "s", "lower", 0.25, ("cache_cycle",)),
    Metric("cache_warm_s", "s", "lower", 0.25, ("cache_cycle",)),
    Metric("cache_churn_s", "s", "lower", 0.25, ("cache_cycle",)),
    Metric("serve_qps", "queries/s", "higher", 0.25, ("serve_mixed",)),
    Metric("serve_point_p99_us", "us", "lower", 0.25, ("serve_mixed",)),
    Metric("serve_slice_p99_ms", "ms", "lower", 0.25, ("serve_mixed",)),
    Metric("rtr_connect_per_s", "sessions/s", "higher", 0.25,
           ("rtr_fanout",)),
    Metric("rtr_publish_p50_ms", "ms", "lower", 0.25, ("rtr_fanout",)),
    Metric("failed_share", "ratio", "lower", 0.0, ALL),
)

# The ledger's own view (envelope + compare.py).
END_TO_END: Tuple[Metric, ...] = CONTRACT_END_TO_END + WORKLOAD_END_TO_END


# Layer metrics where more is better; every other one is a cost.
_HIGHER = frozenset({
    "exec.speedup_vs_serial",
    "cache.hits",
    "cache.hit_ratio",
    "serve.thread.qps",
    "rtrd.delta_saving_ratio",
    "rtrd.synchronized",
})


def _layers(workload: str, *rows) -> Tuple[Metric, ...]:
    """``(name, unit[, exact])`` rows of one workload's traced pass."""
    return tuple(
        Metric(
            row[0],
            row[1],
            "higher" if row[0] in _HIGHER else "lower",
            None,
            (workload,),
            row[2] if len(row) > 2 else None,
        )
        for row in rows
    )


PER_LAYER: Tuple[Metric, ...] = (
    _layers(
        "study_cold",
        ("web.ecosystem.build_s", "s"),
        ("web.ecosystem.self_s", "s"),
        ("web.alexa.generate_s", "s"),
        ("web.adoption.build_s", "s"),
        ("web.hosting.build_s", "s"),
        ("rpki.validator.validate_s", "s"),
        ("rpki.validator.vrps", "count", "rep"),
        ("bgp.propagation.propagate_s", "s"),
        ("bgp.propagation.announcements", "count", "rep"),
        ("bgp.propagation.ases", "count", "rep"),
        ("bgp.propagation.us_per_announcement", "us"),
        ("bgp.collector.collect_s", "s"),
        ("bgp.collector.entries", "count", "rep"),
        ("core.reports.render_s", "s"),
    )
    + (
        Metric("core.pipeline.run_s", "s", "lower", None,
               ("study_cold", "funnel_steady")),
    )
    + _layers(
        "funnel_steady",
        ("core.dns_mapping.measure_s", "s"),
        ("core.dns_mapping.addresses", "count", "rep"),
        ("core.prefix_mapping.map_s", "s"),
        ("core.prefix_mapping.lookups", "count", "rep"),
        ("core.prefix_mapping.pairs", "count", "rep"),
        ("core.prefix_mapping.unreachable", "count", "rep"),
        ("core.rpki_validation.validate_s", "s"),
        ("core.rpki_validation.pairs", "count", "rep"),
        ("core.pipeline.self_s", "s"),
        ("dns.resolver.resolve_s", "s"),
        ("net.trie.covering_s", "s"),
        ("rpki.vrp.validate_origin_s", "s"),
        ("net.trie.insert_s", "s"),
        ("net.trie.remove_s", "s"),
        ("net.trie.prefixes", "count", "rep"),
        ("rpki.vrp.build_s", "s"),
        ("obs.overhead_ratio", "ratio"),
        ("obs.spans", "count", "rep"),
    )
    + _layers(
        "funnel_sharded",
        ("exec.sharding.shards", "count", "rep"),
        ("exec.codec.encode_s", "s"),
        ("exec.codec.decode_s", "s"),
        ("exec.codec.bytes", "bytes", "rep"),
        ("exec.executor.serial_overhead_s", "s"),
        ("exec.process.run_s", "s"),
        ("exec.workers.run_s", "s"),
        ("exec.thread.run_s", "s"),
        # Work stealing depends on which worker finishes first.
        ("exec.scheduler.stolen", "count"),
        ("exec.scheduler.redispatched", "count"),
        ("exec.speedup_vs_serial", "ratio"),
    )
    + _layers(
        "cache_cycle",
        ("cache.fingerprint.digest_s", "s"),
        ("cache.session.open_s", "s"),
        ("cache.store.load_s", "s"),
        ("cache.session.save_s", "s"),
        ("cache.store.bytes", "bytes", "run"),
        ("cache.hits", "count", "run"),
        ("cache.misses", "count", "run"),
        ("cache.invalidated", "count", "run"),
        ("cache.hit_ratio", "ratio"),
        ("core.pipeline.uncached_s", "s"),
        ("cache.warm_over_uncached", "ratio"),
    )
    + _layers(
        "serve_mixed",
        ("serve.index.build_s", "s"),
        ("serve.loadgen.generate_s", "s"),
        ("serve.index.validate_us", "us"),
        ("serve.index.lookup_us", "us"),
        ("serve.index.domain_us", "us"),
        ("serve.index.rank_slice_ms", "ms"),
        ("serve.service.overhead_us", "us"),
        ("serve.queries", "count", "rep"),
        ("serve.thread.qps", "1/s"),
    )
    + _layers(
        "rtr_fanout",
        ("rtrd.connect_s", "s"),
        ("rtrd.publish_s", "s"),
        ("rtrd.notified", "count", "rep"),
        ("rtrd.delta_bytes", "bytes", "rep"),
        ("rtrd.snapshot_equivalent_bytes", "bytes", "rep"),
        ("rtrd.delta_saving_ratio", "ratio"),
        ("rtrd.synchronized", "count", "rep"),
        ("rtrd.wire_table_s", "s"),
        ("rpki.rtr.cache.load_s", "s"),
    )
    + (Metric("ledger.trace_overhead_ratio", "ratio", "lower", None, ALL),)
)


# Every traced run prints these (the last stdout line under --trace 1).
CONTRACT_PER_LAYER: Tuple[Metric, ...] = PER_LAYER + WORKLOAD_END_TO_END


def end_to_end_for(workload: str) -> Tuple[Metric, ...]:
    return tuple(m for m in END_TO_END if workload in m.workloads)


def per_layer_for(workload: str) -> Tuple[Metric, ...]:
    return tuple(m for m in PER_LAYER if workload in m.workloads)
