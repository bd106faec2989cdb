"""Command-line interface.

``ripki run`` builds a synthetic world, executes the measurement
study, and prints every figure's series and Table 1 — the same rows
the benchmark harness checks against the paper.

The six observable subcommands (``run``, ``refresh``, ``serve``,
``rtrd``, ``world``, ``rov``) take :func:`_session_parent`'s flags and
run their body inside one :class:`_Session`, which owns the observe ->
telemetry -> SLO -> artifacts lifecycle; a new subcommand does the same.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import List, Optional

from repro import obs
from repro.analysis import TextTable
from repro.cache.fingerprint import (
    config_fingerprint,
    study_digests,
    vrp_digest,
    vrp_items,
)
from repro.core import (
    CacheConfig,
    ContinuousStudy,
    MeasurementStudy,
    RtrSink,
    RunConfig,
    TelemetrySink,
    cdn_as_report,
    figure1_www_overlap,
    figure2_rpki_outcome,
    figure3_cdn_popularity,
    figure4_rpki_cdn,
    pipeline_statistics,
    table1_top_covered,
)
from repro.core.pipeline import RUN_MODES
from repro.core.reports import render_table1
from repro.faults import PROFILES, FaultPlan
from repro.web import EcosystemConfig, HTTPArchiveClassifier, WebEcosystem
from repro.world import WORLD_PROFILES


def _checked(convert, accept, bound: str):
    """An argparse ``type=`` that rejects values outside ``bound``.

    A hostile value becomes a usage error (exit 2) before any world
    is built, instead of a late traceback or a silent clamp.
    """
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value"
    return parse


_count = _checked(int, lambda value: value >= 0, ">= 0")
_positive_int = _checked(int, lambda value: value >= 1, ">= 1")
_port = _checked(int, lambda value: 0 <= value <= 65535, "within 0-65535")
_fraction = _checked(float, lambda value: 0 <= value <= 1, "within [0, 1]")
_non_negative_float = _checked(float, lambda value: value >= 0, ">= 0")
_positive_float = _checked(float, lambda value: value > 0, "> 0")


def _session_parent() -> argparse.ArgumentParser:
    """The flags every :class:`_Session` command takes (argparse parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write Prometheus text metrics to FILE")
    group = parent.add_argument_group("telemetry")
    group.add_argument("--telemetry-port", type=_port, default=None,
                       metavar="PORT",
                       help="expose /metrics, /health, /ready, and "
                            "/snapshot over HTTP on PORT while the "
                            "command runs (0 = ephemeral port)")
    group.add_argument("--telemetry-host", default="127.0.0.1",
                       metavar="HOST",
                       help="bind address for --telemetry-port")
    group.add_argument("--telemetry-linger", type=_non_negative_float,
                       default=0.0, metavar="SEC",
                       help="keep the telemetry endpoints up SEC "
                            "seconds after the work finishes (lets an "
                            "external scraper read the final state)")
    return parent


def _exec_parent() -> argparse.ArgumentParser:
    """Shared sharded-executor flag group (argparse parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument("--workers", "--num-workers", type=_positive_int,
                       default=1,
                       help="worker count for the sharded executor "
                            "(1 = classic serial loop)")
    group.add_argument("--exec-mode", choices=list(RUN_MODES),
                       default="auto",
                       help="sharded-executor backend (auto: process "
                            "pool when --workers > 1; workers: "
                            "long-lived framed worker processes with "
                            "work-stealing and straggler re-dispatch)")
    group.add_argument("--shard-size", type=_positive_int, default=None,
                       help="domains per shard (default: scaled to "
                            "workers)")
    group.add_argument("--job-deadline", type=_positive_float, default=None,
                       metavar="SEC",
                       help="per-job deadline for --exec-mode workers; "
                            "an unanswered job is re-dispatched to "
                            "another worker after SEC seconds")
    return parent


def _fault_parent() -> argparse.ArgumentParser:
    """Shared fault-injection flag group (argparse parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("fault injection")
    group.add_argument("--fault-profile", choices=sorted(PROFILES),
                       default=None,
                       help="inject deterministic substrate faults "
                            "(seeded from --seed; degraded domains are "
                            "reported, not fatal)")
    group.add_argument("--retries", type=_positive_int, default=3,
                       help="attempts per funnel stage before a domain "
                            "degrades (fault runs only)")
    return parent


def _dispatch_parent() -> argparse.ArgumentParser:
    """Shared service-dispatch flag group (argparse parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("dispatch")
    group.add_argument("--workers", type=_positive_int, default=1,
                       help="dispatch thread count (1 = serial); rtrd "
                            "uses it only with --rtrd-mode thread")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripki",
        description="Reproduce the RiPKI (HotNets 2015) measurement study.",
    )
    session = _session_parent()
    executor = _exec_parent()
    faults = _fault_parent()
    dispatch = _dispatch_parent()
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[executor, faults, session],
                         help="build a world and run the full study")
    run.set_defaults(handler=run_study)
    run.add_argument("--domains", type=_count, default=20_000,
                     help="population size (the paper used 1M)")
    run.add_argument("--seed", type=int, default=2015)
    run.add_argument("--bins", type=_positive_int, default=None,
                     help="rank bin size (default: population/100)")
    run.add_argument("--figure", choices=["1", "2", "3", "4", "table1", "cdn-as"],
                     action="append", default=None,
                     help="restrict output (repeatable)")
    run.add_argument("--progress", action="store_true",
                     help="render a rate/ETA progress line on stderr")
    run.add_argument("--trace-out", metavar="FILE", default=None,
                     help="write the span trace as JSON to FILE")
    run.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="persist per-stage artifacts under DIR; a "
                          "re-run with unchanged inputs recomputes "
                          "nothing and returns a bit-identical result")

    refresh = sub.add_parser(
        "refresh",
        parents=[session],
        help="continuous-measurement campaigns over a churning world: "
             "a full baseline, then incremental refreshes that "
             "re-measure only what changed",
    )
    refresh.set_defaults(handler=run_refresh)
    refresh.add_argument("--domains", type=_count, default=5_000)
    refresh.add_argument("--seed", type=int, default=2015)
    refresh.add_argument("--campaigns", type=_count, default=3,
                         help="refresh campaigns after the baseline")
    refresh.add_argument("--churn", type=_fraction, default=0.05,
                         help="fraction of domains re-hosted between "
                              "campaigns")
    refresh.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="snapshot-cache refreshes (exact carry-over "
                              "keyed by input digests) instead of the "
                              "www/apex equality heuristic")

    export = sub.add_parser(
        "export",
        help="build a world, run the study, write the datasets as CSV "
             "plus a RIS-style table dump (the paper: 'All data will "
             "be made available')",
    )
    export.set_defaults(handler=run_export)
    export.add_argument("--domains", type=_count, default=20_000)
    export.add_argument("--seed", type=int, default=2015)
    export.add_argument("--outdir", default="ripki-data",
                        help="output directory (created if missing)")

    audit = sub.add_parser(
        "audit",
        help="per-domain delivery-security report (Section 5.1): grade, "
             "prefix inventory, RPKI verdicts, actionable findings",
    )
    audit.set_defaults(handler=run_audit)
    audit.add_argument("--domains", type=_count, default=5_000)
    audit.add_argument("--seed", type=int, default=2015)
    audit.add_argument("--rank", type=int, action="append", default=None,
                       help="rank(s) to audit (repeatable; default: 1-5)")

    serve = sub.add_parser(
        "serve",
        parents=[dispatch, session],
        help="run a completed study as a query service: build (or load "
             "from a snapshot cache) an immutable serving index, answer "
             "a query script or a generated load, print a "
             "latency/verdict table",
    )
    serve.set_defaults(handler=run_serve)
    serve.add_argument("--domains", type=_count, default=2_000)
    serve.add_argument("--seed", type=int, default=2015)
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="build the index through the snapshot cache "
                            "under DIR (warm when digests match)")
    serve.add_argument("--script", metavar="FILE", default=None,
                       help="query script (one query per line: "
                            "'validate P ASN' | 'lookup IP' | "
                            "'domain NAME' | 'rank_slice A B'); "
                            "default: generated load")
    serve.add_argument("--queries", type=_count, default=2_000,
                       help="generated load size (ignored with --script)")
    serve.add_argument("--load-seed", type=int, default=None,
                       help="load-generator seed (default: --seed)")
    serve.add_argument("--zipf", type=_positive_float, default=1.1,
                       help="Zipf popularity exponent of the generated load")
    serve.add_argument("--serve-mode", choices=["auto", "serial", "thread"],
                       default="auto",
                       help="dispatch backend (auto: thread pool when "
                            "--workers > 1)")
    serve.add_argument("--io-wait", type=_non_negative_float, default=0.0,
                       metavar="SEC",
                       help="simulated per-query IO wait (models a live "
                            "deployment's network hop; lets threads "
                            "overlap)")
    serve.add_argument("--fault-profile", choices=sorted(PROFILES),
                       default=None,
                       help="inject serve-path faults (answers degrade "
                            "with stale/degraded markers, never error)")
    serve.add_argument("--json", metavar="FILE", default=None,
                       help="write the run summary as JSON to FILE")

    rtrd = sub.add_parser(
        "rtrd",
        parents=[dispatch, session],
        help="run the long-lived RTR cache daemon: a churning router "
             "population synchronises against a mutating VRP world "
             "over streaming serial deltas; print a session/push "
             "table and verify every surviving router's table",
    )
    rtrd.set_defaults(handler=run_rtrd)
    rtrd.add_argument("--vrps", type=_count, default=2_000,
                      help="synthetic VRP world size")
    rtrd.add_argument("--seed", type=int, default=2015)
    rtrd.add_argument("--sessions", type=_positive_int, default=64,
                      help="target concurrent router sessions")
    rtrd.add_argument("--rounds", type=_positive_int, default=8,
                      help="churn rounds (one world publish each)")
    rtrd.add_argument("--world-changes", type=_count, default=50,
                      help="VRPs announced/withdrawn per round")
    rtrd.add_argument("--disconnect", type=_fraction, default=0.05,
                      help="fraction of routers disconnecting per round")
    rtrd.add_argument("--lag", type=_fraction, default=0.1,
                      help="fraction of routers going read-silent "
                           "per round")
    rtrd.add_argument("--garbage", type=_fraction, default=0.05,
                      help="fraction of routers sending junk bytes "
                           "per round")
    rtrd.add_argument("--history", type=_count, default=16,
                      help="serial diffs kept for incremental sync "
                           "(older routers get a Cache Reset)")
    rtrd.add_argument("--rtrd-mode", choices=["auto", "serial", "thread"],
                      default="auto",
                      help="dispatch backend (auto: pump inline on "
                           "one thread; thread: a --workers pool)")
    rtrd.add_argument("--json", metavar="FILE", default=None,
                      help="write the run summary as JSON to FILE")

    world = sub.add_parser(
        "world",
        parents=[executor, faults, session],
        help="step a seeded CA/publication world (ROA churn, missed "
             "re-signs, outages, key rollovers) and drive refresh "
             "campaigns plus an RTR daemon from each step's validated "
             "VRPs",
    )
    world.set_defaults(handler=run_world)
    world.add_argument("--domains", type=_count, default=2_000,
                       help="ecosystem size backing the measurement side")
    world.add_argument("--seed", type=int, default=2015,
                       help="seed for the ecosystem AND the world's "
                            "fault schedule (same seed, same ledger)")
    world.add_argument("--profile", choices=sorted(WORLD_PROFILES),
                       default="sloppy-ca",
                       help="CA behaviour profile driving the per-step "
                            "event schedule")
    world.add_argument("--steps", type=_count, default=20,
                       help="world steps (one refresh campaign each)")
    world.add_argument("--grace", type=_non_negative_float, default=2.0,
                       help="relying-party grace window (virtual time "
                            "units) before a stale point's VRPs drop")
    world.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="snapshot-cache directory (default: a "
                            "temporary directory, so refreshes always "
                            "run through selective invalidation)")
    world.add_argument("--json", metavar="FILE", default=None,
                       help="write the run summary and the full event "
                            "ledger as JSON to FILE")

    rov = sub.add_parser(
        "rov",
        parents=[session],
        help="infer per-AS ROV enforcement from seeded anchor/"
             "experiment announcement pairs, then score adoption "
             "futures with the what-if counterfactual engine",
    )
    rov.set_defaults(handler=run_rov)
    rov.add_argument_group("execution").add_argument(
        "--workers", "--num-workers", type=_positive_int, default=1,
        help="process-pool size for the experiment rounds and the "
             "what-if futures (1 = serial)")
    rov.add_argument("--domains", type=_count, default=600,
                     help="ecosystem size backing the what-if funnel")
    rov.add_argument("--seed", type=int, default=2015,
                     help="seed for the ecosystem, the ground-truth "
                          "deployment, and every experiment round")
    rov.add_argument("--rounds", type=_positive_int, default=48,
                     help="anchor/experiment announcement rounds")
    rov.add_argument("--vantages", type=_positive_int, default=10,
                     help="vantage points sampled per round")
    rov.add_argument("--enforce-scale", type=_non_negative_float, default=1.0,
                     help="multiplier on the role-dependent ground-"
                          "truth enforcement rates")
    rov.add_argument("--futures", type=_count, default=8,
                     help="sampled adoption futures scored in addition "
                          "to the three named scenarios")
    rov.add_argument("--samples", type=_count, default=12,
                     help="seeded hijack cases replayed per future")
    rov.add_argument("--json", metavar="FILE", nargs="?", const="-",
                     default=None,
                     help="write the full summary as JSON to FILE "
                          "(bare --json: JSON on stdout, tables on "
                          "stderr)")
    return parser


class _Session:
    """One command's observe -> telemetry -> SLO -> artifacts lifecycle.

    Entering switches collection on when any obs flag (``--progress``,
    ``--metrics-out``, ``--trace-out``, ``--telemetry-port``) is set
    and starts the telemetry server.  The body reads ``registry`` /
    ``collector`` / ``health`` / ``slo`` — each ``None`` while its
    plane is off — and prints chatter through ``say``.  A clean exit
    exports the SLO tracker, writes ``--metrics-out`` and
    ``--trace-out``, lingers, then stops the server and switches
    collection off; an exception skips the artifacts and the linger
    but still stops the server and switches collection off.
    """

    def __init__(self, args, *, slo: bool = False, out=None):
        self.args = args
        self.out = out  # None: sys.stdout as it is when a line prints
        self.observe = args.telemetry_port is not None or any(
            getattr(args, flag, None)
            for flag in ("progress", "metrics_out", "trace_out")
        )
        self.registry = self.collector = self.health = None
        self.slo = obs.SLOTracker() if slo and self.observe else None
        self._server = None

    def say(self, *parts) -> None:
        print(*parts, file=self.out)

    def __enter__(self) -> "_Session":
        from repro.obs.http import TelemetryServer

        args = self.args
        if self.observe:
            self.registry, self.collector = obs.enable()
        try:
            if args.telemetry_port is not None:
                # Reads the process-wide registry enabled above.
                self._server = TelemetryServer(
                    host=args.telemetry_host, port=args.telemetry_port
                )
                self._server.start()
                self.health = self._server.health
                self.say(
                    f"  telemetry: {self._server.url} "
                    "(/metrics /health /ready /snapshot)"
                )
        except BaseException:
            self._close()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                self._write_artifacts()
        finally:
            self._close()
        return False

    def _write_artifacts(self) -> None:
        args = self.args
        if self.slo is not None:
            self.slo.export(self.registry)
        if args.metrics_out:
            size = self.registry.write_prometheus(args.metrics_out)
            self.say(f"  metrics: {args.metrics_out} ({size} bytes)")
        if getattr(args, "trace_out", None):
            kept = self.collector.dump(args.trace_out)
            self.say(
                f"  trace: {args.trace_out} ({kept} of "
                f"{self.collector.seen} spans kept)"
            )
        if self._server is not None and args.telemetry_linger > 0:
            self.say(
                f"  telemetry: lingering {args.telemetry_linger:.0f}s "
                f"at {self._server.url}"
            )
            time.sleep(args.telemetry_linger)

    def _close(self) -> None:
        if self._server is not None:
            self._server.stop()
        if self.observe:
            obs.disable()


def _build_world(args, say, noun: str = "world"):
    """Announce and build the seeded ecosystem behind a command."""
    say(f"building {noun}: {args.domains} domains, seed {args.seed} ...")
    return WebEcosystem.build(
        EcosystemConfig(domain_count=args.domains, seed=args.seed)
    )


def _fault_plan(args) -> Optional[FaultPlan]:
    """The ``--fault-profile`` plan seeded from ``--seed``, if any."""
    if not args.fault_profile:
        return None
    return FaultPlan.from_profile(args.fault_profile, seed=args.seed)


def _run_config(args, **overrides) -> RunConfig:
    """The ``RunConfig`` the executor, fault and cache flags describe."""
    fields = dict(
        workers=args.workers,
        mode=args.exec_mode,
        shard_size=args.shard_size,
        max_attempts=args.retries,
        faults=_fault_plan(args),
        cache=CacheConfig(args.cache_dir) if args.cache_dir else None,
        job_deadline_s=args.job_deadline,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def _write_json(path: str, payload, say) -> None:
    """Write a run summary as JSON to ``path`` (``-``: bare stdout)."""
    to_stdout = path == "-"
    with (
        contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "w")
    ) as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if not to_stdout:
        say(f"  summary: {path}")


def _stamp_health(health, study, config, args) -> None:
    """Stamp a completed (re)build onto the telemetry health card.

    The digests are the snapshot cache's fingerprints of the study's
    inputs — the same values :meth:`ServingIndex.stale_against` and
    cache invalidation key on — so ``/health`` and a cache store
    describing the same world agree byte for byte.
    """
    health.set_digests(study_digests(study, config))
    health.set_detail(domains=args.domains, seed=args.seed)
    health.mark_refresh()


def _print_series(title: str, series_map, limit: int = 20) -> None:
    from repro.analysis.charts import series_chart

    print(f"\n== {title} ==")
    labels = list(series_map)
    table = TextTable(["bin (ranks)"] + [series_map[l].label for l in labels])
    first = series_map[labels[0]]
    step = max(1, len(first) // limit)
    for index in range(0, len(first), step):
        start, end = first.bin_range(index)
        table.add_row(
            f"{start}-{end}",
            *(series_map[l].values[index] for l in labels),
        )
    print(table.render())
    print(series_chart(series_map, width=60, shared_scale=False))
    for label in labels:
        series = series_map[label]
        print(
            f"  {series.label}: mean={series.mean():.4f} "
            f"head={series.head_mean(10):.4f} tail={series.tail_mean(10):.4f}"
        )


def run_study(args: argparse.Namespace) -> int:
    wanted = set(args.figure or ["1", "2", "3", "4", "table1", "cdn-as"])
    with _Session(args) as session:
        started = time.time()
        world = _build_world(args, session.say)
        print(f"  built in {time.time() - started:.1f}s: {world!r}")
        started = time.time()
        config = _run_config(
            args, progress=obs.stderr_renderer() if args.progress else None
        )
        study = MeasurementStudy.from_ecosystem(world)
        result = study.run(config=config)
        label = f" ({args.workers} workers)" if args.workers > 1 else ""
        print(f"  measured in {time.time() - started:.1f}s{label}")
        if session.health is not None:
            _stamp_health(session.health, study, config, args)

        stats = pipeline_statistics(result, registry=session.registry)
        print("\n== Section 4 statistics ==")
        for key, value in stats.items():
            print(f"  {key}: {value}")

        if config.faults is not None:
            s = result.statistics
            print(f"\n== Resilience under '{args.fault_profile}' faults ==")
            print(f"  plan: {config.faults.describe()}")
            print(obs.degradation_report(
                s.degraded_domains,
                s.retries_total,
                s.faults_by_kind,
                s.domain_count,
            ))

        if args.cache_dir:
            s = result.statistics
            print(f"\n== Snapshot cache ({args.cache_dir}) ==")
            print(obs.cache_report(
                s.cache_hits_by_stage,
                s.cache_misses_by_stage,
                s.cache_invalidated_by_stage,
            ))

        dispatch = result.scheduler_report
        if dispatch is not None:
            print("\n== Job scheduler ==")
            print(obs.scheduler_report(dispatch.to_dict()))
            if args.metrics_out:
                # Explicit export only: the study registry stays
                # byte-identical to serial unless asked.
                dispatch.to_metrics(session.registry)

        _render_figures(args, wanted, world, result)

        if session.observe:
            print("\n== Stage timings ==")
            print(obs.stage_timing_report(session.collector))
    return 0


def _render_figures(args, wanted, world, result) -> None:
    if "1" in wanted:
        series = figure1_www_overlap(result, args.bins)
        _print_series("Figure 1: equal prefixes www vs w/o www", {"=": series})
    if "2" in wanted:
        _print_series(
            "Figure 2: RPKI validation outcome",
            figure2_rpki_outcome(result, args.bins),
        )
    if "3" in wanted:
        classifier = HTTPArchiveClassifier(
            world.namespace, coverage=max(1, args.domains * 3 // 10)
        )
        archive = classifier.classify_all(world.ranking)
        _print_series(
            "Figure 3: CDN popularity (two heuristics)",
            figure3_cdn_popularity(result, archive, classifier.coverage, args.bins),
        )
    if "4" in wanted:
        _print_series(
            "Figure 4: RPKI deployment, overall vs CDN-hosted",
            figure4_rpki_cdn(result, args.bins),
        )
    if "table1" in wanted:
        print("\n== Table 1: top domains with RPKI coverage ==")
        print(render_table1(table1_top_covered(result)))
    if "cdn-as" in wanted:
        print("\n== Section 4.2: CDN ASes in the RPKI ==")
        print("  " + cdn_as_report(world).summary())


def run_refresh(args: argparse.Namespace) -> int:
    with _Session(args, slo=True) as session:
        world = _build_world(args, session.say)
        study = MeasurementStudy.from_ecosystem(world)
        config = (
            RunConfig(cache=CacheConfig(args.cache_dir))
            if args.cache_dir
            else None
        )
        continuous = ContinuousStudy(study, config)
        if session.observe:
            continuous.attach(
                TelemetrySink(slo=session.slo, health=session.health)
            )
        started = time.time()
        baseline = continuous.baseline()
        print(
            f"  baseline: {len(baseline)} domains "
            f"in {time.time() - started:.1f}s"
        )
        if session.health is not None:
            _stamp_health(session.health, study, config, args)
        mode = "cache" if args.cache_dir else "heuristic"
        for campaign in range(1, args.campaigns + 1):
            moved = world.rehost(args.churn, generation=campaign)
            started = time.time()
            result, stats = continuous.refresh()
            print(
                f"  campaign {campaign} ({mode}): {len(moved)} re-hosted, "
                f"{stats.total_queries} queries, "
                f"{stats.total_carried} carried over "
                f"({stats.saving_fraction:.1%} saved) "
                f"in {time.time() - started:.1f}s"
            )
            if args.cache_dir:
                s = result.statistics
                invalidated = sum(s.cache_invalidated_by_stage.values())
                print(
                    f"    cache: {s.cache_hits_total} hits, "
                    f"{s.cache_misses_total} misses, "
                    f"{invalidated} artifacts invalidated"
                )
            if session.health is not None:
                # Re-stamp: the campaign re-measured a churned world,
                # so the input digests (and freshness) moved.
                _stamp_health(session.health, study, config, args)
    return 0


def run_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.export import (
        export_domain_summary,
        export_measurements,
        export_series,
    )
    from repro.bgp.dumps import write_dump

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    world = _build_world(args, print)
    result = MeasurementStudy.from_ecosystem(world).run()

    rows = export_measurements(result, outdir / "pairs.csv")
    print(f"  pairs.csv: {rows} rows")
    rows = export_domain_summary(result, outdir / "domains.csv")
    print(f"  domains.csv: {rows} rows")
    fig2 = figure2_rpki_outcome(result)
    fig4 = figure4_rpki_cdn(result)
    rows = export_series(
        [figure1_www_overlap(result), *fig2.values(), *fig4.values()],
        outdir / "series.csv",
    )
    print(f"  series.csv: {rows} rows")
    rows = write_dump(world.table_dump, outdir / "table.dump")
    print(f"  table.dump: {rows} rows (RIS-style)")
    return 0


def run_audit(args: argparse.Namespace) -> int:
    from repro.core.transparency import audit_domain, render_report

    world = _build_world(args, print)
    ranks = args.rank or [1, 2, 3, 4, 5]
    for rank in ranks:
        if not 1 <= rank <= len(world.ranking):
            print(f"rank {rank} out of range, skipping")
            continue
        domain = world.ranking.domain_at_rank(rank)
        print()
        print(render_report(audit_domain(world, domain.name)))
    return 0


def run_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        LoadProfile,
        QueryService,
        ServeConfig,
        ServingIndex,
        generate_load,
        parse_script,
        summarize_responses,
    )

    with _Session(args, slo=True) as session:
        world = _build_world(args, session.say)
        study = MeasurementStudy.from_ecosystem(world)
        started = time.time()
        if args.cache_dir:
            index = ServingIndex.from_cache(args.cache_dir, study)
            state = "warm" if index.warm else "cold"
            print(
                f"  index from cache ({args.cache_dir}, {state}) "
                f"in {time.time() - started:.1f}s: {index!r}"
            )
        else:
            result = study.run()
            index = ServingIndex.build(study, result)
            print(f"  index built in {time.time() - started:.1f}s: {index!r}")
        health = session.health
        if health is not None:
            health.set_digests({
                **index.digests,
                "config": config_fingerprint(None),
            })
            health.set_detail(
                domains=args.domains, seed=args.seed, source=index.source
            )
            health.set_staleness(lambda: index.stale_against(study))
            health.mark_refresh()

        if args.script:
            with open(args.script) as handle:
                queries = parse_script(handle.read())
            print(f"  script: {args.script} ({len(queries)} queries)")
        else:
            profile = LoadProfile(
                queries=args.queries,
                seed=args.load_seed if args.load_seed is not None
                else args.seed,
                zipf_exponent=args.zipf,
            )
            queries = generate_load(index, profile)
            print(
                f"  load: {len(queries)} queries "
                f"(zipf {args.zipf}, seed {profile.seed})"
            )

        service = QueryService(index, ServeConfig(
            workers=args.workers,
            mode=args.serve_mode,
            faults=_fault_plan(args),
            simulated_io_s=args.io_wait,
            slo=session.slo,
        ))
        started = time.time()
        responses = service.run(queries)
        elapsed = time.time() - started
        summary = summarize_responses(responses, elapsed)
        mode = service.config.resolved_mode
        label = f" ({args.workers} workers)" if mode == "thread" else ""
        print(f"  served in {elapsed:.2f}s, {mode} dispatch{label}")
        print(f"\n== Query service ({len(queries)} queries) ==")
        print(obs.serve_report(summary))
        if args.json:
            _write_json(args.json, summary, session.say)
    return 0


def run_rtrd(args: argparse.Namespace) -> int:
    from repro.rtrd import (
        ChurnProfile,
        RTRDaemon,
        RtrdConfig,
        SyntheticVRPWorld,
        run_churn,
        summarize_publishes,
    )

    with _Session(args, slo=True) as session:
        print(
            f"building VRP world: {args.vrps} VRPs, seed {args.seed} ..."
        )
        world = SyntheticVRPWorld(args.vrps, seed=args.seed)
        daemon = RTRDaemon(RtrdConfig(
            workers=args.workers,
            mode=args.rtrd_mode,
            history_limit=args.history,
        ))
        daemon.attach_telemetry(slo=session.slo, health=session.health)
        health = session.health
        if health is not None:
            health.set_detail(
                vrps=args.vrps, seed=args.seed, sessions=args.sessions
            )
            health.set_staleness(lambda: not daemon.converged)
        started = time.time()
        daemon.publish(world.vrps())
        daemon.connect_many(args.sessions)
        print(
            f"  {len(daemon.manager.synchronized())}/{args.sessions} "
            f"sessions synchronized at serial {daemon.serial}"
        )
        profile = ChurnProfile(
            rounds=args.rounds,
            target_sessions=args.sessions,
            disconnect=args.disconnect,
            lag=args.lag,
            garbage=args.garbage,
            world_changes=args.world_changes,
            seed=args.seed,
        )
        churn = run_churn(daemon, world, profile)
        elapsed = time.time() - started
        if health is not None:
            health.set_digests(
                {"vrps": vrp_digest(vrp_items(daemon.vrps()))}
            )
        mode = daemon.config.resolved_mode
        label = f" ({args.workers} workers)" if mode == "thread" else ""
        print(
            f"  {churn.rounds} churn rounds in {elapsed:.2f}s, "
            f"{mode} dispatch{label}"
        )
        summary = summarize_publishes(daemon, elapsed)
        summary["churn"] = {
            "connects": churn.connects,
            "disconnects": churn.disconnects,
            "revives": churn.revives,
            "garbage_frames": churn.garbage_frames,
            "lag_assignments": churn.lag_assignments,
            "diverged": churn.diverged,
            "converged": churn.converged,
        }
        print(f"\n== RTR daemon ({len(daemon.manager)} sessions) ==")
        print(obs.rtrd_report(summary))
        if churn.diverged:
            print(f"  DIVERGED: {churn.diverged} router tables differ")
        else:
            print(
                "  all surviving router tables identical to the "
                "cache snapshot"
            )
        if args.json:
            _write_json(args.json, summary, session.say)
    return 1 if churn.diverged else 0


def run_world(args: argparse.Namespace) -> int:
    import tempfile

    from repro.rtrd import RTRDaemon
    from repro.world import WorldConfig, WorldEngine, WorldSink

    with _Session(args, slo=True) as session, contextlib.ExitStack() as stack:
        world = _build_world(args, session.say)
        engine = WorldEngine.from_ecosystem(
            world,
            WorldConfig(
                profile=args.profile, seed=args.seed, grace=args.grace
            ),
        )
        print(
            f"  {len(engine.authorities())} certificate authorities, "
            f"{len(engine.payloads)} VRPs at step 0 "
            f"({args.profile!r} profile)"
        )
        study = MeasurementStudy.from_ecosystem(world)
        cache_dir = args.cache_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="ripki-world-")
        )
        config = _run_config(args, cache=CacheConfig(cache_dir))
        continuous = ContinuousStudy(study, config)
        daemon = RTRDaemon()
        world_sink = WorldSink(engine)
        rtr_sink = RtrSink(daemon)
        sinks = [world_sink, rtr_sink]
        if session.observe:
            sinks.append(
                TelemetrySink(slo=session.slo, health=session.health)
            )
        continuous.attach(*sinks)
        started = time.time()
        baseline = continuous.baseline()
        print(
            f"  baseline: {len(baseline)} domains, "
            f"{rtr_sink.publishes[-1].announced} VRPs announced to RTR "
            f"in {time.time() - started:.1f}s"
        )
        invalidated_total = 0
        deltas_total = 0
        for index in range(1, args.steps + 1):
            result, stats = continuous.refresh()
            step = world_sink.steps[-1]
            s = result.statistics
            invalidated = sum(s.cache_invalidated_by_stage.values())
            invalidated_total += invalidated
            publish = rtr_sink.publishes[-1]
            deltas_total += publish.announced + publish.withdrawn
            events = ", ".join(
                f"{event.kind}({event.subject})"
                for event in step.events
                if event.subject != "world"
            ) or "quiet"
            print(
                f"  step {index}: {step.observation.total_vrps} VRPs "
                f"({step.vrps_added:+d}/-{step.vrps_removed}), "
                f"{step.observation.stale_points} stale / "
                f"{step.observation.dropped_points} dropped points, "
                f"{invalidated} artifacts invalidated, "
                f"rtr serial {publish.serial} "
                f"(+{publish.announced}/-{publish.withdrawn})"
            )
            print(f"    events: {events}")
        summary = engine.summary()
        print(f"\n== World ({args.steps} steps, {args.profile!r}) ==")
        print(obs.world_report(summary.to_dict()))
        print(
            f"cache artifacts invalidated: {invalidated_total}; "
            f"RTR delta entries pushed: {deltas_total}"
        )
        if args.json:
            payload = {
                "summary": summary.to_dict(),
                "invalidated_artifacts": invalidated_total,
                "rtr_delta_entries": deltas_total,
                "ledger": engine.ledger.to_rows(),
            }
            _write_json(args.json, payload, session.say)
    return 0


def run_rov(args: argparse.Namespace) -> int:
    from repro.rov import (
        ExperimentSpec,
        RovExperimentRunner,
        WhatIfEngine,
        future_census,
        named_futures,
        sample_futures,
        seeded_enforcers,
    )

    # Bare --json: the JSON owns stdout, every table goes to stderr.
    out = sys.stderr if args.json == "-" else None
    with _Session(args, out=out) as session:
        say = session.say
        world = _build_world(args, say, noun="ecosystem")
        topology = world.topology
        as_count = len(list(topology.asns()))
        enforcing = seeded_enforcers(
            topology, seed=args.seed, scale=args.enforce_scale
        )
        spec = ExperimentSpec(
            rounds=args.rounds, vantage_count=args.vantages, seed=args.seed
        )
        runner = RovExperimentRunner(topology, enforcing, spec)
        started = time.time()
        report = runner.run(workers=args.workers)
        say(f"  campaign: {spec.rounds} rounds x {spec.vantage_count} "
            f"vantages over {as_count} ASes "
            f"({len(enforcing)} truly enforcing) "
            f"in {time.time() - started:.1f}s")
        say(f"  snippet: {report.snippet_line(enforcing)} "
            f"(vantage obs|non-rov|candidates|enforcers|false positives)")

        futures = named_futures(world)
        if args.futures > 0:
            futures += sample_futures(world, args.futures, seed=args.seed)
        engine = WhatIfEngine(
            world, hijack_samples=args.samples, seed=args.seed
        )
        started = time.time()
        deltas = engine.run_futures(futures, workers=args.workers)
        say(f"  what-if: {len(deltas)} futures x "
            f"{args.samples} hijack replays in {time.time() - started:.1f}s")

        summary = {
            "seed": args.seed,
            "domains": args.domains,
            "ases": as_count,
            "true_enforcing": len(enforcing),
            "experiment": report.to_dict(),
            "baseline": engine.baseline().to_dict(),
            "futures": [delta.to_dict() for delta in deltas],
            "census": future_census(futures),
        }
        say(f"\n== ROV ({as_count} ASes, {len(deltas)} futures) ==")
        say(obs.rov_report(summary))
        if args.json:
            _write_json(args.json, summary, say)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
