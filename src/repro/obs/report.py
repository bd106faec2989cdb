"""Human-facing renderings of collected observability data.

The CLI's closing per-stage timing table and every subcommand's
summary tables come from here, so every consumer formats trace
aggregates the same way.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import TextTable
from repro.obs.tracing import SpanStats, TraceCollector


def timing_table(stats: Mapping[str, SpanStats]) -> str:
    """Render per-span-name aggregates with the shared TextTable."""
    table = TextTable(
        ["span", "count", "total s", "mean ms", "min ms", "max ms", "errors"]
    )
    for name in sorted(stats):
        entry = stats[name]
        minimum = 0.0 if entry.count == 0 else entry.min
        table.add_row(
            name,
            entry.count,
            f"{entry.total:.3f}",
            f"{entry.mean * 1000:.3f}",
            f"{minimum * 1000:.3f}",
            f"{entry.max * 1000:.3f}",
            entry.errors,
        )
    return table.render()


def stage_timing_report(collector: TraceCollector) -> str:
    """The CLI's closing table over every span the run recorded.

    The table is the collector's exact per-name aggregate, so it counts
    every span however few records were kept; the footnote says how
    many span records the collector did not keep (``--trace-out``
    holds the rest).
    """
    stats = collector.aggregate()
    if not stats:
        return "(no spans recorded)"
    lines = [timing_table(stats)]
    if collector.dropped:
        lines.append(
            f"({collector.dropped} of {collector.seen} span records not "
            "kept; every span is counted above)"
        )
    return "\n".join(lines)


def degradation_report(
    degraded_domains: int,
    retries_total: int,
    faults_by_kind: Mapping[str, int],
    domain_count: int = 0,
) -> str:
    """Render the resilience outcome of a fault-injected run.

    Takes plain values rather than a ``StudyStatistics`` so this
    module keeps its import surface (analysis + tracing) free of the
    pipeline.
    """
    table = TextTable(["fault kind", "injected"])
    for kind in sorted(faults_by_kind):
        table.add_row(kind, faults_by_kind[kind])
    table.add_row("total", sum(faults_by_kind.values()))
    share = (
        f" ({degraded_domains / domain_count:.1%} of {domain_count})"
        if domain_count
        else ""
    )
    lines = [
        table.render(),
        f"retries spent: {retries_total}",
        f"degraded domains: {degraded_domains}{share}",
    ]
    return "\n".join(lines)


def cache_report(
    hits: Mapping[str, int],
    misses: Mapping[str, int],
    invalidated: Mapping[str, int],
) -> str:
    """Render the snapshot-cache outcome of a cache-backed run.

    Takes the three by-stage mappings as plain values (same rationale
    as :func:`degradation_report`).  Hit/miss rows use the funnel's
    stage keys; invalidation rows use the store's stage names, so the
    union of all three key sets is shown.
    """
    table = TextTable(["stage", "hits", "misses", "invalidated"])
    stages = sorted(set(hits) | set(misses) | set(invalidated))
    for stage in stages:
        table.add_row(
            stage,
            hits.get(stage, 0),
            misses.get(stage, 0),
            invalidated.get(stage, 0),
        )
    table.add_row(
        "total",
        sum(hits.values()),
        sum(misses.values()),
        sum(invalidated.values()),
    )
    served = sum(hits.values())
    worked = sum(misses.values())
    total = served + worked
    rate = f"{served / total:.1%}" if total else "n/a"
    return "\n".join([table.render(), f"hit rate: {rate}"])


def serve_report(summary: Mapping[str, object]) -> str:
    """Render a query-service run summary as latency/verdict tables.

    ``summary`` is the plain-dict shape of
    :func:`repro.serve.service.summarize_responses` (same rationale
    as :func:`degradation_report`: this module takes values, not
    pipeline objects).
    """
    table = TextTable(["query kind", "count", "p50 ms", "p99 ms"])
    by_kind = summary.get("by_kind", {})
    for kind in sorted(by_kind):
        entry = by_kind[kind]
        table.add_row(
            kind,
            entry["count"],
            f"{entry['p50_ms']:.3f}",
            f"{entry['p99_ms']:.3f}",
        )
    lines = [table.render()]
    verdicts = summary.get("verdicts", {})
    if verdicts:
        verdict_table = TextTable(["verdict", "answers"])
        for state in sorted(verdicts):
            verdict_table.add_row(state, verdicts[state])
        verdict_table.add_row("total", sum(verdicts.values()))
        lines.append(verdict_table.render())
    degraded = summary.get("degraded", {})
    marked = sum(degraded.values()) if degraded else 0
    queries = summary.get("queries", 0)
    share = f" ({marked / queries:.1%} of {queries})" if queries else ""
    markers = ", ".join(
        f"{marker}={count}" for marker, count in sorted(degraded.items())
    )
    lines.append(
        f"degraded answers: {marked}{share}"
        + (f" [{markers}]" if markers else "")
    )
    if "qps" in summary:
        lines.append(
            f"throughput: {summary['qps']} queries/s "
            f"over {summary.get('elapsed_s', 0)}s"
        )
    return "\n".join(lines)


def rtrd_report(summary: Mapping[str, object]) -> str:
    """Render an RTR daemon run summary as session/push tables.

    ``summary`` is the plain-dict shape of
    :func:`repro.rtrd.daemon.summarize_publishes` (same rationale as
    :func:`serve_report`: this module takes values, not daemons).
    """
    sessions = TextTable(
        ["sessions", "synchronized", "quarantined", "serial", "dispatch"]
    )
    sessions.add_row(
        summary.get("sessions", 0),
        summary.get("synchronized", 0),
        summary.get("quarantined", 0),
        summary.get("serial", 0),
        summary.get("mode", "serial"),
    )
    pushes = TextTable(
        ["publishes", "advanced", "no-op", "p50 ms", "p99 ms"]
    )
    pushes.add_row(
        summary.get("publishes", 0),
        summary.get("advanced", 0),
        summary.get("noop", 0),
        f"{summary.get('push_p50_ms', 0.0):.3f}",
        f"{summary.get('push_p99_ms', 0.0):.3f}",
    )
    lines = [sessions.render(), pushes.render()]
    pushed = summary.get("delta_bytes", 0) + summary.get("snapshot_bytes", 0)
    ratio = summary.get("delta_saving_ratio", 0.0)
    lines.append(
        f"pushed bytes: {pushed} "
        f"(diff {summary.get('delta_bytes', 0)}, "
        f"snapshot {summary.get('snapshot_bytes', 0)}); "
        f"delta saving ratio: {ratio}x vs full re-snapshot"
    )
    return "\n".join(lines)


def world_report(summary: Mapping[str, object]) -> str:
    """Render a world-engine run summary as run/event tables.

    ``summary`` is the plain-dict shape of
    :meth:`repro.world.WorldSummary.to_dict` (same rationale as
    :func:`serve_report`: this module takes values, not engines).
    """
    run = TextTable(
        ["profile", "seed", "steps", "CAs", "final VRPs",
         "+VRPs", "-VRPs", "stale obs", "dropped obs"]
    )
    run.add_row(
        summary.get("profile", "?"),
        summary.get("seed", 0),
        summary.get("steps", 0),
        summary.get("authorities", 0),
        summary.get("final_vrps", 0),
        summary.get("vrps_added_total", 0),
        summary.get("vrps_removed_total", 0),
        summary.get("stale_point_observations", 0),
        summary.get("dropped_point_observations", 0),
    )
    lines = [run.render()]
    events = summary.get("events_by_kind", {})
    if events:
        table = TextTable(["event kind", "count"])
        for kind in sorted(events):
            table.add_row(kind, events[kind])
        table.add_row("total", sum(events.values()))
        lines.append(table.render())
    deltas = summary.get("delta_sizes", [])
    if deltas:
        lines.append(
            f"per-step VRP delta: mean "
            f"{sum(deltas) / len(deltas):.2f}, max {max(deltas)} "
            f"({len(deltas)} steps)"
        )
    digest = summary.get("ledger_digest")
    if digest:
        lines.append(f"ledger digest: {digest}")
    return "\n".join(lines)


def rov_report(summary: Mapping[str, object], top: int = 10) -> str:
    """Render an ROV campaign + what-if sweep as verdict/delta tables.

    ``summary`` is the plain-dict payload ``ripki rov`` assembles
    (experiment ``RovReport.to_dict()`` plus a list of
    ``ExposureDelta.to_dict()`` rows) — values, not engines.
    """
    lines = []
    experiment = summary.get("experiment") or {}
    if experiment:
        histogram = experiment.get("histogram", {})
        table = TextTable(["verdict", "ASes"])
        for verdict in sorted(histogram):
            table.add_row(verdict, histogram[verdict])
        lines.append(table.render())
        annotations = experiment.get("annotations", {})
        if annotations:
            from repro.rov.annotation import ANNOTATION_NAMES

            table = TextTable(["code", "annotation", "routes"])
            for code in sorted(annotations, key=int):
                table.add_row(
                    code,
                    ANNOTATION_NAMES.get(int(code), "?"),
                    annotations[code],
                )
            lines.append(table.render())
        lines.append(
            f"campaign: {experiment.get('rounds', 0)} rounds, "
            f"{experiment.get('vantage_observations', 0)} vantage "
            f"observations, snippet {experiment.get('snippet', '?')}"
        )
        lines.append(f"verdict digest: {experiment.get('digest', '?')}")
    futures = summary.get("futures") or []
    if futures:
        # Largest hijack-exposure improvements first: the rows that
        # answer "which adoption step buys the most protection?".
        ranked = sorted(
            futures,
            key=lambda row: row["deltas"]["hijack_capture_mean"],
        )
        table = TextTable(
            ["future", "sign", "enforce", "d valid", "d invalid",
             "d rpki share", "d capture", "d blocked"]
        )
        for row in ranked[:top]:
            deltas = row["deltas"]
            table.add_row(
                row["future"],
                row["signing_orgs"],
                row["enforcing_count"],
                f"{deltas['valid_fraction']:+.4f}",
                f"{deltas['invalid_fraction']:+.4f}",
                f"{deltas['rpki_enabled_share']:+.4f}",
                f"{deltas['hijack_capture_mean']:+.4f}",
                f"{deltas['hijack_blocked_share']:+.4f}",
            )
        lines.append(table.render())
        if len(futures) > top:
            lines.append(
                f"({len(futures) - top} more futures not shown)"
            )
    return "\n".join(lines)


def scheduler_report(summary: Mapping[str, object]) -> str:
    """Render a scheduler run summary as a dispatch-accounting table.

    ``summary`` is the plain-dict shape of
    :meth:`repro.exec.scheduler.SchedulerReport.to_dict` (same
    rationale as :func:`degradation_report`: this module takes
    values, not pipeline objects).
    """
    table = TextTable(["scheduler", "value"])
    table.add_row("backend", summary.get("backend", "?"))
    table.add_row("workers", summary.get("workers", 0))
    table.add_row("jobs", summary.get("jobs_total", 0))
    table.add_row("dispatched", summary.get("dispatched", 0))
    table.add_row("completed", summary.get("completed", 0))
    table.add_row("re-dispatched", summary.get("redispatched", 0))
    table.add_row("duplicate results", summary.get("duplicates", 0))
    table.add_row("jobs stolen", summary.get("stolen", 0))
    table.add_row("worker deaths", summary.get("worker_deaths", 0))
    table.add_row("quarantined", summary.get("quarantined", 0))
    table.add_row("respawns", summary.get("respawns", 0))
    deadline = summary.get("deadline_s")
    if deadline is not None:
        table.add_row("job deadline", f"{deadline:g}s")
    return table.render()

