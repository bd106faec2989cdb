"""Report generators: one per table/figure of the evaluation section.

Every generator consumes a :class:`~repro.core.pipeline.StudyResult`
and returns plain data (binned series, table rows) so the benchmark
harness and the CLI can print the same rows the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import BinnedSeries, TextTable, bin_means, bin_shares
from repro.core.cdn_asns import CDNASReport, build_cdn_as_report
from repro.core.cdn_detection import ChainHeuristic
from repro.core.pipeline import StudyResult

# The paper bins 1M domains into groups of 10,000 — i.e. 100 bins.
PAPER_BIN_COUNT = 100


def default_bin_size(result: StudyResult) -> int:
    """Bin size giving the paper's 100 bins at any population scale."""
    return max(1, len(result) // PAPER_BIN_COUNT)


# -- Figure 1 ---------------------------------------------------------------


def figure1_www_overlap(
    result: StudyResult, bin_size: Optional[int] = None
) -> BinnedSeries:
    """Share of equal prefixes between www and w/o-www per rank bin."""
    bin_size = bin_size or default_bin_size(result)
    per_rank = [m.prefix_overlap() for m in result.by_rank()]
    return bin_means(per_rank, bin_size, label="equal prefixes www vs w/o www")


# -- Figure 2 ---------------------------------------------------------------


def figure2_rpki_outcome(
    result: StudyResult, bin_size: Optional[int] = None
) -> Dict[str, BinnedSeries]:
    """Valid / invalid / not-found fractions per rank bin."""
    bin_size = bin_size or default_bin_size(result)
    valid_per_rank: List[Optional[float]] = []
    invalid_per_rank: List[Optional[float]] = []
    notfound_per_rank: List[Optional[float]] = []
    for measurement in result.by_rank():
        if not measurement.usable:
            valid_per_rank.append(None)
            invalid_per_rank.append(None)
            notfound_per_rank.append(None)
            continue
        valid, invalid, notfound = measurement.state_fractions()
        valid_per_rank.append(valid)
        invalid_per_rank.append(invalid)
        notfound_per_rank.append(notfound)
    return {
        "valid": bin_means(valid_per_rank, bin_size, label="valid"),
        "invalid": bin_means(invalid_per_rank, bin_size, label="invalid"),
        "not_found": bin_means(notfound_per_rank, bin_size, label="not found"),
    }


# -- Table 1 ----------------------------------------------------------------


@dataclass
class Table1Row:
    """One row of Table 1."""

    rank: int
    name: str
    www_label: str     # e.g. "(3/3)"
    www_full: bool
    plain_label: str
    plain_full: bool

    def marker(self, full: bool, label: str) -> str:
        if label == "n/a":
            return "n/a"
        if label.startswith("(0/"):
            return f"x {label}"
        return ("FULL " if full else "part ") + label


def table1_top_covered(result: StudyResult, count: int = 10) -> List[Table1Row]:
    """The first ``count`` ranked domains with any RPKI coverage."""
    rows: List[Table1Row] = []
    for measurement in result.by_rank():
        if not measurement.rpki_enabled:
            continue
        rows.append(
            Table1Row(
                rank=measurement.rank,
                name=measurement.domain.name,
                www_label=measurement.www.coverage_label(),
                www_full=measurement.www.fully_covered,
                plain_label=measurement.plain.coverage_label(),
                plain_full=measurement.plain.fully_covered,
            )
        )
        if len(rows) >= count:
            break
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    table = TextTable(["Rank", "Domain", "www", "w/o www"])
    for row in rows:
        table.add_row(
            row.rank,
            row.name,
            row.marker(row.www_full, row.www_label),
            row.marker(row.plain_full, row.plain_label),
        )
    return table.render()


# -- Figure 3 ---------------------------------------------------------------


def figure3_cdn_popularity(
    result: StudyResult,
    httparchive_classification: Dict[str, str],
    httparchive_coverage: int,
    bin_size: Optional[int] = None,
    heuristic: Optional[ChainHeuristic] = None,
) -> Dict[str, BinnedSeries]:
    """CDN share per bin: chain heuristic vs HTTPArchive."""
    bin_size = bin_size or default_bin_size(result)
    heuristic = heuristic or ChainHeuristic()
    chain_flags: List[Optional[bool]] = []
    archive_flags: List[Optional[bool]] = []
    for measurement in result.by_rank():
        chain_flags.append(heuristic.is_cdn(measurement))
        if measurement.rank <= httparchive_coverage:
            archive_flags.append(
                measurement.domain.name in httparchive_classification
            )
        else:
            archive_flags.append(None)
    return {
        "GoogleDNS": bin_shares(chain_flags, bin_size, label="GoogleDNS"),
        "HTTPArchive": bin_shares(archive_flags, bin_size, label="HTTPArchive"),
    }


# -- Figure 4 ---------------------------------------------------------------


def figure4_rpki_cdn(
    result: StudyResult,
    bin_size: Optional[int] = None,
    heuristic: Optional[ChainHeuristic] = None,
) -> Dict[str, BinnedSeries]:
    """RPKI-enabled share per bin, overall and among CDN-hosted sites."""
    bin_size = bin_size or default_bin_size(result)
    heuristic = heuristic or ChainHeuristic()
    overall: List[Optional[bool]] = []
    cdn_only: List[Optional[bool]] = []
    for measurement in result.by_rank():
        if not measurement.usable:
            overall.append(None)
            cdn_only.append(None)
            continue
        enabled = measurement.rpki_enabled
        overall.append(enabled)
        cdn_only.append(enabled if heuristic.is_cdn(measurement) else None)
    return {
        "rpki_enabled": bin_shares(overall, bin_size, label="RPKI-enabled"),
        "rpki_enabled_cdn": bin_shares(
            cdn_only, bin_size, label="RPKI-enabled websites hosted on CDNs"
        ),
    }


# -- Section 4.2 in-text numbers ---------------------------------------------


def cdn_as_report(world) -> CDNASReport:
    """Keyword spotting + RPKI search over a built ecosystem."""
    return build_cdn_as_report(world.as_assignment_list(), world.payloads())


# -- Section 4 opening statistics ---------------------------------------------


def pipeline_statistics(
    result: StudyResult, registry=None
) -> Dict[str, float]:
    """The counters reported in the first paragraph of Section 4.

    With a metrics ``registry`` the numbers are rebuilt from its
    funnel families, which :meth:`StudyStatistics.to_metrics` wrote
    from ``result.statistics`` at the end of the run; a mismatch —
    a registry shared with another run, or edited since — raises.
    """
    stats = result.statistics
    if registry is not None:
        from repro.core.pipeline import StudyStatistics

        rebuilt = StudyStatistics.from_metrics(registry)
        if rebuilt != stats:
            raise ValueError(
                "metrics registry disagrees with StudyStatistics: "
                f"{rebuilt} != {stats}"
            )
        stats = rebuilt
    summary: Dict[str, float] = {
        "domains": stats.domain_count,
        "invalid_dns_fraction": stats.invalid_dns_fraction,
        "www_addresses": stats.www_addresses,
        "plain_addresses": stats.plain_addresses,
        "www_pairs": stats.www_pairs,
        "plain_pairs": stats.plain_pairs,
        "unreachable_fraction": stats.unreachable_fraction,
        "as_set_exclusions": stats.as_set_exclusions,
    }
    # Resilience keys appear only when a fault-injected run recorded
    # something, so fault-free output is unchanged.
    if stats.degraded_domains or stats.retries_total or stats.faults_by_kind:
        summary["degraded_domains"] = stats.degraded_domains
        summary["degraded_fraction"] = stats.degraded_fraction
        summary["retries_total"] = stats.retries_total
        summary["faults_injected"] = stats.faults_total
    return summary
