"""The paper's contribution: the four-step measurement methodology.

Section 3 of the paper:

1. select websites (the ranked top list),
2. map domain names (www and w/o-www forms) to IP addresses via
   public DNS resolvers, excluding IANA special-purpose addresses,
3. map the addresses to all covering prefixes and origin ASes using
   route-collector table dumps (AS_SET origins excluded),
4. validate every prefix/origin pair against the cryptographically
   validated ROA set of all five trust anchors.

Plus the Section 4 analyses: CNAME-chain CDN detection, per-domain
coverage probabilities, rank binning, CDN AS keyword spotting, and
the report generators for every figure and table.
"""

from repro.core.cdn_asns import CDNASReport, spot_cdn_ases
from repro.core.cdn_detection import ChainHeuristic
from repro.core.continuous import (
    CampaignSink,
    ContinuousStudy,
    RtrSink,
    TelemetrySink,
    compare_results,
)
from repro.core.exposure import ExposureReport, analyse_exposure
from repro.core.pipeline import (
    CacheConfig,
    MeasurementStudy,
    RunConfig,
    StudyResult,
    StudyStatistics,
)
from repro.core.transparency import TransparencyReport, audit_domain
from repro.core.records import DomainMeasurement, NameMeasurement, PrefixOriginPair
from repro.core.reports import (
    cdn_as_report,
    figure1_www_overlap,
    figure2_rpki_outcome,
    figure3_cdn_popularity,
    figure4_rpki_cdn,
    pipeline_statistics,
    table1_top_covered,
)

__all__ = [
    "CDNASReport",
    "CacheConfig",
    "CampaignSink",
    "ChainHeuristic",
    "ContinuousStudy",
    "DomainMeasurement",
    "ExposureReport",
    "MeasurementStudy",
    "NameMeasurement",
    "PrefixOriginPair",
    "RtrSink",
    "RunConfig",
    "StudyResult",
    "StudyStatistics",
    "TelemetrySink",
    "TransparencyReport",
    "analyse_exposure",
    "audit_domain",
    "compare_results",
    "cdn_as_report",
    "figure1_www_overlap",
    "figure2_rpki_outcome",
    "figure3_cdn_popularity",
    "figure4_rpki_cdn",
    "pipeline_statistics",
    "spot_cdn_ases",
    "table1_top_covered",
]
