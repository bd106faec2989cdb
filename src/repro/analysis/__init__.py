"""Analysis utilities: rank binning, summary statistics, text tables."""

from repro.analysis.series import BinnedSeries, bin_means, bin_shares
from repro.analysis.stats import mean, trend_slope
from repro.analysis.tables import TextTable

__all__ = [
    "BinnedSeries",
    "TextTable",
    "bin_means",
    "bin_shares",
    "mean",
    "trend_slope",
]
