"""Small statistics helpers used by experiments and benches."""

from __future__ import annotations

from typing import List, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def trend_slope(values: Sequence[float]) -> float:
    """Least-squares slope over index — sign gives the rank trend.

    Used to check directional claims like "less popular content is
    more secured" (positive slope of coverage over rank bins).
    """
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = mean(values)
    numerator = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    denominator = sum((i - mean_x) ** 2 for i in range(n))
    return numerator / denominator if denominator else 0.0
