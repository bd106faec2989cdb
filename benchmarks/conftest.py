"""Shared world for the benchmark harness.

Every table/figure benchmark runs against one session-scoped world.
Scale with ``RIPKI_BENCH_DOMAINS`` (default 20,000; the paper used the
full 1M Alexa list).  Of 5,000, 10,000 and 20,000 domains, 10,000 is
the smallest at which every benchmark passes at the default seed.  At
5,000 and at 3,000, Figure 2's invalid mean reads 0.0.  Figure 4 fails
too: at 5,000 its CDN trend is steeper than the bound, and at 3,000
its CDN share is not below half the overall share.  Larger sizes
tighten the statistics.
"""

import os

import pytest

from repro.core import MeasurementStudy
from repro.web import EcosystemConfig, HTTPArchiveClassifier, WebEcosystem

BENCH_DOMAINS = int(os.environ.get("RIPKI_BENCH_DOMAINS", "20000"))
BENCH_SEED = int(os.environ.get("RIPKI_BENCH_SEED", "2015"))


@pytest.fixture(scope="session")
def bench_world():
    config = EcosystemConfig(domain_count=BENCH_DOMAINS, seed=BENCH_SEED)
    return WebEcosystem.build(config)


@pytest.fixture(scope="session")
def bench_result(bench_world):
    return MeasurementStudy.from_ecosystem(bench_world).run()


@pytest.fixture(scope="session")
def bench_httparchive(bench_world):
    """HTTPArchive classification over the first 30% of ranks
    (mirroring 300k of 1M)."""
    coverage = max(1, BENCH_DOMAINS * 3 // 10)
    classifier = HTTPArchiveClassifier(bench_world.namespace, coverage=coverage)
    return classifier.classify_all(bench_world.ranking), coverage
