"""Shared world for the benchmark harness.

Every table/figure benchmark runs against one session-scoped world.
Scale with ``RIPKI_BENCH_DOMAINS`` (default 20,000; the paper used the
full 1M Alexa list — any size reproduces the shapes, larger sizes
tighten the statistics).
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
