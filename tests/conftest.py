"""Shared fixtures: a session-scoped small world for integration tests,
a fresh interpreter for what must not depend on this process, and a
count of the funnel's step-3 and step-4 computations."""

import os
import subprocess
import sys
import threading

import pytest

import repro
import repro.core.pipeline as pipeline
from repro.web import EcosystemConfig, WebEcosystem


@pytest.fixture(scope="session")
def small_world():
    """A small but complete ecosystem shared by integration tests."""
    config = EcosystemConfig(
        domain_count=2000, seed=42, hoster_count=150, eyeball_count=60
    )
    return WebEcosystem.build(config)


@pytest.fixture
def fresh_python():
    """Run ``code`` with ``python -c`` in a new interpreter that sees this
    checkout's ``src`` (plus ``extra_paths``) and ``environ`` on top of
    this process's environment; return its stdout."""

    def run(code: str, *extra_paths: str, **environ: str) -> str:
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((source, *extra_paths)),
            **environ,
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    return run


@pytest.fixture
def calls(monkeypatch):
    """Count the funnel's step-3 and step-4 computations."""
    counted = {"addresses": 0, "pairs": 0}
    lock = threading.Lock()

    def counting(key, function):
        def wrapper(*args):
            with lock:
                counted[key] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(
        pipeline, "map_single_address",
        counting("addresses", pipeline.map_single_address),
    )
    monkeypatch.setattr(
        pipeline, "validate_single_pair",
        counting("pairs", pipeline.validate_single_pair),
    )
    return counted
