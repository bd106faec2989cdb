"""The CI jobs' artifact checks, as tier-1 tests.

Each case drives ``main([...])`` with the arguments its former
``.github/workflows/ci.yml`` job passed and asserts on the artifacts
in ``tmp_path``, so whoever changes a check can also run it.
"""

import importlib.util
import json
import re
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.cli
from repro.cli import main
from repro.obs import registry_from_snapshot

PROM = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "prom.py"


def read_counters(path):
    """The parse the remaining CI heredocs share (one copy: ``prom.py``)."""
    spec = importlib.util.spec_from_file_location("prom", PROM)
    prom = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(prom)
    return prom.read_counters(path)


def test_smoke_run_with_metrics(tmp_path):
    """Was the ``smoke`` job: one observed run, metrics and trace checked."""
    metrics_path = tmp_path / "m.prom"
    trace_path = tmp_path / "t.json"
    code = main(
        ["run", "--domains", "500", "--figure", "table1",
         "--metrics-out", str(metrics_path), "--trace-out", str(trace_path)]
    )
    assert code == 0
    counters = read_counters(metrics_path)

    # Every funnel stage observed work.
    for name in (
        "ripki_domains_measured_total",
        "ripki_dns_resolutions_total",
        "ripki_prefix_lookups_total",
    ):
        assert counters.get(name), f"stage counter {name} is missing or zero"
    rpki_total = sum(
        value for name, value in counters.items()
        if name.startswith("ripki_rpki_validations_total")
    )
    assert rpki_total, "no RPKI validations recorded"

    # The trace names the stages and the world build's own spans.
    spans = {
        span["name"] for span in json.loads(trace_path.read_text())["spans"]
    }
    assert len(spans) >= 4, sorted(spans)
    assert {"web.ecosystem.build", "bgp.propagation.propagate"} <= spans

    # Structural, not a timing: sharing trees across announcements
    # with one origination key is what keeps the build cheap.
    announcements = counters.get("ripki_bgp_announcements_total", 0)
    route_trees = counters.get("ripki_bgp_route_trees_total", 0)
    assert 0 < route_trees <= announcements


def test_rtr_serve_churn(tmp_path):
    """Was the ``rtr-serve`` job: a 1000-session churn converges."""
    summary_path = tmp_path / "rtrd.json"
    code = main(
        ["rtrd", "--vrps", "500", "--sessions", "1000", "--rounds", "3",
         "--workers", "4", "--world-changes", "50",
         "--json", str(summary_path),
         "--metrics-out", str(tmp_path / "rtrd.prom")]
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())

    # Every session ended synchronized, none left quarantined after
    # the final restart pass.
    assert summary["synchronized"] == 1000
    assert summary["quarantined"] == 0
    # The churn run converged bit-identically.
    churn = summary["churn"]
    assert churn["converged"] and churn["diverged"] == 0, churn
    # Diffs were cheaper than re-snapshotting every notified router.
    assert summary["delta_saving_ratio"] > 1.0, summary
    # Push-latency quantiles were recorded.
    assert summary["push_p99_ms"]


def _run_args(*extra):
    return ["run", "--domains", "2000", "--seed", "2015", *extra]


def _family_total(counters, family):
    return sum(
        value for name, value in counters.items() if name.startswith(family)
    )


def test_cache_cold_then_warm(tmp_path):
    """Was the ``cache`` job: a warm run recomputes nothing, ticks the same."""
    cache_dir = str(tmp_path / "snap")
    cold_path, warm_path = tmp_path / "cold.prom", tmp_path / "warm.prom"
    for path in (cold_path, warm_path):
        code = main(_run_args(
            "--cache-dir", cache_dir, "--metrics-out", str(path)
        ))
        assert code == 0
    cold, warm = read_counters(cold_path), read_counters(warm_path)
    assert _family_total(warm, "ripki_cache_hits_total") > 0
    assert _family_total(warm, "ripki_cache_misses_total") == 0

    def strip_cache(counters):
        return {
            name: value for name, value in counters.items()
            if not name.startswith("ripki_cache_")
        }

    assert strip_cache(warm) == strip_cache(cold)


def test_fault_profile_accounts_degradation(tmp_path):
    """Was the ``faults`` job (and ``parallel``'s flags): a 4-worker
    fault-injected run records its degradation, retries and faults."""
    metrics_path = tmp_path / "faults.prom"
    code = main(_run_args(
        "--fault-profile", "flaky", "--workers", "4",
        "--progress", "--figure", "table1",
        "--metrics-out", str(metrics_path),
    ))
    assert code == 0
    counters = read_counters(metrics_path)
    for name in ("ripki_degraded_domains_total", "ripki_retries_total"):
        assert counters.get(name), f"resilience counter {name} missing or zero"
    assert _family_total(counters, "ripki_faults_injected_total"), (
        "no injected faults recorded"
    )


def test_serve_loadgen_matches_golden(tmp_path):
    """Was the ``serve`` job: a flaky 4-worker load keeps the golden
    verdict histogram and accounts its degradation."""
    summary_path, metrics_path = tmp_path / "serve.json", tmp_path / "serve.prom"
    code = main(
        ["serve", "--domains", "400", "--seed", "2015", "--queries", "2000",
         "--workers", "4", "--fault-profile", "flaky",
         "--json", str(summary_path), "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    golden = json.loads(
        (Path(__file__).parent / "goldens" / "serve_summary.json").read_text()
    )

    assert summary["qps"] > 0
    for kind, entry in summary["by_kind"].items():
        assert 0 < entry["p99_ms"] < 1000, (kind, entry)
    assert summary["verdicts"] == golden["verdicts"]
    assert summary["degraded"] == golden["flaky_degraded"]
    degraded = _family_total(
        read_counters(metrics_path), "ripki_serve_degraded_total"
    )
    assert degraded == sum(summary["degraded"].values())


def test_rov_replays_across_backends(tmp_path, capsys):
    """Was the ``rov`` job: adoption inference and what-if futures,
    replayed byte-identically on a 2-worker process pool."""
    first_path, second_path = tmp_path / "rov1.json", tmp_path / "rov2.json"
    assert main(["rov", "--futures", "25", "--json", str(first_path)]) == 0
    assert main(
        ["rov", "--futures", "25", "--json", str(second_path),
         "--workers", "2"]
    ) == 0
    # Cross-process / cross-backend determinism, byte for byte: the
    # pool run writes the serial run's file.
    assert first_path.read_bytes() == second_path.read_bytes()
    first = json.loads(first_path.read_text())

    # The campaign pinpointed enforcing ASes, proved others
    # non-enforcing, and reported no false positives.
    histogram = first["experiment"]["histogram"]
    assert histogram["enforcing"], histogram
    assert histogram["non_enforcing"], histogram
    assert first["experiment"]["snippet"].split("|")[-1] == "0"
    # 3 named futures + 25 sampled; universal ROV reduces hijack capture.
    futures = first["futures"]
    assert len(futures) == 28
    full_rov = next(f for f in futures if f["future"] == "full-rov")
    assert full_rov["deltas"]["hijack_capture_mean"] < 0, full_rov

    # rov picks its backend from --workers: --exec-mode is unrecognized.
    with pytest.raises(SystemExit) as usage:
        main(["rov", "--exec-mode", "process"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --exec-mode" in capsys.readouterr().err


def test_world_churn_reaches_cache_rtr_and_ledger(tmp_path):
    """Was the ``world`` job, at 400 domains instead of 1 000: 25
    ``sloppy-ca`` steps of CA churn reach the cache, the RTR feed and
    the ledger, and a bare engine replays the ledger digest."""
    from repro.web import EcosystemConfig, WebEcosystem
    from repro.world import WorldConfig, WorldEngine

    json_path, metrics_path = tmp_path / "world.json", tmp_path / "world.prom"
    code = main(
        ["world", "--domains", "400", "--seed", "2015",
         "--profile", "sloppy-ca", "--steps", "25",
         "--json", str(json_path), "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    summary = payload["summary"]
    assert summary["steps"] == 25, "world did not complete every step"
    assert summary["vrps_added_total"] and summary["vrps_removed_total"], (
        "no VRP churn recorded"
    )
    assert summary["stale_point_observations"], (
        "sloppy-ca opened no stale windows"
    )
    assert payload["invalidated_artifacts"], (
        "churn never invalidated a cached artifact"
    )
    assert payload["rtr_delta_entries"], "churn never reached the RTR wire"
    assert len(payload["ledger"]) == sum(summary["events_by_kind"].values()), (
        "ledger rows disagree with the event counts"
    )
    counters = read_counters(metrics_path)
    assert _family_total(counters, "ripki_cache_invalidated_total") == (
        payload["invalidated_artifacts"]
    )

    # Replay: the same seed and profile rebuild the CLI run's ledger.
    world = WebEcosystem.build(EcosystemConfig(domain_count=400, seed=2015))
    engine = WorldEngine.from_ecosystem(
        world, WorldConfig(profile="sloppy-ca", seed=2015)
    )
    engine.run(25)
    assert engine.ledger.digest() == summary["ledger_digest"], (
        "replay digest diverges from the CLI run"
    )


def _get(url):
    """Status and body of one GET, error statuses included."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_telemetry_endpoints_match_artifacts(tmp_path, capsys, monkeypatch):
    """Was the ``telemetry`` job: the live endpoints, scraped during the
    linger window, agree with the artifacts the run wrote."""
    summary_path, metrics_path = tmp_path / "serve.json", tmp_path / "serve.prom"
    linger = 120
    scraped = {}
    sleep = repro.cli.time.sleep

    def scrape(seconds):
        # The CLI's linger sleep: scrape instead of waiting.
        if seconds != linger:
            return sleep(seconds)
        url = re.search(
            rf"lingering {linger}s at (http://\S+)", capsys.readouterr().out
        ).group(1)
        for path in ("/metrics", "/health", "/ready", "/snapshot"):
            scraped[path] = _get(url + path)

    monkeypatch.setattr(repro.cli.time, "sleep", scrape)
    code = main(
        ["serve", "--domains", "400", "--seed", "2015", "--queries", "2000",
         "--workers", "4", "--telemetry-port", "0",
         "--telemetry-linger", str(linger),
         "--json", str(summary_path), "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    assert set(scraped) == {"/metrics", "/health", "/ready", "/snapshot"}

    # /metrics is byte-identical to --metrics-out and carries the SLO
    # gauges.
    status, metrics_text = scraped["/metrics"]
    assert status == 200
    assert metrics_text == metrics_path.read_bytes()
    assert b"ripki_slo_compliance_ratio" in metrics_text

    # /health is ready after the run and names every input digest.
    status, body = scraped["/health"]
    health = json.loads(body)
    assert status == 200 and health["ready"], health
    assert set(health["digests"]) >= {"zone", "dump", "vrps", "config"}

    # /ready is 200 on fresh state.
    assert scraped["/ready"][0] == 200

    # /snapshot rebuilds the scraped exposition exactly.
    status, body = scraped["/snapshot"]
    assert status == 200
    rebuilt = registry_from_snapshot(json.loads(body)).render_prometheus()
    assert rebuilt.encode("utf-8") == metrics_text
