"""Golden-file tests pinning the user-facing output of a fixed run.

The artifacts of a ``--domains 400 --seed 2015`` study are pinned
byte-for-byte under ``tests/goldens/``:

* ``run_stdout.txt`` — the CLI's complete stdout (wall-clock figures
  masked as ``<T>s``),
* ``run_stdout_workers.txt`` — the same run through ``--exec-mode
  workers --workers 2``, including the job-scheduler report table
  (load-balancing counters — stolen/re-dispatched/duplicates — are
  timing-dependent and masked as ``<N>``),
* ``metrics.prom`` — the exact Prometheus exposition of an observed
  run (every histogram in the pipeline observes counts, not
  durations, so the text is deterministic),
* ``stage_timings.txt`` — the stage-timing table reduced to its
  deterministic cells (span names, counts, error counts; the time
  columns vary by machine),
* ``run_stdout_flaky.txt`` / ``metrics_flaky.prom`` — the CLI stdout
  and the observed exposition of the same study under the ``flaky``
  fault profile (retries, degraded forms and the fault counters),
* ``rov_whatif.json`` — the ROV campaign's verdict histogram and
  replay digest plus the exposure deltas of the three named adoption
  futures (``cdn-top5-sign``, ``tier1-enforce``, ``full-rov``),
* ``rtrd_summary.json`` / ``rtrd_metrics.prom`` — the ``--json``
  summary and the ``--metrics-out`` exposition of an ``rtrd`` run
  under the default disconnect, lag and garbage churn, less the
  wall-clock fields (``elapsed_s``, ``push_p50_ms``, ``push_p99_ms``)
  and the ``_seconds`` / ``ripki_slo_`` lines.

Regenerate after an intentional output change with::

    PYTHONPATH=src python tests/test_golden_outputs.py --regen
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from repro.core import MeasurementStudy, RunConfig
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, TraceCollector, scope, timing_table
from repro.web import EcosystemConfig, WebEcosystem

GOLDEN_DIR = Path(__file__).parent / "goldens"
DOMAINS = 400
SEED = 2015

CLI_ARGV = [
    "run",
    "--domains", str(DOMAINS),
    "--seed", str(SEED),
    "--figure", "table1",
    "--figure", "cdn-as",
]

WORKERS_CLI_ARGV = CLI_ARGV + ["--exec-mode", "workers", "--workers", "2"]

FLAKY_CLI_ARGV = [
    "run",
    "--domains", str(DOMAINS),
    "--seed", str(SEED),
    "--fault-profile", "flaky",
]

RTRD_CLI_ARGV = [
    "rtrd",
    "--vrps", "500",
    "--sessions", "40",
    "--rounds", "6",
    "--seed", str(SEED),
]

# What an rtrd run reports that the wall clock decides.
RTRD_TIMED_FIELDS = ("elapsed_s", "push_p50_ms", "push_p99_ms")

_REGEN_HINT = (
    "golden mismatch for {name}; if the change is intentional, run\n"
    "  PYTHONPATH=src python tests/test_golden_outputs.py --regen"
)


def _mask_times(text: str) -> str:
    return re.sub(r"\d+\.\d+s", "<T>s", text)


def _mask_scheduler(text: str) -> str:
    """Mask the load-balancing counters of the scheduler table.

    How many jobs were stolen (or re-dispatched past a deadline) is a
    race between workers; everything else in the table is pinned.
    """
    return re.sub(
        r"^(re-dispatched|duplicate results|jobs stolen)(\s+)\d+ *$",
        lambda match: f"{match.group(1)}{match.group(2)}<N>",
        text,
        flags=re.MULTILINE,
    )


def _normalize_timings(table: str) -> str:
    """Keep the deterministic columns of a timing table.

    Rows render as ``span count total-s mean-ms min-ms max-ms errors``;
    only the span name, the count and the error count are stable
    across machines.
    """
    lines = []
    for line in table.splitlines()[2:]:  # skip header + rule
        fields = line.split()
        if len(fields) != 7:
            continue
        lines.append(f"{fields[0]} count={fields[1]} errors={fields[6]}")
    return "\n".join(lines) + "\n"


def _cli_stdout(argv=CLI_ARGV) -> str:
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return _mask_times(buffer.getvalue())


def _observed_artifacts(config=None):
    world = WebEcosystem.build(
        EcosystemConfig(domain_count=DOMAINS, seed=SEED)
    )
    study = MeasurementStudy.from_ecosystem(world)
    registry = MetricsRegistry()
    collector = TraceCollector()
    with scope(registry, collector):
        study.run(config=config)
    metrics_text = registry.render_prometheus()
    timings_text = _normalize_timings(timing_table(collector.aggregate()))
    return metrics_text, timings_text


def _rov_artifact() -> str:
    from repro.rov import (
        ExperimentSpec,
        RovExperimentRunner,
        WhatIfEngine,
        named_futures,
        seeded_enforcers,
    )

    world = WebEcosystem.build(
        EcosystemConfig(domain_count=DOMAINS, seed=SEED)
    )
    enforcing = seeded_enforcers(world.topology, seed=SEED)
    spec = ExperimentSpec(rounds=24, vantage_count=8, seed=SEED)
    report = RovExperimentRunner(world.topology, enforcing, spec).run()
    engine = WhatIfEngine(world, hijack_samples=10, seed=SEED)
    payload = {
        "experiment": {
            "digest": report.digest,
            "histogram": report.histogram(),
            "annotations": {
                str(code): count
                for code, count in sorted(report.annotations.items())
            },
            "snippet": report.snippet_line(enforcing),
        },
        "futures": {
            delta.future: delta.to_dict()
            for delta in engine.run_futures(named_futures(world))
        },
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _rtrd_artifacts():
    """The masked ``--json`` summary and exposition of an rtrd run."""
    with tempfile.TemporaryDirectory() as tmp:
        summary_path = Path(tmp) / "rtrd.json"
        metrics_path = Path(tmp) / "rtrd.prom"
        _cli_stdout(RTRD_CLI_ARGV + [
            "--json", str(summary_path),
            "--metrics-out", str(metrics_path),
        ])
        summary = json.loads(summary_path.read_text())
        exposition = metrics_path.read_text()
    for field in RTRD_TIMED_FIELDS:
        del summary[field]
    metrics_text = "".join(
        line
        for line in exposition.splitlines(keepends=True)
        if "_seconds" not in line and "ripki_slo_" not in line
    )
    return json.dumps(summary, indent=1, sort_keys=True) + "\n", metrics_text


def _generate_all():
    metrics_text, timings_text = _observed_artifacts()
    flaky_metrics_text, _ = _observed_artifacts(
        RunConfig(faults=FaultPlan.from_profile("flaky", seed=SEED))
    )
    rtrd_summary, rtrd_metrics = _rtrd_artifacts()
    return {
        "run_stdout.txt": _cli_stdout(),
        "run_stdout_workers.txt": _mask_scheduler(
            _cli_stdout(WORKERS_CLI_ARGV)
        ),
        "metrics.prom": metrics_text,
        "stage_timings.txt": timings_text,
        "rov_whatif.json": _rov_artifact(),
        "run_stdout_flaky.txt": _cli_stdout(FLAKY_CLI_ARGV),
        "metrics_flaky.prom": flaky_metrics_text,
        "rtrd_summary.json": rtrd_summary,
        "rtrd_metrics.prom": rtrd_metrics,
    }


@pytest.fixture(scope="module")
def generated():
    return _generate_all()


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "name",
        ["run_stdout.txt", "run_stdout_workers.txt", "metrics.prom",
         "stage_timings.txt", "rov_whatif.json", "run_stdout_flaky.txt",
         "metrics_flaky.prom", "rtrd_summary.json", "rtrd_metrics.prom"],
    )
    def test_matches_golden(self, generated, name):
        path = GOLDEN_DIR / name
        assert path.exists(), f"missing golden {path}; regenerate first"
        assert generated[name] == path.read_text(), _REGEN_HINT.format(
            name=name
        )

    def test_stdout_masks_wallclock_only(self, generated):
        text = generated["run_stdout.txt"]
        assert "<T>s" in text
        assert not re.search(r"\d+\.\d+s", text)
        # The funnel summary survives masking.
        assert "== Section 4 statistics ==" in text
        assert "== Table 1: top domains with RPKI coverage ==" in text

    def test_workers_stdout_pins_scheduler_report(self, generated):
        text = generated["run_stdout_workers.txt"]
        assert "== Job scheduler ==" in text
        assert re.search(r"backend\s+workers", text)
        assert re.search(r"jobs stolen\s+<N>", text)
        # The measurement sections must match the serial stdout exactly:
        # scheduling is presentation, not data.
        serial = generated["run_stdout.txt"]
        marker = "== Table 1: top domains with RPKI coverage =="
        assert text.split(marker)[1] == serial.split(marker)[1]

    def test_process_backend_is_hash_seed_independent(
        self, fresh_python, tmp_path
    ):
        """Pool children are separate interpreters: nothing a shard
        returns may depend on ``hash()`` order."""
        metrics_path = tmp_path / "metrics.prom"
        argv = CLI_ARGV + [
            "--workers", "2", "--exec-mode", "process",
            "--metrics-out", str(metrics_path),
        ]
        code = f"from repro.cli import main; main({argv!r})"
        runs = set()
        for hash_seed in ("0", "1", "12345"):
            stdout = fresh_python(code, PYTHONHASHSEED=hash_seed)
            head, _, table = stdout.partition("== Stage timings ==\n")
            assert "shard.run" in table
            runs.add((
                _mask_times(head) + _normalize_timings(table),
                metrics_path.read_bytes(),
            ))
        assert len(runs) == 1

    def test_rtrd_golden_runs_under_churn(self, generated):
        churn = json.loads(generated["rtrd_summary.json"])["churn"]
        for kind in ("disconnects", "revives", "garbage_frames",
                     "lag_assignments"):
            assert churn[kind] > 0, kind
        assert churn["converged"] and not churn["diverged"]
        assert "ripki_rtr_client_pdus_total" in generated["rtrd_metrics.prom"]

    def test_metrics_exposition_is_self_describing(self, generated):
        text = generated["metrics.prom"]
        for metric in (
            "ripki_domains_measured_total",
            "ripki_dns_resolutions_total",
            "ripki_prefix_lookups_total",
            "ripki_rpki_validations_total",
        ):
            assert f"# HELP {metric}" in text
            assert f"# TYPE {metric}" in text


def _regen() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, content in _generate_all().items():
        (GOLDEN_DIR / name).write_text(content)
        print(f"wrote {GOLDEN_DIR / name} ({len(content)} bytes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
