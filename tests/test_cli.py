"""Tests for the ripki command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_importing_the_cli_pulls_in_no_third_party_package(fresh_python):
    """The program is stdlib-only: ``dependencies = []`` in
    pyproject.toml is true of every process, forked workers included."""
    probe = (
        "import sys, repro.cli; "
        "print(sorted({'networkx', 'numpy', 'scipy'} & set(sys.modules)))"
    )
    assert fresh_python(probe) == "[]"


def test_address_and_prefix_have_no_construction_backdoor():
    """``Address`` / ``Prefix`` are built by their validating
    constructors only: nothing outside ``net/addr.py`` allocates one
    bare or reaches for the private fields the old classes had."""
    import pathlib
    import re

    import repro

    backdoor = re.compile(
        r"tuple\.__new__|Prefix\.__new__|Address\.__new__|\._family|\._length"
    )
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path != root / "net" / "addr.py"
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if backdoor.search(line)
    ]
    assert offenders == []


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.domains == 20_000
        assert args.seed == 2015
        assert args.figure is None

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--domains", "500", "--seed", "7",
             "--figure", "2", "--figure", "table1"]
        )
        assert args.domains == 500
        assert args.figure == ["2", "table1"]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--figure", "9"])

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            pytest.param("run", flag, "0", id=flag)
            for flag in ("--workers", "--shard-size", "--job-deadline",
                         "--retries")
        ] + [
            pytest.param(*case, id=" ".join(case))
            for case in [
                *((command, "--domains", "-5") for command in (
                    "run", "refresh", "export", "audit", "serve", "world",
                    "rov",
                )),
                ("run", "--bins", "0"),
                ("run", "--bins", "-2"),
                ("run", "--telemetry-port", "-1"),
                ("run", "--telemetry-port", "65536"),
                ("refresh", "--campaigns", "-1"),
                ("refresh", "--churn", "1.5"),
                ("serve", "--queries", "-1"),
                ("serve", "--zipf", "-1"),
                ("serve", "--io-wait", "-1"),
                ("rtrd", "--sessions", "0"),
                ("rtrd", "--world-changes", "-1"),
                ("rtrd", "--disconnect", "1.5"),
                ("rtrd", "--lag", "1.5"),
                ("rtrd", "--garbage", "1.5"),
                ("world", "--steps", "-1"),
                ("world", "--grace", "-1"),
                ("rov", "--rounds", "0"),
                ("rov", "--vantages", "0"),
                ("rov", "--futures", "-1"),
                ("rov", "--samples", "-1"),
                ("rov", "--enforce-scale", "-1"),
            ]
        ],
    )
    def test_zero_is_a_usage_error_before_any_world_is_built(
        self, command, flag, value, capsys
    ):
        """A zero or otherwise hostile numeric value fails at parse
        time (exit 2), never after a build or by a silent clamp."""
        with pytest.raises(SystemExit) as raised:
            main([command, flag, value])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith(
            f"ripki {command}: error: argument {flag}"
        )
        assert "building" not in captured.out + captured.err

    def test_zero_domains_still_runs(self, capsys):
        assert main(["run", "--domains", "0", "--figure", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestEndToEnd:
    def test_tiny_run_all_figures(self, capsys):
        exit_code = main(["run", "--domains", "300", "--seed", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Section 4 statistics" in out
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "Figure 3" in out
        assert "Figure 4" in out
        assert "Table 1" in out
        assert "199 CDN ASes" in out

    def test_restricted_figures(self, capsys):
        exit_code = main(
            ["run", "--domains", "300", "--seed", "3", "--figure", "2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Figure 3" not in out
        assert "Table 1" not in out

    def test_audit(self, capsys):
        exit_code = main(
            ["audit", "--domains", "300", "--seed", "3",
             "--rank", "1", "--rank", "9999"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Delivery security report" in out
        assert "grade:" in out
        assert "rank 9999 out of range" in out

    def test_export(self, capsys, tmp_path):
        outdir = tmp_path / "data"
        exit_code = main(
            ["export", "--domains", "300", "--seed", "3",
             "--outdir", str(outdir)]
        )
        assert exit_code == 0
        for filename in ("pairs.csv", "domains.csv", "series.csv", "table.dump"):
            assert (outdir / filename).exists(), filename
        out = capsys.readouterr().out
        assert "table.dump" in out
        # The exported dump re-imports cleanly.
        from repro.bgp.dumps import read_dump

        dump = read_dump(outdir / "table.dump")
        assert len(dump) > 0


class TestObservabilityFlags:
    def test_parser_defaults_off(self):
        args = build_parser().parse_args(["run"])
        assert args.progress is False
        assert args.metrics_out is None
        assert args.trace_out is None

    def test_no_flags_no_obs_sections(self, capsys):
        exit_code = main(
            ["run", "--domains", "300", "--seed", "3", "--figure", "table1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Stage timings" not in out
        # No obs state leaks into the process after a plain run.
        from repro.obs.runtime import observability_enabled

        assert not observability_enabled()

    def test_full_obs_run(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "m.prom"
        trace_path = tmp_path / "t.json"
        exit_code = main(
            ["run", "--domains", "300", "--seed", "3", "--figure", "table1",
             "--progress", "--metrics-out", str(metrics_path),
             "--trace-out", str(trace_path)]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Stage timings" in captured.out
        assert "stage.dns" in captured.out
        assert "measured 300/300 domains" in captured.err

        text = metrics_path.read_text()
        assert "ripki_domains_measured_total 300" in text
        # run declares no latency objectives: no SLO gauges in its file.
        assert "ripki_slo_" not in text

        trace = json.loads(trace_path.read_text())
        names = {span["name"] for span in trace["spans"]}
        assert {"stage.rank", "stage.dns", "stage.prefix", "stage.rpki"} <= names

        from repro.obs.runtime import observability_enabled

        assert not observability_enabled()


class TestTelemetryFlags:
    def test_parser_defaults_off(self):
        for command in ("run", "refresh", "serve"):
            args = build_parser().parse_args([command])
            assert args.telemetry_port is None
            assert args.telemetry_host == "127.0.0.1"
            assert args.telemetry_linger == 0.0

    def test_run_with_telemetry_plane(self, capsys, tmp_path):
        metrics_path = tmp_path / "m.prom"
        exit_code = main(
            ["run", "--domains", "300", "--seed", "3", "--figure", "table1",
             "--telemetry-port", "0", "--metrics-out", str(metrics_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "telemetry: http://127.0.0.1:" in out
        assert "/metrics /health /ready /snapshot" in out
        assert "ripki_domains_measured_total 300" in metrics_path.read_text()

        from repro.obs.runtime import observability_enabled

        assert not observability_enabled()

    def test_live_scrape_matches_metrics_out(self, tmp_path):
        """The acceptance pin: a scrape during the linger window is
        byte-identical to the --metrics-out file."""
        import json
        import os
        import subprocess
        import sys
        import time
        import urllib.request

        metrics_path = tmp_path / "m.prom"
        env = dict(os.environ)
        src = str(pytest.importorskip("repro").__file__).rsplit(
            "/repro/", 1
        )[0]
        env["PYTHONPATH"] = src
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli",
             "serve", "--domains", "200", "--seed", "3",
             "--queries", "200",
             "--telemetry-port", "0", "--telemetry-linger", "20",
             "--metrics-out", str(metrics_path)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            url = None
            for line in process.stdout:
                if "telemetry: http://" in line:
                    url = line.split("telemetry: ", 1)[1].split()[0]
                if line.startswith("  telemetry: lingering"):
                    break
            assert url, "telemetry URL never printed"
            deadline = time.monotonic() + 30
            while not metrics_path.exists():
                assert time.monotonic() < deadline
                time.sleep(0.1)
            with urllib.request.urlopen(f"{url}/metrics", timeout=5) as rsp:
                scraped = rsp.read()
            with urllib.request.urlopen(f"{url}/ready", timeout=5) as rsp:
                ready = json.loads(rsp.read())
            assert scraped == metrics_path.read_bytes()
            assert ready["ready"] is True
        finally:
            process.kill()
            process.wait(timeout=10)


def _mask_times(text: str) -> str:
    import re

    return re.sub(r"\d+\.\d+s", "<T>s", text)


def _assert_line_prefixes(text: str, prefixes) -> None:
    """Every prefix starts some line of ``text``, in the given order."""
    lines = iter(text.splitlines())
    for prefix in prefixes:
        assert any(line.startswith(prefix) for line in lines), (
            f"no line starting {prefix!r} (in order) in:\n{text}"
        )


def _metric_families(path) -> set:
    return {
        line.split()[2]
        for line in path.read_text().splitlines()
        if line.startswith("# TYPE ")
    }


def _assert_obs_disabled() -> None:
    from repro.obs.runtime import observability_enabled

    assert not observability_enabled()


class TestEverySubcommand:
    """One tiny in-process run of each subcommand no other test drives.

    The safety net under the command-session lifecycle: exit code,
    the ordered skeleton of stdout, the ``--json`` / ``--metrics-out``
    artifacts, and obs switched back off afterwards.
    """

    def test_refresh(self, capsys, tmp_path):
        metrics_path = tmp_path / "m.prom"
        code = main(
            ["refresh", "--domains", "200", "--seed", "3", "--campaigns", "2",
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _assert_line_prefixes(_mask_times(captured.out), [
            "building world: 200 domains, seed 3 ...",
            "  baseline: 200 domains in <T>s",
            "  campaign 1 (heuristic): 10 re-hosted, ",
            "  campaign 2 (heuristic): 10 re-hosted, ",
            f"  metrics: {metrics_path} (",
        ])
        assert {
            "ripki_domains_measured_total",
            "ripki_refresh_queries_total",
            "ripki_slo_compliance_ratio",
        } <= _metric_families(metrics_path)
        _assert_obs_disabled()

    def test_serve(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "s.json"
        metrics_path = tmp_path / "m.prom"
        code = main(
            ["serve", "--domains", "200", "--seed", "3", "--queries", "100",
             "--telemetry-port", "0", "--json", str(json_path),
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _assert_line_prefixes(_mask_times(captured.out), [
            "  telemetry: http://127.0.0.1:",
            "building world: 200 domains, seed 3 ...",
            "  index built in <T>s: <ServingIndex 200 domains, ",
            "  load: 100 queries (zipf 1.1, seed 3)",
            "  served in <T>s, serial dispatch",
            "== Query service (100 queries) ==",
            "query kind ",
            "verdict ",
            "degraded answers: 0 ",
            "throughput: ",
            f"  summary: {json_path}",
            f"  metrics: {metrics_path} (",
        ])
        assert "lingering" not in captured.out
        summary = json.loads(json_path.read_text())
        assert sorted(summary) == [
            "by_kind", "degraded", "elapsed_s", "qps", "queries", "verdicts",
        ]
        assert summary["queries"] == 100
        assert {
            "ripki_serve_queries_total",
            "ripki_serve_latency_seconds",
            "ripki_slo_compliance_ratio",
        } <= _metric_families(metrics_path)
        _assert_obs_disabled()

    def test_rtrd(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "r.json"
        metrics_path = tmp_path / "m.prom"
        code = main(
            ["rtrd", "--vrps", "150", "--seed", "3", "--sessions", "8",
             "--rounds", "2", "--world-changes", "10",
             "--json", str(json_path), "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _assert_line_prefixes(_mask_times(captured.out), [
            "building VRP world: 150 VRPs, seed 3 ...",
            "  8/8 sessions synchronized at serial 1",
            "  2 churn rounds in <T>s, serial dispatch",
            "== RTR daemon (8 sessions) ==",
            "sessions ",
            "publishes ",
            "pushed bytes: ",
            "  all surviving router tables identical to the cache snapshot",
            f"  summary: {json_path}",
            f"  metrics: {metrics_path} (",
        ])
        summary = json.loads(json_path.read_text())
        assert {
            "churn", "delta_saving_ratio", "publishes", "serial",
            "sessions", "synchronized",
        } <= set(summary)
        assert summary["churn"]["converged"] and not summary["churn"]["diverged"]
        assert {
            "ripki_rtrd_publishes_total",
            "ripki_rtr_cache_serial",
            "ripki_slo_compliance_ratio",
        } <= _metric_families(metrics_path)
        _assert_obs_disabled()

    def test_world(self, capsys, monkeypatch, tmp_path):
        import json
        import tempfile

        # Without --cache-dir the run caches in a temporary directory,
        # which must be gone when it returns.
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        json_path = tmp_path / "w.json"
        metrics_path = tmp_path / "m.prom"
        code = main(
            ["world", "--domains", "200", "--seed", "3", "--steps", "3",
             "--json", str(json_path), "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _assert_line_prefixes(_mask_times(captured.out), [
            "building world: 200 domains, seed 3 ...",
            "  13 certificate authorities, 13 VRPs at step 0 "
            "('sloppy-ca' profile)",
            "  baseline: 200 domains, 13 VRPs announced to RTR in <T>s",
            "  step 1: 12 VRPs (+0/-1), ",
            "    events: ",
            "  step 2: ",
            "  step 3: ",
            "== World (3 steps, 'sloppy-ca') ==",
            "profile ",
            "event kind ",
            "ledger digest: ",
            "cache artifacts invalidated: ",
            f"  summary: {json_path}",
            f"  metrics: {metrics_path} (",
        ])
        payload = json.loads(json_path.read_text())
        assert sorted(payload) == [
            "invalidated_artifacts", "ledger", "rtr_delta_entries", "summary",
        ]
        assert payload["summary"]["steps"] == 3
        assert {
            "ripki_cache_hits_total",
            "ripki_refresh_queries_total",
            "ripki_rtrd_publishes_total",
            "ripki_slo_compliance_ratio",
        } <= _metric_families(metrics_path)
        _assert_obs_disabled()
        assert not list(scratch.glob("ripki-world-*"))

    ROV_ARGS = ["rov", "--domains", "120", "--seed", "3", "--rounds", "4",
                "--vantages", "4", "--futures", "1", "--samples", "2"]
    ROV_SKELETON = [
        "building ecosystem: 120 domains, seed 3 ...",
        "  campaign: 4 rounds x 4 vantages over 302 ASes "
        "(70 truly enforcing) in <T>s",
        "  snippet: 25|17|10|0|0 ",
        "  what-if: 4 futures x 2 hijack replays in <T>s",
        "== ROV (302 ASes, 4 futures) ==",
        "verdict ",
        "campaign: 4 rounds, ",
        "verdict digest: ",
        "future ",
        "full-rov ",
        "future-000 ",
    ]
    ROV_KEYS = ["ases", "baseline", "census", "domains", "experiment",
                "futures", "seed", "true_enforcing"]

    def test_rov(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "rov.json"
        metrics_path = tmp_path / "m.prom"
        code = main(
            self.ROV_ARGS
            + ["--json", str(json_path), "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _assert_line_prefixes(_mask_times(captured.out), self.ROV_SKELETON + [
            f"  summary: {json_path}",
            f"  metrics: {metrics_path} (",
        ])
        assert sorted(json.loads(json_path.read_text())) == self.ROV_KEYS
        families = _metric_families(metrics_path)
        assert {
            "ripki_rov_experiments_total",
            "ripki_rov_verdicts_total",
            "ripki_rov_futures_total",
        } <= families
        # rov declares no latency objectives: nothing exports SLO gauges.
        assert not any(name.startswith("ripki_slo_") for name in families)
        _assert_obs_disabled()

    def test_rov_bare_json_owns_stdout(self, capsys):
        import json

        code = main(self.ROV_ARGS + ["--json"])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert sorted(summary) == self.ROV_KEYS
        assert summary["seed"] == 3 and summary["domains"] == 120
        _assert_line_prefixes(_mask_times(captured.err), self.ROV_SKELETON)
        assert "summary:" not in captured.err
        _assert_obs_disabled()

    def test_failure_stops_telemetry_and_disables_obs(self, capsys):
        import re
        import socket

        with pytest.raises(FileNotFoundError):
            main(
                ["serve", "--domains", "120", "--script", "/nonexistent",
                 "--telemetry-port", "0"]
            )
        out = capsys.readouterr().out
        port = int(
            re.search(r"telemetry: http://127\.0\.0\.1:(\d+) ", out).group(1)
        )
        assert "lingering" not in out
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()
        _assert_obs_disabled()


class TestRovOffersOnlyWhatItHonours:
    """``rov`` inherited the study executor's whole flag group, so an
    unsupported mode died with a raw ValueError traceback and two
    flags were accepted and silently ignored.  It now takes only
    ``--workers``: more than one runs the process pool."""

    def test_workers_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["rov", "--domains", "120", "--exec-mode", "workers"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ripki ")
        assert "unrecognized arguments: --exec-mode workers" in err

    @pytest.mark.parametrize(
        "flag", [["--shard-size", "10"], ["--job-deadline", "2"]]
    )
    def test_ignored_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["rov", *flag])
        assert raised.value.code == 2
        for command in ("run", "world"):
            build_parser().parse_args([command, *flag])

    def test_bare_json_with_telemetry_keeps_stdout_pure(self, capsys):
        """The telemetry banner follows the tables to stderr."""
        import json

        code = main(
            TestEverySubcommand.ROV_ARGS + ["--json", "--telemetry-port", "0"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert sorted(json.loads(captured.out)) == TestEverySubcommand.ROV_KEYS
        assert captured.err.startswith("  telemetry: http://127.0.0.1:")
        _assert_obs_disabled()


def _printed(argv, capsys) -> str:
    """What a command prints, wall-clock figures and padding masked."""
    import re

    assert main(argv) == 0
    out = re.sub(r"\d+\.\d+", "<N>", capsys.readouterr().out)
    return " ".join(out.split())


class TestFlagsChangeOutputs:
    """The ``EFFECT`` rows of ``test_settings_reachability.py`` for
    CLI flags: each flag, set off its default, changes what its
    command prints or exports."""

    def test_bins_rebins_the_figures(self, capsys):
        argv = ["run", "--domains", "100", "--figure", "1"]
        assert _printed(argv, capsys) != _printed(
            argv + ["--bins", "7"], capsys
        )

    def test_run_retries_changes_what_degrades(self, capsys):
        argv = ["run", "--domains", "200", "--figure", "table1",
                "--fault-profile", "flaky"]
        assert _printed(argv, capsys) != _printed(
            argv + ["--retries", "1"], capsys
        )

    def test_history_decides_diff_or_snapshot(self, capsys):
        argv = ["rtrd", "--vrps", "100", "--sessions", "8", "--rounds", "3"]
        assert _printed(argv, capsys) != _printed(
            argv + ["--history", "0"], capsys
        )

    def test_grace_decides_when_stale_points_drop(self, capsys):
        argv = ["world", "--domains", "100", "--steps", "4"]
        assert _printed(argv, capsys) != _printed(
            argv + ["--grace", "0"], capsys
        )

    def test_world_retries_changes_what_degrades(self, tmp_path):
        def degraded(*extra):
            metrics = tmp_path / "world.prom"
            assert main(["world", "--domains", "100", "--steps", "0",
                         "--fault-profile", "flaky",
                         "--metrics-out", str(metrics), *extra]) == 0
            return [
                line for line in metrics.read_text().splitlines()
                if line.startswith("ripki_degraded_domains_total ")
            ]

        assert degraded() != degraded("--retries", "1")


def _opt(*flags, default=None, choices=None):
    return (flags, default, choices)


_FAULT_PROFILES = ("chaos", "degraded", "flaky", "unreliable-workers")
_TELEMETRY = {
    "telemetry_port": _opt("--telemetry-port"),
    "telemetry_host": _opt("--telemetry-host", default="127.0.0.1"),
    "telemetry_linger": _opt("--telemetry-linger", default=0.0),
}
_EXECUTOR = {
    "workers": _opt("--workers", "--num-workers", default=1),
    "exec_mode": _opt(
        "--exec-mode", default="auto",
        choices=("auto", "serial", "thread", "process", "workers"),
    ),
    "shard_size": _opt("--shard-size"),
    "job_deadline": _opt("--job-deadline"),
}
_FAULTS = {
    "fault_profile": _opt("--fault-profile", choices=_FAULT_PROFILES),
    "retries": _opt("--retries", default=3),
}
_DISPATCH = {
    "workers": _opt("--workers", default=1),
}
_THREAD_MODES = ("auto", "serial", "thread")

PARSER_SURFACE = {
    "run": {
        **_EXECUTOR, **_FAULTS, **_TELEMETRY,
        "domains": _opt("--domains", default=20_000),
        "seed": _opt("--seed", default=2015),
        "bins": _opt("--bins"),
        "figure": _opt(
            "--figure", choices=("1", "2", "3", "4", "table1", "cdn-as")
        ),
        "progress": _opt("--progress", default=False),
        "metrics_out": _opt("--metrics-out"),
        "trace_out": _opt("--trace-out"),
        "cache_dir": _opt("--cache-dir"),
    },
    "refresh": {
        **_TELEMETRY,
        "domains": _opt("--domains", default=5_000),
        "seed": _opt("--seed", default=2015),
        "campaigns": _opt("--campaigns", default=3),
        "churn": _opt("--churn", default=0.05),
        "cache_dir": _opt("--cache-dir"),
        "metrics_out": _opt("--metrics-out"),
    },
    "export": {
        "domains": _opt("--domains", default=20_000),
        "seed": _opt("--seed", default=2015),
        "outdir": _opt("--outdir", default="ripki-data"),
    },
    "audit": {
        "domains": _opt("--domains", default=5_000),
        "seed": _opt("--seed", default=2015),
        "rank": _opt("--rank"),
    },
    "serve": {
        **_DISPATCH, **_TELEMETRY,
        "domains": _opt("--domains", default=2_000),
        "seed": _opt("--seed", default=2015),
        "cache_dir": _opt("--cache-dir"),
        "script": _opt("--script"),
        "queries": _opt("--queries", default=2_000),
        "load_seed": _opt("--load-seed"),
        "zipf": _opt("--zipf", default=1.1),
        "serve_mode": _opt(
            "--serve-mode", default="auto", choices=_THREAD_MODES
        ),
        "io_wait": _opt("--io-wait", default=0.0),
        "fault_profile": _opt("--fault-profile", choices=_FAULT_PROFILES),
        "json": _opt("--json"),
        "metrics_out": _opt("--metrics-out"),
    },
    "rtrd": {
        **_DISPATCH, **_TELEMETRY,
        "vrps": _opt("--vrps", default=2_000),
        "seed": _opt("--seed", default=2015),
        "sessions": _opt("--sessions", default=64),
        "rounds": _opt("--rounds", default=8),
        "world_changes": _opt("--world-changes", default=50),
        "disconnect": _opt("--disconnect", default=0.05),
        "lag": _opt("--lag", default=0.1),
        "garbage": _opt("--garbage", default=0.05),
        "history": _opt("--history", default=16),
        "rtrd_mode": _opt(
            "--rtrd-mode", default="auto", choices=_THREAD_MODES
        ),
        "json": _opt("--json"),
        "metrics_out": _opt("--metrics-out"),
    },
    "world": {
        **_EXECUTOR, **_FAULTS, **_TELEMETRY,
        "domains": _opt("--domains", default=2_000),
        "seed": _opt("--seed", default=2015),
        "profile": _opt(
            "--profile", default="sloppy-ca",
            choices=("calm", "flap", "rollover-storm", "sloppy-ca"),
        ),
        "steps": _opt("--steps", default=20),
        "grace": _opt("--grace", default=2.0),
        "cache_dir": _opt("--cache-dir"),
        "json": _opt("--json"),
        "metrics_out": _opt("--metrics-out"),
    },
    "rov": {
        **_TELEMETRY,
        "workers": _EXECUTOR["workers"],
        "domains": _opt("--domains", default=600),
        "seed": _opt("--seed", default=2015),
        "rounds": _opt("--rounds", default=48),
        "vantages": _opt("--vantages", default=10),
        "enforce_scale": _opt("--enforce-scale", default=1.0),
        "futures": _opt("--futures", default=8),
        "samples": _opt("--samples", default=12),
        "json": _opt("--json"),
        "metrics_out": _opt("--metrics-out"),
    },
}


def test_parser_surface_is_pinned():
    """Every subcommand's flags, defaults and choices, as one literal.

    A flag added, lost or re-defaulted is a diff against
    ``PARSER_SURFACE`` — version-independent, unlike ``--help`` text.
    """
    import argparse

    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {
        command: {
            action.dest: (
                tuple(action.option_strings),
                action.default,
                None if action.choices is None else tuple(action.choices),
            )
            for action in parser._actions
            if action.dest != "help"
        }
        for command, parser in commands.choices.items()
    }
    assert surface == PARSER_SURFACE
