"""Profiling artifacts: folded cProfile stacks and Chrome traces."""

import json
import re

import pytest

from repro.obs import TraceCollector, profile_report, profile_scope

FOLDED_LINE = re.compile(r"^\S.* \d+$")


def workload():
    """Something with a recognisable call edge to profile."""

    def inner(n):
        return sum(i * i for i in range(n))

    return [inner(2_000) for _ in range(50)]


class TestProfileScope:
    def test_scope_yields_a_report(self):
        with profile_scope() as capture:
            workload()
        report = capture.report
        assert report is not None
        assert len(report) > 0
        assert report.total_seconds() > 0
        labels = [entry.label for entry in report.entries]
        assert any("test_obs_profile.py:workload" in label for label in labels)

    def test_report_survives_an_exception(self):
        with pytest.raises(ValueError):
            with profile_scope() as capture:
                workload()
                raise ValueError("benchmark blew up")
        assert capture.report is not None
        assert len(capture.report) > 0

    def test_entries_sorted_by_cumulative_time(self):
        with profile_scope() as capture:
            workload()
        cumulative = [entry.cumulative_s for entry in capture.report.entries]
        assert cumulative == sorted(cumulative, reverse=True)


class TestFoldedOutput:
    def test_folded_lines_are_flamegraph_shaped(self):
        with profile_scope() as capture:
            workload()
        lines = capture.report.folded_lines()
        assert lines
        assert lines == sorted(lines)
        for line in lines:
            assert FOLDED_LINE.match(line)
            # Last whitespace-separated token is the integer µs value.
            assert int(line.rsplit(" ", 1)[1]) > 0

    def test_labels_carry_no_memory_addresses(self):
        """Folded artifacts must be diffable across runs."""
        with profile_scope() as capture:
            workload()
        for line in capture.report.folded_lines():
            assert " at 0x" not in line

    def test_caller_edges_present(self):
        with profile_scope() as capture:
            workload()
        stacks = [
            line.rsplit(" ", 1)[0]
            for line in capture.report.folded_lines()
        ]
        assert any(
            "test_obs_profile.py:workload;" in stack for stack in stacks
        )

    def test_write_folded_roundtrip(self, tmp_path):
        with profile_scope() as capture:
            workload()
        out = tmp_path / "run.folded"
        count = capture.report.write_folded(out)
        written = out.read_text(encoding="utf-8").splitlines()
        assert written == capture.report.folded_lines()
        assert count == len(written)

    def test_top_table_renders(self):
        with profile_scope() as capture:
            workload()
        table = profile_report(capture.report, top=5)
        assert "cumulative ms" in table
        assert "functions profiled" in table


class TestChromeTrace:
    def test_spans_become_complete_events(self, tmp_path):
        tracer = TraceCollector()
        with tracer.span("campaign", seed=7):
            with tracer.span("resolve"):
                pass
            with tracer.span("validate"):
                pass
        trace = tracer.to_chrome_trace()
        events = trace["traceEvents"]
        assert [event["name"] for event in events] == [
            "resolve", "validate", "campaign",
        ]
        assert all(event["ph"] == "X" for event in events)
        assert min(event["ts"] for event in events) == 0.0
        by_name = {event["name"]: event for event in events}
        campaign_id = by_name["campaign"]["args"]["span_id"]
        assert by_name["resolve"]["args"]["parent_id"] == campaign_id
        assert by_name["validate"]["args"]["parent_id"] == campaign_id
        assert "parent_id" not in by_name["campaign"]["args"]
        assert by_name["campaign"]["args"]["seed"] == 7

        out = tmp_path / "trace.json"
        assert tracer.write_chrome_trace(out) == 3
        assert json.loads(out.read_text())["displayTimeUnit"] == "ms"

    def test_open_spans_are_skipped(self):
        tracer = TraceCollector()
        active = tracer.span("open")
        active.__enter__()
        assert tracer.to_chrome_trace()["traceEvents"] == []

