"""Progress-callback cadence."""

import io

import pytest

from repro.obs.progress import (
    ProgressEvent,
    ProgressReporter,
    stderr_renderer,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestProgressCadence:
    def test_stride_cadence_is_deterministic(self):
        events = []
        reporter = ProgressReporter(
            total=10, callback=events.append, every=3, min_interval=-1,
            clock=FakeClock(),
        )
        for _ in range(10):
            reporter.tick()
        reporter.done()
        # Events at counts 3, 6, 9, plus the final one at 10.
        assert [event.count for event in events] == [3, 6, 9, 10]
        assert events[-1].finished
        assert not events[0].finished

    def test_time_cadence_throttles(self):
        clock = FakeClock()
        events = []
        reporter = ProgressReporter(
            total=100, callback=events.append, min_interval=1.0, clock=clock
        )
        for index in range(100):
            clock.now += 0.1  # 10 ticks per simulated second
            reporter.tick()
        reporter.done()
        # ~one event per simulated second plus the final event.
        assert 10 <= len(events) <= 12

    def test_rate_and_eta(self):
        clock = FakeClock()
        events = []
        reporter = ProgressReporter(
            total=100, callback=events.append, every=50, min_interval=-1,
            clock=clock,
        )
        for _ in range(50):
            clock.now += 0.1
            reporter.tick()
        event = events[0]
        assert event.count == 50
        assert event.rate == pytest.approx(10.0)
        assert event.eta == pytest.approx(5.0)
        assert event.fraction == pytest.approx(0.5)

    def test_done_is_idempotent(self):
        events = []
        reporter = ProgressReporter(total=1, callback=events.append, min_interval=-1)
        reporter.tick()
        reporter.done()
        reporter.done()
        assert sum(1 for event in events if event.finished) == 1

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError):
            ProgressReporter(total=-1, callback=lambda event: None)


class TestBatchedTicks:
    """tick(n) with n > 1 — the cadence shard completions exercise."""

    def _reporter(self, callback, total=100, every=10):
        return ProgressReporter(
            total=total, callback=callback, every=every, min_interval=-1,
            clock=FakeClock(),
        )

    def test_batch_crossing_no_boundary_stays_silent(self):
        events = []
        reporter = self._reporter(events.append)
        reporter.tick(4)   # count 4, no multiple of 10 crossed
        reporter.tick(5)   # count 9, still none
        assert events == []

    def test_batch_jumping_over_boundary_fires(self):
        events = []
        reporter = self._reporter(events.append)
        reporter.tick(9)
        reporter.tick(4)   # count 13 crosses 10 without landing on it
        assert [event.count for event in events] == [13]

    def test_batch_crossing_two_boundaries_fires_once(self):
        events = []
        reporter = self._reporter(events.append)
        reporter.tick(25)  # crosses 10 and 20 in one batch
        assert [event.count for event in events] == [25]
        reporter.tick(4)   # count 29: bucket unchanged, no event
        assert len(events) == 1
        reporter.tick(2)   # count 31: bucket advanced again
        assert [event.count for event in events] == [25, 31]

    def test_exact_boundary_still_fires(self):
        events = []
        reporter = self._reporter(events.append)
        reporter.tick(10)
        assert [event.count for event in events] == [10]

    def test_concurrent_ticks_count_everything(self):
        import threading

        events = []
        reporter = ProgressReporter(
            total=4000, callback=events.append, every=100, min_interval=-1,
        )
        threads = [
            threading.Thread(
                target=lambda: [reporter.tick(5) for _ in range(200)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reporter.done()
        assert reporter.count == 4000
        assert events[-1].count == 4000
        assert events[-1].finished

    def test_render_lines(self):
        running = ProgressEvent(
            count=500, total=1000, elapsed=2.0, rate=250.0, eta=2.0
        )
        final = ProgressEvent(
            count=1000, total=1000, elapsed=4.0, rate=250.0, eta=0.0,
            finished=True,
        )
        assert "500/1,000" in running.render()
        assert "eta 2s" in running.render()
        assert "in 4.0s" in final.render()

    def test_stderr_renderer_writes_stream(self):
        stream = io.StringIO()
        render = stderr_renderer(stream)
        render(ProgressEvent(count=1, total=2, elapsed=1.0, rate=1.0, eta=1.0))
        render(
            ProgressEvent(
                count=2, total=2, elapsed=2.0, rate=1.0, eta=0.0,
                finished=True,
            )
        )
        text = stream.getvalue()
        assert text.startswith("\r")
        assert text.endswith("\n")

