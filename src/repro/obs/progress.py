"""Rate/ETA progress reporting for long measurement runs.

The paper's study walks 1M domains; a run that long needs a liveness
signal.  :class:`ProgressReporter` is callback-based: the CLI renders
events to stderr, tests capture them in a list, and the pipeline
itself stays renderer-agnostic.

Cadence is controlled two ways and an event fires when *either*
triggers: ``every`` (a tick-count stride, deterministic for tests)
and ``min_interval`` (wall seconds, keeps terminals readable).  The
final event is always delivered via :meth:`done` with
``finished=True`` so renderers can print a closing newline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ProgressEvent:
    """One progress observation."""

    count: int
    total: int
    elapsed: float
    rate: float           # items per second since start
    eta: Optional[float]  # seconds remaining; None when unknowable
    finished: bool = False

    @property
    def fraction(self) -> float:
        return self.count / self.total if self.total else 0.0

    def render(self) -> str:
        """A one-line human rendering (used by the CLI)."""
        percent = f"{self.fraction * 100:5.1f}%"
        rate = f"{self.rate:,.0f}/s" if self.rate else "-/s"
        if self.finished:
            return (
                f"measured {self.count:,}/{self.total:,} domains "
                f"({percent}) in {self.elapsed:.1f}s [{rate}]"
            )
        eta = f"{self.eta:.0f}s" if self.eta is not None else "?"
        return (
            f"measuring {self.count:,}/{self.total:,} domains "
            f"({percent}) [{rate}, eta {eta}]"
        )


ProgressCallback = Callable[[ProgressEvent], None]


class ProgressReporter:
    """Counts ticks and emits throttled :class:`ProgressEvent`\\ s.

    Thread-safe: shard workers may call :meth:`tick` concurrently
    (every mutation happens under one lock), and batched ticks —
    ``tick(n)`` with ``n > 1``, as a completed shard reports — fire
    the stride cadence whenever the count *crosses* a multiple of
    ``every``, not only when it lands exactly on one.
    """

    def __init__(
        self,
        total: int,
        callback: ProgressCallback,
        every: int = 0,
        min_interval: float = 1.0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if total < 0:
            raise ValueError("total must be >= 0")
        self.total = total
        self.count = 0
        self._callback = callback
        self._every = max(0, every)
        self._min_interval = min_interval
        self._clock = clock
        self._started = clock()
        self._last_emit = self._started
        self._last_bucket = 0
        self._finished = False
        self._lock = threading.Lock()

    def tick(self, n: int = 1) -> None:
        """Record ``n`` completed items; emit if the cadence says so."""
        with self._lock:
            self.count += n
            now = self._clock()
            due_by_stride = (
                self._every and self.count // self._every > self._last_bucket
            )
            due_by_time = (
                self._min_interval >= 0
                and now - self._last_emit >= self._min_interval
            )
            if due_by_stride or due_by_time:
                self._emit(now, finished=False)

    def done(self) -> None:
        """Emit the final event (idempotent)."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
            self._emit(self._clock(), finished=True)

    def _emit(self, now: float, finished: bool) -> None:
        elapsed = now - self._started
        rate = self.count / elapsed if elapsed > 0 else 0.0
        remaining = self.total - self.count
        eta: Optional[float] = None
        if rate > 0 and remaining >= 0:
            eta = remaining / rate
        self._last_emit = now
        if self._every:
            self._last_bucket = self.count // self._every
        self._callback(
            ProgressEvent(
                count=self.count,
                total=self.total,
                elapsed=elapsed,
                rate=rate,
                eta=eta,
                finished=finished,
            )
        )


def stderr_renderer(stream=None) -> ProgressCallback:
    """A callback that repaints one status line on ``stream``."""
    import sys

    out = stream if stream is not None else sys.stderr

    def _render(event: ProgressEvent) -> None:
        line = event.render()
        end = "\n" if event.finished else ""
        out.write("\r" + line.ljust(68) + end)
        out.flush()

    return _render
