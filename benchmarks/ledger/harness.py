"""Measurement core of the perf ledger: spans, statistics, envelope.

Nothing here knows a workload or imports the program.
:class:`Tracer` records spans from the harness's side of each call
into the program — either around a call the harness makes itself
(:meth:`Tracer.span`) or by swapping a
layer's public function for a timing wrapper while the traced pass
runs (:meth:`Tracer.patch`).  Spans stay in memory until
:meth:`Tracer.dump`.  The untraced pass runs the same workload code
against :data:`NULL_TRACER`, whose spans and patches do nothing.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
# Cache directories and span dumps; inside the checkout, git-ignored.
WORK_DIR = LEDGER_DIR / ".work"

# Measurement rule: never more than min(2, nproc) workers anywhere.
WORKERS = min(2, os.cpu_count() or 1)


# -- spans ---------------------------------------------------------------------

# Span record layout (a list, mutated once on close).
NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans (name, start, end, parent) of one workload, in memory."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._open: List[int] = []
        # Patched functions may run on the program's worker threads;
        # only the driving thread owns the span stack.
        self._owner = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        """A span around a call the harness itself makes."""
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def take_counts(self) -> Dict[str, int]:
        """The counts since the last take (one repetition's worth)."""
        counts, self.counts = self.counts, {}
        return counts

    @contextlib.contextmanager
    def patch(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Iterator[None]:
        """Time every call of ``owner.attr`` as a span until exit.

        ``owner`` is the class or module the *caller* looks the
        function up on.  ``on_result`` sees each return value (to
        record a count at the same boundary).
        """
        original = vars(owner)[attr]
        binder = (
            type(original)
            if isinstance(original, (classmethod, staticmethod))
            else None
        )
        func = original.__func__ if binder else original
        spans, open_, owner_thread = self.spans, self._open, self._owner
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            if ident() != owner_thread:
                return func(*args, **kwargs)
            record = [name, 0.0, 0.0, open_[-1] if open_ else None]
            open_.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = clock()
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, binder(traced) if binder else traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- reading spans back ----------------------------------------------

    def mark(self) -> int:
        """Position to pass as ``since`` for "spans recorded from here"."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0) -> List[float]:
        return [
            span[END] - span[START]
            for span in self.spans[since:]
            if span[NAME] == name
        ]

    def seconds(self, name: str, since: int = 0) -> float:
        return sum(self.durations(name, since))

    def dump(self, path: Path) -> None:
        """Write every span out (the end-of-run flush)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": self.workload,
            "columns": ["name", "start", "end", "parent", "workload"],
            "spans": [span + [self.workload] for span in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n")


class _NullTracer:
    """Tracing off: the workload code runs with no span and no patch."""

    enabled = False
    _nothing = contextlib.nullcontext()

    def span(self, name: str):
        return self._nothing

    def patch(self, owner, attr, name, on_result=None):
        return self._nothing

    def count(self, name: str, amount: int) -> None:
        pass

    def mark(self) -> int:
        return 0


NULL_TRACER = _NullTracer()


# -- statistics ----------------------------------------------------------------


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(
            values, n=4, method="inclusive"
        )
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in 0..100.

    Same rule as ``repro.serve.percentile``, kept apart so a change
    to the program cannot redefine a ledger metric.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# -- envelope ------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the enclosing repository; "unknown" outside one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
