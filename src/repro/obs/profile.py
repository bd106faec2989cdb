"""Deterministic cProfile harness with flamegraph-ready output.

The ROADMAP's perf items need evidence, not vibes: any block (a
pipeline stage, a serve batch, a whole study) can run under
:func:`profile_scope`, which wraps :mod:`cProfile` and yields a
:class:`ProfileCapture` whose report exposes

* **collapsed-stack ("folded") lines** — ``caller;callee <µs>``
  edges plus ``func <µs>`` self-time lines, the format flamegraph
  tooling (``flamegraph.pl``, speedscope, inferno) loads directly.
  cProfile records caller→callee edges rather than full stacks, so
  the folded output is the two-level projection of the call graph —
  enough to see where cumulative time pools and which edges feed it;
* **a top-N cumulative table** — rendered by
  :func:`repro.obs.report.profile_report` in the report layer.

Determinism: function labels are ``module:qualname`` with absolute
paths stripped, values are integer microseconds, and lines are
sorted, so two profiles of the same workload differ only in the
timing numbers — diffs stay readable and artifacts are stable to
sort order.
"""

from __future__ import annotations

import cProfile
import pstats
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import PurePath
from typing import Dict, Iterator, List, Optional, Tuple

# CPython names some built-ins after the object's address
# ("<built-in method __new__ of type object at 0x7f...>"); strip the
# address so folded output is identical across runs.
_ADDRESS = re.compile(r" at 0x[0-9a-f]+", re.IGNORECASE)


def _label(func: Tuple[str, int, str]) -> str:
    """``module:qualname`` label for a pstats function key."""
    filename, lineno, name = func
    if filename in ("~", ""):
        return f"<built-in>:{_ADDRESS.sub('', name)}"
    stem = PurePath(filename).name
    return f"{stem}:{name}"


@dataclass(frozen=True)
class ProfileEntry:
    """One profiled function's aggregate."""

    label: str
    calls: int
    self_s: float
    cumulative_s: float


class ProfileReport:
    """The analyzable result of one :func:`profile_scope` run."""

    def __init__(
        self,
        entries: List[ProfileEntry],
        edges: Dict[Tuple[str, str], float],
    ):
        # Cumulative-time descending, label as the deterministic tiebreak.
        self.entries = sorted(
            entries, key=lambda e: (-e.cumulative_s, e.label)
        )
        self._edges = edges

    @classmethod
    def from_profile(cls, profiler: cProfile.Profile) -> "ProfileReport":
        stats = pstats.Stats(profiler)
        entries: List[ProfileEntry] = []
        edges: Dict[Tuple[str, str], float] = {}
        for func, (cc, nc, tt, ct, callers) in stats.stats.items():
            label = _label(func)
            entries.append(
                ProfileEntry(
                    label=label, calls=int(nc),
                    self_s=tt, cumulative_s=ct,
                )
            )
            for caller, caller_value in callers.items():
                # Caller rows are (cc, nc, tt, ct) tuples: ct is the
                # cumulative time this callee spent under that caller.
                edge_ct = caller_value[3]
                key = (_label(caller), label)
                edges[key] = edges.get(key, 0.0) + edge_ct
        return cls(entries, edges)

    def folded_lines(self) -> List[str]:
        """Collapsed-stack lines, sorted; values in integer µs.

        Self-time roots come out as single-frame stacks and
        caller→callee edges as two-frame stacks; zero-µs lines are
        dropped (they carry no flame area).
        """
        lines: List[str] = []
        for entry in self.entries:
            micros = int(entry.self_s * 1_000_000)
            if micros > 0:
                lines.append(f"{entry.label} {micros}")
        for (caller, callee), seconds in self._edges.items():
            micros = int(seconds * 1_000_000)
            if micros > 0:
                lines.append(f"{caller};{callee} {micros}")
        return sorted(lines)

    def write_folded(self, path) -> int:
        """Write the folded stacks to ``path``; returns the line count."""
        lines = self.folded_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)

    def top(self, n: int = 15) -> List[ProfileEntry]:
        """The ``n`` heaviest functions by cumulative time."""
        return self.entries[:n]

    def total_seconds(self) -> float:
        """Total profiled self-time (sums to the wall time measured)."""
        return sum(entry.self_s for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class ProfileCapture:
    """The handle :func:`profile_scope` yields; ``report`` is set on
    scope exit."""

    def __init__(self):
        self.report: Optional[ProfileReport] = None


@contextmanager
def profile_scope() -> Iterator[ProfileCapture]:
    """Profile the enclosed block with cProfile.

    ::

        with profile_scope() as capture:
            study.run()
        capture.report.write_folded("run.folded")

    The report is built even when the block raises, so a failing
    run still leaves its profile behind.
    """
    capture = ProfileCapture()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield capture
    finally:
        profiler.disable()
        capture.report = ProfileReport.from_profile(profiler)
