"""Retry with deterministic exponential backoff.

:class:`RetryPolicy` is the frozen knob-set (max attempts, backoff
curve, per-call backoff budget) and :func:`call_with_retry` the loop
that applies it.  Two design points keep the resilience layer
bit-deterministic:

* **deterministic jitter** — the jitter factor for (key, attempt) is
  derived from a hash, not a PRNG stream, so two workers retrying the
  same site compute identical backoff sequences regardless of
  scheduling order;
* **virtual time** — backoff delays are *accounted* against the
  policy's budget but never slept.  The synthetic substrates fail
  instantly, so real sleeping would only slow the simulation down and
  couple results to the wall clock.

The loop retries on any :class:`~repro.errors.ReproError` — the one
catchable surface the unified exception hierarchy provides — and
raises :class:`~repro.errors.RetryExhausted` when attempts or budget
run out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.errors import ReproError, RetryExhausted

T = TypeVar("T")


class AttemptCell:
    """A shared mutable attempt counter.

    The retry loop publishes the current attempt number here; fault
    injectors read it so their decisions depend on (site, attempt)
    only — never on wrapper-local state that would vary with sharding.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def __repr__(self) -> str:
        return f"<AttemptCell {self.value}>"


def _jitter_unit(token: str) -> float:
    """Uniform [0,1) derived from a hash — stable across processes."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a call degraded."""

    max_attempts: int = 3
    backoff_base: float = 0.05       # delay before the first retry, seconds
    backoff_multiplier: float = 2.0  # exponential growth per retry
    backoff_max: float = 5.0         # cap on any single delay
    jitter: float = 0.1              # +/- fraction, deterministic per (key, attempt)
    stage_budget: Optional[float] = None  # total backoff seconds per call

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.stage_budget is not None and self.stage_budget < 0:
            raise ValueError("stage_budget must be >= 0")

    def backoff_for(self, key: str, attempt: int) -> float:
        """The delay before retrying ``key`` after failed ``attempt``."""
        raw = min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier**attempt,
        )
        if not self.jitter or not raw:
            return raw
        unit = _jitter_unit(f"{key}|{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def delays(self, key: str) -> List[float]:
        """Every backoff delay a full retry cycle for ``key`` would use."""
        return [self.backoff_for(key, a) for a in range(self.max_attempts - 1)]


DEFAULT_RETRY_POLICY = RetryPolicy()


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    key: str = "",
    attempt_cell: Optional[AttemptCell] = None,
) -> Tuple[T, int]:
    """Run ``fn`` under ``policy``; returns ``(value, attempts_used)``.

    Retries on any :class:`ReproError`; other exceptions propagate
    unchanged.  Before each attempt the 0-based attempt number is
    written to ``attempt_cell`` (if given) so fault injectors can key
    their decisions on it.  Raises :class:`RetryExhausted` — carrying
    the key, attempt count, spent backoff budget, and last cause —
    when ``max_attempts`` or ``stage_budget`` is exhausted.
    """
    spent = 0.0
    last: Optional[ReproError] = None
    attempts = policy.max_attempts
    attempt = 0
    for attempt in range(attempts):
        if attempt_cell is not None:
            attempt_cell.value = attempt
        try:
            return fn(), attempt + 1
        except ReproError as error:
            last = error
            if attempt + 1 >= attempts:
                break
            delay = policy.backoff_for(key, attempt)
            if (
                policy.stage_budget is not None
                and spent + delay > policy.stage_budget
            ):
                break
            spent += delay
    raise RetryExhausted(
        key=key, attempts=attempt + 1, cause=last, budget_spent=spent
    ) from last
