"""Retry a call a bounded number of times.

:func:`call_with_retry` runs a call up to ``attempts`` times and
publishes each attempt's number in an :class:`AttemptCell`, so fault
injectors decide on (site, attempt) alone and a run stays
bit-deterministic under any sharding.  Nothing waits between
attempts: the synthetic substrates fail instantly, so a delay would
only couple results to the wall clock.

The loop retries on any :class:`~repro.errors.ReproError` — the one
catchable surface the unified exception hierarchy provides — and
raises :class:`~repro.errors.RetryExhausted` when the attempts run
out.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, TypeVar

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


def call_with_retry(
    fn: Callable[[], T],
    *,
    attempts: int,
    key: str = "",
    attempt_cell: Optional[AttemptCell] = None,
) -> Tuple[T, int]:
    """Run ``fn`` up to ``attempts`` times; returns ``(value, attempts_used)``.

    Retries on any :class:`ReproError`; other exceptions propagate
    unchanged.  Before each attempt the 0-based attempt number is
    written to ``attempt_cell`` (if given) so fault injectors can key
    their decisions on it.  Raises :class:`RetryExhausted` — carrying
    the key, attempt count and last cause — when every attempt failed.
    """
    last: Optional[ReproError] = None
    for attempt in range(attempts):
        if attempt_cell is not None:
            attempt_cell.value = attempt
        try:
            return fn(), attempt + 1
        except ReproError as error:
            last = error
    raise RetryExhausted(key=key, attempts=attempts, cause=last) from last
