"""The world's event ledger.

Every CA-side action the engine takes — and every degradation the
relying-party view observes — is appended to an :class:`EventLedger`
as a :class:`WorldEvent`.  The ledger is the world's audit trail *and*
its determinism witness: :meth:`EventLedger.digest` hashes the
canonical encoding of every event, so two runs from the same seed and
profile must produce byte-identical digests (the CI smoke asserts
exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple, Union

from repro.crypto.digest import canonical_bytes, sha256_hex

Detail = Union[str, int, float]

# Event kinds the engine and view emit, namespaced by actor.
ROA_ISSUED = "roa.issued"
ROA_WITHDRAWN = "roa.withdrawn"
ROA_EXPIRED = "roa.expired"
MANIFEST_SKIPPED = "manifest.skipped"
CRL_SKIPPED = "crl.skipped"
PP_OUTAGE = "pp.outage"
ROLLOVER_STAGED = "rollover.staged"
ROLLOVER_COMPLETED = "rollover.completed"
STEP_OBSERVED = "step.observed"


@dataclass(frozen=True)
class WorldEvent:
    """One CA-side action or observation at one virtual time."""

    step: int
    time: float
    kind: str
    subject: str                     # CA name, or "world" for step summaries
    detail: Tuple[Tuple[str, Detail], ...] = ()

    @classmethod
    def make(
        cls,
        step: int,
        time: float,
        kind: str,
        subject: str,
        **detail: Detail,
    ) -> "WorldEvent":
        return cls(
            step=step,
            time=time,
            kind=kind,
            subject=subject,
            detail=tuple(sorted(detail.items())),
        )

    def to_row(self) -> Dict[str, Detail]:
        """A JSON-ready flat record (for ``ripki world --json``)."""
        row: Dict[str, Detail] = {
            "step": self.step,
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
        }
        row.update(self.detail)
        return row

    def __repr__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.detail)
        return f"<WorldEvent #{self.step} {self.kind} {self.subject} {details}>"


class EventLedger:
    """Append-only event log with a canonical replay digest."""

    def __init__(self):
        self._events: List[WorldEvent] = []

    def append(self, event: WorldEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[WorldEvent]:
        return iter(self._events)

    def events_for_step(self, step: int) -> List[WorldEvent]:
        return [event for event in self._events if event.step == step]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def to_rows(self) -> List[Dict[str, Detail]]:
        """JSON-ready rows, in emission order."""
        return [event.to_row() for event in self._events]

    def digest(self) -> str:
        """Canonical hash over every event, in order.

        Two worlds stepped from the same seed and profile must agree
        on this digest bit-for-bit — the replay guarantee the world
        CI job pins.
        """
        return sha256_hex(
            canonical_bytes(
                [
                    [
                        event.step,
                        event.time,
                        event.kind,
                        event.subject,
                        [list(item) for item in event.detail],
                    ]
                    for event in self._events
                ]
            )
        )

    def __repr__(self) -> str:
        return f"<EventLedger {len(self._events)} events>"
