"""Deterministic, seedable fault plans.

A :class:`FaultPlan` decides, for every (fault kind, site key)
combination, whether an injected fault fires — and for how many
consecutive attempts.  The decision is a pure function of the plan's
seed and the site key (a SHA-256 hash), with three consequences the
resilience tests lean on:

* **reproducible** — the same seed and rates replay the exact same
  fault schedule, run after run;
* **sharding-independent** — the decision never consults worker
  count, shard boundaries, or any mutable state, so serial, thread,
  and process backends inject identical faults and produce
  bit-identical :class:`~repro.core.pipeline.StudyResult`\\ s;
* **retry-aware** — a faulty site fails a bounded number of
  *consecutive* attempts (``1..max_consecutive``) and then recovers,
  so enough attempts heal some sites while others run out of
  attempts and degrade.

Keys are whatever identifies the call site: the queried name for DNS,
the looked-up address for table dumps, the query for the serving
layer.

An injected fault only fails its call; it never alters data.  So a
funnel stage's whole retry history follows from :meth:`failures_for`
alone — :func:`stage_outcome` is that closed form, and the funnel asks
it before running a stage instead of retrying the stage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

# The supported failure modes, one namespace per substrate.
DNS_SERVFAIL = "dns.servfail"
DNS_TIMEOUT = "dns.timeout"
DNS_TRUNCATED_CHAIN = "dns.truncated_chain"
DUMP_CORRUPT = "dump.corrupt"
DUMP_MISSING_ROUTE = "dump.missing_route"
SERVE_STALE = "serve.stale"      # query hit a snapshot behind the world
SERVE_TIMEOUT = "serve.timeout"  # upstream refresh missed its deadline
# CA-side lifecycle events (the repro.world engine's per-step decisions;
# reusing the seeded schedule keeps a world bit-identical per seed).
WORLD_PP_OUTAGE = "world.pp_outage"          # publication point unreachable
WORLD_MANIFEST_SKIP = "world.manifest_skip"  # CA missed its manifest re-sign
WORLD_CRL_SKIP = "world.crl_skip"            # CA missed its CRL refresh
WORLD_ROA_ISSUE = "world.roa_issue"          # CA signs another prefix
WORLD_ROA_WITHDRAW = "world.roa_withdraw"    # CA withdraws a published ROA
WORLD_KEY_ROLLOVER = "world.key_rollover"    # CA starts a staged key rollover
# Execution-substrate events (the distributed scheduler's per-job
# decisions; consulted only by the ``workers`` backend, keyed by
# ``shard:<index>`` and the dispatch attempt, so the same plan leaves
# serial/thread/process runs untouched).
WORKER_CRASH = "worker.crash"      # worker process dies mid-job
WORKER_STALL = "worker.stall"      # worker blows its job deadline
WORKER_GARBAGE = "worker.garbage"  # worker emits an undecodable frame

# The kinds each funnel stage injects, in the order a stage checks
# them before a substrate call: the resolver per name, the table dump
# per looked-up address.
DNS_KINDS: Tuple[str, ...] = (DNS_SERVFAIL, DNS_TIMEOUT, DNS_TRUNCATED_CHAIN)
DUMP_KINDS: Tuple[str, ...] = (DUMP_CORRUPT, DUMP_MISSING_ROUTE)

# The measurement-side kinds; "chaos" soaks exactly these.
_MEASUREMENT_KINDS: Tuple[str, ...] = (
    DNS_KINDS + DUMP_KINDS + (SERVE_STALE, SERVE_TIMEOUT)
)

WORLD_KINDS: Tuple[str, ...] = (
    WORLD_PP_OUTAGE,
    WORLD_MANIFEST_SKIP,
    WORLD_CRL_SKIP,
    WORLD_ROA_ISSUE,
    WORLD_ROA_WITHDRAW,
    WORLD_KEY_ROLLOVER,
)

EXEC_KINDS: Tuple[str, ...] = (
    WORKER_CRASH,
    WORKER_STALL,
    WORKER_GARBAGE,
)

FAULT_KINDS: Tuple[str, ...] = _MEASUREMENT_KINDS + WORLD_KINDS + EXEC_KINDS

# Named profiles for the CLI.  "flaky" models everyday measurement
# weather (most sites recover within a retry or two); "degraded"
# models a bad day at the vantage point; "chaos" is for soak-testing
# the degradation paths themselves.
PROFILES: Dict[str, Dict[str, float]] = {
    "flaky": {
        DNS_SERVFAIL: 0.06,
        DNS_TIMEOUT: 0.04,
        DNS_TRUNCATED_CHAIN: 0.02,
        DUMP_CORRUPT: 0.03,
        DUMP_MISSING_ROUTE: 0.02,
        SERVE_STALE: 0.04,
        SERVE_TIMEOUT: 0.02,
    },
    "degraded": {
        DNS_SERVFAIL: 0.15,
        DNS_TIMEOUT: 0.10,
        DNS_TRUNCATED_CHAIN: 0.05,
        DUMP_CORRUPT: 0.08,
        DUMP_MISSING_ROUTE: 0.05,
        SERVE_STALE: 0.10,
        SERVE_TIMEOUT: 0.05,
    },
    "chaos": {kind: 0.30 for kind in _MEASUREMENT_KINDS},
    # Scheduler-substrate weather: worker processes crash, stall past
    # their deadline, or corrupt their reply stream, but the funnel
    # itself stays healthy — re-dispatch must mask every event, so a
    # run under this profile is bit-identical to a fault-free one.
    "unreliable-workers": {
        WORKER_CRASH: 0.30,
        WORKER_STALL: 0.20,
        WORKER_GARBAGE: 0.10,
    },
}


def stage_outcome(
    failing: Sequence[Tuple[str, int]], attempts: int
) -> Tuple[int, List[str], bool]:
    """``(attempts used, faults fired, degraded)`` of one funnel stage.

    A stage calls its substrate once per site, in walk order, checking
    its kinds in order before each call, and is tried up to
    ``attempts`` times.  ``failing`` holds the failing ``(kind,
    failures)`` pairs of its sites (:meth:`FaultPlan.failing_kinds`),
    in that order.  Attempt ``k`` fails iff some pair fails more than
    ``k`` consecutive attempts, and fires the first such pair's kind.
    So the stage uses ``min(attempts, 1 + most failures)`` attempts,
    fires one fault per failed attempt, and degrades iff the most
    failures reach ``attempts``.
    """
    if not failing:
        return 1, [], False
    worst = max(failures for _kind, failures in failing)
    fired = [
        next(kind for kind, failures in failing if failures > attempt)
        for attempt in range(min(attempts, worst))
    ]
    return min(attempts, worst + 1), fired, worst >= attempts


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of injected faults over site keys.

    ``rates`` is stored as a sorted tuple of ``(kind, rate)`` pairs so
    plans are hashable, picklable, and order-insensitive to how the
    mapping was written; build plans through :meth:`from_rates` or
    :meth:`from_profile`.
    """

    seed: int = 0
    rates: Tuple[Tuple[str, float], ...] = ()
    max_consecutive: int = 4

    def __post_init__(self):
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")
        for kind, rate in self.rates:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; known: {FAULT_KINDS}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1], got {rate}")
        # A fault run makes a few decisions per name form, so each
        # firing kind's rate and hash-token prefix are looked up once.
        # The first listing of a kind wins.
        object.__setattr__(self, "_draws", {
            kind: (rate, f"{self.seed}|{kind}|".encode("utf-8"))
            for kind, rate in dict(reversed(self.rates)).items()
            if rate > 0.0
        })

    @classmethod
    def from_rates(
        cls,
        rates: Mapping[str, float],
        seed: int = 0,
        max_consecutive: int = 4,
    ) -> "FaultPlan":
        return cls(
            seed=seed,
            rates=tuple(sorted(rates.items())),
            max_consecutive=max_consecutive,
        )

    @classmethod
    def from_profile(cls, profile: str, seed: int = 0) -> "FaultPlan":
        """One of the named :data:`PROFILES`, bound to a seed."""
        try:
            rates = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {profile!r}; "
                f"known: {sorted(PROFILES)}"
            ) from None
        return cls.from_rates(rates, seed=seed)

    def failures_for(self, kind: str, key: str) -> int:
        """How many consecutive attempts fail for this (kind, key).

        0 means the site is healthy for this fault kind; otherwise the
        site fails attempts ``0 .. n-1`` and succeeds from attempt
        ``n`` on.  Pure function of (seed, kind, key).
        """
        draw = self._draws.get(kind)
        if draw is None:
            return 0
        rate, prefix = draw
        # SHA-256 of "seed|kind|key": the first 8 bytes draw the
        # uniform [0, 1) value, the next 8 the failing streak's length.
        digest = hashlib.sha256(prefix + key.encode("utf-8")).digest()
        if int.from_bytes(digest[:8], "big") / 2**64 >= rate:
            return 0
        return 1 + int.from_bytes(digest[8:16], "big") % self.max_consecutive

    def failing_kinds(
        self, kinds: Tuple[str, ...], site: str
    ) -> Tuple[Tuple[str, int], ...]:
        """``(kind, failures)`` for each of ``kinds`` failing at ``site``.

        In the order of ``kinds``, healthy kinds left out: one site's
        share of a stage's :func:`stage_outcome`.
        """
        failing = []
        for kind in kinds:
            failures = self.failures_for(kind, site)
            if failures:
                failing.append((kind, failures))
        return tuple(failing)

    def should_fail(self, kind: str, key: str, attempt: int) -> bool:
        """Does attempt number ``attempt`` (0-based) fail for this site?"""
        return attempt < self.failures_for(kind, key)

    def describe(self) -> str:
        parts = ", ".join(
            f"{kind}={rate:g}" for kind, rate in self.rates if rate > 0.0
        )
        return f"seed={self.seed} max_consecutive={self.max_consecutive} [{parts}]"
