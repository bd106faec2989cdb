"""Seeded, Zipf-skewed query load over the Alexa ranking.

The paper's population is a popularity-ranked domain list, and real
resolver/validator traffic concentrates on the head of that list.
The generator reproduces that shape: a domain's probability of being
queried is proportional to ``1 / rank^s`` (Zipf with exponent ``s``),
so rank 1 dominates and the tail thins out.  Every draw comes from a
:class:`~repro.crypto.rng.DeterministicRNG` fork, so a (seed,
profile) pair always generates the same query list — which is what
lets CI pin the verdict histogram of a load run.

Queries are derived from the chosen domain's *stored measurement*:
its name for ``domain`` queries, one of its resolved addresses for
``lookup``, one of its (prefix, origin) pairs for ``validate``, and a
rank window around it for ``rank_slice``.  Domains whose measurement
lacks addresses or pairs fall back to synthetic-but-deterministic
targets, so misses and NOT_FOUNDs stay represented.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import List, Tuple

from repro.crypto.rng import DeterministicRNG
from repro.net import Address, Prefix
from repro.net.addr import IPV4
from repro.serve.index import ServingIndex
from repro.serve.service import Query

# Share of each query kind in the generated stream; validate/lookup
# dominate (they are what a router-facing service answers), domain
# and rank_slice model operator dashboards.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("validate", 0.35),
    ("lookup", 0.30),
    ("domain", 0.25),
    ("rank_slice", 0.10),
)
_KINDS = [kind for kind, _weight in DEFAULT_MIX]
_KIND_CUMULATIVE = list(
    itertools.accumulate(weight for _kind, weight in DEFAULT_MIX)
)
SLICE_WIDTH = 100  # rank_slice window size


@dataclass(frozen=True)
class LoadProfile:
    """Shape of one generated load run."""

    queries: int = 1_000
    seed: int = 2015
    zipf_exponent: float = 1.1

    def __post_init__(self):
        if self.queries < 0:
            raise ValueError("queries must be >= 0")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be > 0")


def _zipf_cumulative(count: int, exponent: float) -> List[float]:
    """Cumulative unnormalised Zipf weights for ranks 1..count."""
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, count + 1):
        total += 1.0 / rank ** exponent
        cumulative.append(total)
    return cumulative


def generate_load(
    index: ServingIndex, profile: LoadProfile
) -> List[Query]:
    """The seeded query list one profile generates over one index."""
    measurements = index.measurements
    if not measurements:
        return []
    rng = DeterministicRNG(profile.seed).fork("serve.loadgen")
    cumulative = _zipf_cumulative(len(measurements), profile.zipf_exponent)
    scale = cumulative[-1]
    queries: List[Query] = []
    for _ in range(profile.queries):
        position = bisect.bisect_left(
            cumulative, rng.random() * scale
        )
        measurement = measurements[min(position, len(measurements) - 1)]
        kind = _KINDS[
            bisect.bisect_left(
                _KIND_CUMULATIVE, rng.random() * _KIND_CUMULATIVE[-1]
            )
        ]
        queries.append(_make_query(rng, index, measurement, kind))
    return queries


def _make_query(
    rng: DeterministicRNG, index, measurement, kind: str
) -> Query:
    if kind == "domain":
        return Query.domain(measurement.domain.name)
    if kind == "rank_slice":
        first = max(1, measurement.rank - SLICE_WIDTH // 2)
        last = min(max(index.max_rank, 1), first + SLICE_WIDTH - 1)
        return Query.rank_slice(first, last)
    if kind == "lookup":
        addresses = list(measurement.www.addresses) + list(
            measurement.plain.addresses
        )
        if addresses:
            return Query.lookup(rng.choice(addresses))
        # Unresolvable domain: probe a deterministic random address so
        # unrouted lookups stay in the stream.
        return Query.lookup(Address(IPV4, rng.getrandbits(32)))
    pairs = measurement.combined_pairs()
    if pairs:
        pair = rng.choice(pairs)
        return Query.validate(pair.prefix, pair.origin)
    # No measured pairs: validate a synthetic /24 with a random
    # origin, exercising the NOT_FOUND/INVALID paths.
    address = Address(IPV4, rng.getrandbits(32))
    prefix = Prefix.from_address(address, 24)
    return Query.validate(prefix, rng.randint(1, 65_000))
