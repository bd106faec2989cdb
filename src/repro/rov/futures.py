"""Seeded adoption futures.

An :class:`AdoptionFuture` is one hypothetical deployment step the
counterfactual engine evaluates: a set of organisations that start
signing ROAs for all their prefixes plus a set of ASes that start
enforcing ROV.  Three named futures pin the scenarios the paper's
discussion keeps returning to, and :func:`sample_futures` generates
hundreds of seeded intermediate ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.bgp.topology import ASRole
from repro.crypto import DeterministicRNG
from repro.net import ASN
from repro.rov.experiment import seeded_enforcers
from repro.web.organisations import OrgKind

NAMED_FUTURES = ("cdn-top5-sign", "tier1-enforce", "full-rov")


@dataclass(frozen=True)
class AdoptionFuture:
    """One hypothetical (sign, enforce) deployment step."""

    name: str
    sign: Tuple[str, ...] = ()     # organisation names issuing ROAs
    enforce: Tuple[ASN, ...] = ()  # ASes enforcing origin validation

    def __post_init__(self):
        object.__setattr__(self, "sign", tuple(sorted(self.sign)))
        object.__setattr__(
            self, "enforce",
            tuple(sorted((ASN(a) for a in self.enforce), key=int)),
        )

    def label(self) -> str:
        """Canonical identity string (seeds per-future randomness)."""
        orgs = ",".join(self.sign)
        asns = ",".join(str(int(a)) for a in self.enforce)
        return f"{self.name}|sign:{orgs}|enforce:{asns}"


def named_future(world, name: str) -> AdoptionFuture:
    """One of the three pinned scenarios over a built ecosystem."""
    if name == "cdn-top5-sign":
        cdns = [
            org.name for org in world.organisations
            if org.kind is OrgKind.CDN
        ]
        return AdoptionFuture(name=name, sign=tuple(cdns[:5]))
    if name == "tier1-enforce":
        tier1 = tuple(
            node.asn for node in world.topology.by_role(ASRole.TIER1)
        )
        return AdoptionFuture(name=name, enforce=tier1)
    if name == "full-rov":
        return AdoptionFuture(
            name=name,
            sign=tuple(org.name for org in world.organisations),
            enforce=tuple(world.topology.asns()),
        )
    raise ValueError(f"unknown future {name!r} (one of {NAMED_FUTURES})")


def named_futures(world) -> List[AdoptionFuture]:
    return [named_future(world, name) for name in NAMED_FUTURES]


def sample_futures(
    world, count: int, seed: Union[int, str] = 2015
) -> List[AdoptionFuture]:
    """``count`` seeded adoption futures of increasing ambition.

    Each future signs a random subset of organisations and enforces a
    role-weighted random AS subset whose aggressiveness grows with the
    future index, so a sweep spans "one hoster signs" through "most of
    the core filters".
    """
    org_names = sorted(org.name for org in world.organisations)
    futures: List[AdoptionFuture] = []
    for index in range(count):
        rng = DeterministicRNG(f"rov-future:{seed}").fork(f"sample:{index}")
        ambition = (index + 1) / max(1, count)
        sign_count = rng.randint(0, max(1, int(len(org_names) * ambition * 0.5)))
        sign = tuple(rng.sample(org_names, min(sign_count, len(org_names))))
        enforce = seeded_enforcers(
            world.topology,
            seed=f"{seed}:future:{index}",
            scale=ambition * rng.random() * 2.0,
        )
        futures.append(AdoptionFuture(
            name=f"future-{index:03d}",
            sign=sign,
            enforce=tuple(enforce),
        ))
    return futures


def future_census(futures: List[AdoptionFuture]) -> Dict[str, float]:
    """Summary statistics over a future sweep (for reports)."""
    if not futures:
        return {"futures": 0, "mean_signing": 0.0, "mean_enforcing": 0.0}
    return {
        "futures": len(futures),
        "mean_signing": sum(len(f.sign) for f in futures) / len(futures),
        "mean_enforcing": sum(len(f.enforce) for f in futures) / len(futures),
    }
