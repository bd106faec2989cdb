"""Step 4 — RPKI origin validation of prefix/origin pairs.

Every (prefix, origin AS) pair from step 3 is validated against the
Validated ROA Payloads produced by the relying party: *valid*,
*invalid*, or *not found* (RFC 6811).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.net import ASN, Prefix
from repro.obs.runtime import metrics, tracer
from repro.rpki import ValidatedPayloads
from repro.core.records import PrefixOriginPair


def validate_single_pair(
    payloads: ValidatedPayloads, prefix: Prefix, origin: ASN
) -> PrefixOriginPair:
    """Step 4 for one (prefix, origin) pair, ticking its outcome counter.

    The per-pair granularity lets the funnel's per-pair memo capture
    the metric delta of one validation and account it once per hit.
    """
    pair = PrefixOriginPair(
        prefix=prefix,
        origin=origin,
        state=payloads.validate_origin(prefix, origin),
    )
    metrics().counter(
        "ripki_rpki_validations_total",
        "Step-4 origin validations by RFC 6811 outcome",
        labelnames=("state",),
    ).labels(state=pair.state.name.lower()).inc()
    return pair


def validate_pairs(
    payloads: ValidatedPayloads,
    pairs: Iterable[Tuple[Prefix, ASN]],
) -> List[PrefixOriginPair]:
    """Annotate each pair with its origin-validation outcome."""
    with tracer().span("stage.rpki"):
        validated = [
            validate_single_pair(payloads, prefix, origin)
            for prefix, origin in pairs
        ]
    return validated
