"""The 0-5 route-validity annotation scheme.

The ``rov-measurement-code`` methodology (SNIPPETS.md, Snippet 2)
annotates every observed route with a small integer describing *why*
it validated the way it did — not just valid/invalid/unknown but which
RFC 6811 clause an invalid tripped over:

====  ==========================================================
code  meaning
====  ==========================================================
0     valid — some covering VRP fully matches
1     unknown — no covering VRP (NOT_FOUND)
2     invalid — covered but origin unverifiable (AS_SET origin)
3     invalid, wrong origin ASN (length would have been fine)
4     invalid, too-specific announcement (origin ASN matches a
      covering VRP but its maxLength is exceeded)
5     invalid, both wrong ASN and exceeded maxLength
====  ==========================================================

The refinement matters for inference: a wrong-ASN invalid (3) is what
a hijack looks like, while a maxLength invalid (4) is what operator
misconfiguration looks like, and enforcing ASes drop both.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.net import ASN, Prefix
from repro.rpki.vrp import (
    ANNOTATION_INVALID_AS_SET,
    ANNOTATION_INVALID_ASN,
    ANNOTATION_INVALID_BOTH,
    ANNOTATION_INVALID_LENGTH,
    ANNOTATION_UNKNOWN,
    ANNOTATION_VALID,
    ValidatedPayloads,
)

ANNOTATION_NAMES = {
    ANNOTATION_VALID: "valid",
    ANNOTATION_UNKNOWN: "unknown",
    ANNOTATION_INVALID_AS_SET: "invalid_as_set",
    ANNOTATION_INVALID_ASN: "invalid_wrong_asn",
    ANNOTATION_INVALID_LENGTH: "invalid_wrong_length",
    ANNOTATION_INVALID_BOTH: "invalid_both",
}


def annotate_route(
    payloads: ValidatedPayloads,
    prefix: Prefix,
    origin: Optional[Union[int, ASN]],
) -> int:
    """Annotate one (prefix, origin) route observation.

    ``origin`` is None for AS_SET originations (the origin cannot be
    verified, RFC 6811 treats covered announcements as invalid).
    """
    return payloads.annotate(prefix, origin)[0]
