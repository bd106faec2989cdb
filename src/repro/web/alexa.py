"""Alexa-style top-list generation.

The paper's step (1) selects the Alexa top 1M.  The generator below
produces a deterministic ranked list of plausible domain names with a
realistic TLD mix.  Only the *rank order* matters downstream, so the
list is exchangeable with the real thing for every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.crypto import DeterministicRNG

_TLDS = [
    ("com", 48.0), ("net", 7.0), ("org", 6.0), ("de", 5.0), ("ru", 4.5),
    ("co.uk", 3.5), ("info", 2.5), ("fr", 2.0), ("it", 2.0), ("nl", 1.8),
    ("br", 1.8), ("jp", 1.7), ("pl", 1.6), ("cn", 1.5), ("in", 1.4),
    ("es", 1.2), ("io", 1.0), ("biz", 0.8), ("edu", 0.7), ("gov", 0.3),
]

_SYLLABLES = [
    "an", "ar", "be", "bo", "ca", "co", "da", "de", "di", "do", "el",
    "en", "fa", "fi", "go", "ha", "in", "ka", "ki", "la", "lo", "ma",
    "me", "mi", "mo", "na", "ne", "no", "pa", "pe", "ra", "re", "ri",
    "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to", "va", "ve",
    "vi", "wa", "we", "ya", "zo",
]


@dataclass(frozen=True, slots=True)
class Domain:
    """One ranked domain."""

    rank: int       # 1-based Alexa rank
    name: str       # the w/o-www form, e.g. "example.com"

    @property
    def www_name(self) -> str:
        return f"www.{self.name}"

    def __str__(self) -> str:
        return f"#{self.rank} {self.name}"


class AlexaRanking:
    """A deterministic ranked list of unique domain names."""

    def __init__(self, domains: Sequence[Domain]):
        self._domains = list(domains)

    @classmethod
    def generate(cls, count: int, rng: DeterministicRNG) -> "AlexaRanking":
        """Generate ``count`` unique ranked domains."""
        rng = rng.fork("alexa")
        tlds = [tld for tld, _w in _TLDS]
        weights = [w for _t, w in _TLDS]
        seen = set()
        domains: List[Domain] = []
        rank = 1
        while len(domains) < count:
            syllable_count = rng.randint(2, 4)
            label = "".join(
                rng.choice(_SYLLABLES) for _ in range(syllable_count)
            )
            if rng.random() < 0.08:
                label += str(rng.randint(1, 99))
            tld = rng.weighted_choice(tlds, weights)
            name = f"{label}.{tld}"
            if name in seen:
                continue
            seen.add(name)
            domains.append(Domain(rank=rank, name=name))
            rank += 1
        return cls(domains)

    def __len__(self) -> int:
        return len(self._domains)

    def __iter__(self) -> Iterator[Domain]:
        return iter(self._domains)

    def __getitem__(self, index: int) -> Domain:
        return self._domains[index]

    def top(self, count: int) -> List[Domain]:
        return self._domains[:count]

    def domain_at_rank(self, rank: int) -> Domain:
        """Rank is 1-based, as in the Alexa list."""
        domain = self._domains[rank - 1]
        assert domain.rank == rank
        return domain

    def __repr__(self) -> str:
        return f"<AlexaRanking {len(self._domains)} domains>"
