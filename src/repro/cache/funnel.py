"""The cache-backed measurement funnel.

Drop-in replacement for the serial/resilient funnels inside a shard
loop: ``measure_domain`` produces the same :class:`DomainMeasurement`
a cold run would, but serves each stage from the session's validated
artifacts when possible and computes (and records) only the rest.

Two granularities, chosen by whether the run injects faults:

* **staged** (plain runs) — the three per-item stages cache
  independently: DNS answers per name form, prefix/origin matches per
  IP address, validation outcomes per (prefix, origin) pair.  A warm
  run whose inputs are unchanged recomputes nothing.
* **form-level** (fault runs) — one artifact per name form holding the
  whole funnel output.  Fault and retry decisions are deterministic in
  the *sequence* of faultable calls, so serving one stage from cache
  would shift every later decision; caching the whole form keeps the
  sequence intact.  Degraded forms are never cached — a degraded
  artifact is a partial answer, not a reusable one.

Every miss runs the real stage under a scratch registry (even when
observability is off) and stores the resulting metric delta with the
artifact; every hit replays the stored delta into the live registry.
Warm metrics are therefore bit-identical to cold ones — excluding the
``ripki_cache_*`` families themselves, which are the point.

Hit/miss/fresh state is funnel-local (one funnel per shard), so for a
fixed worker count the serial, thread and process backends see
identical cache behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.fingerprint import name_fingerprint
from repro.cache.session import CacheSession
from repro.cache.store import STAGES
from repro.core.dns_mapping import measure_name
from repro.core.pipeline import (
    CACHE_HITS_METRIC,
    CACHE_MISSES_METRIC,
    _STAT_HELP,
)
from repro.core.prefix_mapping import map_single_address
from repro.core.records import (
    DomainMeasurement,
    NameMeasurement,
    PrefixOriginPair,
)
from repro.core.rpki_validation import validate_single_pair
from repro.exec.codec import decode_name, encode_name
from repro.net import ASN, Address, Prefix
from repro.obs.metrics import (
    MetricsRegistry,
    registry_from_wire,
    registry_to_wire,
)
from repro.obs.runtime import metrics, thread_scope, tracer
from repro.rpki.vrp import OriginValidation
from repro.web.alexa import Domain


def _pair_key(prefix: Prefix, origin: ASN) -> str:
    return "{}:{}:{}:{}".format(*prefix, int(origin))


class CachedFunnel:
    """Steps 2-4 against a :class:`CacheSession`, one instance per shard."""

    def __init__(
        self,
        resolver,
        table_dump,
        payloads,
        session: CacheSession,
        inner=None,
    ):
        self._resolver = resolver
        self._dump = table_dump
        self._payloads = payloads
        self._session = session
        self._inner = inner          # ResilientFunnel on fault runs
        self._namespace = resolver.namespace
        self._vantage = resolver.vantage
        #: Artifacts computed by this shard, per stage — adopted by the
        #: session (and shipped over the process wire) after the run.
        self.fresh: Dict[str, dict] = {stage: {} for stage in STAGES}
        #: Hit/miss counts by stage key ("dns.www", "prefix", "form.plain"…).
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}

    # -- the funnel ----------------------------------------------------------

    def measure_domain(self, domain: Domain) -> DomainMeasurement:
        """Steps 2-4 for one domain (both name forms)."""
        www = self.measure_form(domain.www_name, "www")
        plain = self.measure_form(domain.name, "plain")
        return DomainMeasurement(domain=domain, www=www, plain=plain)

    def measure_form(self, name: str, form: str) -> NameMeasurement:
        if self._inner is not None:
            return self._form_level(name, form)
        return self._staged(name, form)

    # -- staged caching (plain runs) ----------------------------------------

    def _staged(self, name: str, form: str) -> NameMeasurement:
        entry = self._lookup("dns", name)
        if entry is not None:
            self._hit(f"dns.{form}")
            measurement = self._dns_from_entry(name, entry)
            self._replay(entry[5])
        else:
            self._miss(f"dns.{form}")
            measurement, deltas = self._capture(
                lambda: measure_name(self._resolver, name)
            )
            self.fresh["dns"][name] = [
                name_fingerprint(self._namespace, self._vantage, name),
                measurement.resolved,
                [list(a) for a in measurement.addresses],
                measurement.excluded_special,
                measurement.cname_count,
                deltas,
            ]
        if measurement.resolved and measurement.addresses:
            pairs = self._map_addresses(measurement)
            measurement.pairs = self._validate(pairs)
        return measurement

    @staticmethod
    def _dns_from_entry(name: str, entry: list) -> NameMeasurement:
        measurement = NameMeasurement(name=name)
        measurement.resolved = entry[1]
        measurement.addresses = [Address(*row) for row in entry[2]]
        measurement.excluded_special = entry[3]
        measurement.cname_count = entry[4]
        return measurement

    def _map_addresses(
        self, measurement: NameMeasurement
    ) -> List[Tuple[Prefix, ASN]]:
        pairs: set = set()
        missing: List[Tuple[str, Address]] = []
        for address in measurement.addresses:
            key = "{}:{}".format(*address)
            entry = self._lookup("prefix", key)
            if entry is None:
                missing.append((key, address))
                continue
            self._hit("prefix")
            for *prefix, origin in entry[0]:
                pairs.add((Prefix(*prefix), ASN(origin)))
            measurement.unreachable_addresses += entry[1]
            measurement.as_set_excluded += entry[2]
            self._replay(entry[3])
        if missing:
            with tracer().span("stage.prefix", name=measurement.name):
                for key, address in missing:
                    self._miss("prefix")
                    (mapped, unreachable, as_set), deltas = self._capture(
                        lambda a=address: map_single_address(self._dump, a)
                    )
                    pairs.update(mapped)
                    measurement.unreachable_addresses += unreachable
                    measurement.as_set_excluded += as_set
                    self.fresh["prefix"][key] = [
                        [[*p, int(o)] for p, o in mapped],
                        unreachable,
                        as_set,
                        deltas,
                    ]
        return sorted(pairs)

    def _validate(
        self, pair_inputs: List[Tuple[Prefix, ASN]]
    ) -> List[PrefixOriginPair]:
        validated: List[Optional[PrefixOriginPair]] = []
        missing: List[Tuple[int, str, Prefix, ASN]] = []
        for index, (prefix, origin) in enumerate(pair_inputs):
            key = _pair_key(prefix, origin)
            entry = self._lookup("rpki", key)
            if entry is None:
                validated.append(None)
                missing.append((index, key, prefix, origin))
                continue
            self._hit("rpki")
            validated.append(
                PrefixOriginPair(prefix, origin, OriginValidation(entry[0]))
            )
            self._replay(entry[1])
        if missing:
            with tracer().span("stage.rpki"):
                for index, key, prefix, origin in missing:
                    self._miss("rpki")
                    pair, deltas = self._capture(
                        lambda p=prefix, o=origin: validate_single_pair(
                            self._payloads, p, o
                        )
                    )
                    validated[index] = pair
                    self.fresh["rpki"][key] = [pair.state.value, deltas]
        return validated  # type: ignore[return-value]

    # -- form-level caching (fault runs) ------------------------------------

    def _form_level(self, name: str, form: str) -> NameMeasurement:
        entry = self._lookup("form", name)
        if entry is not None:
            self._hit(f"form.{form}")
            measurement = decode_name(entry[1])
            self._replay(entry[2])
            return measurement
        self._miss(f"form.{form}")
        measurement, deltas = self._capture(
            lambda: self._inner.measure_form(name)
        )
        if not measurement.degraded_stage:
            self.fresh["form"][name] = [
                name_fingerprint(self._namespace, self._vantage, name),
                list(encode_name(measurement)),
                deltas,
            ]
        return measurement

    # -- plumbing ------------------------------------------------------------

    def _lookup(self, stage: str, key: str) -> Optional[list]:
        entry = self.fresh[stage].get(key)
        if entry is not None:
            return entry
        return self._session.get(stage, key)

    def _capture(self, fn: Callable) -> Tuple[object, List[list]]:
        """Run ``fn`` under a scratch registry; return (value, delta).

        The scratch is used even with observability disabled: an
        unobserved cold run must still store deltas so a later
        *observed* warm run can replay them.
        """
        live = metrics()
        scratch = MetricsRegistry()
        with thread_scope(scratch, tracer()):
            value = fn()
        if live.enabled:
            live.merge(scratch)
        return value, registry_to_wire(scratch)

    def _replay(self, deltas: List[list]) -> None:
        live = metrics()
        if live.enabled:
            live.merge(registry_from_wire(deltas))

    def _hit(self, stage_key: str) -> None:
        self.hits[stage_key] = self.hits.get(stage_key, 0) + 1
        metrics().counter(
            CACHE_HITS_METRIC,
            _STAT_HELP[CACHE_HITS_METRIC],
            labelnames=("stage",),
        ).labels(stage=stage_key).inc()

    def _miss(self, stage_key: str) -> None:
        self.misses[stage_key] = self.misses.get(stage_key, 0) + 1
        metrics().counter(
            CACHE_MISSES_METRIC,
            _STAT_HELP[CACHE_MISSES_METRIC],
            labelnames=("stage",),
        ).labels(stage=stage_key).inc()
