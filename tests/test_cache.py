"""The snapshot cache: store format, fingerprints, and warm-run equivalence.

The load-bearing guarantees under test:

* a warm run with unchanged inputs recomputes *nothing* (zero misses)
  and returns a result bit-identical to the cold run — including the
  merged metric registry, excluding only the ``ripki_cache_*``
  families themselves;
* a single changed ROA invalidates exactly the (prefix, origin)
  artifacts its prefix covers, never the DNS layer;
* a stage a fault run's form lost is never written to the store;
* the store is a cache, not a source of truth: version mismatches,
  corruption and rows that fail their checking constructor load as a
  cold start, never an error.
"""

import dataclasses
import json
import os

import pytest

from repro.cache import (
    CacheSession,
    load_store,
    name_fingerprint,
    save_store,
    store_path,
    vrp_items,
    zone_digest,
)
from repro.cache.store import STORE_VERSION
from repro.core import CacheConfig, MeasurementStudy, RunConfig
from repro.core.reports import pipeline_statistics
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, TraceCollector, scope
from repro.obs.metrics import registry_from_wire, registry_to_wire
from repro.rpki import ValidatedPayloads
from repro.web import EcosystemConfig, WebEcosystem


@pytest.fixture(scope="module")
def world():
    return WebEcosystem.build(
        EcosystemConfig(domain_count=250, seed=9, hoster_count=40, eyeball_count=20)
    )


@pytest.fixture(scope="module")
def study(world):
    return MeasurementStudy.from_ecosystem(world)


def _strip_cache_lines(text):
    return "\n".join(
        line for line in text.splitlines() if "ripki_cache_" not in line
    )


def _without_cache_stats(stats):
    clone = dataclasses.replace(stats)
    clone.cache_hits_by_stage = {}
    clone.cache_misses_by_stage = {}
    clone.cache_invalidated_by_stage = {}
    return clone


def _observed_run(study, config=None):
    registry = MetricsRegistry()
    with scope(registry, TraceCollector()):
        if config is None:
            result = study.run()
        else:
            result = study.run(config=config)
        pipeline_statistics(result, registry)
    return result, registry


class TestStoreFormat:
    def test_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ripki_x_total", "x").inc(3)
        deltas = registry_to_wire(registry)
        stages = {
            "dns": {"a.example": ["fp", True, [[4, 1]], 0, 1, deltas]},
            "prefix": {"4:1": [[[4, 0, 8, 65000]], 0, 0, deltas]},
            "rpki": {"4:0:8:65000": ["valid", deltas]},
        }
        digests = {"zone": "z", "dump": "d", "vrps": "v", "config": "c"}
        path = save_store(str(tmp_path), digests, [[4, 0, 8, 8, 65000, ""]], stages)
        assert path == store_path(str(tmp_path))
        loaded = load_store(str(tmp_path))
        assert loaded is not None
        assert loaded["digests"] == digests
        assert loaded["vrp_set"] == [[4, 0, 8, 8, 65000, ""]]
        # Deltas survive interning and the JSON round-trip.
        entry = loaded["stages"]["dns"]["a.example"]
        replayed = registry_from_wire(entry[5])
        assert replayed.get("ripki_x_total").value == 3

    def test_save_does_not_mutate_entries(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ripki_x_total", "x").inc(1)
        deltas = registry_to_wire(registry)
        entry = ["fp", True, [], 0, 0, deltas]
        stages = {"dns": {"a": entry}, "prefix": {}, "rpki": {}}
        save_store(
            str(tmp_path),
            {"zone": "z", "dump": "d", "vrps": "v", "config": "c"},
            [],
            stages,
        )
        assert entry[5] is deltas
        assert deltas[0][0] == "ripki_x_total"

    def test_version_mismatch_loads_cold(self, tmp_path):
        save_store(
            str(tmp_path),
            {"zone": "z", "dump": "d", "vrps": "v", "config": "c"},
            [],
            {"dns": {}, "prefix": {}, "rpki": {}},
        )
        payload = json.loads(open(store_path(str(tmp_path))).read())
        payload["version"] = STORE_VERSION + 1
        with open(store_path(str(tmp_path)), "w") as handle:
            json.dump(payload, handle)
        assert load_store(str(tmp_path)) is None

    def test_corruption_loads_cold(self, tmp_path):
        assert load_store(str(tmp_path)) is None  # missing
        with open(store_path(str(tmp_path)), "w") as handle:
            handle.write("{not json")
        assert load_store(str(tmp_path)) is None

    def test_written_text_is_canonical_json(self, tmp_path):
        """The store is written value by value, yet reads as one
        ``json.dumps(..., sort_keys=True)`` of itself: cold, after
        churn (read + write), and after a fault run."""
        # A private world: rehosting mutates the shared namespace.
        own = WebEcosystem.build(
            EcosystemConfig(domain_count=150, seed=5, hoster_count=20)
        )
        plain = RunConfig(cache=CacheConfig(str(tmp_path / "plain")))
        faulty = RunConfig(
            cache=CacheConfig(str(tmp_path / "faulty")),
            faults=FaultPlan.from_profile("flaky", seed=5),
        )

        def assert_canonical(config):
            text = open(store_path(config.cache.directory)).read()
            canonical = json.dumps(
                json.loads(text), sort_keys=True, separators=(",", ":")
            )
            assert text == canonical + "\n"
            return text

        MeasurementStudy.from_ecosystem(own).run(config=plain)
        cold = assert_canonical(plain)
        MeasurementStudy.from_ecosystem(own).run(config=faulty)
        assert json.loads(assert_canonical(faulty))["stages"]["dns"]
        assert own.rehost(0.05, generation=1)
        churned = MeasurementStudy.from_ecosystem(own).run(config=plain)
        assert sum(churned.statistics.cache_misses_by_stage.values()) > 0
        assert assert_canonical(plain) != cold


class TestRegistryWire:
    def test_histograms_and_labels_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", labelnames=("kind",)).labels(
            kind="a"
        ).inc(2)
        registry.gauge("g", "g").set(1.5)
        histogram = registry.histogram("h_seconds", "h", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        wire = json.loads(json.dumps(registry_to_wire(registry)))
        rebuilt = registry_from_wire(wire)
        assert rebuilt.render_prometheus() == registry.render_prometheus()

    def test_empty_labeled_family_keeps_labelnames(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", labelnames=("kind",))
        rebuilt = registry_from_wire(registry_to_wire(registry))
        rebuilt.get("c_total").labels(kind="x").inc()
        assert rebuilt.get("c_total").labels(kind="x").value == 1


class TestFingerprints:
    def test_name_fingerprint_is_stable(self, world):
        namespace = world.namespace
        name = world.ranking.top(1)[0].name
        first = name_fingerprint(namespace, "berlin", name)
        assert name_fingerprint(namespace, "berlin", name) == first

    def test_name_fingerprint_tracks_record_changes(self):
        # A private world: rehosting mutates the shared namespace.
        own = WebEcosystem.build(
            EcosystemConfig(domain_count=120, seed=3, hoster_count=20)
        )
        namespace = own.namespace
        names = [d.name for d in own.ranking]
        before = {n: name_fingerprint(namespace, "berlin", n) for n in names}
        zone_before = zone_digest(namespace)
        moved = own.rehost(0.1, generation=1)
        assert moved
        assert zone_digest(namespace) != zone_before
        after = {n: name_fingerprint(namespace, "berlin", n) for n in names}
        changed = {n for n in names if after[n] != before[n]}
        # Every untouched domain keeps its fingerprint; rehosted
        # domains (modulo coincidentally identical hosting) change.
        assert changed <= set(moved)
        assert changed

    def test_vrp_items_are_canonical(self, study):
        items = vrp_items(study.payloads)
        assert items == sorted(items)
        shuffled = ValidatedPayloads(list(study.payloads)[::-1])
        assert vrp_items(shuffled) == items


class TestWarmRuns:
    def test_warm_run_is_bit_identical_and_computes_nothing(
        self, study, tmp_path
    ):
        config = RunConfig(cache=CacheConfig(str(tmp_path)))
        reference, ref_registry = _observed_run(study)
        cold, cold_registry = _observed_run(study, config)
        warm, warm_registry = _observed_run(study, config)

        assert list(cold) == list(reference)
        assert list(warm) == list(cold)
        assert _without_cache_stats(cold.statistics) == reference.statistics
        assert _without_cache_stats(
            warm.statistics
        ) == _without_cache_stats(cold.statistics)
        # Zero recomputation on the warm run.
        assert warm.statistics.cache_misses_by_stage == {}
        assert warm.statistics.cache_hits_by_stage["dns.plain"] == len(study.ranking)
        assert warm.statistics.cache_hits_by_stage["dns.www"] == len(study.ranking)
        # Metric output identical modulo the cache families.
        assert _strip_cache_lines(
            cold_registry.render_prometheus()
        ) == _strip_cache_lines(ref_registry.render_prometheus())
        assert _strip_cache_lines(
            warm_registry.render_prometheus()
        ) == _strip_cache_lines(cold_registry.render_prometheus())

    @pytest.mark.parametrize("damage", [
        "truncated", "wrong-version", "stages-not-a-mapping",
        "delta-row-not-a-pair",
        # Rows that parse but fail a checking constructor at open.
        "rpki-key-not-a-pair-under-vrp-drift", "prefix-row-with-host-bits",
        "unknown-verdict", "short-vrp-set-row",
        # Fields that compare equal to an int but are not one: a bool
        # address value, a float origin.
        "dns-address-value-bool", "prefix-origin-float",
        # A metric delta whose series value is not a number.
        "delta-value-a-string",
    ])
    def test_unusable_store_runs_cold_and_is_replaced(
        self, study, tmp_path, damage
    ):
        config = RunConfig(cache=CacheConfig(str(tmp_path)))
        study.run(config=config)
        path = store_path(str(tmp_path))
        with open(path) as handle:
            text = handle.read()
        payload = json.loads(text)
        stages = payload["stages"]
        if damage == "wrong-version":
            payload["version"] = STORE_VERSION + 1
        elif damage == "stages-not-a-mapping":
            payload["stages"] = list(stages)
        elif damage == "delta-row-not-a-pair":
            entry = next(iter(stages["dns"].values()))
            entry[5][0] = entry[5][0] + ["extra"]
        elif damage == "rpki-key-not-a-pair-under-vrp-drift":
            stages["rpki"]["x:y"] = next(iter(stages["rpki"].values()))
            payload["digests"]["vrps"] = "drifted"
        elif damage == "prefix-row-with-host-bits":
            pairs = next(row[0] for row in stages["prefix"].values() if row[0])
            family, value, length, origin = pairs[0]
            assert length < 32
            pairs[0] = [family, value | 1, length, origin]
        elif damage == "dns-address-value-bool":
            addresses = next(
                row[2] for row in stages["dns"].values() if row[2]
            )
            addresses[0] = [4, True]
        elif damage == "prefix-origin-float":
            pairs = next(row[0] for row in stages["prefix"].values() if row[0])
            family, value, length, _origin = pairs[0]
            pairs[0] = [family, value, length, 1.5]
        elif damage == "delta-value-a-string":
            kinds = [family[1] for family in payload["metrics"]]
            series = next(
                series[0]
                for row in stages["dns"].values()
                for index, series in row[5]
                if kinds[index] == "counter" and series
            )
            series[1] = "lots"
        elif damage == "unknown-verdict":
            next(iter(stages["rpki"].values()))[0] = "bogus"
        elif damage == "short-vrp-set-row":
            payload["vrp_set"][0] = payload["vrp_set"][0][:2]
            payload["digests"]["vrps"] = "drifted"
        damaged = (
            text[: len(text) // 2] if damage == "truncated"
            else json.dumps(payload)
        )
        with open(path, "w") as handle:
            handle.write(damaged)
        if load_store(str(tmp_path)) is not None:
            session = CacheSession.open(str(tmp_path), study, config)
            assert not any(session.memo.values())

        reference = study.run()
        rerun = study.run(config=config)
        assert list(rerun) == list(reference)
        assert _without_cache_stats(rerun.statistics) == reference.statistics
        misses = rerun.statistics.cache_misses_by_stage
        assert misses["dns.www"] == misses["dns.plain"] == len(study.ranking)
        assert load_store(str(tmp_path)) is not None
        warm = study.run(config=config)
        assert warm.statistics.cache_misses_by_stage == {}

    def test_unobserved_cold_run_still_feeds_observed_warm_run(
        self, study, tmp_path
    ):
        config = RunConfig(cache=CacheConfig(str(tmp_path)))
        study.run(config=config)  # cold, no registry installed
        _reference, ref_registry = _observed_run(study)
        warm, warm_registry = _observed_run(study, config)
        assert warm.statistics.cache_misses_by_stage == {}
        assert _strip_cache_lines(
            warm_registry.render_prometheus()
        ) == _strip_cache_lines(ref_registry.render_prometheus())


class TestSelectiveInvalidation:
    def test_single_roa_delta_touches_only_covered_pairs(
        self, study, tmp_path
    ):
        config = RunConfig(cache=CacheConfig(str(tmp_path)))
        cold, _ = _observed_run(study, config)

        # Revoke one VRP whose prefix covers at least one measured pair.
        measured_prefixes = {
            pair.prefix
            for m in cold
            for form in (m.www, m.plain)
            for pair in form.pairs
        }
        vrps = list(study.payloads)
        victim = next(
            vrp
            for vrp in vrps
            if any(vrp.covers(prefix) for prefix in measured_prefixes)
        )
        modified = ValidatedPayloads(vrp for vrp in vrps if vrp is not victim)
        changed_study = MeasurementStudy(
            study.ranking, study.resolver, study.table_dump, modified
        )

        warm, warm_registry = _observed_run(changed_study, config)
        stats = warm.statistics
        # The DNS and prefix layers are untouched...
        assert "dns" not in stats.cache_invalidated_by_stage
        assert "prefix" not in stats.cache_invalidated_by_stage
        assert "config" not in stats.cache_invalidated_by_stage
        assert not any(k.startswith("dns") for k in stats.cache_misses_by_stage)
        assert "prefix" not in stats.cache_misses_by_stage
        # ...while exactly the covered rpki artifacts were dropped.
        invalidated = stats.cache_invalidated_by_stage["rpki"]
        assert 0 < invalidated
        covered = {
            (prefix, origin)
            for m in cold
            for form in (m.www, m.plain)
            for pair in form.pairs
            for prefix, origin in [(pair.prefix, pair.origin)]
            if victim.covers(prefix)
        }
        assert invalidated == len(covered)
        # Fresh entries are shard-local, so a dropped key can miss once
        # per shard that meets it — but only rpki keys miss at all.
        assert stats.cache_misses_by_stage.get("rpki", 0) >= invalidated
        assert set(stats.cache_misses_by_stage) == {"rpki"}
        # The invalidation counter agrees with the statistics.
        counter = warm_registry.get("ripki_cache_invalidated_total")
        assert int(counter.labels(stage="rpki").value) == invalidated
        # And the result equals a fresh uncached run of the new inputs.
        assert list(warm) == list(changed_study.run())

    def test_config_change_invalidates_everything(self, study, tmp_path):
        config = RunConfig(cache=CacheConfig(str(tmp_path)))
        cold, _ = _observed_run(study, config)
        stored = sum(
            len(entries)
            for entries in load_store(str(tmp_path))["stages"].values()
        )
        fault_config = RunConfig(
            cache=CacheConfig(str(tmp_path)),
            faults=FaultPlan.from_profile("flaky", seed=5),
        )
        faulted, _ = _observed_run(study, fault_config)
        assert faulted.statistics.cache_invalidated_by_stage == {
            "config": stored
        }
        # Nothing is served from the store: the run hits and misses
        # exactly as a fault run into an empty directory does.
        fresh, _ = _observed_run(
            study,
            dataclasses.replace(
                fault_config, cache=CacheConfig(str(tmp_path / "fresh"))
            ),
        )
        assert faulted.statistics.cache_hits_by_stage == (
            fresh.statistics.cache_hits_by_stage
        )
        assert faulted.statistics.cache_misses_by_stage == (
            fresh.statistics.cache_misses_by_stage
        )


class TestFaultRuns:
    def test_fault_runs_cache_per_stage_and_skip_lost_stages(
        self, study, tmp_path
    ):
        config = RunConfig(
            cache=CacheConfig(str(tmp_path)),
            faults=FaultPlan.from_profile("flaky", seed=5),
        )
        reference, ref_registry = _observed_run(
            study, RunConfig(faults=FaultPlan.from_profile("flaky", seed=5))
        )
        cold, cold_registry = _observed_run(study, config)
        assert list(cold) == list(reference)
        assert _strip_cache_lines(
            cold_registry.render_prometheus()
        ) == _strip_cache_lines(ref_registry.render_prometheus())
        # The plain run's stage keys: there is no whole-form stage.
        assert set(cold.statistics.cache_misses_by_stage) == {
            "dns.www", "dns.plain", "prefix", "rpki"
        }

        dns_degraded = {
            form.name
            for m in cold
            for form in (m.www, m.plain)
            if form.degraded_stage == "dns"
        }
        assert dns_degraded, "profile should degrade at least one form"
        stored = load_store(str(tmp_path))
        assert stored["stages"]["dns"]
        assert not dns_degraded & set(stored["stages"]["dns"])

        warm, warm_registry = _observed_run(study, config)
        assert list(warm) == list(cold)
        # A degraded form does no work for the stage it lost, so the
        # warm run has nothing to recompute.
        assert warm.statistics.cache_misses_by_stage == {}
        assert _strip_cache_lines(
            warm_registry.render_prometheus()
        ) == _strip_cache_lines(cold_registry.render_prometheus())


class TestSessionObject:
    def test_session_classifies_and_saves(self, study, tmp_path):
        config = RunConfig(cache=CacheConfig(str(tmp_path)))
        study.run(config=config)
        session = CacheSession.open(str(tmp_path), study, config)
        for domain in study.ranking:
            assert domain.www_name in session.memo["dns"]
            assert domain.name in session.memo["dns"]
        assert session.invalidated == {}


class TestCLI:
    def test_run_cache_dir_smoke(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = [
            "run", "--domains", "120", "--seed", "3",
            "--figure", "table1", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "Snapshot cache" in cold_out
        assert os.path.exists(store_path(cache_dir))
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "hit rate: 100.0%" in warm_out

    def test_refresh_smoke(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main([
            "refresh", "--domains", "120", "--seed", "3",
            "--campaigns", "1", "--cache-dir", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign 1 (cache)" in out
        assert main([
            "refresh", "--domains", "120", "--seed", "3", "--campaigns", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign 1 (heuristic)" in out
