"""The funnel computes each distinct address and pair once per call.

Step 3 runs once per distinct address and step 4 once per distinct
(prefix, origin) pair of a :func:`repro.core.pipeline.run_funnel`
call — the whole ranking on a serial run, one shard's slice on a
sharded one — and the result still equals the per-form oracle, down
to the Prometheus text an observed run renders.  A fault run is the
same memoised funnel under a closed-form overlay, and equals the
per-call walk that retries every stage through fault-injecting
proxies (``tests/fault_oracle.py``).
"""

import pytest

from repro import obs
from repro.core import MeasurementStudy, RunConfig, StudyStatistics
from repro.core.dns_mapping import measure_name
from repro.core.prefix_mapping import map_addresses
from repro.core.records import DomainMeasurement
from repro.core.rpki_validation import validate_pairs
from repro.exec.sharding import plan_shards
from repro.faults import FaultPlan
from repro.web import EcosystemConfig, WebEcosystem
from tests.fault_oracle import FaultWalk


@pytest.fixture(scope="module")
def study():
    world = WebEcosystem.build(
        EcosystemConfig(domain_count=300, seed=11, hoster_count=40, eyeball_count=20)
    )
    return MeasurementStudy.from_ecosystem(world)


def _distinct(measurements):
    forms = [form for m in measurements for form in (m.www, m.plain)]
    addresses = {a for form in forms if form.resolved for a in form.addresses}
    pairs = {(pair.prefix, pair.origin) for form in forms for pair in form.pairs}
    return len(addresses), len(pairs)


def test_serial_run_computes_each_distinct_thing_once(study, calls):
    result = study.run()
    addresses, pairs = _distinct(result)
    assert calls == {"addresses": addresses, "pairs": pairs}
    # Repeats exist, so the memo is doing something.
    lookups = sum(
        len(form.addresses)
        for m in result
        for form in (m.www, m.plain)
        if form.resolved
    )
    assert lookups > addresses


def test_sharded_run_computes_once_per_shard(study, calls):
    config = RunConfig(workers=3, mode="thread")
    result = study.run(config=config)
    shards = plan_shards(list(study.ranking), workers=3)
    assert len(shards) > 1
    measurements = list(result)
    expected = [0, 0]
    for shard in shards:
        part = [m for m in measurements if m.domain in shard.domains]
        for index, count in enumerate(_distinct(part)):
            expected[index] += count
    assert calls == {"addresses": expected[0], "pairs": expected[1]}
    assert result == study.run()


def test_memo_matches_the_per_form_oracle(study):
    """Every form equals steps 2-4 run on it alone, with no memo."""
    for measurement in study.run():
        for form in (measurement.www, measurement.plain):
            oracle = measure_name(study.resolver, form.name)
            if oracle.resolved and oracle.addresses:
                oracle.pairs = validate_pairs(
                    study.payloads, map_addresses(study.table_dump, oracle)
                )
            assert form == oracle


@pytest.fixture(scope="module")
def memo_free_exposition(study):
    """Steps 2-4 per form with no memo, then the one funnel-family write."""
    with obs.scope() as (registry, _collector):
        measurements = []
        for domain in study.ranking:
            forms = []
            for name in (domain.www_name, domain.name):
                form = measure_name(study.resolver, name)
                if form.resolved and form.addresses:
                    form.pairs = validate_pairs(
                        study.payloads, map_addresses(study.table_dump, form)
                    )
                forms.append(form)
            measurements.append(DomainMeasurement(domain, *forms))
        StudyStatistics.from_measurements(measurements).to_metrics(registry)
    return registry.render_prometheus()


@pytest.mark.parametrize(
    "config",
    [RunConfig(), RunConfig(workers=3, mode="thread")],
    ids=["serial", "sharded"],
)
def test_observed_run_renders_the_memo_free_walk(
    study, memo_free_exposition, config
):
    """Stage counters (delta x uses) and funnel families both match."""
    with obs.scope() as (registry, _collector):
        study.run(config=config)
    assert registry.render_prometheus() == memo_free_exposition


@pytest.fixture(scope="module")
def fault_walks(study):
    """The per-call fault walk's result and exposition, by (profile, attempts)."""
    walks = {}

    def walk(profile, max_attempts):
        if (profile, max_attempts) not in walks:
            config = RunConfig(
                faults=FaultPlan.from_profile(profile, seed=7),
                max_attempts=max_attempts,
            )
            with obs.scope() as (registry, _collector):
                result = FaultWalk(study, config).run()
            walks[profile, max_attempts] = (
                result, registry.render_prometheus()
            )
        return walks[profile, max_attempts]

    return walk


@pytest.mark.parametrize("workers", [1, 3], ids=["serial", "sharded"])
@pytest.mark.parametrize("max_attempts", [1, 3, 5])
@pytest.mark.parametrize("profile", ["flaky", "degraded", "chaos"])
def test_fault_run_renders_the_per_call_fault_walk(
    study, fault_walks, profile, max_attempts, workers
):
    """Degradations, retries, faults, every form and the exposition."""
    expected, exposition = fault_walks(profile, max_attempts)
    # More attempts than a site can fail in a row heal every form.
    heals = max_attempts > FaultPlan().max_consecutive
    assert expected.statistics.faults_total > 0
    assert bool(expected.statistics.degraded_domains) is not heals
    config = RunConfig(
        workers=workers,
        mode="thread" if workers > 1 else "auto",
        faults=FaultPlan.from_profile(profile, seed=7),
        max_attempts=max_attempts,
    )
    with obs.scope() as (registry, _collector):
        result = study.run(config=config)
    assert result == expected
    assert registry.render_prometheus() == exposition
