"""The funnel computes each distinct address and pair once per call.

Step 3 runs once per distinct address and step 4 once per distinct
(prefix, origin) pair of a :func:`repro.core.pipeline.run_funnel`
call — the whole ranking on a serial run, one shard's slice on a
sharded one — and the result still equals the per-form oracle.
"""

import pytest

from repro.core import MeasurementStudy, RunConfig
from repro.core.dns_mapping import measure_name
from repro.core.prefix_mapping import map_addresses
from repro.core.rpki_validation import validate_pairs
from repro.exec.sharding import plan_shards
from repro.web import EcosystemConfig, WebEcosystem


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
