"""Golden test pinning the verdict histogram of a fixed serve load.

One world (400 domains, seed 2015), one generated load (2,000
queries, seed 2015, Zipf 1.1) — the deterministic parts of the run
summary (query mix, verdict histogram, fault-degradation counts) are
pinned in ``tests/goldens/serve_summary.json``.
``tests/test_cli_checks.py::test_serve_loadgen_matches_golden``
replays the same parameters through the CLI and checks its ``--json``
output against the same file, so a drift in the load generator, the
index, or the fault schedule fails both here and there.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_serve_golden.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.core import MeasurementStudy
from repro.faults import FaultPlan
from repro.serve import (
    LoadProfile,
    QueryService,
    ServeConfig,
    ServingIndex,
    generate_load,
    summarize_responses,
)
from repro.web import EcosystemConfig, WebEcosystem

GOLDEN = Path(__file__).parent / "goldens" / "serve_summary.json"
DOMAINS = 400
SEED = 2015
QUERIES = 2_000

_REGEN_HINT = (
    "serve summary drifted from tests/goldens/serve_summary.json; if "
    "intentional, run\n"
    "  PYTHONPATH=src python tests/test_serve_golden.py --regen"
)


def _generate():
    world = WebEcosystem.build(
        EcosystemConfig(domain_count=DOMAINS, seed=SEED)
    )
    study = MeasurementStudy.from_ecosystem(world)
    index = ServingIndex.build(study, study.run())
    queries = generate_load(
        index, LoadProfile(queries=QUERIES, seed=SEED, zipf_exponent=1.1)
    )
    plain = summarize_responses(
        QueryService(index, ServeConfig(mode="serial")).run(queries)
    )
    flaky = summarize_responses(
        QueryService(
            index,
            ServeConfig(
                mode="serial",
                faults=FaultPlan.from_profile("flaky", seed=SEED),
            ),
        ).run(queries)
    )
    return {
        "domains": DOMAINS,
        "seed": SEED,
        "queries": plain["queries"],
        "kind_counts": {
            kind: entry["count"]
            for kind, entry in plain["by_kind"].items()
        },
        "verdicts": plain["verdicts"],
        "flaky_verdicts": flaky["verdicts"],
        "flaky_degraded": flaky["degraded"],
    }


@pytest.fixture(scope="module")
def generated():
    return _generate()


class TestServeGolden:
    def test_matches_golden(self, generated):
        assert GOLDEN.exists(), f"missing golden {GOLDEN}; regenerate first"
        assert generated == json.loads(GOLDEN.read_text()), _REGEN_HINT

    def test_fault_profile_degrades_without_changing_answers(
        self, generated
    ):
        # Markers never change the answers, so the verdict histogram
        # of the degraded run matches the healthy one exactly.
        assert generated["flaky_verdicts"] == generated["verdicts"]
        assert sum(generated["flaky_degraded"].values()) > 0

    def test_load_mix_covers_every_kind(self, generated):
        assert set(generated["kind_counts"]) == {
            "validate", "lookup", "domain", "rank_slice",
        }
        assert sum(generated["kind_counts"].values()) == QUERIES


def _regen() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
