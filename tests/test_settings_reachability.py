"""Every setting changes an output, or it goes.

Every option of every ``ripki`` subcommand and every field of every
settings dataclass (a ``@dataclass`` under ``src/repro`` whose name
ends in ``Config``, ``Profile`` or ``Spec``) has exactly one row in
``SETTINGS``, which says why the setting exists:

* ``INPUT`` — it says what is studied (seed, population, scenario);
* ``SINK`` — it says where a result goes, or which report is printed;
* ``DEPLOYMENT`` — it says where the process listens;
* ``CALIBRATION`` — a model constant; the row names the EXPERIMENTS.md
  section whose quantities it calibrates;
* ``PENDING`` — kept until a ROADMAP item decides it; the row names
  the item (1: the snapshot cache, 4: the parallel backends);
* ``EFFECT`` — a knob; the row names a test that sets it off its
  default and asserts a changed result.

A new flag or field gets a row here, or
``test_every_setting_has_exactly_one_row`` fails; a setting that fits
no class is deleted instead.  Enumeration is by ``ast`` and the
parser itself, so this file runs in well under a second.
"""

import argparse
import ast
import functools
import pathlib
import re

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]

INPUT, SINK, DEPLOYMENT = "input", "sink", "deployment"
CALIBRATION, PENDING, EFFECT = "calibration", "pending", "effect"

# EXPERIMENTS.md section headings a CALIBRATION row may name.
S4 = "Section 4 opening statistics"
FIG1 = "Figure 1 — equal prefixes, www vs w/o-www"
FIG2 = "Figure 2 — RPKI validation outcome by rank"
FIG3 = "Figure 3 — CDN popularity under two heuristics"
FIG4 = "Figure 4 — RPKI deployment, CDNs vs the web at large"
S42 = "Section 4.2 in-text numbers — CDN ASes"
EXT = "Extension experiments"

# ROADMAP items a PENDING row may name.
CACHE, PARALLEL = 1, 4

_CLI = "tests/test_cli.py::TestFlagsChangeOutputs::"

SETTINGS = {
    # -- ripki run ---------------------------------------------------------
    "run --workers": (PENDING, PARALLEL),
    "run --exec-mode": (PENDING, PARALLEL),
    "run --shard-size": (PENDING, PARALLEL),
    "run --job-deadline": (PENDING, PARALLEL),
    "run --fault-profile": (INPUT, None),
    "run --retries": (
        EFFECT, _CLI + "test_run_retries_changes_what_degrades"
    ),
    "run --metrics-out": (SINK, None),
    "run --telemetry-port": (DEPLOYMENT, None),
    "run --telemetry-host": (DEPLOYMENT, None),
    "run --telemetry-linger": (DEPLOYMENT, None),
    "run --domains": (INPUT, None),
    "run --seed": (INPUT, None),
    "run --bins": (EFFECT, _CLI + "test_bins_rebins_the_figures"),
    "run --figure": (SINK, None),
    "run --progress": (SINK, None),
    "run --trace-out": (SINK, None),
    "run --cache-dir": (PENDING, CACHE),
    # -- ripki refresh -----------------------------------------------------
    "refresh --metrics-out": (SINK, None),
    "refresh --telemetry-port": (DEPLOYMENT, None),
    "refresh --telemetry-host": (DEPLOYMENT, None),
    "refresh --telemetry-linger": (DEPLOYMENT, None),
    "refresh --domains": (INPUT, None),
    "refresh --seed": (INPUT, None),
    "refresh --campaigns": (INPUT, None),
    "refresh --churn": (INPUT, None),
    "refresh --cache-dir": (PENDING, CACHE),
    # -- ripki export / audit ----------------------------------------------
    "export --domains": (INPUT, None),
    "export --seed": (INPUT, None),
    "export --outdir": (SINK, None),
    "audit --domains": (INPUT, None),
    "audit --seed": (INPUT, None),
    "audit --rank": (INPUT, None),
    # -- ripki serve -------------------------------------------------------
    "serve --workers": (PENDING, PARALLEL),
    "serve --metrics-out": (SINK, None),
    "serve --telemetry-port": (DEPLOYMENT, None),
    "serve --telemetry-host": (DEPLOYMENT, None),
    "serve --telemetry-linger": (DEPLOYMENT, None),
    "serve --domains": (INPUT, None),
    "serve --seed": (INPUT, None),
    "serve --cache-dir": (PENDING, CACHE),
    "serve --script": (INPUT, None),
    "serve --queries": (INPUT, None),
    "serve --load-seed": (INPUT, None),
    "serve --zipf": (INPUT, None),
    "serve --serve-mode": (PENDING, PARALLEL),
    # A simulated network hop: it exists so threads have IO to overlap.
    "serve --io-wait": (PENDING, PARALLEL),
    "serve --fault-profile": (INPUT, None),
    "serve --json": (SINK, None),
    # -- ripki rtrd --------------------------------------------------------
    "rtrd --workers": (PENDING, PARALLEL),
    "rtrd --metrics-out": (SINK, None),
    "rtrd --telemetry-port": (DEPLOYMENT, None),
    "rtrd --telemetry-host": (DEPLOYMENT, None),
    "rtrd --telemetry-linger": (DEPLOYMENT, None),
    "rtrd --vrps": (INPUT, None),
    "rtrd --seed": (INPUT, None),
    "rtrd --sessions": (INPUT, None),
    "rtrd --rounds": (INPUT, None),
    "rtrd --world-changes": (INPUT, None),
    "rtrd --disconnect": (INPUT, None),
    "rtrd --lag": (INPUT, None),
    "rtrd --garbage": (INPUT, None),
    "rtrd --history": (
        EFFECT, _CLI + "test_history_decides_diff_or_snapshot"
    ),
    "rtrd --rtrd-mode": (PENDING, PARALLEL),
    "rtrd --json": (SINK, None),
    # -- ripki world -------------------------------------------------------
    "world --workers": (PENDING, PARALLEL),
    "world --exec-mode": (PENDING, PARALLEL),
    "world --shard-size": (PENDING, PARALLEL),
    "world --job-deadline": (PENDING, PARALLEL),
    "world --fault-profile": (INPUT, None),
    "world --retries": (
        EFFECT, _CLI + "test_world_retries_changes_what_degrades"
    ),
    "world --metrics-out": (SINK, None),
    "world --telemetry-port": (DEPLOYMENT, None),
    "world --telemetry-host": (DEPLOYMENT, None),
    "world --telemetry-linger": (DEPLOYMENT, None),
    "world --domains": (INPUT, None),
    "world --seed": (INPUT, None),
    "world --profile": (INPUT, None),
    "world --steps": (INPUT, None),
    "world --grace": (
        EFFECT, _CLI + "test_grace_decides_when_stale_points_drop"
    ),
    "world --cache-dir": (PENDING, CACHE),
    "world --json": (SINK, None),
    # -- ripki rov ---------------------------------------------------------
    "rov --workers": (PENDING, PARALLEL),
    "rov --metrics-out": (SINK, None),
    "rov --telemetry-port": (DEPLOYMENT, None),
    "rov --telemetry-host": (DEPLOYMENT, None),
    "rov --telemetry-linger": (DEPLOYMENT, None),
    "rov --domains": (INPUT, None),
    "rov --seed": (INPUT, None),
    "rov --rounds": (INPUT, None),
    "rov --vantages": (INPUT, None),
    "rov --enforce-scale": (INPUT, None),
    "rov --futures": (INPUT, None),
    "rov --samples": (INPUT, None),
    "rov --json": (SINK, None),
    # -- core.pipeline -----------------------------------------------------
    "CacheConfig.directory": (PENDING, CACHE),
    "RunConfig.workers": (PENDING, PARALLEL),
    "RunConfig.mode": (PENDING, PARALLEL),
    "RunConfig.shard_size": (PENDING, PARALLEL),
    "RunConfig.max_attempts": (
        EFFECT,
        "tests/test_resilience.py::TestDegradation::"
        "test_total_dns_outage_degrades_every_domain",
    ),
    "RunConfig.faults": (INPUT, None),
    "RunConfig.progress": (SINK, None),
    "RunConfig.cache": (PENDING, CACHE),
    "RunConfig.job_deadline_s": (PENDING, PARALLEL),
    # -- exec.jobs: the frame the workers backend sends ---------------------
    "JobSpec.job_id": (PENDING, PARALLEL),
    "JobSpec.shard_index": (PENDING, PARALLEL),
    "JobSpec.start": (PENDING, PARALLEL),
    "JobSpec.count": (PENDING, PARALLEL),
    "JobSpec.attempt": (PENDING, PARALLEL),
    "JobSpec.observe": (PENDING, PARALLEL),
    "JobSpec.digests": (PENDING, PARALLEL),
    "JobSpec.config": (PENDING, PARALLEL),
    # -- rov.experiment ------------------------------------------------------
    "ExperimentSpec.rounds": (INPUT, None),
    "ExperimentSpec.vantage_count": (INPUT, None),
    "ExperimentSpec.seed": (INPUT, None),
    # -- rtrd --------------------------------------------------------------
    "ChurnProfile.rounds": (INPUT, None),
    "ChurnProfile.target_sessions": (INPUT, None),
    "ChurnProfile.disconnect": (INPUT, None),
    "ChurnProfile.lag": (INPUT, None),
    "ChurnProfile.garbage": (INPUT, None),
    "ChurnProfile.world_changes": (INPUT, None),
    "ChurnProfile.seed": (INPUT, None),
    "RtrdConfig.workers": (PENDING, PARALLEL),
    "RtrdConfig.mode": (PENDING, PARALLEL),
    "RtrdConfig.history_limit": (
        EFFECT,
        "tests/test_rtrd_daemon.py::TestLagAndHistory::"
        "test_router_behind_history_gets_cache_reset",
    ),
    # -- serve -------------------------------------------------------------
    "LoadProfile.queries": (INPUT, None),
    "LoadProfile.seed": (INPUT, None),
    "LoadProfile.zipf_exponent": (INPUT, None),
    "ServeConfig.workers": (PENDING, PARALLEL),
    "ServeConfig.mode": (PENDING, PARALLEL),
    "ServeConfig.faults": (INPUT, None),
    "ServeConfig.simulated_io_s": (PENDING, PARALLEL),
    "ServeConfig.slo": (SINK, None),
    # -- world -------------------------------------------------------------
    "WorldConfig.profile": (INPUT, None),
    "WorldConfig.seed": (INPUT, None),
    "WorldConfig.grace": (
        EFFECT,
        "tests/test_world_engine.py::TestChurnMechanics::"
        "test_grace_decides_when_stale_points_drop",
    ),
    # -- web: the synthetic ecosystem --------------------------------------
    "EcosystemConfig.seed": (INPUT, None),
    "EcosystemConfig.domain_count": (INPUT, None),
    "EcosystemConfig.tier1_count": (CALIBRATION, S4),
    "EcosystemConfig.transit_count": (CALIBRATION, S4),
    "EcosystemConfig.eyeball_count": (CALIBRATION, S4),
    "EcosystemConfig.hoster_count": (CALIBRATION, S4),
    "EcosystemConfig.include_cdns": (CALIBRATION, S42),
    "EcosystemConfig.v6_org_fraction": (CALIBRATION, S4),
    "EcosystemConfig.more_specific_fraction": (CALIBRATION, FIG2),
    "EcosystemConfig.as_set_fraction": (CALIBRATION, S4),
    "EcosystemConfig.dark_prefix_count": (CALIBRATION, S4),
    "EcosystemConfig.adoption": (CALIBRATION, FIG2),
    "EcosystemConfig.hosting": (CALIBRATION, FIG3),
    "AdoptionConfig.hoster_adoption": (CALIBRATION, FIG2),
    "AdoptionConfig.eyeball_adoption": (CALIBRATION, FIG2),
    "AdoptionConfig.transit_adoption": (CALIBRATION, FIG2),
    "AdoptionConfig.tier1_adoption": (CALIBRATION, FIG2),
    "AdoptionConfig.signed_prefix_fraction": (CALIBRATION, FIG2),
    "AdoptionConfig.misconfig_fraction": (CALIBRATION, FIG2),
    "AdoptionConfig.generous_max_length": (CALIBRATION, FIG2),
    "AdoptionConfig.backup_authorization_fraction": (CALIBRATION, EXT),
    "AdoptionConfig.validation_time": (CALIBRATION, FIG2),
    "HostingConfig.cdn_top_share": (CALIBRATION, FIG3),
    "HostingConfig.cdn_bottom_share": (CALIBRATION, FIG3),
    "HostingConfig.cdn_decay": (CALIBRATION, FIG3),
    "HostingConfig.cdn_chainless_fraction": (CALIBRATION, FIG3),
    "HostingConfig.cdn_apex_same_fraction": (CALIBRATION, FIG1),
    "HostingConfig.cdn_origin_in_cloud": (CALIBRATION, FIG4),
    "HostingConfig.noncdn_www_same": (CALIBRATION, FIG1),
    "HostingConfig.third_party_cache_fraction": (CALIBRATION, FIG4),
    "HostingConfig.domains_per_cache": (CALIBRATION, FIG4),
    "HostingConfig.invalid_dns_fraction": (CALIBRATION, S4),
    "HostingConfig.unreachable_fraction": (CALIBRATION, S4),
    "HostingConfig.ipv6_fraction": (CALIBRATION, S4),
    "HostingConfig.vantage_divergence": (CALIBRATION, EXT),
    "HostingConfig.popular_head_fraction": (CALIBRATION, FIG1),
    "HostingConfig.address_count_weights": (CALIBRATION, S4),
    "SubdomainConfig.shard_top_share": (CALIBRATION, EXT),
    "SubdomainConfig.shard_bottom_share": (CALIBRATION, EXT),
    "SubdomainConfig.ads_share": (CALIBRATION, EXT),
    "SubdomainConfig.ad_network_count": (CALIBRATION, EXT),
    "DnssecConfig.base_adoption": (CALIBRATION, EXT),
    "DnssecConfig.tld_boost": (CALIBRATION, EXT),
    "DnssecConfig.unsigned_tlds": (CALIBRATION, EXT),
    # The resolver services of the vantage-independence experiment.
    "ResolverSpec.name": (CALIBRATION, EXT),
    "ResolverSpec.vantage": (CALIBRATION, EXT),
}

# Settings that changed no output and were deleted; none may return.
DELETED = {
    "serve --batch-size",
    "rtrd --batch-size",
    "ServeConfig.batch_size",
    "RtrdConfig.batch_size",
    "RtrdConfig.session_id",
    "RtrdConfig.refresh_interval",
    "RtrdConfig.max_rounds",
    "WorldConfig.step",
    "WorldConfig.manifest_validity",
    "WorldConfig.crl_validity",
    "WorldConfig.roa_validity",
    "WorldConfig.synthetic_cas",
    "WorldConfig.synthetic_prefixes",
    "WorldConfig.key_bits",
    "ChurnProfile.max_lag_rounds",
    "LoadProfile.mix",
    "LoadProfile.slice_width",
    "ExperimentSpec.wrong_length_every",
    "ExperimentSpec.both_every",
    "rov --exec-mode",
    "worker --fault-profile",
    "worker --retries",
    "worker --domains",
    "worker --seed",
    "worker --worker-id",
    "AdoptionConfig.key_bits",
    "DnssecConfig.key_bits",
    "EcosystemConfig.first_asn",
}


@functools.lru_cache(maxsize=None)
def cli_options():
    """``"<subcommand> <first option string>"`` for every option."""
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return frozenset(
        f"{command} {action.option_strings[0]}"
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        "dataclass" in ast.unparse(decorator)
        for decorator in node.decorator_list
    )


@functools.lru_cache(maxsize=None)
def settings_fields():
    """``"<Class>.<field>"`` for every settings-dataclass field."""
    found = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Profile", "Spec"))
                and _is_dataclass(node)
            ):
                continue
            found.update(
                f"{node.name}.{statement.target.id}"
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and "ClassVar" not in ast.unparse(statement.annotation)
            )
    return frozenset(found)


def _test_source(node_id: str) -> str:
    """The source of the test function a pytest node id names."""
    path, *names = node_id.split("::")
    source = (ROOT / path).read_text("utf-8")
    scope = ast.parse(source).body
    node = None
    for name in names:
        (node,) = [
            child for child in scope
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and child.name == name
        ]
        scope = node.body
    assert isinstance(node, ast.FunctionDef), node_id
    assert node.name.startswith("test"), node_id
    return ast.get_source_segment(source, node)


def _rows(kind):
    return {
        setting: ref
        for setting, (row_kind, ref) in SETTINGS.items()
        if row_kind == kind
    }


def test_every_setting_has_exactly_one_row():
    enumerated = cli_options() | settings_fields()
    assert sorted(enumerated - set(SETTINGS)) == [], "unclassified"
    assert sorted(set(SETTINGS) - enumerated) == [], "stale rows"


def test_effect_rows_name_a_test_that_sets_the_setting():
    for setting, node_id in _rows(EFFECT).items():
        # "run --bins" -> "--bins"; "RunConfig.max_attempts" -> field.
        name = setting.split()[-1].split(".")[-1]
        assert name in _test_source(node_id), (setting, node_id)


def test_calibration_and_pending_rows_name_real_sections():
    experiments = (ROOT / "EXPERIMENTS.md").read_text("utf-8")
    headings = set(re.findall(r"^## (.+)$", experiments, re.MULTILINE))
    for setting, heading in _rows(CALIBRATION).items():
        assert heading in headings, (setting, heading)
    roadmap = (ROOT / "ROADMAP.md").read_text("utf-8")
    for setting, item in _rows(PENDING).items():
        assert re.search(rf"^{item}\. \*\*", roadmap, re.MULTILINE), (
            setting, item,
        )
    for kind in (INPUT, SINK, DEPLOYMENT):
        assert set(_rows(kind).values()) <= {None}


def test_deleted_settings_stay_deleted():
    assert DELETED.isdisjoint(SETTINGS)
    assert DELETED.isdisjoint(cli_options() | settings_fields())
