"""ROV adoption inference and what-if counterfactuals.

Two halves, one question — who filters invalid routes, and what would
change if more networks did?

* :mod:`repro.rov.experiment` infers per-AS ROV enforcement from
  controlled anchor/experiment announcement pairs (Reuter et al.'s
  methodology over the synthetic topology).
* :mod:`repro.rov.whatif` scores seeded adoption futures — "these
  organisations sign, those ASes enforce" — against the paper's
  Fig. 2 / Fig. 4 web-exposure funnel plus replayed prefix hijacks.
"""

from repro.rov.annotation import (
    ANNOTATION_INVALID_AS_SET,
    ANNOTATION_INVALID_ASN,
    ANNOTATION_INVALID_BOTH,
    ANNOTATION_INVALID_LENGTH,
    ANNOTATION_NAMES,
    ANNOTATION_UNKNOWN,
    ANNOTATION_VALID,
    annotate_route,
)
from repro.rov.experiment import (
    DEFAULT_ENFORCEMENT_RATES,
    EXPERIMENT_RANGE,
    ASVerdict,
    ExperimentRound,
    ExperimentSpec,
    RovExperimentRunner,
    RovReport,
    Verdict,
    build_round,
    experiment_prefix_pair,
    run_round,
    seeded_enforcers,
    topology_digest,
)
from repro.rov.futures import (
    NAMED_FUTURES,
    AdoptionFuture,
    future_census,
    named_future,
    named_futures,
    sample_futures,
)
from repro.rov.whatif import (
    ExposureDelta,
    ExposureSnapshot,
    WhatIfEngine,
    whatif,
)

__all__ = [
    "ANNOTATION_INVALID_AS_SET",
    "ANNOTATION_INVALID_ASN",
    "ANNOTATION_INVALID_BOTH",
    "ANNOTATION_INVALID_LENGTH",
    "ANNOTATION_NAMES",
    "ANNOTATION_UNKNOWN",
    "ANNOTATION_VALID",
    "annotate_route",
    "DEFAULT_ENFORCEMENT_RATES",
    "EXPERIMENT_RANGE",
    "ASVerdict",
    "ExperimentRound",
    "ExperimentSpec",
    "RovExperimentRunner",
    "RovReport",
    "Verdict",
    "build_round",
    "experiment_prefix_pair",
    "run_round",
    "seeded_enforcers",
    "topology_digest",
    "NAMED_FUTURES",
    "AdoptionFuture",
    "future_census",
    "named_future",
    "named_futures",
    "sample_futures",
    "ExposureDelta",
    "ExposureSnapshot",
    "WhatIfEngine",
    "whatif",
]
