"""RiPKI reproduction.

A full reproduction of "RiPKI: The Tragic Story of RPKI Deployment in
the Web Ecosystem" (Wählisch et al., ACM HotNets 2015) over a
synthetic but behaviour-faithful Internet: a from-scratch RPKI with
real signature validation, Gao–Rexford BGP propagation with route
collectors, a DNS substrate with CDN CNAME chains, and the paper's
four-step measurement methodology on top.

Quickstart::

    from repro import EcosystemConfig, MeasurementStudy, WebEcosystem

    world = WebEcosystem.build(EcosystemConfig(domain_count=10_000))
    result = MeasurementStudy.from_ecosystem(world).run()

    from repro.core import figure2_rpki_outcome
    fig2 = figure2_rpki_outcome(result)
    print(fig2["valid"].head_mean(10), fig2["valid"].tail_mean(10))
"""

from repro.core import MeasurementStudy, RunConfig, StudyResult
from repro.errors import ReproError, TransientFault
from repro.web import EcosystemConfig, WebEcosystem

__version__ = "1.0.0"

__all__ = [
    "EcosystemConfig",
    "MeasurementStudy",
    "ReproError",
    "RunConfig",
    "StudyResult",
    "TransientFault",
    "WebEcosystem",
    "__version__",
]
