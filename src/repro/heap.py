"""Heap discipline: no cyclic collection while a world or a run is made.

The built world is only read and the measurement records hold no
cycles, so the cyclic collector reclaims nothing there; it only walks
the growing heap again and again.  :func:`collector_paused` wraps
``WebEcosystem.build`` and ``MeasurementStudy.run`` (pool children
forked inside a run inherit the pause).  ``gc.freeze()`` is not used:
it would pin any uncollected cyclic garbage for the life of the
process, and the run's own allocations, not the world, are what
triggered the generation-2 passes.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector inside the block, then restore it.

    A no-op when the collector is already off (nested use, or a caller
    that disabled it); otherwise it is re-enabled on exit, also when
    the block raises.  Usable as a decorator.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
