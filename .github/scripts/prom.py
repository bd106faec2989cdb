"""Reader for the Prometheus text files the CLI writes (``--metrics-out``).

The one copy of the parse the CI checks share; stdlib only.  Steps put
this directory on ``PYTHONPATH`` and ``from prom import read_counters``.
"""


def read_counters(path):
    """Every sample line as ``{series name with labels: float value}``."""
    counters = {}
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            counters[name] = float(value)
    return counters
