"""Experiment harness: one function per paper figure/table.

Typical use::

    from repro.harness import Harness, experiments
    h = Harness()                       # default: all 13 apps, paper config
    result = experiments.fig11(h)       # main speedup comparison
    print(result.render())

``python -m repro.harness.reproduce`` regenerates every figure.
"""

from repro.harness.runner import Harness, HarnessConfig
from repro.harness.engine import (ArtifactStore, ExperimentEngine,
                                  ExperimentError, JobResult, JobState,
                                  SimJob)
from repro.harness.reporting import ExperimentResult, format_table
from repro.harness import experiments

__all__ = [
    "ArtifactStore",
    "ExperimentEngine",
    "ExperimentError",
    "ExperimentResult",
    "Harness",
    "HarnessConfig",
    "JobResult",
    "JobState",
    "SimJob",
    "experiments",
    "format_table",
]
