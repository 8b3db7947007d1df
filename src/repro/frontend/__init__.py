"""Decoupled-frontend (FDIP) timing model.

A cycle-approximate model of the Table-1 machine: a 6-wide core with a
24-entry FTQ whose fetch-directed instruction prefetcher runs ahead of
demand as long as the BTB keeps supplying taken-branch targets.  The model
charges cycles for BTB misses (frontend redirects), direction mispredicts,
indirect-target mispredicts, RAS underflows, and *exposed* I-cache miss
latency (latency not hidden by FDIP run-ahead).

It is not a ChampSim replacement — there is no out-of-order backend — but
frontend-bound workloads' IPC deltas are dominated by exactly the stall
sources modeled here, which is what the paper's experiments measure (see
DESIGN.md §2 for the substitution argument).
"""

from repro.frontend.params import FrontendParams, DEFAULT_FRONTEND_PARAMS
from repro.frontend.branch_predictor import (AlwaysTakenPredictor,
                                             BimodalPredictor,
                                             DirectionPredictor,
                                             GSharePredictor,
                                             PerceptronPredictor,
                                             PerfectPredictor,
                                             TageLitePredictor)
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.icache import CacheModel, InstructionHierarchy
from repro.frontend.fdip import FDIPEngine
from repro.frontend.simulator import FrontendSimulator, SimResult, simulate
from repro.frontend.kernels import fast_sim_enabled, fast_sim_supported

__all__ = [
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "CacheModel",
    "DEFAULT_FRONTEND_PARAMS",
    "DirectionPredictor",
    "FDIPEngine",
    "FrontendParams",
    "FrontendSimulator",
    "GSharePredictor",
    "InstructionHierarchy",
    "PerceptronPredictor",
    "PerfectPredictor",
    "ReturnAddressStack",
    "SimResult",
    "TageLitePredictor",
    "fast_sim_enabled",
    "fast_sim_supported",
    "simulate",
]
