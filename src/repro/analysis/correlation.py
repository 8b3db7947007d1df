"""Branch-property ↔ temperature correlation (§2.4, Fig. 8).

The paper asks whether cheap static/dynamic branch properties could predict
temperature without simulating the optimal policy — and finds that only the
holistic (average) reuse distance correlates strongly.  This module computes
the same four correlations: branch type, target distance, branch bias, and
average set-local reuse distance, each against the hit-to-taken percentage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.reuse import set_reuse_distance_sequences
from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.core.profiler import OptProfile, profile_trace
from repro.trace.record import BranchKind, BranchTrace
from repro.trace.stream import access_stream_for

__all__ = ["BranchFeatures", "CorrelationResult",
           "branch_property_correlations"]


@dataclass
class BranchFeatures:
    """Per-branch feature vector used for the Fig. 8 correlations."""

    pc: int
    temperature: float
    is_conditional: float
    target_distance: float       # log2 of |target - pc|
    bias: float                  # taken fraction over all executions
    avg_reuse_distance: float    # log2-compressed mean set-local distance


@dataclass(frozen=True)
class CorrelationResult:
    """Absolute Pearson correlations with branch temperature (one Fig. 8
    bar group)."""

    trace_name: str
    branch_type: float
    target_distance: float
    bias: float
    avg_reuse_distance: float
    branches_measured: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "branch_type": self.branch_type,
            "target_distance": self.target_distance,
            "bias": self.bias,
            "avg_reuse_distance": self.avg_reuse_distance,
        }


def _abs_pearson(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) < 2 or np.std(x) == 0.0 or np.std(y) == 0.0:
        return 0.0
    return float(abs(np.corrcoef(x, y)[0, 1]))


def branch_property_correlations(trace: BranchTrace,
                                 config: BTBConfig = DEFAULT_BTB_CONFIG,
                                 profile: OptProfile | None = None,
                                 min_samples: int = 2) -> CorrelationResult:
    """Compute the four Fig. 8 correlations for one application."""
    stream = access_stream_for(trace, config)
    if profile is None:
        profile = profile_trace(trace, config, stream=stream)
    reuse = set_reuse_distance_sequences(stream.pcs_list, stream.sets_list)

    # Static/dynamic per-branch properties from the full trace.
    t_pcs, t_targets, t_kinds, t_taken, _ = stream.trace_columns()
    kind_by_pc: Dict[int, int] = {}
    target_by_pc: Dict[int, int] = {}
    taken_counts: Dict[int, List[int]] = {}
    for i in range(len(t_pcs)):
        pc = t_pcs[i]
        counts = taken_counts.get(pc)
        if counts is None:
            counts = [0, 0]
            taken_counts[pc] = counts
            kind_by_pc[pc] = t_kinds[i]
            target_by_pc[pc] = t_targets[i]
        counts[0] += 1
        if t_taken[i]:
            counts[1] += 1

    features: List[BranchFeatures] = []
    for pc, temperature in zip(profile.pcs.tolist(),
                               profile.hit_to_taken_column().tolist()):
        seq = reuse.get(pc)
        if not seq or len(seq) < min_samples:
            continue
        executions, taken = taken_counts.get(pc, [0, 0])
        features.append(BranchFeatures(
            pc=pc,
            temperature=temperature,
            is_conditional=float(
                kind_by_pc.get(pc) == int(BranchKind.COND_DIRECT)),
            target_distance=math.log2(
                1 + abs(target_by_pc.get(pc, pc) - pc)),
            bias=taken / executions if executions else 0.0,
            avg_reuse_distance=math.log2(
                1 + sum(seq) / len(seq))))

    if not features:
        return CorrelationResult(trace.name, 0.0, 0.0, 0.0, 0.0, 0)
    temperature = np.array([f.temperature for f in features])
    return CorrelationResult(
        trace_name=trace.name,
        branch_type=_abs_pearson(
            np.array([f.is_conditional for f in features]), temperature),
        target_distance=_abs_pearson(
            np.array([f.target_distance for f in features]), temperature),
        bias=_abs_pearson(
            np.array([f.bias for f in features]), temperature),
        avg_reuse_distance=_abs_pearson(
            np.array([f.avg_reuse_distance for f in features]), temperature),
        branches_measured=len(features))
