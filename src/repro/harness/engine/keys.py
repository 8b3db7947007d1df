"""Shared job-identity helpers: effective geometry and group keys.

Two places need to agree on "which jobs replay the same stream": the
engine's worker batches (which jobs share one harness, trace and
profile) and its shared-memory stream export (which (trace, geometry)
columns a worker batch can attach).  Both call the helpers below, and
``tests/test_group_keys.py`` pins the semantics.

The subtlety the helpers encode: ``thermometer-7979`` names the
iso-storage variant of Fig. 11, which replays the 7979-entry geometry
*regardless of the job's nominal* :class:`~repro.btb.config.BTBConfig` —
so its hint profile keys on the *effective* geometry, not the nominal
one.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.btb.config import BTBConfig, THERMOMETER_7979_CONFIG

__all__ = ["batch_key", "effective_btb_config", "stream_key"]


def effective_btb_config(policy: str, btb_config: BTBConfig) -> BTBConfig:
    """The geometry ``policy`` actually replays (and profiles hints
    against): the nominal config, except ``thermometer-7979`` which
    always runs the iso-storage 7979-entry configuration."""
    if policy == "thermometer-7979":
        return THERMOMETER_7979_CONFIG
    return btb_config


def stream_key(job) -> Tuple[str, int, Optional[int], BTBConfig]:
    """Identity of the (trace, geometry) pair one shared-memory stream
    export covers (see :mod:`repro.trace.shm`).  Keyed on the *nominal*
    geometry: the export carries the columns the batch's harness would
    build for the job's own config."""
    return (job.app, job.input_id, job.length, job.btb_config)


def batch_key(job) -> Tuple:
    """Identity of the worker batch a job lands in: every job sharing it
    runs through one :class:`~repro.harness.runner.Harness` (one trace,
    one access stream, one profile) in the same worker process."""
    return (job.app, job.input_id, job.harness_config())
