"""Shared job-identity helpers: policy variants, geometry, batches.

The process pool's worker batches (:func:`plan_batches`) group the
jobs that replay the same stream: the jobs of one batch share one
harness, trace and profile.  :func:`batch_key` decides the grouping,
and ``tests/test_group_keys.py`` pins its semantics.

The subtlety the helpers encode: ``thermometer-7979`` names the
iso-storage variant of Fig. 11, which replays the 7979-entry geometry
*regardless of the job's nominal* :class:`~repro.btb.config.BTBConfig` —
so its hint profile keys on the *effective* geometry, not the nominal
one.

A policy string may also name a frontend variant (``opt+shotgun``);
:func:`split_policy` is its one parser.  A plain policy parses to
itself, so its cache key never changes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.btb.config import BTBConfig, THERMOMETER_7979_CONFIG
from repro.prefetch.shotgun import shotgun_btb_config

__all__ = ["FRONTEND_VARIANTS", "PERFECT_BTB", "batch_key",
           "effective_btb_config", "plan_batches", "split_policy"]

#: What may follow ``+``: a perfect predictor / I-cache, or a prefetcher.
FRONTEND_VARIANTS = ("perfect-bp", "perfect-icache", "confluence",
                     "shotgun", "twig")
#: The perfect-BTB oracle: no BTB, so no replacement policy and no variant.
PERFECT_BTB = "perfect-btb"


def split_policy(policy: str) -> Tuple[str, Optional[str]]:
    """``'opt+shotgun'`` → ``('opt', 'shotgun')``; ``'lru'`` → ``('lru',
    None)``.  Raises :class:`ValueError` for an empty base policy, an
    unknown or repeated variant, or a variant on ``perfect-btb``."""
    base, plus, variant = policy.partition("+")
    if not plus:
        return policy, None
    if not base or base == PERFECT_BTB or variant not in FRONTEND_VARIANTS:
        raise ValueError(
            f"bad policy {policy!r}: expected '<policy>+<variant>' with a "
            f"variant from {', '.join(FRONTEND_VARIANTS)}")
    return base, variant


def effective_btb_config(policy: str, btb_config: BTBConfig) -> BTBConfig:
    """The geometry ``policy`` actually replays (and profiles hints
    against): the nominal config, except ``thermometer-7979`` which
    always runs the iso-storage 7979-entry configuration, and a
    ``+shotgun`` variant, which loses Shotgun's metadata share of it."""
    base, variant = split_policy(policy)
    if base == "thermometer-7979":
        btb_config = THERMOMETER_7979_CONFIG
    if variant == "shotgun":
        return shotgun_btb_config(btb_config)
    return btb_config


def batch_key(job) -> Tuple:
    """Identity of the worker batch a job lands in: every job sharing it
    runs through one :class:`~repro.harness.runner.Harness` (one trace,
    one access stream, one profile) in the same worker process."""
    return (job.app, job.input_id, job.harness_config())


def plan_batches(jobs: Sequence, target: int) -> List[List[int]]:
    """Group job indices by :func:`batch_key` so each worker replays one
    shared access stream across its group's policies; large groups are
    split while fewer than ``target`` batches would leave workers idle."""
    groups: Dict[Any, List[int]] = {}
    for i, job in enumerate(jobs):
        groups.setdefault(batch_key(job), []).append(i)
    batches = list(groups.values())
    while len(batches) < target:
        largest = max(batches, key=len)
        if len(largest) <= 1:
            break
        batches.remove(largest)
        mid = len(largest) // 2
        batches.extend([largest[:mid], largest[mid:]])
    return batches
