"""Branch Target Buffer substrate.

A set-associative BTB with pluggable replacement policies, mirroring the
paper's 8K-entry, 4-way baseline (Table 1).  Only *taken* branches occupy BTB
entries (returns are handled by the return address stack and never consult
the BTB — see DESIGN.md §5).
"""

from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.btb.entry import BTBEntry
from repro.btb.btb import (BTB, BTBStats, IndirectBTB, btb_access_stream,
                           replay_stream, run_btb)
from repro.btb.observer import BTBEvent, BTBObserver, EventRecorder
from repro.btb.replacement import (BYPASS, BeladyOptimalPolicy, DIPPolicy,
                                   FIFOPolicy, GHRPPolicy, HawkeyePolicy,
                                   LRUPolicy, MRUPolicy,
                                   OnlineThermometerPolicy, RandomPolicy,
                                   ReplacementPolicy, SHiPPolicy,
                                   SRRIPPolicy, ThermometerPolicy,
                                   TreePLRUPolicy, make_policy,
                                   policy_names)

__all__ = [
    "BTB",
    "BTBConfig",
    "BTBEntry",
    "BTBEvent",
    "BTBObserver",
    "BTBStats",
    "BYPASS",
    "EventRecorder",
    "BeladyOptimalPolicy",
    "DIPPolicy",
    "OnlineThermometerPolicy",
    "SHiPPolicy",
    "TreePLRUPolicy",
    "DEFAULT_BTB_CONFIG",
    "FIFOPolicy",
    "GHRPPolicy",
    "HawkeyePolicy",
    "IndirectBTB",
    "LRUPolicy",
    "MRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SRRIPPolicy",
    "ThermometerPolicy",
    "btb_access_stream",
    "make_policy",
    "policy_names",
    "replay_stream",
    "run_btb",
]
