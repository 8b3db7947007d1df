"""Synthetic data-center workload models.

The paper evaluates on Intel PT traces of 13 proprietary-infrastructure
applications plus the CBP-5 and IPC-1 championship trace suites.  None of
those traces are redistributable, so this package provides parameterized
synthetic generators that reproduce the *branch-stream properties* the paper's
results depend on: large branch working sets relative to the BTB, a hot core
of loop branches that dominates dynamic execution, cold scan bursts that
thrash recency-based replacement, and per-application instruction footprints
(see DESIGN.md §2 for the substitution rationale).
"""

from repro.workloads.generator import (LayoutParams, MixParams,
                                       StaticBranch, SyntheticWorkload,
                                       WorkloadSpec)
from repro.workloads.datacenter import (APPLICATIONS, app_names, app_spec,
                                        make_app_trace, make_app_workload)
from repro.workloads.suites import (make_cbp5_suite, make_ipc1_suite,
                                    make_suite_trace)

__all__ = [
    "APPLICATIONS",
    "LayoutParams",
    "MixParams",
    "StaticBranch",
    "SyntheticWorkload",
    "WorkloadSpec",
    "app_names",
    "app_spec",
    "make_app_trace",
    "make_app_workload",
    "make_cbp5_suite",
    "make_ipc1_suite",
    "make_suite_trace",
]
