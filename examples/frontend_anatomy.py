#!/usr/bin/env python3
"""Where do the cycles go?  Frontend stall anatomy and limit study.

Reproduces the paper's §2.2 argument on one application: break the LRU
baseline's cycles into stall sources, then replace each frontend structure
with a perfect oracle and compare (a per-app Fig. 2).

Run:  python examples/frontend_anatomy.py [app]
"""

import sys

from repro import BTB, BTBConfig, Harness, HarnessConfig, simulate
from repro.btb import LRUPolicy
from repro.harness import experiments

app = sys.argv[1] if len(sys.argv) > 1 else "mysql"
harness = Harness(HarnessConfig(apps=(app,), length=80_000))
trace = harness.trace(app)

baseline = simulate(trace, btb=BTB(BTBConfig(), LRUPolicy()))
print(baseline.breakdown())
print(f"\nBTB: hit rate {baseline.btb_stats.hit_rate:.1%}, "
      f"{baseline.btb_stats.misses} misses; "
      f"L2 instruction MPKI {baseline.l2_instruction_mpki:.2f}; "
      f"FDIP hid {baseline.fdip_hide_rate:.0%} of I-cache fill latency")

# Fig. 2's planned cells on this one app: each oracle's IPC speedup (%)
# over the LRU baseline.
limits = experiments.fig2(harness)
pct = dict(zip(limits.columns[1:], limits.row(app)[1:]))
print(f"\nlimit study ({app}):")
print(f"  perfect BTB      +{pct['perfect_btb']:.1f}%")
print(f"  perfect I-cache  +{pct['perfect_icache']:.1f}%")
print(f"  perfect BP       +{pct['perfect_bp']:.1f}%")
print("\nPaper (Fig. 2 averages): perfect BTB 63.2% >> perfect I-cache "
      "21.5% > perfect BP 11.3%.\nA perfect BTB also lets FDIP hide most "
      "I-cache misses, which is why the BTB\ndominates the other two "
      "structures.")
