"""Recompute the committed goldens in ``perfbench/golden.json``.

    python3 perfbench/regen_golden.py                  # every workload
    python3 perfbench/regen_golden.py --workload sweep-cold

Only regenerate when a change is *meant* to alter simulated results, and
say so in the change: the goldens are what every benchmark run checks
its results against.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402  (needs HERE on sys.path)


def render(golden: dict) -> str:
    """JSON with one line per (workload, golden key)."""
    compact = dict(sort_keys=True, separators=(",", ":"))
    blocks = []
    for name in sorted(golden):
        entries = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(golden[name][key], **compact)}"
            for key in sorted(golden[name]))
        blocks.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/regen_golden.py")
    parser.add_argument("--workload", action="append",
                        choices=sorted(suite.WORKLOADS))
    args = parser.parse_args(argv)
    golden = suite.load_golden()
    with suite.scratch_root("golden-") as tmp:
        suite.pin_env(cache_root=tmp / "default-cache")
        for name in args.workload or sorted(suite.WORKLOADS):
            entries = golden[name] = {}
            done = set()
            for seed in range(suite.GOLDEN_INPUTS):
                workload = suite.WORKLOADS[name](suite.FULL, seed, tmp)
                if workload.golden_key in done:
                    continue  # fig11-cold: one golden serves every seed
                done.add(workload.golden_key)
                workload.setup(1)
                result = workload.run_pass()
                if result.failed:
                    print(f"{name} {workload.golden_key}: "
                          f"{result.failed} failed: {result.notes}",
                          file=sys.stderr)
                    return 1
                entries[workload.golden_key] = result.table
                print(f"{name} {workload.golden_key}: "
                      f"{suite.digest(result.table)[:16]} "
                      f"({result.wall_s:.1f}s)", flush=True)
            suite.GOLDEN_PATH.write_text(render(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
