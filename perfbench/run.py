"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of untraced passes; ``--trace 1`` prints the per-layer metrics
of one traced pass next to one untraced pass.  The last line of standard
output is the JSON result; the lines before it echo the pinned
environment, the golden check and the latency sample count.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402  (needs HERE on sys.path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (suite.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {suite.SRC}",
              file=sys.stderr)
        return 2
    with suite.scratch_root("run-") as tmp:
        env_lines = suite.pin_env(cache_root=tmp / "default-cache")
        workload = suite.WORKLOADS[args.workload](suite.FULL, args.seed, tmp)
        print(f"perfbench: workload={workload.name} seed={args.seed} "
              f"input_ids=(seed + position) % {suite.GOLDEN_INPUTS} "
              f"golden={workload.golden_key} trace={args.trace}")
        print("perfbench: env " + " ".join(env_lines))
        golden = suite.load_golden()
        if args.trace:
            outcome = suite.measure_traced(workload, golden)
        else:
            outcome = suite.measure(workload, args.seconds, golden)
        for line in outcome.lines:
            print("perfbench: " + line)
        print(outcome.result_json(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
