"""Check the benchmark's run-to-run spread over a set of seeds.

    python3 perfbench/spread.py --workload sweep-cold --seeds 301-310 \\
        [--out runs.jsonl]

Runs ``perfbench/run.py --trace 0`` once per seed, one after the other,
from the repository root, and prints each run's metrics and, per
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) over
the median.  A spread above the metric's bound in ``BENCHMARK.json``, or
above a third of it, is flagged.  The unscaled host seconds and the
speed scale from each run's echo line are reported next to them.  With
``--out``, every run is appended to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST = re.compile(r"host seconds: setup_s=([\d.]+) wall_s=([\d.]+); "
                  r"speed scale median ([\d.]+)")


def seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True,
                        help="first-last, e.g. 301-310")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        result = (json.loads(proc.stdout.splitlines()[-1])
                  if proc.returncode == 0 else {"correct": False})
        if not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        match = HOST.search(proc.stdout)
        host = {"host_setup_s": float(match[1]),
                "host_wall_s": float(match[2]),
                "speed_scale": float(match[3])}
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        metrics.update(host)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed} {elapsed:.1f}s " + " ".join(
            f"{name}={value:.4g}" for name, value in metrics.items()),
            flush=True)
        if args.out:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "elapsed_s": elapsed, "host": host,
                                     "result": result}) + "\n")
    worst = 0
    for name, vals in values.items():
        bound = bounds.get(name)
        s = spread(vals)
        flag = ""
        if bound is not None and s > bound:
            flag, worst = "  ABOVE BOUND", 1
        elif bound is not None and s > bound / 3:
            flag = "  above bound/3"
        print(f"{args.workload} {name}: median={statistics.median(vals):.6g}"
              f" spread={s:.3f}" + (f" bound={bound}" if bound else "")
              + flag)
    return worst


if __name__ == "__main__":
    sys.exit(main())
