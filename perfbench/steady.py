#!/usr/bin/env python3
"""Run the benchmark on every workload over several seeds and report spreads.

From the root of a seqlab checkout:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads cli,minpoly --seeds 3,4,5 --trace 1

For each workload and metric this prints the median over the runs and the
interquartile range as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json.  Every run's last line is
kept in perfbench/out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log = HERE / "out" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in parse_seeds(args.seeds):
            argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - t0
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with log.open("a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                    **result}) + "\n")
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}  wall {wall:.1f} s", flush=True)
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f} to {max(walls):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / med
            else:
                share = 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:28s} {med:12.6g} {runs[0]['metrics'][name]['unit']:7s} "
                  f"spread {share:6.3f}" + (f"  bound {bound}" if bound is not None else ""))
        print(flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
