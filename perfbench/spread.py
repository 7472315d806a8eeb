"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]

Runs run.py once per workload and seed, one run at a time, for the
``run_seconds`` of BENCHMARK.json, and prints each run's end-to-end metrics.
Then prints every end-to-end metric of every workload by name with its unit,
the number of runs, the median over the runs, the quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the metric's
bound, and flags a spread above a third of the bound. Failed samples are
summed over all runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values, units, attempted, failed = {}, {}, 0, 0
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in result["metrics"].items()), flush=True)
        print(f"{workload}: {len(args.seeds)} runs, fail_rate {failed}/{attempted}")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            line = (f"  {name:44s} {median:>14.6g} {units[name]:6s} n={len(vals)} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
            share = spread / bounds[name]
            line += f" bound={bounds[name]} spread/bound={share:.2f}"
            if name != "setup_s":
                worst = max(worst, share)
                line += "  TOO WIDE" if share > 1 / 3 else ""
            print(line, flush=True)
    print(f"largest spread/bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
