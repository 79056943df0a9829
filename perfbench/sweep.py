"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py [--runs 10] [--seconds 18] [--out perfbench/baseline.json]

For each workload of BENCHMARK.json this runs `run.py --trace 0` once per
seed, seeds 1 to `--runs`, one after the other, and prints each end-to-end
metric's median, quartiles and spread (the distance between the quartiles
over the median, as the acceptance rule measures it) next to its bound.
Then it makes one `--trace 1` run with seed 1 and prints each layer's share
of the operation time.  Every run's outputs are
checked by `run.py`; a run that is not correct stops the sweep.  With
`--runs 1` it is a single command that prints every metric of every
workload.  `--out` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, with the run's wall time added as `wall_s`."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = perf_counter() - started
    result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 and done.stdout else None
    if result is None or not result["correct"]:
        sys.exit(f"{' '.join(command)} failed:\n{done.stdout[-2000:]}\n{done.stderr[-4000:]}")
    result["wall_s"] = wall_s
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        results = [run(workload, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["bound"] = metric["bound"]
            end_to_end[name] = stats
            print(f"{workload:<12} {name:<16} median {stats['median']:<10.4g} {metric['unit']:<4} "
                  f"q1 {stats['q1']:<10.4g} q3 {stats['q3']:<10.4g} "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']})")
        walls = [r["wall_s"] for r in results]
        print(f"{workload:<12} wall time per run {min(walls):.1f}-{max(walls):.1f} s")
        traced = run(workload, 1, args.seconds, 1)["metrics"]
        op_s = traced["cli.main_s"]["value"]
        shares = {name: m["value"] / op_s for name, m in traced.items()
                  if m["unit"] == "s" and name != "cli.main_s" and not name.startswith("solver.stage.")}
        for name, share in sorted(shares.items(), key=lambda item: -item[1]):
            if share >= 0.01:
                print(f"{workload:<12} {name:<42} {share:6.1%} of {op_s:.4g} s per operation")
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "run_wall_s": walls,
            "per_layer": {name: m["value"] for name, m in traced.items()},
            "self_time_share": shares,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
