"""Repeat the benchmark over seeds and summarise its spread in a BENCH file.

    python3 perfbench/series.py --seeds 10 --first-seed 100 \
        --out perfbench/BENCH_baseline.json [--workloads a,b]

Run from the root of a checkout.  For each workload it runs ``run.py``
once per seed with tracing off and reports, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the quartile distance as a share of the median, which is what the
metric's bound in ``BENCHMARK.json`` is compared with.  For the times it
also summarises the plain wall-clock medians each run prints.  It then
makes one traced run per workload, on the first seed, for the per-layer
breakdown.
A markdown table goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


# A metric's plain wall-clock value, as the table before the result line
# prints it: "  op_ms.p50   26.83   ms   (n=489 operations; wall 52.51 ms)".
WALL = re.compile(r"^\s+(\S+)\s.*\bwall ([0-9.]+) ")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall"] = {m.group(1): float(m.group(2))
                      for m in map(WALL.match, lines[:-1]) if m}
    return result


def summary(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    result = {"machine": {"python": platform.python_version(),
                          "cpus": os.cpu_count(),
                          "platform": platform.platform()},
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [bench(name, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": {}}
        for metric in bounds:
            stats = summary([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = bounds[metric]["unit"]
            stats["bound"] = bounds[metric]["bound"]
            entry["end_to_end"][metric] = stats
        for metric in runs[0]["wall"]:
            entry["end_to_end"][metric]["wall"] = summary(
                [r["wall"][metric] for r in runs])
        traced = bench(name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        result["workloads"][name] = entry
        print(f"{name} done", file=sys.stderr, flush=True)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("| workload | metric | median | q1 | q3 | spread | bound "
          "| wall median | wall spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, entry in result["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            wall = s.get("wall")
            tail = (f"{wall['median']:.4g} | {wall['spread']:.3f}" if wall
                    else " | ")
            print(f"| {name} | {metric} ({s['unit']}) | {s['median']:.4g} | "
                  f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} | "
                  f"{s['bound']} | {tail} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
