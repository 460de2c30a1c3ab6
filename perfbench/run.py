"""Benchmark of the fullgroup-lab certifier: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process it starts is a fresh
interpreter with ``src`` on ``PYTHONPATH``:

- one warm-up set-up, discarded (it compiles the bytecode of a fresh
  checkout);
- with ``--trace 0``, one process that runs the workload closed-loop for
  about S seconds and reports per-operation times and its peak RSS, with
  ``SETUP_SAMPLES`` set-up-only processes before it and as many after it;
  ``setup_s`` is the median of those and the run process's own set-up.
  Times are at the reference speed of ``calibrate.py``: wall time scaled
  by how fast the machine ran a fixed loop around that time, so that the
  drift of a shared host's speed cancels.  The table also prints the
  plain wall-clock medians;
- with ``--trace 1``, one process that alternates traced and untraced
  operations and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same metrics as a table.  ``failed / attempted`` is the failed-operation
ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 150

END_TO_END = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child(root: str, args, mode: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last line."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(setups, run: dict) -> dict:
    ms = [t * 1000 for t in run["op_s"]]
    return {"setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_ms.p50": statistics.median(ms),
            "op_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[-1],
            "peak_rss_mb": run["peak_rss_mb"]}


def print_table(args, metrics: dict, units: dict, notes: dict,
                attempted: int, failed: int) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:44s} {value:16.6f} {units[name]:6s} {note}")
    print(f"  {'failed_ratio':44s} {failed}/{attempted} operations failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fullgroup_lab", "cli.py")):
        print("error: run from the root of a fullgroup-lab checkout "
              "(src/fullgroup_lab is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        if args.workload == "thickline_verify":
            workloads.write_thickline(args.seed)
        child(root, args, "setup", SETUP_TIMEOUT)  # warm-up, discarded
        if args.trace:
            run = child(root, args, "trace", RUN_TIMEOUT)
            metrics = run["layer"]
            units = tracer.per_layer_units()
            notes = {"line_geometry.qi_pairs": "(computed)",
                     "trace.op_ms": f"(median of {run['traced_ops']} traced)",
                     "trace.untraced_op_ms":
                         f"(median of {run['untraced_ops']} untraced)"}
        else:
            setups = [child(root, args, "setup", SETUP_TIMEOUT)
                      for _ in range(SETUP_SAMPLES)]
            run = child(root, args, "run", RUN_TIMEOUT)
            setups.append(run)
            setups += [child(root, args, "setup", SETUP_TIMEOUT)
                       for _ in range(SETUP_SAMPLES)]
            metrics = end_to_end(setups, run)
            units = END_TO_END
            n = len(run["op_s"])
            wall = statistics.median(run["op_wall_s"]) * 1000
            wall_setup = statistics.median(s["setup_wall_s"] for s in setups)
            notes = {"setup_s": f"(median of {len(setups)} fresh processes; "
                                f"wall {wall_setup:.4f} s)",
                     "op_ms.p50": f"(n={n} operations; wall {wall:.2f} ms)",
                     "op_ms.p90": f"(n={n} operations; "
                                  f"{run['samples']} speed samples)"}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = run["attempted"]
    failed = len(run["failures"])
    for k, why in run["failures"][:10]:
        print(f"operation {k} failed: {why}", file=sys.stderr)
    print_table(args, metrics, units, notes, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
