"""One fresh interpreter running one workload; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace

``setup`` only sets up and reports the set-up time.  ``run`` sets up,
then runs operations closed-loop (one client, no threads) for about S
seconds and reports every operation's wall time, the correctness gate and
the peak RSS.  Both also report their times at the reference speed of
``calibrate.py``.  ``trace`` alternates traced and untraced operations and
reports the per-layer numbers of a fixed window (set-up plus the first
traced operations) and the tracing overhead.  ``run.py`` starts it with
``src`` on ``PYTHONPATH``.
"""

from time import perf_counter

T0 = perf_counter()  # set-up is timed from the first line of a fresh process

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(workloads.HERE, "reference.json")
# Operations every run makes, whatever --seconds says: enough invocations
# for a median, and enough queries that p90 has ten samples beyond it.
MIN_OPS = {"cocycle_queries": 110}
MIN_CERTIFIER_OPS = 3
# Traced operations whose counts and self times form the per-layer window.
WINDOW_OPS = {"cocycle_queries": 100}


def reference_digests(name: str, seed: int):
    """Recorded digests for this workload and seed, or None."""
    with open(REFERENCE) as fh:
        entry = json.load(fh).get(name, {})
    key = "any" if name in workloads.SEED_FREE else str(seed)
    return entry.get(key)


def expected(ref, k: int):
    if ref is None:
        return None
    if isinstance(ref, list):
        return ref[k] if k < len(ref) else None
    return ref


class Gate:
    """Counts operations and failures; an operation fails on an exception,
    a failing check, a broken identity or a digest mismatch.

    With a sampler, an operation's time leaves out the sampler's own, and
    ``windows`` records when each operation ran."""

    def __init__(self, wl, ref, sampler=None):
        self.wl = wl
        self.ref = ref
        self.sampler = sampler
        self.attempted = 0
        self.failures = []
        self.windows = []

    def timed(self, k: int) -> float:
        wl = self.wl
        wl.prepare(k)
        self.attempted += 1
        sampler = self.sampler
        start = perf_counter()
        busy = sampler.busy if sampler else 0.0
        raised = None
        try:
            result = wl.op(k)
        except Exception as exc:  # an unexpected raise is a failed operation
            raised = exc
        busy = (sampler.busy if sampler else 0.0) - busy
        end = perf_counter()
        elapsed = end - start - busy
        self.windows.append((start, end))
        if raised is not None:
            self.failures.append((k, f"raised {raised!r}"))
            return elapsed
        try:
            ok, got, why = wl.check(k, result)
        except Exception as exc:
            ok, got, why = False, None, f"check raised {exc!r}"
        want = expected(self.ref, k)
        if ok and want is not None and got != want:
            ok, why = False, f"digest {got} != reference {want}"
        if not ok:
            self.failures.append((k, why))
        return elapsed


def keep_going(k: int, floor: int, started: float, seconds: float, times) -> bool:
    """Closed loop: stop once the floor is met and the next operation would
    likely end past the deadline."""
    if k < floor:
        return True
    elapsed = perf_counter() - started
    return elapsed + statistics.median(times) <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(args):
    """Set up; the set-up time, raw and at the reference speed."""
    wl = workloads.make(args.workload, args.seed)
    wl.setup()
    setup_s = perf_counter() - T0
    return wl, {"setup_wall_s": setup_s,
                "setup_s": setup_s * calibrate.speed_factor()}


def mode_setup(args) -> dict:
    return setup(args)[1]


def mode_run(args) -> dict:
    wl, result = setup(args)
    sampler = calibrate.Sampler()
    gate = Gate(wl, reference_digests(args.workload, args.seed), sampler)
    times = []
    started = perf_counter()
    k = 0
    floor = MIN_OPS.get(args.workload, MIN_CERTIFIER_OPS)
    sampler.start()
    try:
        while keep_going(k, floor, started, args.seconds, times):
            times.append(gate.timed(k))
            k += 1
    finally:
        sampler.stop()
    wl.close()
    result.update(
        op_wall_s=times,
        op_s=[t * sampler.factor(*w) for t, w in zip(times, gate.windows)],
        samples=len(sampler.samples), attempted=gate.attempted,
        failures=gate.failures, peak_rss_mb=peak_rss_mb())
    return result


def mode_trace(args) -> dict:
    import tracer as tr_mod

    tracer = tr_mod.Tracer()
    tracer.install()
    root = tracer.open("setup")
    wl = workloads.make(args.workload, args.seed)
    wl.setup()
    tracer.close(root)
    tracer.uninstall()

    gate = Gate(wl, reference_digests(args.workload, args.seed))
    window = WINDOW_OPS.get(args.workload, 1)
    traced, untraced = [], []
    window_end = None
    window_calls = window_computed = None
    started = perf_counter()
    k = 0
    # Even operations run traced, odd ones untraced.
    while keep_going(k, 2 * window, started, args.seconds, traced + untraced):
        if k % 2 == 0:
            tracer.run = f"op{k}"
            tracer.install()
            root = tracer.open("op")
            try:
                traced.append(gate.timed(k))
            finally:
                tracer.close(root)
                tracer.uninstall()
            if len(traced) == window:
                window_end = len(tracer.spans)
                window_calls = dict(tracer.calls)
                window_computed = dict(tracer.computed)
            elif window_end is not None:
                del tracer.spans[window_end:]  # bound memory past the window
        else:
            untraced.append(gate.timed(k))
        k += 1
    wl.close()
    spans = tracer.spans[:window_end]
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tr_mod.write_spans(os.path.join(workloads.OUT_DIR,
                                    f"spans-{args.workload}.jsonl.gz"), spans)
    layer = tr_mod.layer_metrics(spans, window_calls, window_computed)
    layer["trace.op_ms"] = statistics.median(traced) * 1000
    layer["trace.untraced_op_ms"] = statistics.median(untraced) * 1000
    layer["trace.overhead_ms"] = layer["trace.op_ms"] - layer["trace.untraced_op_ms"]
    return {"attempted": gate.attempted, "failures": gate.failures,
            "layer": layer, "traced_ops": len(traced),
            "untraced_ops": len(untraced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        default="run")
    args = parser.parse_args(argv)
    handler = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}
    result = handler[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
