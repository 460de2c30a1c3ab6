"""Tests of the benchmark's own code: tracer arithmetic, wrappers, inputs."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fullgroup_lab import cli, cocycle, full_group, schreier  # noqa: E402


def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds two calls of c, [6, 6.5] and [7, 8].
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 6.5, 3),
        ("c", 7.0, 8.0, 3),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({"root": 3.0, "a": 2.0, "b": 2.5, "c": 2.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_metrics_stage_durations_and_coverage():
    spans = [
        ("op", 0.0, 10.0, -1, "op0"),
        ("cli.main", 0.0, 10.0, 0, "op0"),
        ("stage.chart", 1.0, 5.0, 1, "op0"),
        ("line_geometry.fit_line_chart", 1.0, 5.0, 2, "op0"),
        ("schreier.Graph.distance_row", 2.0, 3.0, 3, "op0"),
        ("stage.recurrence", 6.0, 9.0, 1, "op0"),
        ("recurrence.escape_series", 6.0, 9.0, 5, "op0"),
    ]
    calls = {"schreier.Graph.distance_row": 4,
             "schreier.Graph.distances_from": 1}
    computed = {"line_geometry.qi_pairs": 6, "schreier.row_cache_hits": 3}
    out = tracer.layer_metrics(spans, calls, computed)
    assert out["stage.chart_s"] == pytest.approx(4.0)
    assert out["stage.recurrence_s"] == pytest.approx(3.0)
    assert out["stage.coverage"] == pytest.approx(0.7)
    assert out["line_geometry.fit_line_chart_s"] == pytest.approx(3.0)
    assert out["schreier.self_s"] == pytest.approx(1.0)
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["schreier.row_cache_hit_ratio"] == pytest.approx(0.75)
    assert out["schreier.bfs_rows"] == 1
    assert out["line_geometry.qi_pairs"] == 6


def test_uninstall_restores_every_binding():
    before = (cli.fit_line_chart, cocycle.apply_element, full_group.compose,
              schreier.Graph.distance_row)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.fit_line_chart is not before[0]
        assert cocycle.apply_element.__wrapped__ is before[1]
    finally:
        t.uninstall()
    after = (cli.fit_line_chart, cocycle.apply_element, full_group.compose,
             schreier.Graph.distance_row)
    assert all(a is b for a, b in zip(before, after))


def _verify_digest(tmp_path, argv, t=None):
    out = str(tmp_path / "report.json")
    if t is not None:
        t.install()
        root = t.open("op")
    try:
        code = cli.main(argv + ["--out", out])
    finally:
        if t is not None:
            t.close(root)
            t.uninstall()
    with open(out) as fh:
        report = json.load(fh)
    assert code == 0
    assert all(c["status"] != "fail" for c in report["checks"])
    return workloads.digest(report)


def test_traced_and_untraced_reports_are_identical(tmp_path):
    argv = ["verify", "odometer", "--radius", "60", "--n", "10"]
    t = tracer.Tracer()
    assert _verify_digest(tmp_path, argv, t) == _verify_digest(tmp_path, argv)
    assert t.calls["cocycle.cocycle_value"] > 0


def test_traced_and_untraced_queries_are_identical():
    plain = workloads.make("cocycle_queries", 5)
    plain.setup()
    traced = workloads.make("cocycle_queries", 5)
    traced.setup()
    t = tracer.Tracer()
    for k in range(4):
        plain.prepare(k)
        traced.prepare(k)
        t.install()
        try:
            got = traced.check(k, traced.op(k))
        finally:
            t.uninstall()
        assert got == plain.check(k, plain.op(k))
        assert got[0]
    assert t.calls["full_group.compose"] > 0


def test_generators_are_deterministic_per_seed():
    assert workloads.thickline_action(3) == workloads.thickline_action(3)
    assert workloads.thickline_action(3) != workloads.thickline_action(4)
    base = workloads.thickline_action(3)["basepoint"]
    assert len(base["preperiod"]) == 16 and base["preperiod"][-1] == "1"

    def first(seed, count=50):
        stream = workloads.query_stream(seed)
        return [next(stream) for _ in range(count)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert all(1 <= len(w) <= 4 and set(w) <= {0, 1, 2, 3}
               for pair in first(7) for w in pair)


def test_stage_spans_cover_traced_certify_time(tmp_path):
    t = tracer.Tracer()
    _verify_digest(tmp_path, ["verify", "odometer", "--radius", "120",
                              "--n", "10"], t)
    out = tracer.layer_metrics(t.spans, t.calls, t.computed)
    assert 0.9 <= out["stage.coverage"] <= 1.0
    assert all(out[f"stage.{s}_s"] > 0 for s in tracer.STAGES)


def test_gate_counts_digest_mismatch_and_raise():
    class Fake:
        def prepare(self, k):
            pass

        def op(self, k):
            if k == 2:
                raise ValueError("boom")
            return k

        def check(self, k, result):
            return True, f"d{result}", ""

    gate = worker.Gate(Fake(), ["d0", "wrong"])
    for k in range(4):
        gate.timed(k)
    assert gate.attempted == 4
    assert [k for k, _ in gate.failures] == [1, 2]


def test_gate_leaves_the_sampler_time_out(monkeypatch):
    clock = [100.0]
    sampler = calibrate.Sampler()

    class Fake:
        def prepare(self, k):
            pass

        def op(self, k):
            clock[0] += 10.0  # the operation takes 10 s, 3 of them sampling
            sampler.busy += 3.0
            return k

        def check(self, k, result):
            return True, "d", ""

    monkeypatch.setattr(worker, "perf_counter", lambda: clock[0])
    gate = worker.Gate(Fake(), None, sampler)
    assert gate.timed(0) == pytest.approx(7.0)
    assert gate.windows == [(100.0, 110.0)]


def test_speed_factor_uses_the_passes_around_an_operation():
    assert calibrate.trimmed_mean([5.0] * 8 + [-100.0, 100.0]) == 5.0
    sampler = calibrate.Sampler()
    ref = calibrate.REFERENCE_S
    # A slow phase (passes take twice the reference) from 10 s to 20 s.
    sampler.samples = [(t / 10, ref * (2 if 100 <= t < 200 else 1))
                       for t in range(300)]
    assert sampler.factor(12.0, 18.0) == pytest.approx(0.5)
    assert sampler.factor(25.0, 26.0) == pytest.approx(1.0)


def test_sampler_ticks_and_restores_the_signal():
    import signal
    from time import perf_counter

    sampler = calibrate.Sampler()
    sampler.start()
    try:
        end = perf_counter() + 3.5 * calibrate.INTERVAL
        while perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert sampler.busy >= sum(s for _, s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(workloads.NAMES) and len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.per_layer_units()


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "level_qi", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
