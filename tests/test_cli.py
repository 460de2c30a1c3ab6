import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import fullgroup_lab
from fullgroup_lab import (action_from_json, action_to_json, build_ball,
                           builtin_action, cantor_actions, cli, cocycle,
                           fit_line_chart, line_geometry, make_element,
                           pattern_transport, schreier, verify)
from fullgroup_lab.cantor_actions import BUILTIN_NAMES, Transducer
from fullgroup_lab.cli import main
from fullgroup_lab.errors import (FamilyFailure, FullGroupLabError, NoRepetition,
                                  TransportFailure)
from fullgroup_lab.full_group import FullGroupElement, displacement_bound
from fullgroup_lab.line_geometry import LineChart
from oracles import all_pairs, random_elements, transducer_map

SWAP = {"pieces": [{"prefix": "0", "word": ["t"]},
                   {"prefix": "1", "word": ["t_inv"]}]}
FAMILY = {"elements": [SWAP]}
SHIFT = {"pieces": [{"prefix": "", "word": ["t"]}]}


@pytest.fixture()
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(SWAP))
    return str(path)


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY))
    return str(path)


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_action_dump(capsys):
    code, data = run_json(["action", "dump", "odometer"], capsys)
    assert code == 0
    assert data["basepoint"] == {"preperiod": "", "period": "0"}
    assert set(data["generators"]) == {"t", "t_inv"}


def test_graph_json(capsys):
    code, data = run_json(["graph", "odometer", "--radius", "3"], capsys)
    assert code == 0
    assert len(data["vertices"]) == 7
    assert data["dist"][0] == 0


def test_graph_dot_no_loops(capsys):
    code = main(["graph", "grigorchuk", "--radius", "2", "--dot", "--no-loops"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("graph schreier {")
    for line in out.splitlines():
        if "--" in line:
            u, v = line.split("--")[0], line.split("--")[1].split("[")[0]
            assert u.strip() != v.strip()


def test_unknown_action_exits_2(capsys):
    assert main(["graph", "nosuch"]) == 2
    assert "unknown action" in capsys.readouterr().err


@pytest.mark.parametrize("spec, state", [
    ("nosuch", "nosuch"),
    ([{"prefix": "0", "state": "t"}, {"prefix": "1", "state": "gone"}], "gone")])
def test_action_naming_a_missing_state_is_usage_error(tmp_path, capsys, spec,
                                                      state):
    # checked before the inverses are searched, which would look it up
    data = action_to_json(builtin_action("odometer"))
    data["generators"]["h"] = spec
    path = tmp_path / "action.json"
    path.write_text(json.dumps(data))
    assert main(["action", "dump", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"generator 'h' names state {state!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(transducers=[]), "malformed action definition: "),
    (lambda d: d.update(generators=[]), "malformed action definition: "),
    (lambda d: d["transducers"]["t"].update(transitions=["0", "e"]),
     "malformed action definition: "),
    (lambda d: d["generators"].update(t=[{"prefix": "0", "state": "t"}]),
     "generator 't': prefixes cover measure 1/2, not 1"),
    (lambda d: d["generators"].update(t=[{"prefix": p, "state": "t"}
                                         for p in ("0", "01", "1")]),
     "generator 't': prefix '0' overlaps '01'"),
    (lambda d: d["generators"].update(h=[{"prefix": p, "state": "t"}
                                         for p in ("a", "b")]),
     "generator 'h': prefix 'a' is not a binary word"),
], ids=["transducers-list", "generators-list", "transitions-list",
        "pieces-gap", "pieces-overlap", "pieces-not-binary"])
def test_malformed_action_file_is_usage_error(tmp_path, capsys, edit, message):
    data = action_to_json(builtin_action("odometer"))
    edit(data)
    path = tmp_path / "action.json"
    path.write_text(json.dumps(data))
    assert main(["action", "dump", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad action file {path}: {message}")
    assert "Traceback" not in err


def test_qi_fields(capsys):
    code, data = run_json(["qi", "grigorchuk", "--level", "8"], capsys)
    assert code == 0
    assert data["alpha"] == "1" and data["beta"] == "0" and data["m"] == "1"
    assert data["fiber_report"]["passed"] and data["covering_report"]["passed"]


def test_element_commands(capsys, swap_file):
    code, data = run_json(["element", "check", "odometer", "--element", swap_file],
                          capsys)
    assert code == 0 and data["valid"] and data["d_phi"] == 1

    code, data = run_json(["element", "apply", "odometer", "--element", swap_file,
                           "--point", "(0)"], capsys)
    assert code == 0 and data["image"] == "1(0)"

    code, data = run_json(["element", "invert", "odometer",
                           "--element", swap_file], capsys)
    assert code == 0 and data == SWAP

    code, data = run_json(["element", "compose", "odometer", "--element",
                           swap_file, "--element2", swap_file], capsys)
    assert code == 0
    assert all(len(piece["word"]) == 2 for piece in data["pieces"])


def test_element_with_a_non_binary_prefix_fails_its_check(tmp_path, capsys):
    # a prefix-free cover by Kraft sum alone, which no binary point lies under
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"pieces": [{"prefix": "a", "word": ["t"]},
                                           {"prefix": "b", "word": ["t_inv"]}]}))
    assert main(["element", "check", "odometer", "--element", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: prefix 'a' is not a binary word")
    assert "Traceback" not in err


def test_element_missing_point_is_usage_error(capsys, swap_file):
    assert main(["element", "apply", "odometer", "--element", swap_file]) == 2


def test_bad_element_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["element", "check", "odometer", "--element", str(bad)]) == 2


@pytest.mark.parametrize("argv, data, message", [
    (["stabilizer", "odometer", "--F", "{bad}", "--n", "10"],
     [[{"prefix": "", "word": ["t"]}]], "an element is"),
    (["transport", "odometer", "--F", "{bad}", "--n", "10", "--z", "3"],
     [[{"prefix": "", "word": ["t"]}]], "an element is"),
    (["transport", "odometer", "--F", "{bad}", "--n", "10", "--z", "3"],
     {"pieces": 5}, "a family is"),
    # an empty family has no displacement bound to transport with
    (["stabilizer", "odometer", "--F", "{bad}", "--n", "10"], [],
     "a family is"),
    (["transport", "odometer", "--F", "{bad}", "--n", "10", "--z", "3"],
     {"elements": []}, "a family is"),
    (["stabilizer", "odometer", "--F", "{bad}", "--n", "10"],
     {"elements": [{"pieces": [{"prefix": 0, "word": ["t"]}]}]},
     "an element is"),
    (["cocycle", "odometer", "--element", "{bad}"], {"pieces": 5},
     "an element is"),
    (["cocycle", "odometer", "--element", "{bad}"],
     {"pieces": [{"prefix": "", "word": [["t"]]}]}, "an element is"),
    (["element", "check", "odometer", "--element", "{bad}"],
     [{"prefix": "", "word": ["t"]}], "an element is"),
    (["element", "compose", "odometer", "--element", "{swap}", "--element2",
      "{bad}"], {"pieces": [{"word": ["t"]}]}, "an element is"),
], ids=["stabilizer-nested-list", "transport-nested-list", "transport-pieces",
        "stabilizer-empty-list", "transport-empty-elements", "stabilizer-prefix", "cocycle-pieces", "cocycle-word",
        "element-list", "element2-no-prefix"])
def test_malformed_element_file_is_usage_error(tmp_path, capsys, swap_file,
                                               argv, data, message):
    # a file of the wrong shape is a usage error with one line, not a
    # failed certificate with a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main([a.format(bad=bad, swap=swap_file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_cocycle_report(capsys, swap_file):
    code, data = run_json(["cocycle", "odometer", "--element", swap_file,
                           "--radius", "32"], capsys)
    assert code == 0
    assert data["value"] == [] and data["kernel"] and data["stabilized"]
    assert data["R"] == 1 and data["d_phi"] == 1 and data["N_phi"] == "9"


def test_transport_report(capsys, family_file):
    code, data = run_json(["transport", "odometer", "--F", family_file,
                           "--n", "10", "--z", "3", "--radius", "128"], capsys)
    assert code == 0 and data["passed"]
    assert all(data["checks"].values())


def test_transport_failure_exit_code(capsys, family_file):
    # z = 1 is an odd integer: pattern mismatch surfaces as a failed check
    code = main(["transport", "odometer", "--F", family_file,
                 "--n", "10", "--z", "1", "--radius", "64"])
    assert code == 1


def test_stabilizer_report(capsys, family_file):
    code, data = run_json(["stabilizer", "odometer", "--F", family_file,
                           "--n", "10", "--radius", "128"], capsys)
    assert code == 0 and data["passed"]
    assert data["orders"] == {"blocks": 2, "brute": 2}
    assert data["agree"] and data["nesting"]
    assert set(data) >= {"anchors", "r", "spacing", "U", "blocks"}


def test_recurrence_report(capsys):
    code, data = run_json(["recurrence", "odometer", "--radii", "2,4,8"], capsys)
    assert code == 0
    assert data["probabilities"] == ["1/2", "1/4", "1/8"]
    # the series is exact: there is no sampled estimate to ask for
    with pytest.raises(SystemExit) as exc:
        main(["recurrence", "odometer", "--radii", "2", "--simulate", "10"])
    assert exc.value.code == 2


def test_verify_small_run(capsys):
    code, data = run_json(["verify", "odometer", "--radius", "80", "--n", "10"],
                          capsys)
    assert code == 0
    ids = [e["id"] for e in data["checks"]]
    assert len(ids) == 15 and len(set(ids)) == 15
    assert all(e["status"] == "pass" for e in data["checks"])
    assert data["timing"] is None


def test_verify_timing_adds_window_and_check_seconds(capsys):
    args = ["verify", "odometer", "--radius", "80", "--n", "10"]
    _, plain = run_json(args, capsys)
    code, timed = run_json(args + ["--timing"], capsys)
    timing = timed.pop("timing")
    # timing aside, the report is the one written without --timing
    assert code == 0 and plain.pop("timing") is None and timed == plain
    assert set(timing) == {"seconds", "window", "checks", "rows", "searches",
                           "applications", "walks"}
    assert set(timing["checks"]) == set(verify.CHECK_IDS)
    for counter in ("rows", "searches", "applications", "walks"):
        assert set(timing[counter]) == {"window", "checks"}
        assert set(timing[counter]["checks"]) == set(verify.CHECK_IDS)
    parts = timing["window"] + sum(timing["checks"].values())
    assert all(t >= 0 for t in timing["checks"].values())
    assert parts <= timing["seconds"] + 0.001 * (len(verify.CHECK_IDS) + 1)


def test_verify_timing_counts_every_full_row(monkeypatch):
    # the window's and the checks' row counts add up to the distances_from
    # calls of the run, cut balls included; the nested family takes none
    calls = []
    full_row = schreier.Graph.distances_from

    def counted(self, sources):
        calls.append(sources)
        return full_row(self, sources)

    monkeypatch.setattr(schreier.Graph, "distances_from", counted)
    report = verify.run_verify(builtin_action("odometer"), 120, 10, 1 << 16,
                            timing=True)
    rows = report["timing"]["rows"]
    assert rows["window"] + sum(rows["checks"].values()) == len(calls) > 0
    assert rows["checks"]["biinf"] > 0 and rows["checks"]["nesting"] == 0


def test_verify_timing_counts_every_bounded_search(monkeypatch):
    # the window's and the checks' search counts add up to the
    # distances_to (and so d) and distances_within calls of the run.  Every
    # fiber of the odometer's window is one vertex, so its chart searches
    # nothing
    calls = []
    for name in ("distances_to", "distances_within"):
        def counted(self, *args, _search=getattr(schreier.Graph, name)):
            calls.append(args)
            return _search(self, *args)

        monkeypatch.setattr(schreier.Graph, name, counted)
    report = verify.run_verify(builtin_action("odometer"), 120, 10, 1 << 16,
                            timing=True)
    searches = report["timing"]["searches"]
    assert searches["window"] + sum(searches["checks"].values()) == len(calls) > 0
    assert searches["window"] == 0


@pytest.mark.parametrize("name, radius, n, window", [
    ("thickline", 40, 3, 545), ("grid", 8, 2, 322),
])
def test_localfin_searches_nothing_on_wide_fibers(tmp_path, capsys, request,
                                                  name, radius, n, window):
    # the window's fiber sweep measures every certified fiber, so localfin
    # reads the widest off the chart and searches nothing of its own
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(action_to_json(request.getfixturevalue(name))))
    code, data = run_json(["verify", str(path), "--radius", str(radius),
                           "--n", str(n), "--timing"], capsys)
    searches = data["timing"]["searches"]
    assert code == 0 and searches["window"] == window
    assert searches["checks"]["localfin"] == 0


def test_verify_timing_counts_three_rows_for_the_window(capsys):
    # the window's full rows are the second searches of the diametral
    # pairs of its three rungs; the checks take 6 in biinf and one each in
    # m_geod, upp (the repetition radius) and stab_transport (the row of p
    # that orders the matches)
    code, data = run_json(["verify", "odometer", "--radius", "400", "--n", "10",
                           "--timing"], capsys)
    rows = data["timing"]["rows"]
    assert code == 0 and rows["window"] == 3
    assert sum(rows["checks"].values()) == 9
    assert {c: k for c, k in rows["checks"].items() if k} == \
        {"biinf": 6, "m_geod": 1, "upp": 1, "stab_transport": 1}


@pytest.mark.parametrize("radius, radii", [
    (1, [1, 2, 3]), (2, [2, 3]), (3, [2, 3]), (4, [2, 3, 4]), (5, [2, 3, 5]),
    (12, [3, 6, 12]), (13, [3, 6, 13]), (400, [100, 200, 400]),
])
def test_ladder_radii(odometer, radius, radii):
    half = verify.window(odometer, radius, 1 << 16)
    rungs = verify.ladder(odometer, half.chart, 1 << 16)
    assert [r for r, _chart in rungs] == radii
    assert [chart.graph.radius for _r, chart in rungs] == radii
    assert dict(rungs)[radius] is half.chart


@pytest.mark.parametrize("name, radius", [
    ("odometer", 200), ("grigorchuk", 200), ("dihedral", 200),
    ("thickline", 240), ("grid", 16),
])
def test_ladder_rungs_are_the_charts_of_their_balls(request, name, radius):
    # a rung cut from the window is charted as the ball of its radius is;
    # the grid's beta grows up the ladder as 2r - 2
    action = builtin_action(name) if name in BUILTIN_NAMES else \
        request.getfixturevalue(name)
    half = verify.window(action, radius, 1 << 16)
    rungs = verify.ladder(action, half.chart, 1 << 16)
    for r, chart in rungs:
        fresh = fit_line_chart(build_ball(action, r))
        graph = chart.graph
        assert [graph.label_str(v) for v in range(graph.n)] == \
            [fresh.graph.label_str(v) for v in range(fresh.graph.n)]
        assert (chart.f, chart.beta, chart.geodesic.vertices) == \
            (fresh.f, fresh.beta, fresh.geodesic.vertices)
    if name == "grid":
        assert [chart.beta for _r, chart in rungs] == [6, 14, 30]


@pytest.mark.parametrize("radius", [12, 200])
def test_verify_charts_each_rung_once(monkeypatch, radius):
    # the window's chart and the two lower rungs': biinf charts nothing
    charted = []

    def counted(graph):
        charted.append(graph.radius)
        return fit_line_chart(graph)

    monkeypatch.setattr(verify, "fit_line_chart", counted)
    verify.run_verify(builtin_action("odometer"), radius, 10, 1 << 16)
    assert sorted(charted) == [radius // 4, radius // 2, radius]


def test_a_rung_over_the_cap_fails_biinf_alone(capsys):
    # at radius 1 the rungs of radius 2 and 3 are balls of their own; one
    # that breaks the cap fails biinf, and the report is still written
    code, data = run_json(["verify", "odometer", "--radius", "1", "--n", "1",
                           "--cap", "3"], capsys)
    failed = [e for e in data["checks"] if e["status"] == "fail"]
    assert code == 1 and failed == [
        {"id": "biinf", "parameters": {}, "status": "fail",
         "witnesses": {"error": "vertex cap 3 exceeded"}}]


@pytest.mark.parametrize("command", ["transport", "stabilizer"])
def test_family_file_is_read_before_the_window(monkeypatch, tmp_path, capsys,
                                               command):
    # a bad --F is a usage error before any ball is built
    def no_window(*args):
        raise RuntimeError("the window was built before --F was read")

    monkeypatch.setattr(cli, "window", no_window)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"elements": []}))
    args = [command, "odometer", "--F", str(empty), "--n", "10",
            "--radius", "20000"]
    if command == "transport":
        args += ["--z", "3"]
    assert main(args) == 2
    assert "a family is a non-empty list" in capsys.readouterr().err


def test_verify_timing_counts_applications_and_walks(monkeypatch,
                                                   walker_reads):
    # the window applies each generator once per vertex; the applications
    # add up to the Transducer.apply calls of the run, and the walks to the
    # images walked, one per element and vertex the run reads: the run
    # builds its own elements, and each keeps what it has read.  No walk of
    # the run steps off the ball, so the transducers finish none, and the
    # window and the checks that read no element walk nothing
    applies = []
    apply = Transducer.apply

    def counted_apply(self, state, point):
        applies.append(point)
        return apply(self, state, point)

    action = builtin_action("odometer")
    n = build_ball(action, 120).n
    monkeypatch.setattr(Transducer, "apply", counted_apply)
    reads = walker_reads()
    before = fullgroup_lab.cantor_actions.applications
    report = verify.run_verify(action, 120, 10, 1 << 16, timing=True)
    timing = report["timing"]
    total = {key: timing[key]["window"] + sum(timing[key]["checks"].values())
             for key in ("applications", "walks")}
    assert timing["applications"]["window"] == 2 * n
    assert total["applications"] == len(applies) == 2 * n == \
        fullgroup_lab.cantor_actions.applications - before
    pairs = {(id(elem), v) for elem, vertices in reads for v in vertices}
    assert total["walks"] == len(pairs) > 0
    assert timing["walks"]["window"] == 0
    for check in ("localfin", "biinf", "m_geod", "boundY", "upp", "oneend",
                  "block_bound", "recurrence"):
        assert timing["walks"]["checks"][check] == 0
    for check in ("cocycle_fin", "cocycle_identity", "nesting",
                  "finite_order"):
        assert timing["walks"]["checks"][check] > 0
    for check in ("cocycle_fin", "cocycle_identity", "kernel_stab", "d_phi"):
        assert timing["applications"]["checks"][check] == 0


@pytest.mark.parametrize("name, radius, n, unshared", [
    ("odometer", 400, 10, 3859), ("thickline", 240, 24, 4093)])
def test_verify_walks_each_image_once(request, walker_reads, name, radius, n,
                                      unshared):
    # each (element, vertex) that the run reads is walked once, however
    # many checks, transports and blocks read it: at most half of the
    # images walked when each walker and each whole map walked its own
    # (unshared)
    reads = walker_reads()
    report = verify.run_verify(request.getfixturevalue(name), radius, n,
                               1 << 16, timing=True)
    assert all(e["status"] == "pass" for e in report["checks"])
    walks = report["timing"]["walks"]
    total = walks["window"] + sum(walks["checks"].values())
    pairs = {(id(elem), v) for elem, vertices in reads for v in vertices}
    assert total == len(pairs)
    assert sum(len(vertices) for _elem, vertices in reads) > total
    assert 2 * total <= unshared


def test_d_phi_matches_all_pairs_distances(odometer, thickline):
    # the swap 2j-1 <-> 2j keeps every vertex in its fiber of the thick
    # line's chart, so |f(v) - f(phi v)| = 0 < d(v, phi v) = 1 and only the
    # search finds its displacement; the other swap crosses fibers; the
    # swap 4k+1 <-> 4k+2 stays in fibers too, and its word at the base is
    # empty
    for action in (odometer, thickline):
        half = verify.window(action, 40, 1 << 16)
        ball = half.graph
        samples = [make_element(action, [("0", ("t_inv",)), ("1", ("t",))]),
                   make_element(action, [("0", ("t",)), ("1", ("t_inv",))]),
                   make_element(action, [("10", ("t",)), ("01", ("t_inv",)),
                                         ("00", ()), ("11", ())])]
        samples += random_elements(action, random.Random(9), 6, max_depth=2,
                                   max_word=3)
        w = SimpleNamespace(ball=ball, chart=half.chart, samples=samples)
        status, witness, _ = verify.d_phi(w)
        rows = all_pairs(ball)
        for elem in samples:
            image = transducer_map(elem, ball)
            bound = displacement_bound(elem)
            worst = max(rows[v][image[v]] for v in ball.certified(max(1, bound)))
            assert witness[verify.elem_desc(elem)] == {"d_phi": bound,
                                                     "max_displacement": worst}
        assert status == "pass"
        assert witness[verify.elem_desc(samples[0])]["max_displacement"] == 1


def test_kernel_stab_matches_the_window_scan(odometer, thickline):
    # fixes_Y tests only the vertices near Y's boundaries, the scan every
    # vertex of the window
    for action in (odometer, thickline):
        half = verify.window(action, 40, 1 << 16)
        ball = half.graph
        samples = [make_element(action, [("0", ("t",)), ("1", ("t_inv",))])]
        samples += random_elements(action, random.Random(21), 12, max_depth=2,
                                   max_word=3)
        w = SimpleNamespace(ball=ball, half=half, samples=samples)
        _status, witness, _ = verify.kernel_stab(w)
        seen = set()
        for elem in samples:
            entry = witness[verify.elem_desc(elem)]
            if isinstance(entry, str):  # window limited
                continue
            image = transducer_map(elem, ball)
            window = ball.certified(max(1, displacement_bound(elem)))
            fixes = not any((v in half.members) != (image[v] in half.members)
                            for v in window)
            assert entry["fixes_Y"] == fixes
            seen.add(fixes)
        assert seen == {True, False}


def test_verify_degrades_to_skips_on_small_windows(capsys):
    # windows too small for a check report "skipped", never crash the run
    for radius in (1, 8):
        code, data = run_json(["verify", "odometer", "--radius", str(radius),
                               "--n", "10"], capsys)
        assert code == 0
        statuses = {e["id"]: e["status"] for e in data["checks"]}
        assert len(statuses) == 15
        assert set(statuses.values()) <= {"pass", "skipped"}
        assert statuses["localfin"] == "pass"
        assert statuses["stab_transport"] == "skipped"
        for e in data["checks"]:
            if e["id"] in ("oneend", "recurrence") and e["status"] == "skipped":
                assert e["witnesses"]["reason"]


@pytest.mark.parametrize("args, message", [
    (["verify", "odometer", "--radius", "-3"], "radius must be >= 0"),
    (["qi", "grigorchuk", "--level", "0"], "level must be >= 1"),
    # a one-vertex window has no line chart
    (["verify", "odometer", "--radius", "0"], "radius must be >= 1"),
    (["qi", "odometer", "--radius", "0"], "radius must be >= 1"),
    (["cocycle", "odometer", "--element", "{swap}", "--radius", "0"],
     "radius must be >= 1"),
    (["transport", "odometer", "--F", "{family}", "--n", "10", "--z", "3",
      "--radius", "0"], "radius must be >= 1"),
    (["stabilizer", "odometer", "--F", "{family}", "--n", "10", "--radius", "0"],
     "radius must be >= 1"),
    # a negative pattern radius would match everywhere
    (["verify", "odometer", "--radius", "40", "--n", "-1"], "n must be >= 0"),
    (["transport", "odometer", "--F", "{family}", "--n", "-1", "--z", "3"],
     "n must be >= 0"),
    (["stabilizer", "odometer", "--F", "{family}", "--n", "-1"], "n must be >= 0"),
    # z is a vertex index of the ball; -1 is not the last vertex
    (["transport", "odometer", "--F", "{family}", "--n", "10", "--z", "99999",
      "--radius", "64"], "z must be a vertex of the ball"),
    (["transport", "odometer", "--F", "{family}", "--n", "10", "--z", "-1",
      "--radius", "64"], "z must be a vertex of the ball"),
    (["stabilizer", "odometer", "--F", "{family}", "--n", "10",
      "--order-cap", "-1"], "order cap must be >= 1"),
    (["recurrence", "odometer", "--radii", "2,x"],
     "radii must be comma-separated integers"),
    (["recurrence", "odometer", "--radii", ""],
     "radii must be comma-separated integers"),
    # a word of odometer generators on grigorchuk
    (["element", "check", "grigorchuk", "--element", "{swap}"],
     "unknown generator 't'"),
    # even the base alone exceeds a vertex cap below 1
    (["graph", "odometer", "--radius", "0", "--cap", "0"], "cap must be >= 1"),
    (["qi", "grigorchuk", "--level", "3", "--cap", "0"], "cap must be >= 1"),
    (["cocycle", "odometer", "--element", "{swap}", "--cap", "0"],
     "cap must be >= 1"),
    (["transport", "odometer", "--F", "{family}", "--n", "10", "--z", "3",
      "--cap", "0"], "cap must be >= 1"),
    (["stabilizer", "odometer", "--F", "{family}", "--n", "10", "--cap", "0"],
     "cap must be >= 1"),
    (["recurrence", "odometer", "--radii", "2", "--cap", "0"],
     "cap must be >= 1"),
    (["verify", "odometer", "--radius", "10", "--cap", "0"], "cap must be >= 1"),
    (["verify", "odometer", "--radius", "10", "--cap", "-1"],
     "cap must be >= 1"),
], ids=["verify-radius", "qi-level", "verify-radius0", "qi-radius0",
        "cocycle-radius0", "transport-radius0", "stabilizer-radius0",
        "verify-n", "transport-n", "stabilizer-n", "transport-z-large",
        "transport-z-negative", "stabilizer-order-cap", "recurrence-radii",
        "recurrence-radii-empty", "element-unknown-generator",
        "graph-cap0", "qi-cap0", "cocycle-cap0",
        "transport-cap0", "stabilizer-cap0", "recurrence-cap0", "verify-cap0",
        "verify-cap-negative"])
def test_out_of_range_radius_is_usage_error(capsys, swap_file, family_file,
                                            args, message):
    args = [a.format(swap=swap_file, family=family_file) for a in args]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_graph_accepts_radius_zero(capsys):
    code, data = run_json(["graph", "odometer", "--radius", "0"], capsys)
    assert code == 0 and len(data["vertices"]) == 1


def test_verify_determinism_in_process(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "odometer", "--radius", "60", "--n", "10",
                 "--out", str(out1)]) == 0
    assert main(["verify", "odometer", "--radius", "60", "--n", "10",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_subprocess_entry():
    proc = subprocess.run([sys.executable, "-m", "fullgroup_lab", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_verify_report_survives_python_O(tmp_path):
    # python -O strips asserts, so no check may live in one
    env = dict(os.environ, PYTHONPATH=str(Path(fullgroup_lab.__file__).parents[1]))
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"verify{len(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "fullgroup_lab", "verify", "odometer",
             "--radius", "40", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_raises_on_a_missing_check(monkeypatch):
    # a table row with no function, or with a dependency not run before it,
    # raises instead of being dropped from the report
    for row in (("extra", None, (), ()),
                ("extra", lambda w, v: ("pass", {}, None), ("recurrence",), ())):
        monkeypatch.setattr(verify, "CHECKS", (row,) + verify.CHECKS)
        with pytest.raises(RuntimeError, match="extra"):
            verify.run_verify(builtin_action("odometer"), 8, 10, 1 << 16)
        monkeypatch.undo()


def _raises(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def test_verify_check_error_stays_in_its_own_entry(monkeypatch, tmp_path):
    intact = verify.run_verify(builtin_action("odometer"), 40, 10, 1 << 16)["checks"]
    oneend = verify.CHECK_IDS.index("oneend")
    entries = list(verify.CHECKS)
    check_id, _check, deps, params = entries[oneend]
    entries[oneend] = (check_id, _raises(FullGroupLabError("strips unavailable")),
                       deps, params)
    monkeypatch.setattr(verify, "CHECKS", tuple(entries))
    out = tmp_path / "verify.json"
    assert main(["verify", "odometer", "--radius", "40", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert checks[oneend] == {"id": "oneend", "status": "fail",
                              "witnesses": {"error": "strips unavailable"},
                              "parameters": {}}
    assert checks[:oneend] + checks[oneend + 1:] == \
        intact[:oneend] + intact[oneend + 1:]


FAMILY_IDS = ("nesting", "block_bound", "finite_order")


@pytest.mark.parametrize("name, exc, expect", [
    # upp's NoRepetition fails it and skips everything downstream with its reason
    ("repetition_radius", NoRepetition("none"),
     {"upp": ("fail", {"error": "none"}),
      **{c: ("skipped", {"reason": "none"})
         for c in ("stab_transport",) + FAMILY_IDS}}),
    # a FamilyFailure fails the nested family and both checks built on it
    ("nested_family", FamilyFailure("broken"),
     {c: ("fail", {"error": "broken"}) for c in FAMILY_IDS}),
    # a failed stab_transport does not stop the nested family
    ("transport_halfspace", TransportFailure("no transport"),
     {"stab_transport": ("fail", None)}),
    # F moving Y is not a skip: every transport fails with it, and so does
    # each check built on the nested family
    ("transport_anchor", TransportFailure("moved"),
     {"stab_transport": ("fail", None),
      **{c: ("fail", {"error": "moved"}) for c in FAMILY_IDS}}),
])
def test_verify_dependency_rules(monkeypatch, name, exc, expect):
    monkeypatch.setattr(verify, name, _raises(exc))
    checks = verify.run_verify(builtin_action("odometer"), 80, 10, 1 << 16)["checks"]
    n_params = {"upp", "stab_transport"}
    for e in checks:
        status, witnesses = expect.get(e["id"], ("pass", None))
        assert e["status"] == status, e["id"]
        if witnesses is not None:
            assert e["witnesses"] == witnesses
            assert e["parameters"] == ({"n": 10} if e["id"] in n_params else {})


MOVED = "every element of F must stabilize Y"


def test_verify_reports_a_family_that_moves_y(monkeypatch):
    # F = {t} moves Y: each of the five transports fails with that error,
    # and so do the three checks built on the nested family
    samples = verify.sample_elements

    def shifted(action):
        return {**samples(action),
                "kernel_family": [make_element(action, [("", ("t",))])]}

    monkeypatch.setattr(verify, "sample_elements", shifted)
    report = verify.run_verify(builtin_action("odometer"), 80, 10, 1 << 16)
    checks = {e["id"]: e for e in report["checks"]}
    transport = checks["stab_transport"]
    assert transport["status"] == "fail"
    points = transport["witnesses"]["match_points"]
    assert len(points) == 5 and all(
        transport["witnesses"][z] == MOVED for z in points)
    for check_id in FAMILY_IDS:
        assert checks[check_id]["status"] == "fail"
        assert checks[check_id]["witnesses"] == {"error": MOVED}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4b3b2be7a86f3c93c42487777c2770bf208ff8667cc4ee2df6326d089c26d4cc"


def test_stabilizer_reports_a_family_that_moves_y(tmp_path, capsys):
    path = tmp_path / "shift.json"
    path.write_text(json.dumps({"elements": [SHIFT]}))
    out = tmp_path / "report.json"
    assert main(["stabilizer", "odometer", "--F", str(path), "--n", "10",
                 "--out", str(out)]) == 1
    assert out.read_text() == \
        '{\n  "error": "%s",\n  "passed": false,\n  "report": {}\n}\n' % MOVED


@pytest.mark.parametrize("argv, error", [
    (["stabilizer", "odometer", "--F", "{family}", "--n", "2",
      "--radius", "128"], "need n > 9, got 2"),
    (["stabilizer", "odometer", "--F", "{family}", "--n", "10",
      "--radius", "40"], "family has no certified blocks to embed into"),
    (["stabilizer", "odometer", "--F", "{family}", "--n", "10",
      "--radius", "2"], "radius 2 too small for displacement 1"),
    (["transport", "odometer", "--F", "{family}", "--n", "10", "--z", "0",
      "--radius", "2"], "radius 2 too small for displacement 1"),
    (["cocycle", "odometer", "--element", "{swap}", "--radius", "2"],
     "radius 2 too small for displacement 1"),
])
def test_failed_certificate_still_writes_its_report(tmp_path, capsys, swap_file,
                                                    family_file, argv, error):
    out = tmp_path / "report.json"
    argv = [a.format(swap=swap_file, family=family_file) for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "")
    assert json.loads(out.read_text()) == \
        {"error": error, "passed": False, "report": {}}


# SHA-256 of run_verify reports (as `verify --out` writes them) for
# (action, radius, n) at cap 1 << 16.  Together the six of radius >= 2
# reach every (check, status, skip reason) outcome of radius 2..40 x n in
# {1, 2, 4, 10}; at radius 1 two of the ladder's rungs lie above the window.
GOLDEN = {
    ("dihedral", 2, 1): "424f4a48a4defab3ace76a5197ef88d29c866b05b68b95a72d9328c0a77bb014",
    ("dihedral", 2, 2): "84802c079f33422e892d942bf009d4a44dd506b4429eee9f084e6b295b885e2c",
    ("odometer", 1, 10): "f8e7f8605f9b8d063522c00b9e6e7789c8f55fd967d8562962b112d62ae79362",
    ("odometer", 8, 1): "c172505b0e352aac8dc98b76c86a2af83f30494917b73597509a0c00745a434d",
    ("odometer", 16, 10): "460ca36640df829c30ee314c84b94b8bc11d7644f3c5922738022155fc3c8c33",
    ("odometer", 40, 10): "4c292e908afb951e228e50d8b70f3523014e59da84e6fb066edce3067729679b",
    ("grigorchuk", 16, 10): "bcf0c8b15461daa6d89917caee50b55d67aed502b91544cf0d549c17639a3e4b",
}


@pytest.mark.parametrize("name, radius, n", sorted(GOLDEN))
def test_verify_report_bytes_are_pinned(name, radius, n):
    report = verify.run_verify(builtin_action(name), radius, n, 1 << 16)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name, radius, n]


# The first 16 hex digits of the SHA-256 of each action file.
ACTION_HASHES = {
    "dihedral": "047f0905c90dbf9a",
    "grigorchuk": "b0a9cd3e1f94216c",
    "odometer": "a81b94decc02be37",
    "grid": "d6e6014da20b4e0c",
    "bellaterra": "2f9bc9e3fac754c4",
}


@pytest.mark.parametrize("name", sorted(ACTION_HASHES))
def test_verify_hashes_each_action_once(monkeypatch, request, name):
    # an action never changes, so two runs on it write its file once
    action = builtin_action(name) if name in BUILTIN_NAMES else \
        request.getfixturevalue(name)
    action = action_from_json(action_to_json(action))
    written = []

    def counted(arg):
        written.append(arg)
        return action_to_json(arg)

    monkeypatch.setattr(cantor_actions, "action_to_json", counted)
    hashes = [verify.run_verify(action, 4, 1, 1 << 16)["action_hash"]
              for _ in range(2)]
    assert written == [action]
    assert hashes == [ACTION_HASHES[name]] * 2


def test_verify_report_ignores_a_seed_variable(monkeypatch):
    # verify samples nothing, so its report's "seed" is a constant and no
    # environment variable changes a byte
    monkeypatch.setenv("FULLGROUP_LAB_SEED", "7")
    test_verify_report_bytes_are_pinned("odometer", 8, 1)



# SHA-256 of `qi`, `cocycle`, `transport` and `stabilizer` reports (as
# `--out` writes them), with each run's exit code.  They pin the strings of
# the chart constants (alpha, beta, gamma, m, the fiber bound) and of
# N_phi, and the check keys of a transport and of a nested family; the
# thick line has beta = 1 and m = 3, and the fiber report is read off wide
# fibers on the grid (14 at level -1) and on Bellaterra (8 at level 3).
# z = 1 is an odd integer, whose pattern differs from the basepoint's, and
# the shift moves Y.
REPORT_GOLDEN = {
    "qi-odometer-r40": (
        ["qi", "odometer", "--radius", "40"], 0,
        "aeaefd16eeb8536bbf8b91303ea6117314f15f308d9c806b6a25b80e914d625b"),
    "qi-grigorchuk-level10": (
        ["qi", "grigorchuk", "--level", "10"], 0,
        "2c9053ef6d5cc0debf85619918c1167f793d3cd119b1f031057062df33ac95d0"),
    "qi-dihedral-r16": (
        ["qi", "dihedral", "--radius", "16"], 0,
        "a2bdead8c316dd23c2f4638a0ce5b33498abe9ee06df1f9e6268ac716f7a4902"),
    "qi-thickline-r40": (
        ["qi", "{thickline}", "--radius", "40"], 0,
        "d94e83086c1d34f9b63064def56406025378f0c657728c9529c66b545405290d"),
    "qi-grid-r8": (
        ["qi", "{tests}/grid.json", "--radius", "8"], 0,
        "35b6dc819a8d7b8173a6ef1cb6496ae0e8aa3f3b949f08e718f7171c25421541"),
    "qi-bellaterra-r6": (
        ["qi", "{tests}/bellaterra.json", "--radius", "6"], 0,
        "8b3d0db59d507bdb16a38dfa338352406acc3c74bcc5df0f481eb3dc18d864d1"),
    "cocycle-odometer-swap-r64": (
        ["cocycle", "odometer", "--element", "{swap}", "--radius", "64"], 0,
        "3324b56fe2d0875271aacfdb7abcbe327258a601e716cb6eed8889bd7859f6d2"),
    "cocycle-thickline-swap-r64": (
        ["cocycle", "{thickline}", "--element", "{swap}", "--radius", "64"], 0,
        "c0e8b8f4ad3a74afc0bc9eb78adbf30582d37cdb62134a92eeb8bc9e4fcd80eb"),
    "transport-odometer-swap-z3-r128": (
        ["transport", "odometer", "--F", "{family}", "--n", "10", "--z", "3",
         "--radius", "128"], 0,
        "23fd6a11c75d11ac6050a7ca0dfe03104ee384a652458ad58be0ea8e87ca02ae"),
    "transport-odometer-swap-z1-r64": (
        ["transport", "odometer", "--F", "{family}", "--n", "10", "--z", "1",
         "--radius", "64"], 1,
        "7f1789cf7b964ebb10f8d31165b18c15914706bfb7519ed439236950bf8e6487"),
    "stabilizer-odometer-swap-r128": (
        ["stabilizer", "odometer", "--F", "{family}", "--n", "10",
         "--radius", "128"], 0,
        "6e2f2f2a451404f9a8460a08b47738c8d9679ed5302300b4c2952cbc3e866e1c"),
    "stabilizer-odometer-shift-r128": (
        ["stabilizer", "odometer", "--F", "{shift}", "--n", "10",
         "--radius", "128"], 1,
        "50de4f72733ddea7f4151cce3a2063bea9f3bf85dca7c5d3c4acad6e99d9d654"),
}


@pytest.mark.parametrize("case", sorted(REPORT_GOLDEN))
def test_report_bytes_are_pinned(tmp_path, thickline, swap_file, family_file,
                                 case):
    args, code, digest = REPORT_GOLDEN[case]
    thick = tmp_path / "thickline.json"
    thick.write_text(json.dumps(action_to_json(thickline)))
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps({"elements": [SHIFT]}))
    out = tmp_path / "report.json"
    args = [a.format(thickline=thick, swap=swap_file, family=family_file,
                     shift=shift, tests=Path(__file__).parent) for a in args]
    assert main(args + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["grigorchuk", "dihedral", "thickline",
                                  "dihedral_frag"])
def test_sample_elements_build_the_identity_once(request, name):
    # the samples and the kernel family hold one identity object, so the
    # checks that read both share its read record
    samples = verify.sample_elements(request.getfixturevalue(name))
    assert samples["kernel_family"][0] is samples["samples"][0]


def test_verify_looks_images_up_instead_of_rerunning_transducers(monkeypatch):
    # transducer runs stay O(n) per verify (about 316 n when every vertex
    # image re-ran them), F's stabilizer tests are shared by every
    # transport and the nested family, no certificate hashes the chart,
    # the half space computes the end strips once, and a graph builds
    # each certified set once
    action = builtin_action("odometer")
    n = build_ball(action, 200).n
    samples = verify.sample_elements(action)
    calls = {"apply": 0, "stabilizer_test": 0, "pattern_match_points": 0,
             "chart_hash": 0, "end_strips": 0, "d": 0, "word_at": 0,
             "apply_element": 0}
    builds = {}
    certified = schreier.Graph.certified

    def counted_certified(graph, margin):
        cutoff = None if graph.radius is None else graph.radius - margin
        if cutoff not in graph._certified:
            builds[graph, cutoff] = builds.get((graph, cutoff), 0) + 1
        return certified(graph, margin)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Transducer, "apply", counted("apply", Transducer.apply))
    monkeypatch.setattr(LineChart, "chart_hash",
                        counted("chart_hash", LineChart.chart_hash))
    monkeypatch.setattr(schreier.Graph, "certified", counted_certified)
    monkeypatch.setattr(FullGroupElement, "word_at",
                        counted("word_at", FullGroupElement.word_at))
    for fn in (cocycle.stabilizer_test, pattern_transport.pattern_match_points,
               line_geometry.end_strips, fullgroup_lab.full_group.apply_element):
        for name, module in list(sys.modules.items()):
            if name.startswith("fullgroup_lab") and \
                    getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted(fn.__name__, fn))
    report = verify.run_verify(action, 200, 10, 1 << 16)
    assert all(e["status"] == "pass" for e in report["checks"])
    # 2 n in build_ball, one per (vertex, generator), and none elsewhere:
    # every element is read at certified vertices alone, so no walk steps
    # off the ball for the transducers to finish, and no piece word is
    # looked up by word_at: every lookup reads a walker's prefix or a word
    # column
    assert calls["apply"] == 2 * n
    assert calls["word_at"] == calls["apply_element"] == 0
    assert 0 < calls["stabilizer_test"] <= \
        len(samples["samples"]) + len(samples["kernel_family"])
    # one scan, in upp: the nested family reuses its matches and r
    assert calls["pattern_match_points"] == 1
    # one chart hash, for the report
    assert calls["chart_hash"] == 1
    assert calls["end_strips"] == 1
    assert builds and max(builds.values()) == 1

    # every odometer sample reaches d_phi by |f(v) - f(phi v)|, so d_phi
    # neither looks up a piece word nor searches, and on a ball new to the
    # samples it walks one image of each: its walkers stop at the first
    # vertex, which d_phi moves
    half = verify.window(action, 200, 1 << 16)
    monkeypatch.setattr(schreier.Graph, "d", counted("d", schreier.Graph.d))
    calls["word_at"] = 0
    walks = fullgroup_lab.full_group.walks
    w = SimpleNamespace(ball=half.graph, chart=half.chart,
                        samples=samples["samples"])
    assert verify.d_phi(w)[0] == "pass"
    assert calls["d"] == calls["word_at"] == 0
    assert fullgroup_lab.full_group.walks - walks == len(samples["samples"])
