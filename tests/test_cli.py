import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fullgroup_lab
from fullgroup_lab import build_ball, builtin_action, cli, cocycle
from fullgroup_lab.cantor_actions import Transducer
from fullgroup_lab.cli import main

SWAP = {"pieces": [{"prefix": "0", "word": ["t"]},
                   {"prefix": "1", "word": ["t_inv"]}]}
FAMILY = {"elements": [SWAP]}


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


def test_element_missing_point_is_usage_error(capsys, swap_file):
    assert main(["element", "apply", "odometer", "--element", swap_file]) == 2


def test_bad_element_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["element", "check", "odometer", "--element", str(bad)]) == 2


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


def test_verify_small_run(capsys):
    code, data = run_json(["verify", "odometer", "--radius", "80", "--n", "10"],
                          capsys)
    assert code == 0
    ids = [e["id"] for e in data["checks"]]
    assert len(ids) == 15 and len(set(ids)) == 15
    assert all(e["status"] == "pass" for e in data["checks"])
    assert data["timing"] is None


def test_verify_degrades_to_skips_on_small_windows(capsys):
    # windows too small for a check report "skipped", never crash the run
    code, data = run_json(["verify", "odometer", "--radius", "8", "--n", "10"],
                          capsys)
    assert code == 0
    statuses = {e["id"]: e["status"] for e in data["checks"]}
    assert len(statuses) == 15
    assert set(statuses.values()) <= {"pass", "skipped"}
    assert statuses["localfin"] == "pass"
    assert statuses["stab_transport"] == "skipped"


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
    monkeypatch.setattr(cli, "CHECK_IDS", cli.CHECK_IDS + ("extra",))
    with pytest.raises(RuntimeError, match="expected"):
        cli.run_verify(builtin_action("odometer"), 8, 10, 1 << 16)


def test_verify_looks_images_up_instead_of_rerunning_transducers(monkeypatch):
    # transducer runs stay O(n) per verify (about 316 n when every vertex
    # image re-ran them), and F's stabilizer tests are shared by every
    # transport and the nested family
    action = builtin_action("odometer")
    n = build_ball(action, 200).n
    samples = cli.sample_elements(action)
    calls = {"apply": 0, "stabilizer_test": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Transducer, "apply", counted("apply", Transducer.apply))
    stabilizer_test = cocycle.stabilizer_test
    for name, module in list(sys.modules.items()):
        if name.startswith("fullgroup_lab") and \
                getattr(module, "stabilizer_test", None) is stabilizer_test:
            monkeypatch.setattr(module, "stabilizer_test",
                                counted("stabilizer_test", stabilizer_test))
    report = cli.run_verify(action, 200, 10, 1 << 16)
    assert all(e["status"] == "pass" for e in report["checks"])
    assert 0 < calls["apply"] <= 10 * n
    assert 0 < calls["stabilizer_test"] <= \
        len(samples["samples"]) + len(samples["kernel_family"])
