"""The benchmark's workloads: seeded inputs, set-up and one operation each.

A workload object is created in the process that runs it.  ``setup``
imports the package and builds whatever the first timed call needs;
``prepare`` makes operation k's input; one call of ``op`` is one operation
(a certifier invocation or a cocycle query) and is all that is timed.
``check`` runs after the clock stops: it reads the result back and returns
``(ok, digest, why)`` for the correctness gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "_out")

CERTIFIERS = {
    "odometer_verify": ["verify", "odometer", "--radius", "400", "--n", "10"],
    "thickline_verify": ["verify", None, "--radius", "240", "--n", "24"],
    "level_qi": ["qi", "grigorchuk", "--level", "10"],
}
QUERY_RADIUS = 128
NAMES = ("odometer_verify", "thickline_verify", "level_qi", "cocycle_queries")
# Workloads whose inputs do not depend on the seed.
SEED_FREE = ("odometer_verify", "level_qi")


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- seeded input generators ------------------------------------------------

def thickline_action(seed: int) -> dict:
    """The odometer with extra +-2 generators, as an action file.

    State ``t2`` copies the first letter and moves to ``t`` (adds 2, least
    significant digit first); ``t2_inv`` moves to ``t_inv``.  The seed
    picks the basepoint: a 16-bit integer with its top bit set, so every
    seed gives the same graph (a thick line with 961 vertices at radius 240)
    under different labels, and every label has the same length.
    """
    from fullgroup_lab.cantor_actions import action_to_json, builtin_action

    data = action_to_json(builtin_action("odometer"))
    copy = {"0": "0", "1": "1"}
    data["transducers"]["t2"] = {"transitions": {"0": "t", "1": "t"},
                                 "outputs": dict(copy)}
    data["transducers"]["t2_inv"] = {"transitions": {"0": "t_inv", "1": "t_inv"},
                                     "outputs": dict(copy)}
    data["generators"]["t2"] = "t2"
    data["generators"]["t2_inv"] = "t2_inv"
    x = random.Random(seed).getrandbits(15) | (1 << 15)
    data["basepoint"] = {"preperiod": format(x, "016b")[::-1], "period": "0"}
    data["name"] = "thickline"
    return data


def thickline_path(seed: int) -> str:
    return os.path.join(OUT_DIR, f"thickline-{seed}.json")


def write_thickline(seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = thickline_path(seed)
    with open(path, "w") as fh:
        json.dump(thickline_action(seed), fh, sort_keys=True, indent=1)
    return path


def query_stream(seed: int):
    """Endless pairs of words over the four base elements, 1 to 4 letters.

    Lengths are stratified: each block of 16 queries holds every pair of
    lengths once, in seeded order, so the cost mix of a run does not depend
    on the seed; the letters are drawn freely.
    """
    rng = random.Random(seed)
    shapes = [(la, lb) for la in range(1, 5) for lb in range(1, 5)]
    while True:
        rng.shuffle(shapes)
        for la, lb in shapes:
            yield (tuple(rng.randrange(4) for _ in range(la)),
                   tuple(rng.randrange(4) for _ in range(lb)))


# --- workloads ---------------------------------------------------------------

class Certifier:
    """One ``cli.main`` invocation per operation, report written to a file."""

    def __init__(self, name: str, seed: int):
        self.name = name
        argv = list(CERTIFIERS[name])
        if argv[1] is None:
            argv[1] = thickline_path(seed)
        self.argv = argv
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out = os.path.join(OUT_DIR, f"report-{os.getpid()}.json")

    def setup(self) -> None:
        from fullgroup_lab import cantor_actions, cli

        source = self.argv[1]
        if os.path.exists(source):
            with open(source) as fh:
                cantor_actions.action_from_json(json.load(fh))
        else:
            cantor_actions.builtin_action(source)
        self.cli = cli

    def prepare(self, k: int) -> None:
        pass

    def op(self, k: int):
        return self.cli.main(self.argv + ["--out", self.out])

    def check(self, k: int, result):
        """(ok, digest, why) for the report of operation k."""
        with open(self.out) as fh:
            report = json.load(fh)
        report.pop("timing", None)
        failed = [c["id"] for c in report.get("checks", ())
                  if c["status"] == "fail"]
        if result != 0 or failed:
            return False, digest(report), f"exit {result}, failed {failed}"
        return True, digest(report), ""

    def close(self) -> None:
        if os.path.exists(self.out):
            os.remove(self.out)


class CocycleQueries:
    """Cocycle identity queries on a fixed odometer window.

    Each query composes two seeded products of the base elements, computes
    c(a), c(b) and c(ab) and checks c(ab) = c(a) symdiff a.c(b).
    """

    name = "cocycle_queries"

    def __init__(self, name: str, seed: int):
        self.stream = query_stream(seed)
        self.words = []

    def setup(self) -> None:
        from fullgroup_lab import cantor_actions, cocycle, full_group, \
            line_geometry, schreier

        action = cantor_actions.builtin_action("odometer")
        self.ball = schreier.build_ball(action, QUERY_RADIUS)
        self.half = cocycle.half_space(line_geometry.fit_line_chart(self.ball))
        make = full_group.make_element
        self.base = (
            make(action, [("", ("t",))]),
            make(action, [("", ("t_inv",))]),
            make(action, [("0", ("t",)), ("1", ("t_inv",))]),
            make(action, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                          ("10", ()), ("11", ())]),
        )
        self.full_group = full_group
        self.cocycle = cocycle

    def prepare(self, k: int) -> None:
        while len(self.words) <= k:
            self.words.append(next(self.stream))

    def _product(self, word):
        elem = self.base[word[0]]
        for i in word[1:]:
            elem = self.full_group.compose(elem, self.base[i])
        return elem

    def op(self, k: int):
        wa, wb = self.words[k]
        cocycle = self.cocycle
        a = self._product(wa)
        b = self._product(wb)
        ab = self.full_group.compose(a, b)
        ca = cocycle.cocycle_value(a, self.half).vertices
        cb = cocycle.cocycle_value(b, self.half).vertices
        cab = cocycle.cocycle_value(ab, self.half).vertices
        right = ca ^ cocycle.push_set(a, self.ball, cb)
        return ca, cb, cab, right

    def check(self, k: int, result):
        ca, cb, cab, right = result
        label = self.ball.label_str
        value = [sorted(label(v) for v in s) for s in (ca, cb, cab)]
        if cab != right:
            return False, digest(value), "cocycle identity fails"
        return True, digest(value), ""

    def close(self) -> None:
        pass


def make(name: str, seed: int):
    if name == "cocycle_queries":
        return CocycleQueries(name, seed)
    if name in CERTIFIERS:
        return Certifier(name, seed)
    raise ValueError(f"unknown workload {name!r}")
