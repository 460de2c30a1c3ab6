import json
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
sys.path.insert(0, str(TESTS))

from fullgroup_lab import (
    action_from_json,
    action_to_json,
    build_ball,
    builtin_action,
    combine_actions,
    fit_line_chart,
    fragment_generators,
    half_space,
    make_element,
)
from fullgroup_lab import full_group

import oracles


@pytest.fixture(autouse=True)
def _one_test_of_transducer_maps():
    """Clear the transducer oracle's caches after each test, so that no
    test carries the maps of the tests before it (they would lengthen
    every later garbage collection)."""
    yield
    oracles.clear_transducer_caches()


@pytest.fixture(scope="session")
def odometer():
    return builtin_action("odometer")


@pytest.fixture(scope="session")
def grigorchuk():
    return builtin_action("grigorchuk")


@pytest.fixture(scope="session")
def dihedral():
    return builtin_action("dihedral")


@pytest.fixture(scope="session")
def thickline():
    """The odometer with extra +-2 generators: a line of width 2 (beta = 1).

    State t2 copies the first letter and moves to t; t2_inv moves to t_inv.
    """
    data = action_to_json(builtin_action("odometer"))
    copy = {"0": "0", "1": "1"}
    data["transducers"]["t2"] = {"transitions": {"0": "t", "1": "t"},
                                 "outputs": dict(copy)}
    data["transducers"]["t2_inv"] = {"transitions": {"0": "t_inv", "1": "t_inv"},
                                     "outputs": dict(copy)}
    data["generators"].update({"t2": "t2", "t2_inv": "t2_inv"})
    data["name"] = "thickline"
    return action_from_json(data)


@pytest.fixture(scope="session")
def grid():
    """Two odometers, on the even and on the odd letters: the orbit of (0)
    is Z^2 with the L1 metric (41, 145 and 545 vertices at r=4, 8, 16)."""
    return action_from_json(json.loads((TESTS / "grid.json").read_text()))


@pytest.fixture(scope="session")
def bellaterra():
    """The Bellaterra automaton: the orbit of (0) is tree-like, with
    2^(r+1) - 1 vertices at radius r."""
    return action_from_json(json.loads((TESTS / "bellaterra.json").read_text()))


@pytest.fixture(scope="session")
def dihedral_frag(dihedral):
    """Demo 01's fragmented dihedral action: ha1, ha2 split a over the
    cylinders of length 2 and h1, h2 split b over those of length 1."""
    A = fragment_generators(
        dihedral, "a",
        [[("00", True), ("10", True), ("01", False), ("11", False)],
         [("00", False), ("10", False), ("01", True), ("11", True)]],
        prefix="ha")
    B = fragment_generators(
        dihedral, "b", [[("0", True), ("1", False)], [("0", False), ("1", True)]])
    return combine_actions("dihedral_frag", A, B)


@pytest.fixture(scope="session")
def odo_ball_200(odometer):
    return build_ball(odometer, 200)


@pytest.fixture(scope="session")
def odo_chart_200(odo_ball_200):
    return fit_line_chart(odo_ball_200)


@pytest.fixture(scope="session")
def odo_half_200(odo_chart_200):
    return half_space(odo_chart_200)


@pytest.fixture(scope="session")
def odo_seg_200(odo_chart_200):
    return odo_chart_200.geodesic


@pytest.fixture(scope="session")
def pair_swap(odometer):
    return make_element(odometer, [("0", ("t",)), ("1", ("t_inv",))])


@pytest.fixture(scope="session")
def quad_swap(odometer):
    """Depth-2 kernel element: swaps 4k <-> 4k+2, fixes odd integers."""
    return make_element(odometer, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                                   ("10", ()), ("11", ())])


@pytest.fixture
def walker_reads(monkeypatch):
    """read(*modules): wraps the walker (full_group.walker) that each module
    reads elements through, or every fullgroup_lab module that imports it
    when none is named, and returns a list with one (element, vertices)
    pair per walker it then builds, vertices being the vertices that walker
    reads, in order.  The list holds the elements, so no two share an id."""
    def read(*modules) -> list:
        reads = []
        walker = full_group.walker
        if not modules:
            modules = [module for name, module in list(sys.modules.items())
                       if name.startswith("fullgroup_lab")
                       and getattr(module, "walker", None) is walker]

        def counted(elem, graph):
            image = walker(elem, graph)
            vertices = []
            reads.append((elem, vertices))

            def read_one(v):
                vertices.append(v)
                return image(v)
            return read_one

        for module in modules:
            monkeypatch.setattr(module, "walker", counted)
        return reads

    return read
