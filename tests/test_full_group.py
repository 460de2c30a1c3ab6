import gc
import itertools
import json
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fullgroup_lab import (
    apply_element,
    apply_word,
    build_ball,
    canonical_point,
    compose,
    displacement_bound,
    element_from_json,
    element_to_json,
    identity_element,
    invert,
    make_element,
)
from fullgroup_lab.cantor_actions import cells
from fullgroup_lab.errors import NotAPartition, NotInvertible
from fullgroup_lab import full_group
from fullgroup_lab.full_group import (DEFAULT_DEPTH_CAP, FullGroupElement,
                                      walker, word_column)
from oracles import (int_to_point, point_to_int, random_elements,
                     random_points, transducer_map)


def test_pair_swap_valid_and_bijective_on_level3(odometer, pair_swap):
    # oracle: brute force the level-3 action of the piece table
    words = [format(i, "03b") for i in range(8)]
    images = set()
    for w in words:
        word = pair_swap.word_at_cell(w)
        out = w
        for g in reversed(word):
            out = odometer.level_apply_gen(g, out)
        images.add(out)
    assert len(images) == 8


def test_non_partition_rejected(odometer):
    with pytest.raises(NotAPartition):
        make_element(odometer, [("0", ("t",)), ("01", ("t",))])
    with pytest.raises(NotAPartition):
        make_element(odometer, [("0", ("t",))])


def test_identity_pieces(odometer):
    elem = make_element(odometer, [("0", ()), ("1", ())])
    assert elem.pieces == (("", ()),)  # merged to the trivial table
    x = canonical_point("0110", "01")
    assert apply_element(elem, x) == x


def test_non_invertible_rejected(odometer):
    # sketch that double-covers cylinder 01: 4k -> 4k+2 and 4k+2 fixed
    with pytest.raises(NotInvertible):
        make_element(odometer, [("00", ("t", "t")), ("10", ("t_inv", "t_inv")),
                                ("01", ()), ("11", ())])


def test_level_test_decides_bijectivity_exactly(odometer, dihedral):
    # every piece table of depth <= 2 with words of length <= 1: a table
    # make_element accepts is injective on the 16 points w(0) and w(1) with
    # |w| = 3, and every table it rejects maps two of them to one point
    partitions = (("",), ("0", "1"), ("0", "10", "11"), ("00", "01", "1"),
                  ("00", "01", "10", "11"))
    points = [canonical_point("".join(w), period)
              for w in itertools.product("01", repeat=3) for period in "01"]
    verdicts = []
    for action in (odometer, dihedral):
        words = [()] + [(g,) for g in action.gen_names]
        for prefixes in partitions:
            for table in itertools.product(words, repeat=len(prefixes)):
                pieces = tuple(zip(prefixes, table))
                try:
                    elem, accepted = make_element(action, pieces), True
                except NotInvertible:
                    elem, accepted = FullGroupElement(action, pieces), False
                images = {apply_element(elem, x) for x in points}
                assert (len(images) == len(points)) == accepted, pieces
                verdicts.append(accepted)
    assert len(verdicts) == 294 and 0 < sum(verdicts) < 294


def test_pair_swap_integer_action(odometer, pair_swap):
    # oracle: integer bookkeeping, swaps 2k <-> 2k+1
    for n in range(-20, 20):
        image = apply_element(pair_swap, int_to_point(n))
        expected = n + 1 if n % 2 == 0 else n - 1
        assert point_to_int(image) == expected


def test_apply_element_examples(odometer, pair_swap):
    assert apply_element(pair_swap, canonical_point("", "0")) == int_to_point(1)
    assert apply_element(pair_swap, int_to_point(1)) == canonical_point("", "0")


def test_compose_with_inverse_is_identity(odometer):
    rng = random.Random(11)
    elem = make_element(odometer, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                                   ("10", ()), ("11", ())])
    inv = invert(elem)
    both = compose(elem, inv)
    for x in random_points(rng, 100):
        assert apply_element(both, x) == x
        assert apply_element(inv, apply_element(elem, x)) == x


def test_pair_swap_composed_with_itself(odometer, pair_swap):
    square = compose(pair_swap, pair_swap)
    rng = random.Random(12)
    for x in random_points(rng, 50):
        assert apply_element(square, x) == x


def test_shift_composed_is_add_two(odometer):
    shift = make_element(odometer, [("", ("t",))])
    double = compose(shift, shift)
    rng = random.Random(13)
    for n in range(-30, 30):
        assert point_to_int(apply_element(double, int_to_point(n))) == n + 2
    for x in random_points(rng, 50):
        assert apply_element(double, x) == apply_word(odometer, ["t", "t"], x)


def test_invert_examples(odometer, pair_swap):
    ident = identity_element(odometer)
    assert invert(ident).pieces == ident.pieces
    assert invert(pair_swap).pieces == pair_swap.pieces  # involution
    shift = make_element(odometer, [("", ("t",))])
    assert invert(shift).pieces == (("", ("t_inv",)),)


def test_invert_is_cached_while_the_element_lives(odometer, pair_swap):
    # an involution is its own inverse, so both directions read one record;
    # any other element's inverse is built once while the element lives
    assert invert(pair_swap) is pair_swap
    again = make_element(odometer, [("0", ("t",)), ("1", ("t_inv",))])
    assert again is not pair_swap and invert(again) is again
    shift = make_element(odometer, [("", ("t",))])
    assert invert(shift) is invert(shift) != shift
    elements = random_elements(odometer, random.Random(5), 64)
    inverses = [invert(elem) for elem in elements]
    assert all(invert(elem) is inverse
               for elem, inverse in zip(elements, inverses))
    own = [inverse is elem for elem, inverse in zip(elements, inverses)]
    assert own == [inverse.pieces == elem.pieces
                   for elem, inverse in zip(elements, inverses)]
    assert any(own) and not all(own)


def _read_one_element(odometer, ball) -> tuple:
    """Read an element and its inverse on the ball, by a walker and a word
    column each; weak references to both."""
    shift = make_element(odometer, [("", ("t",))])
    elem = compose(shift, make_element(odometer, [
        ("00", ("t", "t")), ("01", ("t_inv", "t_inv")), ("10", ()), ("11", ())]))
    for direction in (elem, invert(elem)):
        walker(direction, ball)(0)
        word_column(direction, ball)
    assert invert(elem) is not elem
    return weakref.ref(elem), weakref.ref(invert(elem))


def test_element_caches_live_as_long_as_their_element(odometer):
    # an element's read record (which holds the ball), its inverse and the
    # inverse's record go with it by reference counting alone, and the
    # ball holds nothing per element, so a long-lived ball read with fresh
    # products keeps only its per-depth prefix lists
    gc.collect()
    gc.disable()
    try:
        ball = build_ball(odometer, 16)
        refs = sys.getrefcount(ball)
        probes = _read_one_element(odometer, ball)
        assert [probe() for probe in probes] == [None, None]
        assert sys.getrefcount(ball) == refs
        state = sorted(vars(ball))
        pool = random_elements(odometer, random.Random(3), 16, max_depth=2,
                               max_word=2)
        rng = random.Random(4)
        for _ in range(2000):
            product = compose(rng.choice(pool), rng.choice(pool))
            for direction in (product, invert(product)):
                walker(direction, ball)(0)
                word_column(direction, ball)
            assert sys.getrefcount(ball) <= refs + 2
        del product, direction
        assert sys.getrefcount(ball) == refs
        assert sorted(vars(ball)) == state
        assert set(ball._prefixes) <= set(range(DEFAULT_DEPTH_CAP + 1))
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["odometer", "grigorchuk", "thickline"])
def test_invert_keeps_the_word_lengths(request, name):
    # _is_invariant walks phi and its inverse within phi's displacement bound
    action = request.getfixturevalue(name)
    for elem in random_elements(action, random.Random(17), 20, max_depth=3,
                                max_word=4):
        lengths = {len(w) for _p, w in elem.pieces}
        assert {len(w) for _p, w in invert(elem).pieces} == lengths
        assert displacement_bound(invert(elem)) == displacement_bound(elem)


def test_displacement_bound(odometer, pair_swap):
    assert displacement_bound(identity_element(odometer)) == 0
    assert displacement_bound(pair_swap) == 1
    elem = make_element(odometer, [("0", ("t", "t", "t", "t")), ("1", ("t_inv",) * 4)])
    assert displacement_bound(elem) == 4
    ball = build_ball(odometer, 24)
    window = ball.certified(4)
    for v in sorted(window):
        img = ball.vertex_of(apply_element(elem, ball.point(v)))
        assert img is not None and ball.d(v, img) <= 4


def test_displacement_bound_on_ball(odometer, pair_swap, quad_swap):
    ball = build_ball(odometer, 16)
    for elem in (pair_swap, quad_swap):
        bound = displacement_bound(elem)
        for v in sorted(ball.certified(bound)):
            img = ball.vertex_of(apply_element(elem, ball.point(v)))
            assert ball.d(v, img) <= bound


def test_refinement_normalization_equality(odometer, pair_swap):
    refined = make_element(odometer, [("00", ("t",)), ("01", ("t",)),
                                      ("10", ("t_inv",)), ("11", ("t_inv",))])
    assert refined.pieces == pair_swap.pieces
    assert refined == pair_swap
    assert refined.same_map_table(pair_swap)


def test_elements_agreeing_everywhere_have_equal_tables(odometer, pair_swap):
    rng = random.Random(14)
    other = make_element(odometer, [("0", ("t",)), ("10", ("t_inv",)),
                                    ("11", ("t_inv",))])
    ball = build_ball(odometer, 8)
    for v in range(ball.n):
        assert apply_element(other, ball.point(v)) == apply_element(pair_swap, ball.point(v))
    for x in random_points(rng, 200):
        assert apply_element(other, x) == apply_element(pair_swap, x)
    assert other == pair_swap


def test_compose_associative_pointwise(odometer):
    rng = random.Random(15)
    a = make_element(odometer, [("0", ("t",)), ("1", ("t_inv",))])
    b = make_element(odometer, [("", ("t",))])
    c = make_element(odometer, [("00", ("t", "t")), ("01", ("t_inv", "t_inv")),
                                ("10", ()), ("11", ())])
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    for x in random_points(rng, 100):
        assert apply_element(left, x) == apply_element(right, x)


def test_element_json_roundtrip(odometer, quad_swap):
    data = json.loads(json.dumps(element_to_json(quad_swap)))
    again = element_from_json(odometer, data)
    assert again.pieces == quad_swap.pieces


def test_depth_cap(odometer, pair_swap):
    from fullgroup_lab.errors import DepthCap

    with pytest.raises(DepthCap):
        make_element(odometer, [("0", ("t",)), ("1", ("t_inv",))], depth_cap=1)
    with pytest.raises(DepthCap):
        compose(pair_swap, pair_swap, depth_cap=0)


def test_unknown_generator_in_piece(odometer):
    from fullgroup_lab.errors import UnknownGenerator

    with pytest.raises(UnknownGenerator):
        make_element(odometer, [("", ("zz",))])


# --- elements as vertex maps of a ball ---------------------------------------

def read_all(elem, ball) -> list:
    """elem's image of every ball vertex, read through a walker."""
    image = walker(elem, ball)
    return [image(v) for v in range(ball.n)]


@pytest.fixture(scope="module")
def odo_ball_60(odometer):
    return build_ball(odometer, 60)


@pytest.mark.parametrize("name, radius", [
    ("odometer", 60), ("grigorchuk", 40), ("dihedral", 40), ("thickline", 40)])
def test_vertex_map_matches_the_transducers(request, name, radius):
    # a walker read at every vertex, rim included, for random piece tables;
    # a word of length at most d_phi started within radius - d_phi never
    # leaves the ball, so no image there is -1 (the certificates rely on it
    # without a test); each image is walked once, and a second read, by
    # this walker or a new one, looks it up
    action = request.getfixturevalue(name)
    ball = build_ball(action, radius)
    for elem in random_elements(action, random.Random(radius), 12):
        inner = ball.certified(displacement_bound(elem))
        for direction in (elem, invert(elem)):
            walks = full_group.walks
            image = walker(direction, ball)
            images = [image(v) for v in range(ball.n)]
            assert images == transducer_map(direction, ball)
            assert all(images[v] >= 0 for v in inner)
            assert full_group.walks - walks <= ball.n
            walks = full_group.walks
            assert [image(v) for v in range(ball.n)] == images
            assert read_all(direction, ball) == images
            assert full_group.walks == walks


@pytest.mark.parametrize("name", ["odometer", "grigorchuk", "dihedral",
                                  "thickline"])
def test_word_column_matches_word_at(request, name):
    # the column is read from one prefix list per depth, each built once,
    # and kept in the element's read record; the identity tables, words
    # g^-1 g and () alternating over the cells, have six depths
    action = request.getfixturevalue(name)
    ball = build_ball(action, 40)
    g = action.gen_names[0]
    identities = [make_element(action, [(cell, (action.inverses[g], g) if k % 2
                                         else ())
                                        for k, cell in enumerate(cells(depth))])
                  for depth in range(6)]
    assert [elem.depth for elem in identities] == list(range(6))
    elements = random_elements(action, random.Random(11), 8, max_depth=4)
    built = {}
    for elem in elements + identities + elements:
        words = word_column(elem, ball)
        assert words == [elem.word_at(label) for label in ball.labels]
        assert word_column(elem, ball) is words
        built.setdefault(elem.depth, ball._prefixes[elem.depth])
        assert set(ball._prefixes) == set(built)
        assert all(ball._prefixes[d] is built[d] for d in built)
    assert set(built) == set(range(6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_vertex_map_property_over_seeds(odometer, odo_ball_60, seed):
    rng = random.Random(seed)
    for elem in random_elements(odometer, rng, 2, max_depth=4, max_word=4):
        assert read_all(elem, odo_ball_60) == transducer_map(elem, odo_ball_60)


def test_vertex_map_walk_that_leaves_and_comes_back(odometer, odo_ball_60):
    # t_inv runs first and steps off the ball at one rim vertex; t returns
    ball = odo_ball_60
    elem = make_element(odometer, [("", ("t", "t_inv"))])
    rim = [v for v in range(ball.n) if ball.successors()["t_inv"][v] < 0]
    assert len(rim) == 1 and ball.dist[rim[0]] == 60
    image = read_all(elem, ball)
    assert image[rim[0]] == rim[0]
    assert image == list(range(ball.n))


def test_vertex_map_on_a_ball_without_edges(odometer):
    # at radius 0 no generator has an edge, so every walk steps off at once
    # and the transducers finish it
    ball = build_ball(odometer, 0)
    assert ball.successors() == {}
    assert read_all(make_element(odometer, [("", ("t",))]), ball) == [-1]
    assert read_all(make_element(odometer, [("", ("t", "t_inv"))]),
                    ball) == [0]


def test_vertex_map_rejects_an_element_of_another_action(grigorchuk, odo_ball_60):
    with pytest.raises(ValueError):
        walker(make_element(grigorchuk, [("", ("a",))]), odo_ball_60)
