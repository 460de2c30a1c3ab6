import functools
import json
import random
from itertools import product

import pytest

from fullgroup_lab import (
    action_from_json,
    action_to_json,
    apply_word,
    builtin_action,
    canonical_point,
    combine_actions,
    fragment_generators,
)
from fullgroup_lab.cantor_actions import level_apply_word
from fullgroup_lab.errors import (
    InvalidAction,
    InvalidBase,
    InvalidPoint,
    NotAFragmentation,
    UnknownAction,
    UnknownGenerator,
)
from oracles import (
    WREATH,
    odometer_apply_word_letters,
    point_to_int,
    random_points,
    wreath_apply_word_letters,
)


def test_canonical_point_examples():
    assert canonical_point("01", "1") == canonical_point("0", "1")
    assert canonical_point("01", "1").preperiod == "0"
    assert canonical_point("", "00") == canonical_point("", "0")
    with pytest.raises(InvalidPoint):
        canonical_point("0", "")


def test_canonical_point_idempotent():
    rng = random.Random(1)
    for pt in random_points(rng, 200):
        again = canonical_point(pt.preperiod, pt.period)
        assert again == pt


def test_equality_is_canonical_form():
    # 011111... == 01 followed by ones, written three ways
    a = canonical_point("0111", "1")
    b = canonical_point("01", "11")
    c = canonical_point("0", "1")
    assert a == b == c


def test_point_prefix_and_letters():
    pt = canonical_point("01", "10")
    assert pt.prefix(6) == "011010"
    assert [pt.letter(i) for i in range(6)] == list("011010")


def test_apply_word_swaps_root(grigorchuk):
    x = canonical_point("", "0")
    assert apply_word(grigorchuk, ["a"], x) == canonical_point("1", "0")


def test_a_is_involution_on_random_points(grigorchuk):
    rng = random.Random(2)
    for x in random_points(rng, 50):
        assert apply_word(grigorchuk, ["a", "a"], x) == x


def test_d_fixes_all_ones(grigorchuk):
    # oracle: the wreath recursion cycles d -> b -> c -> d on input 1,
    # every state copying the letter through
    x = canonical_point("", "1")
    assert apply_word(grigorchuk, ["d"], x) == x
    table = WREATH["grigorchuk"]
    state, outputs = "d", []
    for _ in range(6):
        swaps, _s0, s1 = table[state]
        assert not swaps
        outputs.append("1")
        state = s1
    assert state == "d" and outputs == ["1"] * 6


def test_odometer_increment(odometer):
    x = canonical_point("11", "0")
    assert apply_word(odometer, ["t"], x) == canonical_point("001", "0")
    assert odometer.transducer.run("t", "110") == ("001", "e")
    assert odometer.transducer.run("t", "11") == ("00", "t")


def test_apply_word_output_canonical(grigorchuk):
    rng = random.Random(3)
    for x in random_points(rng, 50):
        y = apply_word(grigorchuk, ["b", "a", "c"], x)
        assert canonical_point(y.preperiod, y.period) == y


def test_apply_word_matches_wreath_oracle(grigorchuk, dihedral):
    rng = random.Random(4)
    for action, name in ((grigorchuk, "grigorchuk"), (dihedral, "dihedral")):
        table = WREATH[name]
        gens = [g for g in action.gen_names]
        for x in random_points(rng, 30):
            word = [rng.choice(gens) for _ in range(rng.randrange(1, 5))]
            got = apply_word(action, word, x)
            expected_prefix = wreath_apply_word_letters(table, word, x.prefix(48))
            assert got.prefix(48) == expected_prefix


def test_unknown_generator(odometer):
    with pytest.raises(UnknownGenerator):
        apply_word(odometer, ["zz"], canonical_point("", "0"))


def test_builtin_action_odometer(odometer):
    assert len(odometer.gen_names) == 2
    assert odometer.basepoint == canonical_point("", "0")
    assert odometer.inverse_name("t") == "t_inv"


def test_builtin_unknown():
    with pytest.raises(UnknownAction):
        builtin_action("petersen")


def test_grigorchuk_relations(grigorchuk):
    rng = random.Random(5)
    pts = random_points(rng, 100)
    for word in (["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"], ["b", "c", "d"]):
        for x in pts:
            assert apply_word(grigorchuk, word, x) == x


def test_inverse_words_cancel():
    rng = random.Random(6)
    for name in ("grigorchuk", "odometer", "dihedral"):
        action = builtin_action(name)
        gens = list(action.gen_names)
        for x in random_points(rng, 30):
            word = [rng.choice(gens) for _ in range(4)]
            inverse = action.inverse_word(word)
            assert apply_word(action, word + inverse, x) == x
            assert apply_word(action, inverse + word, x) == x


def test_trivial_fragmentation(dihedral):
    frag = fragment_generators(dihedral, "a", [[("", True)]])
    rng = random.Random(7)
    for x in random_points(rng, 50):
        assert apply_word(frag, ["h1"], x) == apply_word(dihedral, ["a"], x)


def test_two_piece_fragmentation_of_b(dihedral):
    # b preserves the first letter, so first-letter cells are valid pieces
    frag = fragment_generators(
        dihedral, "b",
        [[("0", True), ("1", False)], [("0", False), ("1", True)]])
    rng = random.Random(8)
    for x in random_points(rng, 100):
        assert apply_word(frag, ["h1", "h2"], x) == apply_word(dihedral, ["b"], x)
        assert apply_word(frag, ["h1", "h1"], x) == x


def test_two_piece_fragmentation_of_sigma_second_letter(dihedral):
    # sigma swaps first-letter cylinders, so pieces must key on deeper letters
    frag = fragment_generators(
        dihedral, "a",
        [[("00", True), ("10", True), ("01", False), ("11", False)],
         [("00", False), ("10", False), ("01", True), ("11", True)]])
    rng = random.Random(9)
    for x in random_points(rng, 100):
        assert apply_word(frag, ["h1", "h2"], x) == apply_word(dihedral, ["a"], x)


def test_sigma_first_letter_pieces_rejected(dihedral):
    # the on-set is not sigma-invariant: the piecewise map is 2-to-1
    with pytest.raises(NotAFragmentation):
        fragment_generators(
            dihedral, "a",
            [[("0", True), ("1", False)], [("0", False), ("1", True)]])


def test_uncovered_cell_rejected(dihedral):
    with pytest.raises(NotAFragmentation):
        fragment_generators(dihedral, "b", [[("0", True), ("1", False)]])


def test_non_involution_base_rejected(odometer):
    with pytest.raises(InvalidBase):
        fragment_generators(odometer, "t", [[("", True)]])


def test_combined_fragmentation_action(dihedral):
    from fullgroup_lab import build_ball, combine_actions, make_element

    A = fragment_generators(
        dihedral, "a",
        [[("00", True), ("10", True), ("01", False), ("11", False)],
         [("00", False), ("10", False), ("01", True), ("11", True)]],
        prefix="ha")
    B = fragment_generators(
        dihedral, "b",
        [[("0", True), ("1", False)], [("0", False), ("1", True)]],
        prefix="hb")
    AB = combine_actions("dihedral_frag", A, B)
    assert AB.gen_names == ("ha1", "ha2", "hb1", "hb2")
    rng = random.Random(21)
    for x in random_points(rng, 60):
        assert apply_word(AB, ["ha1", "ha2"], x) == apply_word(dihedral, ["a"], x)
        assert apply_word(AB, ["hb1", "hb2"], x) == apply_word(dihedral, ["b"], x)
    ball = build_ball(AB, 12)
    assert ball.n == 13  # line-like window of the fragmented action
    elem = make_element(AB, [("", ("ha1",))])  # piecewise generator in a word
    assert elem.depth == 0


def test_action_json_roundtrip(grigorchuk):
    data = json.loads(json.dumps(action_to_json(grigorchuk)))
    again = action_from_json(data)
    rng = random.Random(10)
    for x in random_points(rng, 30):
        for g in grigorchuk.gen_names:
            assert apply_word(again, [g], x) == apply_word(grigorchuk, [g], x)
        assert again.inverse_name("b") == "b"
    assert again.basepoint == grigorchuk.basepoint


def test_odometer_integers_roundtrip(odometer):
    # the orbit of the basepoint is exactly the integers in 2-adic coding
    from oracles import int_to_point

    for n in range(-40, 40):
        pt = int_to_point(n)
        assert point_to_int(pt) == n
        image = apply_word(odometer, ["t"], pt)
        assert point_to_int(image) == n + 1
        image = apply_word(odometer, ["t_inv"], pt)
        assert point_to_int(image) == n - 1


# Thue-Morse prefix: no point of random_points' sample lies under it
CYLINDER = "01101001100101101001"


def _one_cylinder_action() -> dict:
    """Generators i (the identity, listed first) and g: states q0..q19 copy
    letters along CYLINDER and fall to e on any other letter, q20 flips the
    next letter.  g is an involution that moves only the points under the
    cylinder."""
    transducers = {}
    for k, letter in enumerate(CYLINDER):
        other = "1" if letter == "0" else "0"
        transducers[f"q{k}"] = {"transitions": {letter: f"q{k + 1}", other: "e"},
                                "outputs": {"0": "0", "1": "1"}}
    transducers["q20"] = {"transitions": {"0": "e", "1": "e"},
                          "outputs": {"0": "1", "1": "0"}}
    return {"name": "one_cylinder", "transducers": transducers,
            "generators": {"i": "e", "g": "q0"},
            "basepoint": {"preperiod": "", "period": "0"}}


def test_inverses_are_decided_exactly(odometer, thickline):
    action = action_from_json(_one_cylinder_action())
    assert action.inverse_name("g") == "g"
    assert action.inverse_name("i") == "i"
    assert apply_word(action, ["g"], canonical_point(CYLINDER + "0", "1")) == \
        canonical_point(CYLINDER + "1", "1")
    for x in random_points(random.Random(0), 64):
        assert apply_word(action, ["g"], x) == x
    # g moves only points under a cylinder of length 20, and the exact walk
    # still tells it from the identity
    assert action.is_identity(["g", "g"]) and action.is_identity(["i", "i"])
    assert not action.is_identity(["i", "g"]) and not action.is_identity(["g", "i"])
    # a piecewise generator that is its own inverse
    data = action_to_json(odometer)
    data["generators"]["h"] = [{"prefix": "0", "state": "t"},
                               {"prefix": "1", "state": "t_inv"}]
    swap = action_from_json(data)
    assert [swap.inverse_name(g) for g in ("h", "t", "t_inv")] == ["h", "t_inv", "t"]
    assert [thickline.inverse_name(g) for g in ("t", "t_inv", "t2", "t2_inv")] == \
        ["t_inv", "t", "t2_inv", "t2"]
    # not injective: 2k and 2k + 1 both go to 2k + 1
    data["generators"]["h"] = [{"prefix": "0", "state": "t"},
                               {"prefix": "1", "state": "e"}]
    with pytest.raises(InvalidAction, match="no inverse found for generator 'h'"):
        action_from_json(data)


def _dihedral_with_fragments(dihedral):
    """The dihedral generators a and b, with b fragmented on the first
    letter (h1, h2) and a on the second (ha1, ha2)."""
    h = fragment_generators(
        dihedral, "b", [[("0", True), ("1", False)], [("0", False), ("1", True)]])
    ha = fragment_generators(
        dihedral, "a",
        [[("00", True), ("10", True), ("01", False), ("11", False)],
         [("00", False), ("10", False), ("01", True), ("11", True)]],
        prefix="ha")
    return combine_actions("dihedral_with_fragments", dihedral, h, ha)


@pytest.mark.parametrize("name, length, identities", [
    ("grigorchuk", 4, 44), ("odometer", 5, 8), ("dihedral", 5, 8),
    ("dihedral_with_fragments", 3, 18)])
def test_is_identity_agrees_with_the_level_actions(name, length, identities,
                                                   request):
    # every word up to the length is the identity exactly when it fixes
    # every level-k word, 2 <= k <= 8, by an independent level action
    # (level_apply_word for the piecewise generators)
    if name == "dihedral_with_fragments":
        action = _dihedral_with_fragments(request.getfixturevalue("dihedral"))
        image = functools.partial(level_apply_word, action)
    else:
        action = request.getfixturevalue(name)
        image = odometer_apply_word_letters if name == "odometer" else \
            functools.partial(wreath_apply_word_letters, WREATH[name])
    levels = ["".join(x) for k in range(2, 9) for x in product("01", repeat=k)]
    words = [list(w) for k in range(1, length + 1)
             for w in product(action.gen_names, repeat=k)]
    found = [w for w in words if action.is_identity(w)]
    assert found == [w for w in words if all(image(w, x) == x for x in levels)]
    assert len(found) == identities
    with pytest.raises(UnknownGenerator):
        action.is_identity(["zz"])
