"""Topological full group elements as finite prefix tables of group words.

An element is a list of (cylinder prefix, word) pieces whose prefixes
partition the space; on a matching cylinder the element acts by the word
(rightmost generator first).  Tables are kept in a normal form: refined
pieces carrying identical words are merged back and pieces are sorted by
prefix.  Two elements compare equal when their normal forms at a common
refinement depth coincide literally; deciding equality of distinct words
as group elements is the word problem and is out of scope.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cantor_actions import (
    ActionSystem,
    BoundaryPoint,
    _check_prefix_partition,
    apply_word,
    default_rng,
    level_apply_word,
    random_points,
)
from .errors import DepthCap, NotInvertible, UnknownGenerator

DEFAULT_DEPTH_CAP = 20


def _generator_depth_floor(action: ActionSystem, pieces) -> int:
    """Smallest level at which every word's truncated action is defined
    (piecewise generators need words at least as deep as their pieces)."""
    floor = 0
    for _prefix, word in pieces:
        for g in word:
            spec = action.generators.get(g)
            if spec is not None:
                floor = max(floor, spec.max_depth())
    return floor


def _merge_pieces(pieces) -> tuple:
    """Collapse sibling cylinders that carry the same word."""
    table = dict(pieces)
    changed = True
    while changed:
        changed = False
        for prefix in sorted(table, key=len, reverse=True):
            if not prefix or prefix not in table:
                continue
            sib = prefix[:-1] + ("1" if prefix[-1] == "0" else "0")
            if sib in table and table[sib] == table[prefix]:
                word = table.pop(prefix)
                table.pop(sib)
                table[prefix[:-1]] = word
                changed = True
    return tuple(sorted(table.items()))


@dataclass(frozen=True)
class FullGroupElement:
    """A clopen-piecewise map given by a normalized prefix table."""

    action: ActionSystem
    pieces: tuple  # ((prefix, word-tuple), ...) sorted, merged

    @property
    def depth(self) -> int:
        return max((len(p) for p, _ in self.pieces), default=0)

    def word_at(self, point: BoundaryPoint) -> tuple:
        for prefix, word in self.pieces:
            if point.prefix(len(prefix)) == prefix:
                return word
        raise AssertionError("validated partition must match every point")

    def word_at_cell(self, cell: str) -> tuple:
        for prefix, word in self.pieces:
            if cell.startswith(prefix):
                return word
        raise AssertionError(f"cell {cell!r} shallower than the table")

    def refined(self, depth: int) -> tuple:
        """The piece table refined to a uniform depth (for comparisons)."""
        out = []
        for cell_id in range(2 ** depth):
            cell = format(cell_id, f"0{depth}b") if depth else ""
            out.append((cell, self.word_at_cell(cell)))
        return tuple(out)

    def same_map_table(self, other: "FullGroupElement") -> bool:
        depth = max(self.depth, other.depth)
        return self.refined(depth) == other.refined(depth)

    def __repr__(self):
        body = ", ".join(f"{p or 'root'}:{'.'.join(w) or 'id'}"
                         for p, w in self.pieces)
        return f"FullGroupElement[{body}]"


def make_element(action: ActionSystem, pieces,
                 depth_cap: int = DEFAULT_DEPTH_CAP,
                 rng: random.Random | None = None) -> FullGroupElement:
    """Validate and normalize a piece table.

    The partition condition is checked exactly; bijectivity is checked on
    the level-(max prefix depth + max word length) quotient, which is
    exact for letter-preserving transducer words, and spot-checked on
    random boundary points.
    """
    norm = []
    for prefix, word in pieces:
        if isinstance(word, str):
            word = tuple(word.split())
        else:
            word = tuple(word)
        for g in word:
            if g not in action.generators:
                raise UnknownGenerator(g)
        norm.append((prefix, word))
    _check_prefix_partition([p for p, _ in norm])

    max_word = max((len(w) for _, w in norm), default=0)
    max_depth = max((len(p) for p, _ in norm), default=0)
    level = max(max_depth + max_word, _generator_depth_floor(action, norm))
    if level > depth_cap:
        raise DepthCap(f"bijectivity level {level} exceeds cap {depth_cap}")
    elem = FullGroupElement(action, _merge_pieces(norm))
    images = set()
    for cell_id in range(2 ** level):
        cell = format(cell_id, f"0{level}b") if level else ""
        images.add(level_apply_word(action, elem.word_at_cell(cell), cell))
    if len(images) != 2 ** level:
        raise NotInvertible(
            f"level-{level} action is not a permutation "
            f"({len(images)} images for {2 ** level} cells)")

    rng = rng or default_rng()
    sample = random_points(rng, 32)
    seen = {}
    for pt in sample:
        img = apply_element(elem, pt)
        if img in seen and seen[img] != pt:
            raise NotInvertible(f"collision at {img.label()}")
        seen[img] = pt
    return elem


def identity_element(action: ActionSystem) -> FullGroupElement:
    return FullGroupElement(action, (("", ()),))


def apply_element(elem: FullGroupElement, point: BoundaryPoint) -> BoundaryPoint:
    return apply_word(elem.action, elem.word_at(point), point)


def compose(phi: FullGroupElement, psi: FullGroupElement,
            depth_cap: int = DEFAULT_DEPTH_CAP) -> FullGroupElement:
    """The element acting as phi after psi (phi o psi).

    The common refinement depth is max of both depths: psi maps a cell of
    that depth onto a single cell, which selects phi's piece.
    """
    if phi.action is not psi.action and phi.action.name != psi.action.name:
        raise ValueError("elements live on different actions")
    depth = max(phi.depth, psi.depth,
                _generator_depth_floor(phi.action, phi.pieces + psi.pieces))
    if depth > depth_cap:
        raise DepthCap(f"refinement depth {depth} exceeds cap {depth_cap}")
    action = phi.action
    out = []
    for cell_id in range(2 ** depth):
        cell = format(cell_id, f"0{depth}b") if depth else ""
        w_psi = psi.word_at_cell(cell)
        image = level_apply_word(action, w_psi, cell)
        w_phi = phi.word_at_cell(image)
        out.append((cell, tuple(w_phi) + tuple(w_psi)))
    return FullGroupElement(action, _merge_pieces(out))


def invert(elem: FullGroupElement) -> FullGroupElement:
    """Piece table of the inverse map, from the image partition."""
    action = elem.action
    depth = max(elem.depth, _generator_depth_floor(action, elem.pieces))
    out = []
    for cell_id in range(2 ** depth):
        cell = format(cell_id, f"0{depth}b") if depth else ""
        word = elem.word_at_cell(cell)
        image = level_apply_word(action, word, cell)
        out.append((image, tuple(action.inverse_word(word))))
    return FullGroupElement(action, _merge_pieces(out))


def displacement_bound(elem: FullGroupElement) -> int:
    """Max literal word length over pieces: d(x, elem(x)) never exceeds it."""
    return max((len(w) for _, w in elem.pieces), default=0)


# --- element file format -------------------------------------------------

def element_to_json(elem: FullGroupElement) -> dict:
    return {"pieces": [{"prefix": p, "word": list(w)} for p, w in elem.pieces]}


def element_from_json(action: ActionSystem, data: dict) -> FullGroupElement:
    pieces = [(piece["prefix"], tuple(piece["word"])) for piece in data["pieces"]]
    return make_element(action, pieces)


def elements_from_json(action: ActionSystem, data) -> list:
    if isinstance(data, dict) and "elements" in data:
        data = data["elements"]
    return [element_from_json(action, entry) for entry in data]


def elements_to_json(elems) -> dict:
    return {"elements": [element_to_json(e) for e in elems]}
