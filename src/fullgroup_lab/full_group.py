"""Topological full group elements as finite prefix tables of group words.

An element is a list of (cylinder prefix, word) pieces whose prefixes
partition the space; on a matching cylinder the element acts by the word
(rightmost generator first).  Tables are kept in a normal form: refined
pieces carrying identical words are merged back and pieces are sorted by
prefix.  Two elements compare equal when their normal forms at a common
refinement depth coincide literally; deciding equality of distinct words
as group elements is the word problem and is out of scope.

On a finite ball of the orbit an element is a partial permutation of the
vertices, each moving at most d_phi steps along the labeled edges of its
piece word; vertex_map lists it, so images are looked up, not recomputed,
and word_column lists the piece word at every vertex.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

from .cantor_actions import (
    ActionSystem,
    BoundaryPoint,
    _check_prefix_partition,
    apply_word,
    cells,
    level_apply_word,
)
from .errors import DepthCap, InvalidElement, NotInvertible, UnknownGenerator
from .schreier import Graph, SchreierBall

DEFAULT_DEPTH_CAP = 20

# Element -> its inverse (invert).  The element caches are weak-keyed, so an
# entry lives as long as its element; no cached value may refer to its key,
# or the entry would never go (so an inverse is not stored as a key back).
_inverses = weakref.WeakKeyDictionary()


def _cached(cache, key, compute):
    """cache[key], computed and stored on a miss."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = compute()
    return value


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
        return self.word_at_cell(point.prefix(self.depth))

    def word_at_cell(self, cell: str) -> tuple:
        for prefix, word in self.pieces:
            if cell.startswith(prefix):
                return word
        raise AssertionError(f"cell {cell!r} shallower than the table")

    def refined(self, depth: int) -> tuple:
        """The piece table refined to a uniform depth (for comparisons)."""
        return tuple((cell, self.word_at_cell(cell)) for cell in cells(depth))

    def same_map_table(self, other: "FullGroupElement") -> bool:
        depth = max(self.depth, other.depth)
        return self.refined(depth) == other.refined(depth)

    def __repr__(self):
        body = ", ".join(f"{p or 'root'}:{'.'.join(w) or 'id'}"
                         for p, w in self.pieces)
        return f"FullGroupElement[{body}]"


def make_element(action: ActionSystem, pieces,
                 depth_cap: int = DEFAULT_DEPTH_CAP) -> FullGroupElement:
    """Validate and normalize a piece table.

    The partition condition is checked exactly, and so is bijectivity on
    the level-L quotient, L = max prefix depth + max word length (at least
    every generator's piece depth): from that level on, each piece word
    maps a level-L cylinder onto a level-L cylinder, so the element is a
    bijection exactly when the quotient is a permutation.
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
    images = {level_apply_word(action, elem.word_at_cell(cell), cell)
              for cell in cells(level)}
    if len(images) != 2 ** level:
        raise NotInvertible(
            f"level-{level} action is not a permutation "
            f"({len(images)} images for {2 ** level} cells)")
    return elem


def identity_element(action: ActionSystem) -> FullGroupElement:
    return FullGroupElement(action, (("", ()),))


def apply_element(elem: FullGroupElement, point: BoundaryPoint) -> BoundaryPoint:
    return apply_word(elem.action, elem.word_at(point), point)


def word_column(elem: FullGroupElement, graph: Graph) -> list:
    """elem's piece word at every vertex of the graph, whose labels are
    boundary points: one lookup of each distinct depth-d prefix in the
    table, d = elem.depth, the prefixes themselves kept per depth (an
    element's depth is at most DEFAULT_DEPTH_CAP, so they are few)."""
    def column():
        depth = elem.depth
        prefixes = graph._prefixes.get(depth)
        if prefixes is None:
            prefixes = graph._prefixes[depth] = [label.prefix(depth)
                                                 for label in graph.labels]
        words = {cell: elem.word_at_cell(cell) for cell in set(prefixes)}
        return [words[cell] for cell in prefixes]

    return _cached(graph._columns, elem, column)


def vertex_map(elem: FullGroupElement, ball: SchreierBall) -> list:
    """The image vertex of every ball vertex under elem, -1 off the ball:
    its piece word walked along the ball's labeled edges, or by the
    transducers where a walk steps off the ball (it may come back)."""
    if elem.action is not ball.action:
        raise ValueError("element and ball live on different actions")

    def walk():
        Graph.map_walks += 1
        succ = ball.successors()
        off = [-1] * ball.n
        rows = {word: [succ.get(g, off) for g in reversed(word)]
                for _prefix, word in elem.pieces}
        out = []
        for v, word in enumerate(word_column(elem, ball)):
            w = v
            for row in rows[word]:
                w = row[w]
                if w < 0:
                    image = ball.vertex_of(apply_element(elem, ball.labels[v]))
                    w = -1 if image is None else image
                    break
            out.append(w)
        return out

    return _cached(ball._maps, elem, walk)


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
    for cell in cells(depth):
        w_psi = psi.word_at_cell(cell)
        image = level_apply_word(action, w_psi, cell)
        w_phi = phi.word_at_cell(image)
        out.append((cell, tuple(w_phi) + tuple(w_psi)))
    return FullGroupElement(action, _merge_pieces(out))


def invert(elem: FullGroupElement) -> FullGroupElement:
    """Piece table of the inverse map, from the image partition; cached
    while elem lives."""
    def inverse():
        action = elem.action
        depth = max(elem.depth, _generator_depth_floor(action, elem.pieces))
        out = []
        for cell in cells(depth):
            word = elem.word_at_cell(cell)
            image = level_apply_word(action, word, cell)
            out.append((image, tuple(action.inverse_word(word))))
        return FullGroupElement(action, _merge_pieces(out))

    return _cached(_inverses, elem, inverse)


def displacement_bound(elem: FullGroupElement) -> int:
    """Max literal word length over pieces: d(x, elem(x)) never exceeds it."""
    return max((len(w) for _, w in elem.pieces), default=0)


# --- element file format -------------------------------------------------

def element_to_json(elem: FullGroupElement) -> dict:
    return {"pieces": [{"prefix": p, "word": list(w)} for p, w in elem.pieces]}


def _is_piece(piece) -> bool:
    """{"prefix": a string, "word": a list of strings or a string}."""
    if not isinstance(piece, dict) or not isinstance(piece.get("prefix"), str):
        return False
    word = piece.get("word")
    return isinstance(word, str) or (
        isinstance(word, list) and all(isinstance(g, str) for g in word))


def element_from_json(action: ActionSystem, data: dict) -> FullGroupElement:
    """The element of {"pieces": [{"prefix": ..., "word": [...]}, ...]};
    InvalidElement for data of another shape."""
    pieces = data.get("pieces") if isinstance(data, dict) else None
    if not isinstance(pieces, list) or not all(map(_is_piece, pieces)):
        raise InvalidElement('an element is {"pieces": [{"prefix": "01", '
                             '"word": ["t", ...]}, ...]}, got '
                             f"{json.dumps(data)[:60]}")
    return make_element(action, [(piece["prefix"], tuple(piece["word"]))
                                 for piece in pieces])


def elements_from_json(action: ActionSystem, data) -> list:
    """The elements of a non-empty list of them, or of {"elements": [...]};
    InvalidElement for data of another shape."""
    if isinstance(data, dict) and "elements" in data:
        data = data["elements"]
    if not isinstance(data, list) or not data:
        raise InvalidElement('a family is a non-empty list of elements or '
                             f'{{"elements": [...]}}, got {json.dumps(data)[:60]}')
    return [element_from_json(action, entry) for entry in data]

