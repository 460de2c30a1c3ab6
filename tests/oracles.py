"""Independent oracles the tests check the library against.

Everything here is deliberately written from scratch (integer
bookkeeping, table-driven wreath recursion, closed-form gambler's ruin,
exhaustive enumerations) and avoids the code paths under test.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from fullgroup_lab import BoundaryPoint, canonical_point

# --- 2-adic odometer bookkeeping -----------------------------------------

def int_to_point(n: int, width: int = 16) -> BoundaryPoint:
    """The 2-adic integer n as an eventually periodic word (LSB first)."""
    if n >= 0:
        bits = bin(n)[2:][::-1] if n else ""
        return canonical_point(bits, "0")
    value = (1 << width) + n
    assert value >= 0
    bits = bin(value)[2:][::-1]
    bits = bits + "0" * (width - len(bits))
    return canonical_point(bits, "1")


def point_to_int(pt: BoundaryPoint):
    """Inverse of int_to_point; None for points that are not integers."""
    if pt.period == "0":
        return sum(1 << i for i, b in enumerate(pt.preperiod) if b == "1")
    if pt.period == "1":
        k = len(pt.preperiod)
        value = sum(1 << i for i, b in enumerate(pt.preperiod) if b == "1")
        return value - (1 << k)
    return None


# --- wreath recursion tables (independent of the Transducer class) --------

# gen -> (root permutation swaps?, section at 0, section at 1); None = identity
WREATH = {
    "grigorchuk": {
        "a": (True, None, None),
        "b": (False, "a", "c"),
        "c": (False, "a", "d"),
        "d": (False, None, "b"),
    },
    "dihedral": {
        "a": (True, None, None),
        "b": (False, "a", "b"),
    },
}


def wreath_apply_letters(table: dict, gen, letters: str) -> str:
    """Apply one generator to a finite word via the wreath recursion."""
    out = []
    state = gen
    for ch in letters:
        if state is None:
            out.append(ch)
            continue
        swaps, sec0, sec1 = table[state]
        if swaps:
            out.append("1" if ch == "0" else "0")
            state = None
        else:
            out.append(ch)
            state = sec0 if ch == "0" else sec1
    return "".join(out)


def wreath_apply_word_letters(table: dict, word, letters: str) -> str:
    for gen in reversed(list(word)):
        letters = wreath_apply_letters(table, gen, letters)
    return letters


def points_agree(a: BoundaryPoint, b_prefix: str) -> bool:
    return a.prefix(len(b_prefix)) == b_prefix


# --- gambler's ruin closed forms ------------------------------------------

def path_escape(r: int) -> Fraction:
    return Fraction(1, r)


def tree3_escape(r: int) -> Fraction:
    """Escape before return on the 3-regular tree: outward bias 2/3."""
    return Fraction(2 ** (r - 1), 2 ** r - 1)


# --- independent graph utilities -------------------------------------------

def bfs_distances(n: int, pairs, source: int) -> list:
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    dist = [-1] * n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def simple_pairs(graph) -> set:
    return {(min(u, v), max(u, v)) for u, _g, v in graph.edges if u != v}


def all_pairs(graph) -> list:
    pairs = simple_pairs(graph)
    return [bfs_distances(graph.n, pairs, s) for s in range(graph.n)]


def qi_deviation(rows, f, certified, alpha) -> Fraction:
    """Smallest beta >= 0 with both QI inequalities at this alpha, pairwise
    in rationals."""
    beta = Fraction(0)
    for i, u in enumerate(certified):
        for v in certified[i + 1:]:
            d = rows[u][v]
            gap = abs(f[u] - f[v])
            beta = max(beta, gap - alpha * d, Fraction(d) / alpha - gap)
    return beta


def ceil_to_half(x: Fraction) -> Fraction:
    return Fraction(math.ceil(x * 2), 2)


def qi_constants(graph, f) -> tuple:
    """(alpha, beta) of the rational half-grid fit at alpha = 1."""
    alpha = Fraction(1)
    beta = qi_deviation(all_pairs(graph), f, sorted(graph.certified(1)), alpha)
    return alpha, ceil_to_half(beta)


def qi_holds(rows, f, pairs, alpha, beta) -> bool:
    return all(Fraction(rows[u][v]) / alpha - beta <= abs(f[u] - f[v])
               <= alpha * rows[u][v] + beta for u, v in pairs)


def qi_tight(rows, f, certified, alpha, beta) -> bool:
    """Lowering beta by half a unit leaves it below the deviation."""
    if beta == 0:
        return True
    return qi_deviation(rows, f, certified, alpha) > beta - Fraction(1, 2)


def is_simple_path(graph) -> bool:
    """Degree sequence of a path plus connectivity."""
    degs = graph.degree_sequence()
    if graph.n == 1:
        return degs == [0]
    if degs != [1, 1] + [2] * (graph.n - 2):
        return False
    dist = bfs_distances(graph.n, simple_pairs(graph), 0)
    return all(d >= 0 for d in dist)


def exhaustive_midpoint(graph, v: int) -> int:
    """Max n with a length-2n geodesic centered at v, by raw enumeration."""
    rows = all_pairs(graph)
    best = 0
    for a in range(graph.n):
        for b in range(graph.n):
            n = rows[v][a]
            if n == rows[v][b] and rows[a][b] == 2 * n:
                best = max(best, n)
    return best


def random_partition(rng, max_depth: int) -> list:
    """A random prefix partition of the cylinder space, depth-capped."""
    cells = [""]
    while True:
        splittable = [c for c in cells if len(c) < max_depth]
        if not splittable or (cells != [""] and rng.random() < 0.4):
            return cells
        cell = rng.choice(splittable)
        cells.remove(cell)
        cells.extend([cell + "0", cell + "1"])


def random_elements(action, rng, count: int, max_depth: int = 3,
                    max_word: int = 3) -> list:
    """Pseudo-random validated elements (resampling past invalid tables)."""
    from fullgroup_lab import make_element
    from fullgroup_lab.errors import NotInvertible

    gens = list(action.gen_names)
    out = []
    while len(out) < count:
        prefixes = random_partition(rng, max_depth)
        pieces = [(p, tuple(rng.choice(gens)
                            for _ in range(rng.randrange(max_word + 1))))
                  for p in prefixes]
        try:
            out.append(make_element(action, pieces, rng=rng))
        except NotInvertible:
            continue
    return out


def permutation_closure_order(perms, cap: int = 10 ** 6) -> int:
    """Independent breadth-first closure of permutation tuples."""
    def mul(p, q):
        return tuple(p[i] for i in q)

    gens = [tuple(p) for p in perms]
    if not gens:
        return 1
    identity = tuple(range(len(gens[0])))
    els = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                c = mul(g, h)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    assert len(els) <= cap
        frontier = new
    return len(els)
