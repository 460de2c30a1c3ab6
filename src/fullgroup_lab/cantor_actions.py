"""Eventually periodic boundary points and transducer actions on them.

Points of the binary Cantor set are represented exactly as eventually
periodic words ``preperiod . period period period ...``.  This countable
dense subset is closed under every finite-state and piecewise-transducer
map used here, so all arithmetic is exact.

Generators are states of a single Mealy machine (letter-to-letter
transducer); a piecewise generator selects a state per cylinder prefix.
Words act from the left: the rightmost letter of a word is applied first.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    InvalidAction,
    InvalidBase,
    InvalidPoint,
    NotAFragmentation,
    NotAPartition,
    UnknownAction,
    UnknownGenerator,
)

LETTERS = "01"

IDENTITY_STATE = "e"


def cells(depth: int) -> list:
    """The 2^depth cylinder words of a length, in increasing order."""
    return ["".join(w) for w in product(LETTERS, repeat=depth)]


def _primitive_root(word: str) -> str:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


@dataclass(frozen=True, order=True)
class BoundaryPoint:
    """Canonical form of the infinite word preperiod + period^infinity."""

    preperiod: str
    period: str

    def letter(self, i: int) -> str:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, k: int) -> str:
        out = self.preperiod
        while len(out) < k:
            out += self.period
        return out[:k]

    def label(self) -> str:
        return f"{self.preperiod}({self.period})"

    def sort_key(self):
        return (self.preperiod, self.period)

    def orientation_key(self):
        return (self.period, self.preperiod)

    def __repr__(self):
        return f"BoundaryPoint({self.label()!r})"


def canonical_point(preperiod: str, period: str) -> BoundaryPoint:
    """Unique canonical representative of preperiod + period^infinity.

    The period is reduced to its primitive root, then the preperiod is
    shrunk while its last letter equals the last letter of the (rotating)
    period.
    """
    if not period:
        raise InvalidPoint("period must be nonempty")
    for ch in preperiod + period:
        if ch not in LETTERS:
            raise InvalidPoint(f"non-binary letter {ch!r}")
    period = _primitive_root(period)
    while preperiod and preperiod[-1] == period[-1]:
        preperiod = preperiod[:-1]
        period = period[-1] + period[:-1]
    return BoundaryPoint(preperiod, period)


def parse_point(text: str) -> BoundaryPoint:
    """Parse the label format "preperiod(period)", e.g. "01(10)"."""
    if "(" not in text or not text.endswith(")"):
        raise InvalidPoint(f"expected 'preperiod(period)', got {text!r}")
    pre, per = text[:-1].split("(", 1)
    return canonical_point(pre, per)


def random_points(rng: random.Random, count: int, max_preperiod: int = 8,
                  max_period: int = 6) -> list[BoundaryPoint]:
    pts = []
    for _ in range(count):
        npre = rng.randrange(max_preperiod + 1)
        nper = rng.randrange(1, max_period + 1)
        pre = "".join(rng.choice(LETTERS) for _ in range(npre))
        per = "".join(rng.choice(LETTERS) for _ in range(nper))
        pts.append(canonical_point(pre, per))
    return pts


@dataclass(frozen=True, eq=False)
class Transducer:
    """A Mealy machine whose states act on infinite binary words.

    transitions[state][letter] -> next state, outputs[state][letter] ->
    output letter.  Every state's output map is a permutation of {0,1}
    (each state is a rooted-tree automorphism) and the identity state
    fixes letters and loops to itself.
    """

    transitions: dict
    outputs: dict
    identity: str = IDENTITY_STATE

    # apply calls of every machine of the process; verify --timing reports
    # how many each check made
    applications = 0

    def __post_init__(self):
        if self.identity not in self.transitions:
            raise InvalidAction("missing identity state")
        for s, table in self.transitions.items():
            out = self.outputs.get(s)
            if out is None or set(table) != set(LETTERS) or set(out) != set(LETTERS):
                raise InvalidAction(f"state {s!r} must define both letters")
            if sorted(out.values()) != ["0", "1"]:
                raise InvalidAction(f"state {s!r} output is not a permutation")
            for nxt in table.values():
                if nxt not in self.transitions:
                    raise InvalidAction(f"state {s!r} transitions to unknown state")
        for a in LETTERS:
            if self.outputs[self.identity][a] != a or \
                    self.transitions[self.identity][a] != self.identity:
                raise InvalidAction("identity state must fix letters and loop")

    @property
    def states(self):
        return tuple(sorted(self.transitions))

    def step(self, state: str, letter: str) -> tuple[str, str]:
        return self.outputs[state][letter], self.transitions[state][letter]

    def apply(self, state: str, point: BoundaryPoint) -> BoundaryPoint:
        """Run the machine from `state` over the eventually periodic input.

        The run is simulated until the (state, period offset) pair repeats,
        which pins down the eventually periodic output exactly.
        """
        Transducer.applications += 1
        out_pre, s = self.run(state, point.preperiod)
        per = point.period
        seen: dict[tuple[str, int], int] = {}
        out_cycle = []
        i = 0
        while (s, i % len(per)) not in seen:
            seen[(s, i % len(per))] = i
            o, s = self.step(s, per[i % len(per)])
            out_cycle.append(o)
            i += 1
        j = seen[(s, i % len(per))]
        pre = out_pre + "".join(out_cycle[:j])
        period = "".join(out_cycle[j:])
        return canonical_point(pre, period)

    def run(self, state: str, word: str) -> tuple[str, str]:
        """(image, state reached) of the run from `state` over a word."""
        out = []
        s = state
        for ch in word:
            o, s = self.step(s, ch)
            out.append(o)
        return "".join(out), s

    def apply_prefix(self, state: str, word: str) -> str:
        """Image of a finite word (the level-|word| action of the state)."""
        return self.run(state, word)[0]

    def level_tables(self, states, ids: list) -> dict:
        """Each state's action on the words of length n, as an image table.

        ids is list(range(2 ** n)): the level-n words by their index in
        cells(n) order.  The table of a state holds at index i the index of
        the state's image of the i-th word.  Every entry is an element of
        ids, so the callers that key dicts by word index share one int
        object per word.

        The tables follow the section recursion s = (s|0, s|1)·σ: a word
        a·w goes to out(s, a)·(next(s, a) applied to w), so the block of
        words that start with a goes onto the block of out(s, a), in the
        order of next(s, a)'s table one level down.  The identity state
        fixes every word, so its block is a slice of ids and the recursion
        stops there; below a state whose sections are all the identity (a
        root swap) no table is built.  Each (state, depth) pair reached is
        built once per call.  Every table is a permutation of its level,
        by induction on the depth: each state's outputs permute the two
        letters, so its two blocks go onto the two distinct blocks, each
        by a permutation.
        """
        memo = {}

        def table(s: str, depth: int) -> list:
            if s == self.identity or depth == 0:
                return ids[:1 << depth]
            found = memo.get((s, depth))
            if found is None:
                half = 1 << (depth - 1)
                found = []
                for a in LETTERS:
                    lo = int(self.outputs[s][a]) * half
                    block = ids[lo:lo + half]
                    nxt = self.transitions[s][a]
                    if nxt == self.identity:
                        found += block
                    else:
                        found += [block[j] for j in table(nxt, depth - 1)]
                memo[s, depth] = found
            return found

        n = len(ids).bit_length() - 1
        return {s: table(s, n) for s in states}

    def cancels(self, outer: str, inner: str) -> bool:
        """Exact check that outer applied after inner is the identity map.

        Explores the product machine from the pair (outer, inner); the
        composite is the identity iff every reachable pair writes back the
        letter it reads (a pair that does not moves the word reaching it).
        """
        todo = [(outer, inner)]
        seen = {(outer, inner)}
        while todo:
            outer, inner = todo.pop()
            for a in LETTERS:
                mid, inner2 = self.step(inner, a)
                out, outer2 = self.step(outer, mid)
                if out != a:
                    return False
                nxt = (outer2, inner2)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return True

    def is_involution(self, state: str) -> bool:
        """Exact check that state applied twice is the identity map."""
        return self.cancels(state, state)


def _check_prefix_partition(prefixes) -> None:
    """Prefixes must be pairwise incomparable and cover the cylinder space
    (prefix-free with Kraft sum exactly 1)."""
    ordered = sorted(prefixes)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            raise NotAPartition(f"prefix {a!r} overlaps {b!r}")
    total = sum(Fraction(1, 2 ** len(p)) for p in ordered)
    if total != 1:
        raise NotAPartition(f"prefixes cover measure {total}, not 1")


@dataclass(frozen=True)
class GeneratorSpec:
    """Either a single transducer state or a piecewise table of states.

    pieces is a tuple of (cylinder prefix, state name); the prefixes
    partition the space and the state is applied from the root on the
    matching cylinder.
    """

    state: str | None = None
    pieces: tuple = ()

    def __post_init__(self):
        if (self.state is None) == (not self.pieces):
            raise InvalidAction("generator is either one state or pieces")
        if self.pieces:
            _check_prefix_partition([p for p, _ in self.pieces])

    def state_at(self, point: BoundaryPoint) -> str:
        if self.state is not None:
            return self.state
        for prefix, state in self.pieces:
            if point.prefix(len(prefix)) == prefix:
                return state
        raise InvalidAction("partition failed to match a point")

    def state_at_word(self, word: str) -> str:
        if self.state is not None:
            return self.state
        for prefix, state in self.pieces:
            if len(prefix) <= len(word) and word.startswith(prefix):
                return state
        raise InvalidAction(f"level word {word!r} shorter than piece prefixes")

    def max_depth(self) -> int:
        return max((len(p) for p, _ in self.pieces), default=0)

    @property
    def states(self) -> tuple:
        """The states the generator runs: its pieces' or its one state."""
        return tuple(s for _p, s in self.pieces) or (self.state,)

    def level_images(self, tables: dict, n: int) -> list:
        """The generator's level-n image table, from its states' tables
        (Transducer.level_tables): on the block of words under each piece
        prefix it is that block of the piece state's table."""
        if self.state is not None:
            return tables[self.state]
        deep = [p[:n] for p, _s in self.pieces if len(p) > n]
        if deep:
            raise InvalidAction(f"level word {min(deep)!r} shorter than piece prefixes")
        images = [None] * (1 << n)
        for prefix, state in self.pieces:
            size = 1 << (n - len(prefix))
            lo = int(prefix or "0", 2) * size
            images[lo:lo + size] = tables[state][lo:lo + size]
        return images


@dataclass(frozen=True, eq=False)
class ActionSystem:
    """A named symmetric generating set acting on the Cantor set.

    generators maps names to GeneratorSpec; inverses pairs each generator
    name with the name of its inverse.  Instances compare by identity:
    one action object is built per system and shared.
    """

    name: str
    transducer: Transducer
    generators: dict
    inverses: dict
    basepoint: BoundaryPoint

    def __post_init__(self):
        for g in self.generators:
            if g not in self.inverses or self.inverses[g] not in self.generators:
                raise InvalidAction(f"generator {g!r} has no inverse in the set")

    @property
    def gen_names(self) -> tuple:
        return tuple(sorted(self.generators))

    def inverse_name(self, name: str) -> str:
        if name not in self.inverses:
            raise UnknownGenerator(name)
        return self.inverses[name]

    def apply_gen(self, name: str, point: BoundaryPoint) -> BoundaryPoint:
        spec = self.generators.get(name)
        if spec is None:
            raise UnknownGenerator(name)
        return self.transducer.apply(spec.state_at(point), point)

    def level_apply_gen(self, name: str, word: str) -> str:
        spec = self.generators.get(name)
        if spec is None:
            raise UnknownGenerator(name)
        return self.transducer.apply_prefix(spec.state_at_word(word), word)

    def inverse_word(self, word) -> list:
        return [self.inverse_name(g) for g in reversed(list(word))]

    def action_hash(self) -> str:
        import hashlib
        return hashlib.sha256(
            json.dumps(action_to_json(self), sort_keys=True).encode()
        ).hexdigest()[:16]


def apply_word(action: ActionSystem, word, point: BoundaryPoint) -> BoundaryPoint:
    """Apply a word of generator names, rightmost letter first."""
    if isinstance(word, str):
        word = word.split()
    for name in reversed(list(word)):
        point = action.apply_gen(name, point)
    return point


def level_apply_word(action: ActionSystem, word, text: str) -> str:
    if isinstance(word, str):
        word = word.split()
    for name in reversed(list(word)):
        text = action.level_apply_gen(name, text)
    return text


def _machine(table: dict) -> Transducer:
    """table: state -> ((next0, next1), (out0, out1)); identity added."""
    transitions = {IDENTITY_STATE: {"0": IDENTITY_STATE, "1": IDENTITY_STATE}}
    outputs = {IDENTITY_STATE: {"0": "0", "1": "1"}}
    for s, ((n0, n1), (o0, o1)) in table.items():
        transitions[s] = {"0": n0, "1": n1}
        outputs[s] = {"0": o0, "1": o1}
    return Transducer(transitions, outputs)


def builtin_action(name: str) -> ActionSystem:
    """The built-in actions: grigorchuk, odometer, dihedral."""
    if name == "grigorchuk":
        # a swaps the root letter; b=(a,c), c=(a,d), d=(1,b).
        machine = _machine({
            "a": ((IDENTITY_STATE, IDENTITY_STATE), ("1", "0")),
            "b": (("a", "c"), ("0", "1")),
            "c": (("a", "d"), ("0", "1")),
            "d": ((IDENTITY_STATE, "b"), ("0", "1")),
        })
        gens = {g: GeneratorSpec(state=g) for g in "abcd"}
        inverses = {g: g for g in "abcd"}
        base = canonical_point("", "1")
    elif name == "odometer":
        # Binary adding machine, least-significant digit first.
        machine = _machine({
            "t": ((IDENTITY_STATE, "t"), ("1", "0")),
            "t_inv": (("t_inv", IDENTITY_STATE), ("1", "0")),
        })
        gens = {"t": GeneratorSpec(state="t"), "t_inv": GeneratorSpec(state="t_inv")}
        inverses = {"t": "t_inv", "t_inv": "t"}
        base = canonical_point("", "0")
    elif name == "dihedral":
        machine = _machine({
            "a": ((IDENTITY_STATE, IDENTITY_STATE), ("1", "0")),
            "b": (("a", "b"), ("0", "1")),
        })
        gens = {g: GeneratorSpec(state=g) for g in "ab"}
        inverses = {g: g for g in "ab"}
        base = canonical_point("", "1")
    else:
        raise UnknownAction(name)
    return ActionSystem(name, machine, gens, inverses, base)


BUILTIN_NAMES = ("dihedral", "grigorchuk", "odometer")


def fragment_generators(action: ActionSystem, base_generator: str,
                        pieces, prefix: str = "h") -> ActionSystem:
    """Split an involution into piecewise on/off generators.

    pieces is a list of tables, one per new generator; each table is a
    list of (prefix, on) pairs whose prefixes partition the cylinder
    space.  Where a table is `on`, the new generator acts by the base
    involution, elsewhere by the identity.  Every cell must be covered by
    some `on` piece, and each on-set must be invariant under the base
    involution (otherwise the piecewise map is not a bijection).

    The new generators are named prefix1, prefix2, ...; orbits of a single
    fragmentation have at most two points, so fragmentations of different
    involutions are typically merged with combine_actions afterwards.
    """
    spec = action.generators.get(base_generator)
    if spec is None:
        raise UnknownGenerator(base_generator)
    if spec.state is None:
        raise InvalidBase("base generator must be a single transducer state")
    base_state = spec.state
    if not action.transducer.is_involution(base_state):
        raise InvalidBase(f"{base_generator!r} is not an involution")

    tables = []
    depth = 0
    for table in pieces:
        table = [(p, bool(on)) for p, on in table]
        _check_prefix_partition([p for p, _ in table])
        tables.append(table)
        depth = max(depth, max(len(p) for p, _ in table))

    covered = set()
    new_gens = {}
    for k, table in enumerate(tables, start=1):
        on_cells = {prefix + suffix for prefix, on in table if on
                    for suffix in cells(depth - len(prefix))}
        image = {action.transducer.apply_prefix(base_state, c) for c in on_cells}
        if image != on_cells:
            raise NotAFragmentation(
                f"piece table {k}: on-set is not invariant under the base "
                "involution, the piecewise map is not a bijection")
        covered |= on_cells
        gen_pieces = tuple(sorted(
            (p, base_state if on else IDENTITY_STATE) for p, on in table))
        new_gens[f"{prefix}{k}"] = GeneratorSpec(pieces=gen_pieces)
    all_cells = set(cells(depth))
    if covered != all_cells:
        missing = sorted(all_cells - covered)
        raise NotAFragmentation(f"cells {missing} are covered by no on-piece")

    inverses = {g: g for g in new_gens}
    return ActionSystem(f"{action.name}_frag_{base_generator}", action.transducer,
                        new_gens, inverses, action.basepoint)


def combine_actions(name: str, *systems: ActionSystem) -> ActionSystem:
    """One action generated by the union of the systems' generating sets.

    All systems must share the transducer machine and the basepoint
    (fragmentations of different generators of one action do).  Generator
    names must not collide.
    """
    if not systems:
        raise InvalidAction("need at least one system")
    first = systems[0]
    gens = {}
    inverses = {}
    for system in systems:
        if system.transducer is not first.transducer or \
                system.basepoint != first.basepoint:
            raise InvalidAction("systems act through different machines")
        for g in system.generators:
            if g in gens:
                raise InvalidAction(f"generator name {g!r} collides")
        gens.update(system.generators)
        inverses.update(system.inverses)
    return ActionSystem(name, first.transducer, gens, inverses, first.basepoint)


# --- action-definition file format -------------------------------------

def action_to_json(action: ActionSystem) -> dict:
    transducers = {}
    for s in action.transducer.states:
        transducers[s] = {
            "transitions": dict(action.transducer.transitions[s]),
            "outputs": dict(action.transducer.outputs[s]),
        }
    generators = {}
    for name, spec in action.generators.items():
        if spec.state is not None:
            generators[name] = spec.state
        else:
            generators[name] = [{"prefix": p, "state": s} for p, s in spec.pieces]
    return {
        "name": action.name,
        "transducers": transducers,
        "generators": generators,
        "basepoint": {"preperiod": action.basepoint.preperiod,
                      "period": action.basepoint.period},
    }


def action_from_json(data: dict) -> ActionSystem:
    try:
        transitions = {s: dict(t["transitions"]) for s, t in data["transducers"].items()}
        outputs = {s: dict(t["outputs"]) for s, t in data["transducers"].items()}
        if IDENTITY_STATE not in transitions:
            transitions[IDENTITY_STATE] = {"0": IDENTITY_STATE, "1": IDENTITY_STATE}
            outputs[IDENTITY_STATE] = {"0": "0", "1": "1"}
        machine = Transducer(transitions, outputs)
        gens = {}
        for name, spec in data["generators"].items():
            if isinstance(spec, str):
                gens[name] = GeneratorSpec(state=spec)
            else:
                gens[name] = GeneratorSpec(pieces=tuple(sorted(
                    (piece["prefix"], piece["state"]) for piece in spec)))
        for name, spec in gens.items():
            for state in spec.states:
                if state not in transitions:
                    raise InvalidAction(f"generator {name!r} names state "
                                        f"{state!r}, which is not in transducers")
        base = canonical_point(data["basepoint"]["preperiod"],
                               data["basepoint"]["period"])
    except (KeyError, TypeError) as exc:
        raise InvalidAction(f"malformed action definition: {exc}") from exc
    inverses = _infer_inverses(machine, gens)
    return ActionSystem(data.get("name", "unnamed"), machine, gens, inverses, base)


def _infer_inverses(machine: Transducer, gens: dict) -> dict:
    """Pair each generator g with the first h listed such that h after g
    is the identity, decided exactly: for x = c y with c a cell of the
    deeper piece table, g runs its state on c over c to the cell c' and
    the state s_g, and h so from c' to c'' and s_h.  h(g(x)) =
    c'' s_h(s_g(y)) is x for every y exactly when c'' = c and s_h after
    s_g is the identity (Transducer.cancels).  Then g after h is the
    identity too: g is injective, and each state maps a cylinder onto a
    cylinder of its length, so the images of g's pieces are disjoint
    cylinders of total measure 1, and g is onto."""
    inverses = {}
    for g in gens:
        for h in gens:
            if _undoes(machine, gens[h], gens[g]):
                inverses[g] = h
                break
        else:
            raise InvalidAction(f"no inverse found for generator {g!r}")
    return inverses


def _undoes(machine: Transducer, h: GeneratorSpec, g: GeneratorSpec) -> bool:
    """Whether h applied after g is the identity map (see _infer_inverses)."""
    for cell in cells(max(g.max_depth(), h.max_depth())):
        image, g_state = machine.run(g.state_at_word(cell), cell)
        back, h_state = machine.run(h.state_at_word(image), image)
        if back != cell or not machine.cancels(h_state, g_state):
            return False
    return True
