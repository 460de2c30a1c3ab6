"""Eventually periodic boundary points and transducer actions on them.

Points of the binary Cantor set are represented exactly as eventually
periodic words ``preperiod . period period period ...``.  This countable
dense subset is closed under every finite-state and piecewise-transducer
map used here, so all arithmetic is exact.

Generators are states of a single Mealy machine (letter-to-letter
transducer); a piecewise generator selects a state per cylinder prefix.
Every action, a built-in too, is built from action-file data or from other
actions, and decides its generators' inverses itself (ActionSystem).
Words act from the left: the rightmost letter of a word is applied first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class Transducer:
    """A Mealy machine whose states act on infinite binary words.

    transitions[state][letter] -> next state, outputs[state][letter] ->
    output letter.  Every state's output map is a permutation of {0,1}
    (each state is a rooted-tree automorphism) and the identity state
    IDENTITY_STATE fixes letters and loops to itself.
    """

    transitions: dict
    outputs: dict

    # apply calls of every machine of the process; verify --timing reports
    # how many each check made
    applications = 0

    def __post_init__(self):
        for s, table in self.transitions.items():
            out = self.outputs.get(s)
            if out is None or set(table) != set(LETTERS) or set(out) != set(LETTERS):
                raise InvalidAction(f"state {s!r} must define both letters")
            if sorted(out.values()) != ["0", "1"]:
                raise InvalidAction(f"state {s!r} output is not a permutation")
            for nxt in table.values():
                if nxt not in self.transitions:
                    raise InvalidAction(f"state {s!r} transitions to unknown state")
        if IDENTITY_STATE not in self.transitions or any(
                self.step(IDENTITY_STATE, a) != (a, IDENTITY_STATE) for a in LETTERS):
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
            if s == IDENTITY_STATE or depth == 0:
                return ids[:1 << depth]
            found = memo.get((s, depth))
            if found is None:
                half = 1 << (depth - 1)
                found = []
                for a in LETTERS:
                    lo = int(self.outputs[s][a]) * half
                    block = ids[lo:lo + half]
                    nxt = self.transitions[s][a]
                    if nxt == IDENTITY_STATE:
                        found += block
                    else:
                        found += [block[j] for j in table(nxt, depth - 1)]
                memo[s, depth] = found
            return found

        n = len(ids).bit_length() - 1
        return {s: table(s, n) for s in states}

    def fixes_every_word(self, states) -> bool:
        """Exact check that running the states one after another, the first
        innermost, is the identity map on infinite words.

        Walks the product machine from the tuple of states.  Every state is
        letter-to-letter, so a tuple that reads a letter writes one letter
        and moves to the tuple of its states' next states; the composite
        maps a·w to b·(the reached tuple's composite applied to w).  So it
        fixes every word exactly when every reachable tuple writes back
        each letter it reads: a tuple that does not moves the word reaching
        it, and otherwise every prefix of every word is written back.  The
        identity state changes nothing, so it is dropped from the tuples.
        """
        start = tuple(s for s in states if s != IDENTITY_STATE)
        todo, seen = [start], {start}
        while todo:
            current = todo.pop()
            for a in LETTERS:
                letter, reached = a, []
                for s in current:
                    letter, s = self.step(s, letter)
                    if s != IDENTITY_STATE:
                        reached.append(s)
                if letter != a:
                    return False
                reached = tuple(reached)
                if reached not in seen:
                    seen.add(reached)
                    todo.append(reached)
        return True


def _check_prefix_partition(prefixes) -> None:
    """Prefixes must be binary words, pairwise incomparable, and cover the
    cylinder space (prefix-free with Kraft sum exactly 1)."""
    ordered = sorted(prefixes)
    for p in ordered:
        if not set(p) <= {"0", "1"}:
            raise NotAPartition(f"prefix {p!r} is not a binary word")
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
        return self.state_at_word(point.prefix(self.max_depth()))

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


def _fixes_every_point(machine: Transducer, specs) -> bool:
    """Whether the generators of specs, run one after another with the
    first innermost, compose to the identity map, decided exactly.

    Cut a point x = c y with c a cell of the deepest piece depth.  Each
    generator runs the state of the piece its current cell lies under from
    the root, letter by letter, so it maps the cell onto a cell of the same
    length and reaches a state that acts on the rest: the composite maps
    c y to c' S(y), S the reached states run one after another.  It is the
    identity exactly when every cell comes back (c' = c) and S fixes every
    word (Transducer.fixes_every_word)."""
    for cell in cells(max((spec.max_depth() for spec in specs), default=0)):
        word, reached = cell, []
        for spec in specs:
            word, state = machine.run(spec.state_at_word(word), word)
            reached.append(state)
        if word != cell or not machine.fixes_every_word(reached):
            return False
    return True


@dataclass(frozen=True, eq=False)
class ActionSystem:
    """A named symmetric generating set acting on the Cantor set.

    generators maps names to GeneratorSpec.  inverses is decided when the
    action is built (_infer_inverses): it pairs each generator name with
    the first listed generator that undoes it, and a generator that none
    undoes is an InvalidAction, so every generator is a bijection.
    Instances compare by identity: one action is built per system.
    """

    name: str
    transducer: Transducer
    generators: dict
    basepoint: BoundaryPoint
    inverses: dict = field(init=False)

    def __post_init__(self):
        # checked before the inverses are searched, which look the states up
        for g, spec in self.generators.items():
            for state in spec.states:
                if state not in self.transducer.transitions:
                    raise InvalidAction(f"generator {g!r} names state "
                                        f"{state!r}, which is not in transducers")
        object.__setattr__(self, "inverses",
                           _infer_inverses(self.transducer, self.generators))

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

    def is_identity(self, word) -> bool:
        """Whether a word of generator names acts as the identity on the
        whole Cantor set, decided exactly (_fixes_every_point)."""
        specs = []
        for name in reversed(list(word)):
            spec = self.generators.get(name)
            if spec is None:
                raise UnknownGenerator(name)
            specs.append(spec)
        return _fixes_every_point(self.transducer, specs)

    def inverse_word(self, word) -> list:
        return [self.inverse_name(g) for g in reversed(list(word))]

    def action_hash(self) -> str:
        return self._hash

    @cached_property
    def _hash(self) -> str:
        """Hashed once per action, which never changes."""
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


# The built-ins as action-file data, less name and e: what `action dump` prints.
_BUILTINS = {
    # a swaps the root letter; b=(a,c), c=(a,d), d=(1,b).
    "grigorchuk": {"transducers": {
        "a": {"transitions": {"0": "e", "1": "e"}, "outputs": {"0": "1", "1": "0"}},
        "b": {"transitions": {"0": "a", "1": "c"}, "outputs": {"0": "0", "1": "1"}},
        "c": {"transitions": {"0": "a", "1": "d"}, "outputs": {"0": "0", "1": "1"}},
        "d": {"transitions": {"0": "e", "1": "b"}, "outputs": {"0": "0", "1": "1"}}},
        "generators": {"a": "a", "b": "b", "c": "c", "d": "d"},
        "basepoint": {"preperiod": "", "period": "1"}},
    # Binary adding machine, least-significant digit first.
    "odometer": {"transducers": {
        "t": {"transitions": {"0": "e", "1": "t"}, "outputs": {"0": "1", "1": "0"}},
        "t_inv": {"transitions": {"0": "t_inv", "1": "e"},
                  "outputs": {"0": "1", "1": "0"}}},
        "generators": {"t": "t", "t_inv": "t_inv"},
        "basepoint": {"preperiod": "", "period": "0"}},
    "dihedral": {"transducers": {
        "a": {"transitions": {"0": "e", "1": "e"}, "outputs": {"0": "1", "1": "0"}},
        "b": {"transitions": {"0": "a", "1": "b"}, "outputs": {"0": "0", "1": "1"}}},
        "generators": {"a": "a", "b": "b"},
        "basepoint": {"preperiod": "", "period": "1"}},
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_action(name: str) -> ActionSystem:
    """A built-in action: dihedral, grigorchuk or odometer."""
    if name not in _BUILTINS:
        raise UnknownAction(name)
    return action_from_json({"name": name, **_BUILTINS[name]})


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
    if not action.is_identity([base_generator, base_generator]):
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

    return ActionSystem(f"{action.name}_frag_{base_generator}", action.transducer,
                        new_gens, action.basepoint)


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
    for system in systems:
        if system.transducer is not first.transducer or \
                system.basepoint != first.basepoint:
            raise InvalidAction("systems act through different machines")
        for g in system.generators:
            if g in gens:
                raise InvalidAction(f"generator name {g!r} collides")
        gens.update(system.generators)
    return ActionSystem(name, first.transducer, gens, first.basepoint)


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
        transitions.setdefault(IDENTITY_STATE, {"0": "e", "1": "e"})
        outputs.setdefault(IDENTITY_STATE, {"0": "0", "1": "1"})
        machine = Transducer(transitions, outputs)
        gens = {}
        for name, spec in data["generators"].items():
            try:
                gens[name] = GeneratorSpec(state=spec) if isinstance(spec, str) \
                    else GeneratorSpec(pieces=tuple(sorted(
                        (piece["prefix"], piece["state"]) for piece in spec)))
            except NotAPartition as exc:
                raise InvalidAction(f"generator {name!r}: {exc}") from exc
        base = canonical_point(data["basepoint"]["preperiod"],
                               data["basepoint"]["period"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidAction(f"malformed action definition: {exc}") from exc
    return ActionSystem(data.get("name", "unnamed"), machine, gens, base)


def _infer_inverses(machine: Transducer, gens: dict) -> dict:
    """Pair each generator g with the first h listed such that h after g
    is the identity, decided exactly (_fixes_every_point).  Then g after h
    is the identity too: g is injective, and each state maps a cylinder
    onto a cylinder of its length, so the images of g's pieces are
    disjoint cylinders of total measure 1, and g is onto."""
    inverses = {}
    for g in gens:
        for h in gens:
            if _fixes_every_point(machine, (gens[g], gens[h])):
                inverses[g] = h
                break
        else:
            raise InvalidAction(f"no inverse found for generator {g!r}")
    return inverses
