"""Reachability games and counter games with a reachability objective.

Eve wins a reachability game from a vertex if she can force a visit to
the target set.  :func:`winning_area` computes her winning vertices by
backward induction, with the exact rank of each winning vertex (how
many rounds she needs against best play).  :class:`SocnRGame` is the
counter variant: control states with integer rules acting on a counter,
Eve trying to reach the target state with counter exactly zero.
:func:`expand_region` truncates its infinite configuration space to a
finite box so the finite solver applies.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

EVE = "E"
ADAM = "A"


class GameError(ValueError):
    """Raised for malformed game definitions."""


@dataclass
class RGame:
    """Finite reachability game.

    ``owner`` maps each vertex to EVE or ADAM; ``edges`` is a list of
    (source, target) pairs; ``targets`` is the set Eve tries to reach.
    """

    vertices: list
    owner: dict
    edges: list[tuple]
    targets: set = field(default_factory=set)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise GameError("duplicate vertices")
        for v in self.vertices:
            if self.owner.get(v) not in (EVE, ADAM):
                raise GameError(f"vertex {v!r} has no owner flag")
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise GameError(f"edge ({u!r},{v!r}) references unknown vertex")
        bad = set(self.targets) - vs
        if bad:
            raise GameError(f"targets not among vertices: {sorted(map(repr, bad))}")
        self._succ = {v: [] for v in self.vertices}
        seen = set()
        for u, v in self.edges:
            if (u, v) not in seen:
                seen.add((u, v))
                self._succ[u].append(v)

    def successors(self, v):
        return self._succ[v]


@dataclass
class WinningArea:
    """Eve's winning vertices with exact ranks.

    ``rank_of`` maps winning vertices to their rank: targets have rank 0,
    and a rank r > 0 vertex needs exactly r rounds.  Vertices absent
    from the map are not winning for Eve.
    """

    rank_of: dict

    def is_winning(self, v) -> bool:
        return v in self.rank_of

    def rank(self, v):
        return self.rank_of.get(v)

    @property
    def winning(self) -> set:
        return set(self.rank_of)


def winning_area(game: RGame) -> WinningArea:
    """Backward-induction attractor with exact ranks.

    Round r adds: Eve vertices with some already-won successor, and Adam
    vertices with a nonempty successor set entirely inside the won set.
    A deadlocked Adam vertex that is not a target is NOT winning (the
    successor set must be nonempty), mirroring the stalemate convention
    of the countdown solver.
    """
    rank_of = {v: 0 for v in game.vertices if v in game.targets}
    frontier = True
    r = 0
    while frontier:
        r += 1
        frontier = []
        for v in game.vertices:
            if v in rank_of:
                continue
            succs = game.successors(v)
            if game.owner[v] == EVE:
                if any(s in rank_of for s in succs):
                    frontier.append(v)
            else:
                if succs and all(s in rank_of for s in succs):
                    frontier.append(v)
        for v in frontier:
            rank_of[v] = r
    return WinningArea(rank_of)


class RuleView(Sequence):
    """The rules of a counter game as a read-only sequence of
    (from_state, delta, to_state) tuples in rule order.

    The view reads them off the game's index tables: ``src`` and ``tgt``
    (int32 state indices) and ``delta`` (int64, or an object array of
    the exact deltas when one does not fit or is not a plain int).
    ``len`` is O(1) and a tuple is built only when it is read; ``==``
    compares with any list or view of the same tuples, and ``+`` gives
    a list.
    """

    __slots__ = ("states", "src", "delta", "tgt")

    def __init__(self, states, src: np.ndarray, delta: np.ndarray, tgt: np.ndarray):
        self.states, self.src, self.delta, self.tgt = states, src, delta, tgt

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, i: int) -> tuple:
        n = len(self.src)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("rule index out of range")
        return (self.states[self.src[i]], self.delta.item(i), self.states[self.tgt[i]])

    def __iter__(self):
        # In chunks, so a full pass holds no more than one chunk of
        # Python ints besides the tuples it hands out.
        name = self.states.__getitem__
        for lo in range(0, len(self.src), _CHUNK):
            hi = lo + _CHUNK
            yield from zip(map(name, self.src[lo:hi].tolist()),
                           self.delta[lo:hi].tolist(),
                           map(name, self.tgt[lo:hi].tolist()))

    def __eq__(self, other):
        if not isinstance(other, (list, RuleView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def __repr__(self) -> str:
        return repr(list(self))


_CHUNK = 1 << 16


def _delta_table(deltas: list, plain: bool) -> np.ndarray:
    """Deltas as an int64 array, or as an object array of the given
    objects when they are not all plain ints (``plain``) within int64."""
    if plain:
        try:
            return np.array(deltas, dtype=np.int64)
        except OverflowError:
            pass
    table = np.empty(len(deltas), dtype=object)
    table[:] = deltas
    return table


@dataclass
class SocnRGame:
    """Counter reachability game given by control states and integer rules.

    ``rules`` is given as a list of (from_state, delta, to_state); a rule
    moves the counter by delta and is enabled only when the result stays
    nonnegative.  Eve owns the states in ``eve``; the objective is the
    single configuration target(0).  Once validated, ``rules`` is a
    :class:`RuleView` over the game's index tables.
    """

    states: list[str]
    eve: set
    rules: Sequence[tuple[str, int, str]]
    target: str

    def __post_init__(self):
        """Validate the game in one pass over the rules, which also
        resolves each rule's states to indices for :meth:`_index_rules`."""
        index = self._index_states()
        src, deltas, tgt = [], [], []
        plain = True
        get = index.get
        for frm, z, to in self.rules:
            a = get(frm)
            b = None if a is None else get(to)
            if b is None:
                raise GameError(f"rule ({frm!r},{z},{to!r}) references unknown state")
            if type(z) is not int:
                if not isinstance(z, int):
                    raise GameError(f"rule delta {z!r} is not an integer")
                plain = False
            src.append(a)
            deltas.append(z)
            tgt.append(b)
        self._set_rules(np.array(src, dtype=np.int32), _delta_table(deltas, plain),
                        np.array(tgt, dtype=np.int32))

    @classmethod
    def from_tables(cls, states: list, eve: set, src: np.ndarray, deltas: np.ndarray,
                    tgt: np.ndarray, target: str):
        """The game whose rules, in rule order, are given as index tables
        (see :class:`RuleView`) that are valid by construction: only the
        states, the Eve set and the target are checked."""
        game = cls.__new__(cls)
        game.states, game.eve, game.target = states, eve, target
        game._index_states()
        game._set_rules(src, deltas, tgt)
        return game

    def _index_states(self) -> dict:
        index = dict(zip(self.states, range(len(self.states))))
        if len(index) != len(self.states):
            raise GameError("duplicate states")
        extra = set(self.eve) - index.keys()
        if extra:
            raise GameError(f"eve set references unknown states: {sorted(extra)}")
        self._index = index
        return index

    def _set_rules(self, src: np.ndarray, deltas: np.ndarray, tgt: np.ndarray) -> None:
        if self.target not in self._index:
            raise GameError(f"target {self.target!r} is not a state")
        self.rules = RuleView(self.states, src, deltas, tgt)
        self._rules_from = None
        self._index_rules(src, deltas, tgt)

    def _index_rules(self, src: np.ndarray, deltas: np.ndarray, tgt: np.ndarray) -> None:
        """Checks and tables of a subclass, from the rule tables of
        :class:`RuleView`; runs after every check above."""

    def owner(self, state: str) -> str:
        return EVE if state in self.eve else ADAM

    def rules_from(self, state: str) -> list[tuple[int, str]]:
        """(delta, target) of each rule from ``state``, in rule order.
        Built on the first call: only the small-game paths use it."""
        if self._rules_from is None:
            self._rules_from = {s: [] for s in self.states}
            for frm, z, to in self.rules:
                self._rules_from[frm].append((z, to))
        return self._rules_from[state]


def expand_region(game: SocnRGame, bound: int) -> RGame:
    """Truncate the configuration game to counters in [0, bound].

    Vertices are pairs (state, k) for 0 <= k <= bound; an edge exists
    for each rule whose result stays inside the box; the target is the
    single configuration (target, 0).

    The truncation drops every edge leaving the box above, which cuts
    both players' options.  For countdown games (all deltas negative)
    nothing is ever dropped, so membership in the winning area of the
    expansion with bound n0 decides p0(n0) exactly; the same holds when
    only Eve-owned states carry positive deltas (her strategies only
    grow with the bound).  For general games both the winning and the
    non-winning verdicts of a truncation are approximations.
    """
    if bound < 0:
        raise GameError("bound must be nonnegative")
    vertices = [(q, k) for q in game.states for k in range(bound + 1)]
    owner = {(q, k): game.owner(q) for q, k in vertices}
    edges = []
    for q in game.states:
        for z, to in game.rules_from(q):
            for k in range(bound + 1):
                k2 = k + z
                if 0 <= k2 <= bound:
                    edges.append(((q, k), (to, k2)))
    return RGame(vertices, owner, edges, targets={(game.target, 0)})
