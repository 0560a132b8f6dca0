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

from dataclasses import dataclass, field

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


@dataclass
class SocnRGame:
    """Counter reachability game given by control states and integer rules.

    ``rules`` is a list of (from_state, delta, to_state); a rule moves
    the counter by delta and is enabled only when the result stays
    nonnegative.  Eve owns the states in ``eve``; the objective is the
    single configuration target(0).
    """

    states: list[str]
    eve: set
    rules: list[tuple[str, int, str]]
    target: str

    def __post_init__(self):
        """Validate the game in one pass over the rules, which also
        resolves each rule's states to indices for :meth:`_index_rules`."""
        index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise GameError("duplicate states")
        extra = set(self.eve) - index.keys()
        if extra:
            raise GameError(f"eve set references unknown states: {sorted(extra)}")
        src, deltas, tgt = [], [], []
        get = index.get
        for frm, z, to in self.rules:
            a = get(frm)
            b = None if a is None else get(to)
            if b is None:
                raise GameError(f"rule ({frm!r},{z},{to!r}) references unknown state")
            if not isinstance(z, int):
                raise GameError(f"rule delta {z!r} is not an integer")
            src.append(a)
            deltas.append(z)
            tgt.append(b)
        if self.target not in index:
            raise GameError(f"target {self.target!r} is not a state")
        self._index = index
        self._rules_from = None
        self._index_rules(src, deltas, tgt)

    def _index_rules(self, src: list, deltas: list, tgt: list) -> None:
        """Checks and tables of a subclass, from the rules' state indices
        and deltas in rule order; runs after every check above."""

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
