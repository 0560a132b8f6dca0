"""Finite labelled transition systems and simulation machinery.

The central objects are finite LTSs with named states and actions,
the maximal simulation preorder and bisimulation equivalence on them,
and the stratified rank of a non-simulation pair: the first round of
the simulation game at which the attacker can force a win.  A bounded
min-max search over lazily generated successor oracles covers the
infinite LTSs that one-counter nets induce.

Ranks here are plain naturals (math.inf for simulation pairs).  All
systems in scope are image-finite, so no ordinal machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Pair = tuple[str, str]
SuccOracle = Callable[[object], Sequence[tuple[str, object]]]


class LtsError(ValueError):
    """Raised for malformed LTS definitions."""


@dataclass
class Lts:
    """A finite labelled transition system with named states and actions.

    ``transitions`` is a list of (source, action, target) triples.  The
    order of states, actions and transitions is preserved; successor
    lists keep first-occurrence order with duplicates removed, so every
    derived table is reproducible.
    """

    states: list[str]
    actions: list[str]
    transitions: list[tuple[str, str, str]] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise LtsError("duplicate state names")
        if len(set(self.actions)) != len(self.actions):
            raise LtsError("duplicate action names")
        self._state_ix = {s: i for i, s in enumerate(self.states)}
        self._action_ix = {a: i for i, a in enumerate(self.actions)}
        succ: dict[tuple[int, int], list[int]] = {}
        for src, act, dst in self.transitions:
            try:
                si, ai, di = self._state_ix[src], self._action_ix[act], self._state_ix[dst]
            except KeyError as exc:
                raise LtsError(f"transition ({src},{act},{dst}) references unknown name {exc}")
            lst = succ.setdefault((si, ai), [])
            if di not in lst:
                lst.append(di)
        self._succ = succ

    @property
    def n_states(self) -> int:
        return len(self.states)

    def successors(self, state: str, action: str) -> list[str]:
        key = (self._state_ix[state], self._action_ix[action])
        return [self.states[d] for d in self._succ.get(key, [])]

    def enabled_actions(self, state: str) -> list[str]:
        si = self._state_ix[state]
        return [a for a in self.actions if (si, self._action_ix[a]) in self._succ]

    def moves(self, state: str) -> list[tuple[str, str]]:
        """All outgoing (action, target) moves of a state, in definition order."""
        si = self._state_ix[state]
        out = []
        for ai, a in enumerate(self.actions):
            for di in self._succ.get((si, ai), []):
                out.append((a, self.states[di]))
        return out

    def successor_oracle(self) -> SuccOracle:
        """Adapter so finite LTSs plug into :func:`bounded_attacker_search`."""
        return self.moves

    def _action_matrices(self) -> list[np.ndarray]:
        n = self.n_states
        mats = []
        for ai in range(len(self.actions)):
            m = np.zeros((n, n), dtype=bool)
            for si in range(n):
                for di in self._succ.get((si, ai), []):
                    m[si, di] = True
            mats.append(m)
        return mats


def _bool_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Boolean matrix product; float matmul is faster than object loops here.
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def _rank_table(lts: Lts, symmetric: bool) -> np.ndarray:
    """Stratified rank table by Kleene iteration on a dense pair matrix.

    Entry [s,t] holds the round at which (s,t) was dropped from the
    approximant chain, or 0 for pairs that survive to the fixpoint.
    Rounds are synchronized: all drops of round r are computed from the
    round r-1 approximant before any is applied.
    """
    n = lts.n_states
    mats = lts._action_matrices()
    alive = np.ones((n, n), dtype=bool)
    ranks = np.zeros((n, n), dtype=np.int64)
    r = 0
    while True:
        r += 1
        bad = np.zeros((n, n), dtype=bool)
        for m_a in mats:
            # can_answer[s1, t] : some a-successor t1 of t has (s1, t1) alive
            can_answer = _bool_mm(alive, m_a.T)
            # attacker move s -a-> s1 unanswered from t
            bad |= _bool_mm(m_a, ~can_answer)
        if symmetric:
            bad |= bad.T
        dropped = alive & bad
        if not dropped.any():
            return ranks
        ranks[dropped] = r
        alive &= ~bad


def _survivor_pairs(lts: Lts, table: np.ndarray) -> frozenset[Pair]:
    pairs = []
    for si, s in enumerate(lts.states):
        for ti, t in enumerate(lts.states):
            if table[si, ti] == 0:
                pairs.append((s, t))
    return frozenset(pairs)


def max_simulation(lts: Lts) -> frozenset[Pair]:
    """Greatest simulation on the LTS, as a set of (left, right) name pairs."""
    return _survivor_pairs(lts, _rank_table(lts, symmetric=False))


def max_bisimulation(lts: Lts) -> frozenset[Pair]:
    """Greatest bisimulation; an equivalence contained in the simulation preorder."""
    return _survivor_pairs(lts, _rank_table(lts, symmetric=True))


def sim_rank(lts: Lts, s: str, t: str):
    """Least r such that s is not r-step simulated by t, or math.inf.

    rank 1 means an immediately unanswerable attacker move (an enabled
    action mismatch); a finite rank r means the attacker wins the
    simulation game from (s, t) in exactly r rounds against best play.
    """
    table = _rank_table(lts, symmetric=False)
    r = int(table[lts._state_ix[s], lts._state_ix[t]])
    return math.inf if r == 0 else r


def bounded_attacker_search(succ_left: SuccOracle, succ_right: SuccOracle,
                            pair: tuple[object, object], budget: int,
                            _memo: dict | None = None):
    """Exact rank of ``pair`` if at most ``budget``, else None.

    The oracles map a state to its finite list of (action, successor)
    moves and may generate states lazily, so the search also works on
    the infinite LTSs of one-counter nets: within a finite budget only
    finitely many pairs are reachable.  Returns the attacker's win rank
    r <= budget (the true stratified rank), or None when the pair
    survives ``budget`` rounds.  budget = 0 always returns None.

    ``_memo`` may be shared between calls over the same pair of oracles
    to reuse exact ranks and survival bounds.
    """
    memo = _memo if _memo is not None else {}

    def rank_upto(s, t, b):
        # Returns the exact rank if <= b, else None ("survives b rounds").
        if b <= 0:
            return None
        got = memo.get((s, t))
        if got is not None:
            kind, val = got
            if kind == "exact":
                return val if val <= b else None
            if val >= b:  # known to survive at least b rounds
                return None
        attacker = list(succ_left(s))
        if not attacker:
            memo[(s, t)] = ("exact", math.inf)
            return None
        best = None
        for act, s1 in attacker:
            responses = [t1 for act2, t1 in succ_right(t) if act2 == act]
            if not responses:
                value = 1
            else:
                worst = 0
                value = None
                for t1 in responses:
                    child = rank_upto(s1, t1, b - 1)
                    if child is None:
                        break  # this move needs more than b rounds
                    worst = max(worst, child)
                else:
                    value = 1 + worst
            if value is not None and (best is None or value < best):
                best = value
        if best is not None:
            # Moves that ran out of budget cost more than b >= best, so the
            # minimum over exact moves is the true rank.
            memo[(s, t)] = ("exact", best)
            return best
        prev = memo.get((s, t))
        bound = max(b, prev[1]) if prev is not None and prev[0] == "lb" else b
        memo[(s, t)] = ("lb", bound)
        return None

    return rank_upto(pair[0], pair[1], budget)


def disjoint_union(left: Lts, right: Lts) -> tuple[Lts, dict[str, str], dict[str, str]]:
    """Combine two LTSs side by side; actions are unified by name.

    Returns the combined system plus name maps for each side.  States of
    the second system are renamed with a prime suffix until fresh, which
    keeps cross-system simulation questions expressible in one LTS.
    """
    left_map = {s: s for s in left.states}
    taken = set(left.states)
    right_map = {}
    for s in right.states:
        name = s
        while name in taken:
            name += "'"
        right_map[s] = name
        taken.add(name)
    actions = list(left.actions)
    for a in right.actions:
        if a not in actions:
            actions.append(a)
    transitions = list(left.transitions)
    transitions += [(right_map[u], a, right_map[v]) for u, a, v in right.transitions]
    combined = Lts(list(left.states) + [right_map[s] for s in right.states],
                   actions, transitions)
    return combined, left_map, right_map
