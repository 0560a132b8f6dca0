"""Finite labelled transition systems and simulation machinery.

The central objects are finite LTSs with named states and actions,
the maximal simulation preorder on them, and the stratified rank of a
non-simulation pair: the first round of the simulation game at which
the attacker can force a win.  A bounded min-max search over lazily
generated successor oracles covers the infinite LTSs that one-counter
nets induce.

Ranks here are plain naturals.  All systems in scope are image-finite,
so no ordinal machinery is needed.
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


def max_simulation(lts: Lts) -> frozenset[Pair]:
    """Greatest simulation on the LTS, as a set of (left, right) name pairs.

    Kleene iteration on a dense pair matrix: each round drops every
    alive pair (s,t) with an attacker move s -a-> s1 that no a-move of t
    answers into an alive pair.  Rounds are synchronized: all drops of a
    round are computed from the previous approximant.
    """
    n = lts.n_states
    mats = lts._action_matrices()
    alive = np.ones((n, n), dtype=bool)
    while True:
        bad = np.zeros((n, n), dtype=bool)
        for m_a in mats:
            # can_answer[s1, t] : some a-successor t1 of t has (s1, t1) alive
            can_answer = _bool_mm(alive, m_a.T)
            # attacker move s -a-> s1 unanswered from t
            bad |= _bool_mm(m_a, ~can_answer)
        if not (alive & bad).any():
            return frozenset((lts.states[si], lts.states[ti])
                             for si, ti in zip(*np.nonzero(alive)))
        alive &= ~bad


def bounded_attacker_search(succ_left: SuccOracle, succ_right: SuccOracle,
                            pair: tuple[object, object], budget: int,
                            _memo: dict | None = None):
    """Exact rank of ``pair`` if at most ``budget``, else None.

    The oracles map a state to its finite list of (action, successor)
    moves and may generate states lazily, so the search also works on
    the infinite LTSs of one-counter nets: within a finite budget only
    finitely many pairs are reachable.  ``Lts.moves`` is such an oracle,
    and so is ``functools.partial(socn.successors, net)``.  Returns the
    attacker's win rank r <= budget (the true stratified rank), or None
    when the pair survives ``budget`` rounds.  budget = 0 always returns
    None.

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

