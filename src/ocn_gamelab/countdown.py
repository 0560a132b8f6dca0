"""Countdown game solvers streaming level sets through a sliding segment.

In a countdown game every rule strictly decreases the counter, so the
set W(j) of control states winning for Eve at counter value j depends
only on the previous M levels, where M is the largest decrement.  The
solvers below stream W(0), W(1), W(2), ... keeping just the segment
(W(j-w), ..., W(j-1)) of the last w = max(M, 1) levels, as a (w, |Q|)
boolean array whose rows for levels below 0 are all False.  One array
kernel, :func:`_next_segment`, advances that segment by a level: the
game keeps its rules as index arrays sorted by decrement (built while
it is validated), so the rules enabled at level j are a prefix, one
gather reads W(j-d)[target] for each of them, and ``np.bincount`` by
source gives every state's enabled and good counts.  Membership of p0
in W(n0) answers the countdown game.  The level stream is eventually
periodic: once all rules are enabled (j >= M - 1) the segment alone
determines the future, so a segment repeat at j1 < j2 gives
W(n) = W(j1 + (n - j1) mod (j2 - j1)) for every n >= j1.  Repeats are
found by the cycle finder (:mod:`~ocn_gamelab.cycle`): ``solve_cg``
jumps over the cycle, and a repeat without p0 ever appearing answers
the existential variant negatively.  The theoretical repeat bound
M + 2^(|Q|*M) is astronomically larger than desk instances need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .cycle import least_repeat, orbit
from .rgame import GameError, SocnRGame

# Largest segment, in cells (levels x states), a solver allocates.
SEGMENT_CELLS = 2 ** 27

_INT32_MAX = 2 ** 31 - 1


class CountdownGame(SocnRGame):
    """A counter game whose rules all strictly decrease the counter.

    Besides the rule tables in rule order behind ``rules`` (a
    :class:`~ocn_gamelab.rgame.RuleView`) the game keeps the rules as
    int32 arrays sorted by decrement (stable, so rule order within a
    decrement): ``_src``, ``_dec`` and ``_tgt``, plus the Eve mask
    ``_eve`` over state indices.
    """

    def _index_rules(self, src: np.ndarray, deltas: np.ndarray, tgt: np.ndarray) -> None:
        if len(deltas) and deltas.max() >= 0:
            frm, z, to = self.rules[int(np.argmax(deltas >= 0))]
            raise GameError(
                f"countdown rule ({frm!r},{z},{to!r}) must have negative delta")
        self._max_decrement = -int(deltas.min()) if len(deltas) else 0
        if self._max_decrement > _INT32_MAX:
            # Only the segment guard reads a decrement this large.
            deltas = np.maximum(deltas, -_INT32_MAX)
        dec = -deltas.astype(np.int32)
        order = np.argsort(dec, kind="stable")
        self._dec = dec[order]
        self._src = src[order]
        self._tgt = tgt[order]
        self._eve = np.zeros(len(self.states), dtype=bool)
        self._eve[[self._index[s] for s in self.eve]] = True

    @property
    def max_decrement(self) -> int:
        """M: the largest decrement magnitude (0 for a game with no rules)."""
        return self._max_decrement


class _Kernel:
    """The per-solve tables of the level kernel.

    ``gather`` holds each rule's flat index into a segment: row w - d of
    the segment ending in W(j-1) is W(j-d); it is intp, which numpy
    gathers fastest.  ``src`` is the game's own int32 table, which
    ``np.bincount`` reads nearly as fast as an intp copy, without the
    copy's 8 bytes a rule.  ``enabled`` counts every state's rules, all
    of which are enabled from level M on.
    """

    def __init__(self, game: CountdownGame):
        self.m = game.max_decrement
        self.w = w = max(self.m, 1)
        self.q = q = len(game.states)
        if w * q > SEGMENT_CELLS:
            raise MemoryError(f"countdown segment needs {w} levels x {q} states, "
                              f"more than {SEGMENT_CELLS} cells")
        self.dec = game._dec
        self.src = game._src
        self.gather = (w - self.dec.astype(np.intp)) * q + game._tgt
        self.enabled = np.bincount(self.src, minlength=q)
        self.eve = game._eve
        self.target = game._index[game.target]

    def step(self, segment: np.ndarray) -> np.ndarray:
        """The segment one level on, from level M - 1 or later."""
        return _next_segment(self, segment, self.m)


def _next_segment(kernel: _Kernel, segment: np.ndarray, j: int) -> np.ndarray:
    """Advance the level segment by one level: the single recurrence.

    ``segment`` holds (W(j-w), ..., W(j-1)) with w = max(M, 1), rows of
    levels below 0 all False.  A rule (q,z,q') is enabled at level j iff
    -z <= j; since the rules are sorted by decrement, those form a
    prefix.  A state q is in W(j) iff q is Eve's and some enabled rule
    lands in W(j+z), or q is Adam's, has at least one enabled rule, and
    every enabled rule lands in the corresponding winning set.  An Adam
    state with no enabled rule is not winning (stalemate favours Adam
    unless the target configuration is already reached).  Returns a new
    array (W(j-w+1), ..., W(j)); ``segment`` is left as it is.
    """
    if j >= kernel.m:
        gather, src, enabled = kernel.gather, kernel.src, kernel.enabled
    else:
        end = int(np.searchsorted(kernel.dec, j, side="right"))
        gather, src = kernel.gather[:end], kernel.src[:end]
        enabled = np.bincount(src, minlength=kernel.q)
    hit = segment.ravel()[gather]
    good = np.bincount(src[hit], minlength=kernel.q)
    won = np.where(kernel.eve, good > 0, (good == enabled) & (enabled > 0))
    nxt = np.empty_like(segment)
    nxt[:-1] = segment[1:]
    nxt[-1] = won
    return nxt


def _state(game: CountdownGame, p0: str) -> int:
    index = game._index.get(p0)
    if index is None:
        raise GameError(f"unknown state {p0!r}")
    return index


def _levels(kernel: _Kernel, start: int | None = None, limit: int | None = None):
    """Yield (j, segment ending in W(j), lam) for j = 0, 1, 2, ..., each
    segment a fresh array; from ``start`` >= M - 1 on, where the step no
    longer depends on j, through :func:`~ocn_gamelab.cycle.orbit`."""
    segment = np.zeros((kernel.w, kernel.q), dtype=bool)
    segment[-1, kernel.target] = True
    for j in count():
        if j == start:
            yield from orbit(segment, j, kernel.step, np.array_equal, limit)
            return
        yield j, segment, 0
        if limit is not None and j >= limit:
            return
        segment = _next_segment(kernel, segment, j + 1)


def solve_cg(game: CountdownGame, p0: str, n0: int) -> bool:
    """True iff Eve wins the countdown game from p0 with initial counter n0.

    Streams the levels up to n0, or up to a segment repeat at j with
    period lam and then (n0 - j) mod lam levels on, so a counter written
    in binary costs no more levels than the stream's cycle.
    """
    p = _state(game, p0)
    if n0 < 0:
        raise GameError("initial counter must be nonnegative")
    kernel = _Kernel(game)
    for j, segment, lam in _levels(kernel, max(game.max_decrement - 1, 1)):
        if j == n0:
            return bool(segment[-1, p])
        if lam:
            for _ in range((n0 - j) % lam):
                segment = kernel.step(segment)
            return bool(segment[-1, p])
    raise AssertionError("unreachable: level stream is infinite")


@dataclass
class EcgAnswer:
    """Outcome of the existential countdown game.

    kind is "yes" (with n the least winning counter value), "no" (with
    ``repeat`` the least pair j1 < j2 of identical M-segments from the
    search start on, p0 in none of W(0..j2)), or "inconclusive" (the
    user-supplied cap comes first).
    """

    kind: str
    n: int | None = None
    repeat: tuple[int, int] | None = None
    cap: int | None = None


def solve_ecg(game: CountdownGame, p0: str, cap: int | None = None,
              low_memory: bool = False) -> EcgAnswer:
    """Is there any n with p0 in W(n)?

    Yes at the first hit n <= cap.  The least segment repeat (j1, j2)
    with j1 at or after max(M - 1, 1), max(M, 1) with ``low_memory``,
    proves the stream periodic from j1, so if p0 has not appeared by j2
    it never will: No if j2 < cap, else Inconclusive.
    """
    p = _state(game, p0)
    kernel = _Kernel(game)
    start = max(game.max_decrement if low_memory else game.max_decrement - 1, 1)
    for j, segment, lam in _levels(kernel, start, cap):
        if segment[-1, p]:
            if cap is None or j <= cap:
                return EcgAnswer("yes", n=j)
            return EcgAnswer("inconclusive", cap=cap)
        if j == start:
            first = segment
    if lam:
        mu = least_repeat(first, start, lam, kernel.step, np.array_equal)
        if cap is None or mu + lam < cap:
            return EcgAnswer("no", repeat=(mu, mu + lam))
    return EcgAnswer("inconclusive", cap=cap)
