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
W(n) = W(j1 + (n - j1) mod (j2 - j1)) for every n >= j1.  ``solve_cg``
uses it to jump over the cycle, and a repeat without p0 ever appearing
answers the existential variant negatively.  The theoretical repeat
bound M + 2^(|Q|*M) is astronomically larger than desk instances need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

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
    the segment ending in W(j-1) is W(j-d).  ``enabled`` counts every
    state's rules, all of which are enabled from level M on.
    """

    def __init__(self, game: CountdownGame):
        self.m = game.max_decrement
        self.w = w = max(self.m, 1)
        self.q = q = len(game.states)
        if w * q > SEGMENT_CELLS:
            raise MemoryError(f"countdown segment needs {w} levels x {q} states, "
                              f"more than {SEGMENT_CELLS} cells")
        self.dec = game._dec
        self.src = game._src.astype(np.intp)
        self.gather = (w - self.dec.astype(np.intp)) * q + game._tgt
        self.enabled = np.bincount(self.src, minlength=q)
        self.eve = game._eve
        self.target = game._index[game.target]


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


def _segments(kernel: _Kernel):
    """Yield (j, segment ending in W(j)) for j = 0, 1, 2, ...; each
    segment is a fresh array."""
    segment = np.zeros((kernel.w, kernel.q), dtype=bool)
    segment[-1, kernel.target] = True
    for j in count():
        yield j, segment
        segment = _next_segment(kernel, segment, j + 1)


def _key(segment: np.ndarray) -> bytes:
    return np.packbits(segment).tobytes()


def _state(game: CountdownGame, p0: str) -> int:
    index = game._index.get(p0)
    if index is None:
        raise GameError(f"unknown state {p0!r}")
    return index


def win_levels_stream(game: CountdownGame):
    """Yield (j, W(j)) in increasing j, W(j) a frozenset of state names,
    keeping only an M-level segment.

    W(0) contains exactly the target state; every later level comes
    from the recurrence in :func:`_next_segment`.
    """
    states = game.states
    for j, segment in _segments(_Kernel(game)):
        yield j, frozenset(states[i] for i in np.flatnonzero(segment[-1]).tolist())


def solve_cg(game: CountdownGame, p0: str, n0: int) -> bool:
    """True iff Eve wins the countdown game from p0 with initial counter n0.

    Streams the levels up to n0, or up to the first segment repeat
    (j1, j2) once every rule is enabled, and then reads W(n0) as
    W(j1 + (n0 - j1) mod (j2 - j1)); so a counter written in binary
    costs no more levels than the stream's cycle.
    """
    p = _state(game, p0)
    if n0 < 0:
        raise GameError("initial counter must be nonnegative")
    record_from = max(game.max_decrement - 1, 1)
    seen: dict[bytes, int] = {}
    wins = []
    for j, segment in _segments(_Kernel(game)):
        wins.append(bool(segment[-1, p]))
        if j == n0:
            return wins[j]
        if j >= record_from:
            first = seen.setdefault(_key(segment), j)
            if first != j:
                return wins[first + (n0 - first) % (j - first)]
    raise AssertionError("unreachable: level stream is infinite")


@dataclass
class EcgAnswer:
    """Outcome of the existential countdown game.

    kind is "yes" (with n the least winning counter value), "no" (with
    ``repeat`` the witness pair j1 < j2 of indices whose M-segments are
    identical while p0 never appeared in W(0..j2)), or "inconclusive"
    (the user-supplied cap was reached first).
    """

    kind: str
    n: int | None = None
    repeat: tuple[int, int] | None = None
    cap: int | None = None


def solve_ecg(game: CountdownGame, p0: str, cap: int | None = None,
              low_memory: bool = False) -> EcgAnswer:
    """Is there any n with p0 in W(n)?

    Streams the level sets, answering Yes at the first hit.  A repeat of
    the M-level segment proves the stream periodic from the first of the
    two indices on, so if p0 has not appeared by then it never will: No.
    Repeats are found in a table of the segments seen, keyed by their
    packed bits; with ``low_memory`` by Brent's cycle finding over the
    segment orbit instead, trading a second streaming pass for O(M)
    memory.
    """
    p = _state(game, p0)
    if low_memory:
        return _solve_ecg_brent(game, p, cap)
    # For j < record_from the segment is not yet j-independent
    # (enabledness thresholds still bite), so recording starts after it.
    record_from = max(game.max_decrement - 1, 1)
    seen: dict[bytes, int] = {}
    for j, segment in _segments(_Kernel(game)):
        if segment[-1, p]:
            return EcgAnswer("yes", n=j)
        if cap is not None and j >= cap:
            return EcgAnswer("inconclusive", cap=cap)
        if j >= record_from:
            first = seen.setdefault(_key(segment), j)
            if first != j:
                return EcgAnswer("no", repeat=(first, j))
    raise AssertionError("unreachable")


def _solve_ecg_brent(game: CountdownGame, p: int, cap: int | None) -> EcgAnswer:
    # Prefix pass up to level s0; x0 is the segment ending there.
    s0 = max(game.max_decrement, 1)
    kernel = _Kernel(game)
    for j, x0 in _segments(kernel):
        if x0[-1, p]:
            return EcgAnswer("yes", n=j)
        if cap is not None and j >= cap:
            return EcgAnswer("inconclusive", cap=cap)
        if j == s0:
            break

    def advance(seg: np.ndarray, j: int) -> tuple[np.ndarray, int] | EcgAnswer:
        nxt = _next_segment(kernel, seg, j + 1)
        if nxt[-1, p]:
            return EcgAnswer("yes", n=j + 1)
        if cap is not None and j + 1 >= cap:
            return EcgAnswer("inconclusive", cap=cap)
        return nxt, j + 1

    # Brent: the hare streams forward; the tortoise only teleports.
    power = lam = 1
    tortoise, hare, hare_j = x0, None, s0
    step = advance(x0, hare_j)
    if isinstance(step, EcgAnswer):
        return step
    hare, hare_j = step
    while not np.array_equal(hare, tortoise):
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        step = advance(hare, hare_j)
        if isinstance(step, EcgAnswer):
            return step
        hare, hare_j = step
        lam += 1
    # Find the first repeat start mu by advancing two segments lam apart.
    # Every level here is past s0 >= M, so the level index no longer
    # changes the recurrence.
    ahead = x0
    ahead_j = s0
    for _ in range(lam):
        ahead_j += 1
        ahead = _next_segment(kernel, ahead, ahead_j)
    back = x0
    back_j = s0
    while not np.array_equal(back, ahead):
        back_j += 1
        back = _next_segment(kernel, back, back_j)
        ahead_j += 1
        ahead = _next_segment(kernel, ahead, ahead_j)
    return EcgAnswer("no", repeat=(back_j, ahead_j))
