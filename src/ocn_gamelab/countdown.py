"""Countdown game solvers streaming level sets through a sliding segment.

In a countdown game every rule strictly decreases the counter, so the
set W(j) of control states winning for Eve at counter value j depends
only on the previous M levels, where M is the largest decrement.  The
solvers below stream W(0), W(1), W(2), ... keeping just the segment
(W(j-w), ..., W(j-1)) of the last w = max(M, 1) levels, as a tuple
whose slots for levels below 0 hold None.  One recurrence,
:func:`_next_segment`, advances that tuple by a level; a rule into a
None slot is disabled, so the same code covers the first levels, where
enabledness still depends on j, and every later one.  Membership of p0
in W(n0) answers the countdown game, and a repeat of the segment
without p0 ever appearing answers the existential variant negatively
(the level stream is eventually periodic, so a clean segment repeat
proves p0 never wins).  The theoretical repeat bound M + 2^(|Q|*M) is
astronomically larger than desk instances need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .rgame import EVE, GameError, SocnRGame


class CountdownGame(SocnRGame):
    """A counter game whose rules all strictly decrease the counter."""

    def __post_init__(self):
        super().__post_init__()
        for frm, z, to in self.rules:
            if z >= 0:
                raise GameError(
                    f"countdown rule ({frm!r},{z},{to!r}) must have negative delta")

    @property
    def max_decrement(self) -> int:
        """M: the largest decrement magnitude (0 for a game with no rules)."""
        return max((-z for _, z, _ in self.rules), default=0)


def _next_segment(game: CountdownGame, segment: tuple) -> tuple:
    """Advance the level segment by one level: the single recurrence.

    ``segment`` is (W(j-w), ..., W(j-1)) with w = max(M, 1), and None in
    the slots of levels below 0; a rule into such a slot is disabled.
    A state q is in W(j) iff q is Eve's and some enabled rule (q,z,q')
    lands in W(j+z), or q is Adam's, has at least one enabled rule, and
    every enabled rule lands in the corresponding winning set.  An Adam
    state with no enabled rule is not winning (stalemate favours Adam
    unless the target configuration is already reached).  Returns
    (W(j-w+1), ..., W(j)).
    """
    w = len(segment)
    won = set()
    for q in game.states:
        eve = game.owner(q) == EVE
        enabled = 0
        good = 0
        for z, to in game.rules_from(q):
            level = segment[w + z]
            if level is None:
                continue
            enabled += 1
            if to in level:
                good += 1
                if eve:
                    break
        if (eve and good) or (not eve and enabled and enabled == good):
            won.add(q)
    return segment[1:] + (frozenset(won),)


def _segments(game: CountdownGame):
    """Yield (j, segment ending in W(j)) for j = 0, 1, 2, ..."""
    segment = (None,) * (max(game.max_decrement, 1) - 1) + (frozenset({game.target}),)
    for j in count():
        yield j, segment
        segment = _next_segment(game, segment)


def win_levels_stream(game: CountdownGame):
    """Yield (j, W(j)) in increasing j, keeping only an M-level segment.

    W(0) contains exactly the target state; every later level comes
    from the recurrence in :func:`_next_segment`.
    """
    for j, segment in _segments(game):
        yield j, segment[-1]


def solve_cg(game: CountdownGame, p0: str, n0: int) -> bool:
    """True iff Eve wins the countdown game from p0 with initial counter n0."""
    if p0 not in set(game.states):
        raise GameError(f"unknown state {p0!r}")
    if n0 < 0:
        raise GameError("initial counter must be nonnegative")
    for j, level in win_levels_stream(game):
        if j == n0:
            return p0 in level
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
    With ``low_memory`` the repeat is found by Brent's cycle finding
    over the segment orbit instead of a hash table of all segments seen,
    trading a second streaming pass for O(M) memory.
    """
    if p0 not in set(game.states):
        raise GameError(f"unknown state {p0!r}")
    if low_memory:
        return _solve_ecg_brent(game, p0, cap)
    # For j < record_from the segment is not yet j-independent
    # (enabledness thresholds still bite), so recording starts after it.
    record_from = max(game.max_decrement - 1, 1)
    seen: dict[tuple, int] = {}
    for j, segment in _segments(game):
        if p0 in segment[-1]:
            return EcgAnswer("yes", n=j)
        if cap is not None and j >= cap:
            return EcgAnswer("inconclusive", cap=cap)
        if j >= record_from:
            first = seen.get(segment)
            if first is not None:
                return EcgAnswer("no", repeat=(first, j))
            seen[segment] = j
    raise AssertionError("unreachable")


def _solve_ecg_brent(game: CountdownGame, p0: str, cap: int | None) -> EcgAnswer:
    # Prefix pass up to level s0; x0 is the segment ending there.
    s0 = max(game.max_decrement, 1)
    for j, x0 in _segments(game):
        if p0 in x0[-1]:
            return EcgAnswer("yes", n=j)
        if cap is not None and j >= cap:
            return EcgAnswer("inconclusive", cap=cap)
        if j == s0:
            break

    def advance(seg: tuple, j: int) -> tuple[tuple, int] | EcgAnswer:
        nxt = _next_segment(game, seg)
        if p0 in nxt[-1]:
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
    while hare != tortoise:
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
    ahead = x0
    ahead_j = s0
    for _ in range(lam):
        ahead = _next_segment(game, ahead)
        ahead_j += 1
    back = x0
    back_j = s0
    while back != ahead:
        back = _next_segment(game, back)
        back_j += 1
        ahead = _next_segment(game, ahead)
        ahead_j += 1
    return EcgAnswer("no", repeat=(back_j, ahead_j))
