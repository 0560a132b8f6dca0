"""The package's internal cycle finder: Brent's method on a stream
x(j+1) = step(x(j)) over finitely many states, the level segments of a
countdown game or the windows of a sequence description.  ``step`` may
update a state in place: one is copied only when the tortoise moves.
"""

from __future__ import annotations

from copy import copy


def orbit(x, j: int, step, same, limit: int | None = None):
    """Yield (j, x, 0) for the state x at index j and each later state
    until one is ``same`` as the tortoise: the last triple is then
    (j, x, lam), lam the least period.  With ``limit`` the walk also
    ends, every index up to ``limit`` yielded, once the least repeat
    (mu, mu + lam), mu >= start, must have mu + lam > limit: a hare at
    t + r unequal to the tortoise at t rules out mu <= t with lam <= r.
    """
    start, t, tortoise, power = j, j, copy(x), 1
    yield j, x, 0
    while limit is None or t + 1 < limit or start + j - t < limit:
        x = step(x)
        j += 1
        if same(x, tortoise):
            yield j, x, j - t
            return
        yield j, x, 0
        if j - t == power:
            t, tortoise, power = j, copy(x), 2 * power


def least_repeat(x, j: int, lam: int, step, same) -> int:
    """The least mu >= j with x(mu) == x(mu + lam), x the state at j."""
    ahead = copy(x)
    for _ in range(lam):
        ahead = step(ahead)
    while not same(x, ahead):
        x, ahead, j = step(x), step(ahead), j + 1
    return j
