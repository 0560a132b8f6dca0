"""Simulation preorder on one-counter nets via plane coloring and belts.

Each pair of control states (p,q) spans a plane of cells (m,n), black
when p(m) is simulated by q(n) and white otherwise.  White cells carry
the rank at which the attacker wins.  Simulation is monotone in both
counters, so each row is a staircase step, black up to a threshold in
m; a plane is computed bottom-up to a rank bound K as one threshold
per row, K * Dmax rows past the interior so that it is exact.  The
same threshold rounds, on only the pairs and rows a query can reach,
give the decision procedure its exact refutation ranks.  The rounds
are semi-naive: the recurrence is monotone, so thresholds only fall
from round to round, and every round after the first re-evaluates
only the rule cells that read a threshold the round before changed.

Black cells of an interior are never asserted to be truly black; they
are candidates.  The honest positive answers come from certificates:
a periodic frontier description per plane whose black region is closed
under the one-step simulation game, hence a simulation.  One pipeline,
:func:`certify_colorings`, turns colorings into such a certificate:
fit the frontiers and detect the belt periods (:func:`belt_periods`),
build the certificate, and verify it.  The decision procedure refutes
with the exact attacker rank, certifies with a verified certificate
from that pipeline, or says Unknown.

All belt geometry uses exact rational arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .socn import NetError, Socn

INF = math.inf

DEFAULT_CELL_BUDGET = 16_000_000

# Threshold of a row with no white cell.
_BLACK = 2 ** 62


class ResourceGuardError(RuntimeError):
    """A coloring, refutation or verification exceeds its budget."""


class UnstableFitError(ValueError):
    """No frontier repetition fits the upper half of the view.

    The residuals wander beyond any fixed band, which normally means
    the view is too small for the belt structure to stabilize.
    """


class MalformedCertificateError(ValueError):
    """Certificate shape errors, reported distinctly from verification failure."""


class InvariantError(RuntimeError):
    """A computed coloring contradicts a theorem; indicates a bug."""


# ---------------------------------------------------------------------------
# Plane coloring


@dataclass
class PlaneColoring:
    """One plane (p,q) on rows [0, R + K*Dmax), kept as its thresholds.

    ``thresholds[n]`` is the least m white at rank <= K in row n, or
    ``_BLACK`` when the row has none: each row is a staircase step,
    black on m < thresholds[n] and white from there on, so the black
    counts of the interior [0,R)^2 are min(thresholds[:R], R).

    The white ranks are built on first use of ``white``, for every plane
    of one :func:`color_planes` call at once.  ``white[m,n]`` is 0 for a
    black candidate and r >= 1 when the attacker wins from (p(m), q(n))
    in exactly r rounds.  Ranks up to K are exact on the interior; in a
    row n < R + j*Dmax they are exact up to K - j.  A coloring made
    without ``load_white`` has no white ranks.
    """

    p: str
    q: str
    thresholds: np.ndarray
    interior: int
    rank_bound: int
    max_delta: int
    load_white: Callable[[], np.ndarray] | None = field(default=None, repr=False,
                                                         compare=False)

    @property
    def white(self) -> np.ndarray:
        if self.load_white is None:
            raise NetError(f"plane ({self.p},{self.q}) has no white ranks")
        return self.load_white()

    def black_counts(self) -> np.ndarray:
        r = self.interior
        return np.minimum(self.thresholds[:r], r)

    def interior_view(self) -> np.ndarray:
        r = self.interior
        return self.white[:r, :r]

    def rank(self, m: int, n: int) -> int | None:
        g = len(self.thresholds)
        if not (0 <= m < g and 0 <= n < g):
            raise NetError(f"cell ({m},{n}) outside the coloring [0,{g})^2")
        r = int(self.white[m, n])
        return r if r > 0 else None


def _assert_interior_monotone(colorings: dict) -> None:
    # Black-cell monotonicity (smaller m, larger n stays black) must hold
    # cell-exactly on every exact interior; a violation is a solver bug.
    # Rows are black prefixes of m by construction, so only the black
    # counts along n are left to check.
    for (p, q), col in colorings.items():
        counts = col.black_counts()
        if np.any(counts[1:] < counts[:-1]):
            raise InvariantError(f"black not up-closed in plane ({p},{q})")


class _RuleCells:
    """The rule cells of one threshold kernel, and its two kinds of round.

    Flat tables: one entry per response of each attacker rule, one
    attacker rule per slice of entries, one pair per slice of rules.
    An attacker rule with no response reads a disabled entry; a pair
    with no attacker rule gets one whose floor is black.  ``gather[e,
    j]`` is the flat index entry e reads in row j: a threshold of ``w``,
    or one of two constants past them (a counter outside the rows reads
    black, a read below ``low`` disables the response).

    A round updates ``w`` in place and returns the flat indices it
    changed and their old values: int64 arrays from a dense round, lists
    from a sparse one.
    """

    def __init__(self, net: Socn, pairs: list, rows: np.ndarray, low: int):
        index = {pair: i for i, pair in enumerate(pairs)}
        size = len(pairs) * len(rows)
        outside, disabled = size, size + 1
        targets, dds, das, floors, owners, rule_starts, pair_starts = ([] for _ in range(7))
        for i, (p, q) in enumerate(pairs):
            pair_starts.append(len(floors))
            attacker = net.rules_from(p)
            for ra in attacker:
                rule_starts.append(len(targets))
                owners.append(i)
                floors.append(max(0, -ra.delta))
                responses = [(index[(ra.to, rd.to)], rd.delta)
                             for rd in net.rules_from(q) if rd.action == ra.action]
                for t, dd in responses or [(-1, 0)]:
                    targets.append(t)
                    dds.append(dd)
                    das.append(ra.delta)
            if not attacker:
                rule_starts.append(len(targets))
                owners.append(i)
                floors.append(_BLACK)
                targets.append(-1)
                dds.append(0)
                das.append(0)
        self.rule_starts, self.pair_starts = rule_starts, pair_starts
        self.da_col, self.floor_col = np.array(das)[:, None], np.array(floors)[:, None]
        # A changed threshold is read by entries / pairs rule cells on
        # average; a sparse round re-evaluates those and no others.
        self.sparse_limit = (len(floors) * len(rows) * len(pairs)
                             / (_SPARSE_COST * (len(pairs) + len(das))))
        # The sparse round's tables are Python lists.
        self.targets, self.dds, self.das, self.floors, self.owners = (
            targets, dds, das, floors, owners)
        self.rule_ends = rule_starts[1:] + [len(das)]
        targets = np.array(targets)[:, None]
        reads = rows + np.array(dds)[:, None]
        pos = np.searchsorted(rows, reads)
        self.gather = np.where(rows.take(pos, mode="clip") == reads,
                               targets * len(rows) + pos, outside)
        self.gather[(reads < low) | (targets < 0)] = disabled
        self.flat = np.empty(size + 2, dtype=np.int64)
        self.flat.fill(_BLACK)
        self.flat[disabled] = -_BLACK
        self.w = self.flat[:size].reshape(len(pairs), len(rows))
        self.rows, self.low = rows, low

    @functools.cached_property
    def sparse_view(self) -> tuple:
        """What the sparse round reads, built when it first runs: per pair
        t, (defender delta, rule) of each entry that reads t, and the rows,
        thresholds and gather table as memoryviews, whose items read as
        Python ints."""
        readers = [[] for _ in self.pair_starts]
        for u, (start, end) in enumerate(zip(self.rule_starts, self.rule_ends)):
            for e in range(start, end):
                if self.targets[e] >= 0:
                    readers[self.targets[e]].append((self.dds[e], u))
        return (readers, memoryview(self.rows), memoryview(self.flat),
                memoryview(self.gather.ravel()))

    def dense_round(self):
        """Every rule cell, in numpy."""
        vals = self.flat.take(self.gather)
        vals -= self.da_col
        need = np.maximum.reduceat(vals, self.rule_starts, axis=0)
        np.maximum(need, self.floor_col, out=need)
        nxt = np.minimum.reduceat(need, self.pair_starts, axis=0)
        # Thresholds read off black stay near _BLACK; finite ones are small.
        nxt[nxt >= _BLACK // 2] = _BLACK
        diff = nxt != self.w
        changed, old = diff.ravel().nonzero()[0], self.w[diff]
        self.w[...] = nxt
        return changed, old

    def sparse_round(self, changed):
        """Only the rule cells that read a ``changed`` threshold, in
        Python; every read comes before the first write."""
        readers, rows, flat, gather = self.sparse_view
        width = len(rows)
        das, floors, starts, ends = self.das, self.floors, self.rule_starts, self.rule_ends
        cells = set()
        for f in map(int, changed):
            t, k = divmod(f, width)
            v = rows[k]
            if v < self.low:
                continue  # every read of it is disabled
            for dd, u in readers[t]:
                j = bisect.bisect_left(rows, v - dd)
                if j < width and rows[j] == v - dd:
                    cells.add(u * width + j)
        best = {}
        for c in cells:
            u, j = divmod(c, width)
            need = floors[u]
            for e in range(starts[u], ends[u]):
                val = flat[gather[e * width + j]] - das[e]
                if val > need:
                    need = val
            cell = self.owners[u] * width + j
            if need < best.get(cell, _BLACK // 2):  # higher needs stay black
                best[cell] = need
        changed, old = [], []
        for cell, need in best.items():
            if need < flat[cell]:
                changed.append(cell)
                old.append(flat[cell])
        for cell in changed:
            flat[cell] = best[cell]
        return changed, old


# A round runs sparsely while the thresholds the last round changed and
# their reads, times this, stay within all rule cells.  Over the rounds
# of the benchmark's colorings and refutations and of 60 random nets
# (2-vCPU Xeon), any value from 32 to 48 took at most 8 % more time than
# picking the faster kind for every round.
_SPARSE_COST = 40


def _threshold_rounds(net: Socn, pairs: list, rows: np.ndarray, low: int = 0):
    """Run the rounds r = 1, 2, ... of the thresholds of ``pairs`` on ``rows``.

    ``w_r[i, j]`` is the least m white at rank <= r in plane ``pairs[i]``
    and row ``rows[j]`` (sorted counters), or ``_BLACK`` when the row has
    none.  Round r takes, per pair, the min over attacker rules of the max
    over same-action responses of w_{r-1}(target)(n + dd) - da, floored
    at -da so the rule is enabled.  A read below ``low`` means the
    response is disabled; a read of a counter outside ``rows`` counts as
    black, the conservative direction.  ``pairs`` must be closed under
    same-action rule pairs.

    Yields ``(w, changed, old)`` after each round that changes something
    and stops at the first that does not: ``w`` is one (pairs, rows)
    array, updated in place to w_r, ``changed`` holds the flat indices
    where w_r differs from w_{r-1} and ``old`` their values in w_{r-1}
    (int sequences: arrays or lists).

    The rounds are semi-naive.  Round 1 reads only constants and runs
    densely.  The recurrence is monotone in what it reads and w_1 <= w_0
    (all black), so w_r <= w_{r-1} by induction: thresholds only fall.
    A rule cell none of whose reads changed in round r - 1 keeps its
    value, which is at least w_{r-1} there; so w_r is the min of w_{r-1}
    and the rule cells that read a threshold round r - 1 changed.  A
    round re-evaluates only those, in Python, while they and the changed
    thresholds are few against all rule cells; otherwise it re-evaluates
    every rule cell in numpy.
    """
    table = _RuleCells(net, pairs, rows, low)
    changed, old = table.dense_round()
    while len(changed):
        yield table.w, changed, old
        if len(changed) > table.sparse_limit:
            changed, old = table.dense_round()
        else:
            changed, old = table.sparse_round(changed)


def color_planes(net: Socn, rank_bound: int, view: int,
                 cell_budget: int | None = None) -> dict:
    """Rank-bounded coloring of every plane; interior [0,view)^2 is exact.

    Runs :func:`_threshold_rounds` on all state pairs over rows
    [0, view + K*Dmax): rows past the end count as black, which the extra
    K*Dmax rows absorb; m needs no padding.  Stops early once a round
    changes nothing.  Keeps only the last round's thresholds, pairs x g
    of them; the budget still counts the g x g cells of every plane.
    The rank matrices are built on first use of a coloring's ``white``.
    """
    if rank_bound < 1 or view < 1:
        raise NetError("rank_bound and view must be >= 1")
    budget = DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    dmax = net.max_delta
    g = view + rank_bound * dmax
    cells = g * g * len(net.states) ** 2
    if cells > budget:
        raise ResourceGuardError(
            f"coloring needs {cells} cells (grid {g}, {len(net.states)} states), "
            f"budget is {budget}")
    pairs = [(p, q) for p in net.states for q in net.states]
    w = np.full((len(pairs), g), _BLACK)
    for w, _, _ in itertools.islice(_threshold_rounds(net, pairs, np.arange(g)), rank_bound):
        pass
    matrices = functools.cache(lambda: _rank_matrices(net, pairs, g, rank_bound))
    colorings = {(p, q): PlaneColoring(p, q, w[i], view, rank_bound, dmax,
                                       load_white=lambda i=i: matrices()[i])
                 for i, (p, q) in enumerate(pairs)}
    _assert_interior_monotone(colorings)
    return colorings


def _rank_matrices(net: Socn, pairs: list, g: int, rank_bound: int) -> np.ndarray:
    """White ranks of ``pairs`` on [0, g)^2, one g x g matrix per pair.

    Re-runs the threshold rounds of :func:`color_planes`.  Finite
    thresholds stay below g (a round adds at most Dmax).  Row n turns
    white at rank r on [w_r(n), w_{r-1}(n)): kept on [0, g)^2 as +r/-r at
    the interval ends of the rows that round changed, summed along m at
    the end.
    """
    steps = np.zeros((len(pairs), g + 1, g), dtype=np.int32)
    rounds = _threshold_rounds(net, pairs, np.arange(g))
    for r, (w, changed, old) in zip(range(1, rank_bound + 1), rounds):
        planes, cols = np.divmod(changed, g)
        steps[planes, np.minimum(w[planes, cols], g), cols] += r
        steps[planes, np.minimum(old, g), cols] -= r
    np.cumsum(steps, axis=1, out=steps)
    return steps[:, :g]


# ---------------------------------------------------------------------------
# Frontiers and belt fitting


@dataclass
class Frontier:
    """Rightmost black cell per interior row.

    values[n] is -1 when the whole row is white, math.inf when the row
    is black out to the exactness limit (an infinity *candidate*: a
    finite view cannot witness a true infinite row), and otherwise the
    largest black m.
    """

    plane: tuple
    values: list

    @property
    def height(self) -> int:
        return len(self.values)


def frontier(coloring: PlaneColoring) -> Frontier:
    r = coloring.interior
    if r <= 0:
        raise NetError("empty interior")
    # Rows are black prefixes of m, so the frontier is the black count - 1.
    counts = coloring.black_counts()
    vals = [INF if blacks == r else int(blacks) - 1 for blacks in counts]
    return Frontier((coloring.p, coloring.q), vals)


@dataclass
class BeltFit:
    """Classification of one plane's frontier.

    kind HF: some row is black to the exactness limit (view-relative
    judgment); VF: the frontier is constant over the upper half of the
    view; SF: the frontier repeats with a vector (dx, dy), slope
    alpha = dx/dy, and every upper-half residual f(n) - alpha*n lies in
    the offset band [c_lo, c_hi].
    """

    plane: tuple
    kind: str
    alpha: Fraction | None = None
    band: tuple | None = None
    period_hint: tuple | None = None
    level: int | None = None
    inf_from: int | None = None

    @property
    def step(self) -> Fraction:
        """Horizontal growth per unit of slope descent: 1 + 1/alpha (SF only)."""
        if self.alpha is None:
            raise ValueError("step is defined for SF fits only")
        return 1 + Fraction(1, 1) / self.alpha


def _sf_fit(plane: tuple, vals: list, half: int, t: int, width: int):
    """SF fit over the uncensored rows [half, t); None when no single
    repetition vector explains them, or when extrapolating it over a
    censored row [t, len) would re-enter the view (the row could not
    then be fully black, so the fit contradicts the observation)."""
    if t - half < 2:
        return None
    found = None
    for dy in range(1, t - half):
        diffs = {vals[n + dy] - vals[n] for n in range(half, t - dy)}
        if len(diffs) == 1:
            dx = diffs.pop()
            if dx >= 1:
                found = (dx, dy)
            break  # a smaller dy dominates any multiple of itself
    if found is None:
        return None
    dx, dy = found
    ext = list(vals[:t])
    for n in range(t, len(vals)):
        pred = ext[n - dy] + dx
        if pred < width - 1:
            return None
        ext.append(pred)
    alpha = Fraction(dx, dy)
    residuals = [vals[n] - alpha * n for n in range(half, t)]
    return BeltFit(plane, "SF", alpha=alpha,
                   band=(min(residuals), max(residuals)), period_hint=(dx, dy))


def classify_and_fit(frontiers: dict) -> dict:
    """BeltFit per plane; raises UnstableFitError when nothing fits.

    A fully black row is ambiguous in a finite view: either the plane
    really is all black from there on, or a steep belt's frontier left
    the view (censoring).  Monotonicity makes such rows a terminal run,
    so the belt reading is tried on the rows below the run first and HF
    is kept only for what that cannot explain.
    """
    fits = {}
    for plane, fr in frontiers.items():
        vals = fr.values
        h = len(vals)
        half = h // 2
        t = next((i for i, v in enumerate(vals) if v == INF), h)
        if t < h:
            # Steep belts saturate early, so fit on the half of the
            # uncensored rows closest to the run.
            fit = _sf_fit(plane, vals, t // 2, t, h)
            fits[plane] = fit if fit is not None else BeltFit(plane, "HF",
                                                              inf_from=t)
            continue
        upper = vals[half:]
        if all(v == upper[0] for v in upper):
            fits[plane] = BeltFit(plane, "VF", level=upper[0])
            continue
        fit = _sf_fit(plane, vals, half, h, h)
        if fit is None:
            raise UnstableFitError(
                f"plane {plane}: no frontier repetition over rows [{half},{h}); "
                "enlarge the view")
        fits[plane] = fit
    return fits


def detect_belt_period(coloring: PlaneColoring, fit: BeltFit):
    """Smallest multiple of the repetition vector shifting the belt onto itself.

    Compares interior rows above a threshold.  Rows are black prefixes,
    so comparing rows is comparing frontiers: with b[n] black cells in
    row n, row n matches row n + py shifted by px on m < r - px exactly
    when min(b[n], r - px) == clip(b[n + py] - px, 0, r - px).  The
    threshold is the half view, lowered to half the uncensored height
    when the belt saturates the view early (fully black rows compare
    trivially, so the window must keep rows whose frontier is visible).
    Needs at least one full period of fresh rows; returns None when the
    view has too few.  An all-black plane is a degenerate belt with
    period (1,1).
    """
    r = coloring.interior
    b = coloring.black_counts()
    if fit.kind == "HF":
        if (b == r).all():
            return (1, 1)
        raise NetError("period detection needs an SF fit")
    if fit.kind != "SF":
        raise NetError("period detection needs an SF fit")
    dx, dy = fit.period_hint
    full = np.flatnonzero(b == r)
    n0 = int(full[0]) // 2 if full.size else r // 2
    k = 1
    while True:
        px, py = k * dx, k * dy
        if py > (r - n0) // 2 or px >= r:
            return None
        if np.array_equal(np.minimum(b[n0:r - py], r - px),
                          np.clip(b[n0 + py:] - px, 0, r - px)):
            return (px, py)
        k += 1


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class PlaneBelt:
    """Periodic frontier description of one plane.

    ``base`` lists frontier values for rows [0, H) (SF, VF) or
    [0, inf_from) (HF).  Extension beyond the base: SF adds period
    steps, VF repeats the last value, HF rows at or above ``inf_from``
    are fully black.
    """

    kind: str
    base: list
    period: tuple | None = None
    inf_from: int | None = None


@dataclass
class BeltCertificate:
    """Frontier descriptions for the planes of one net.

    The certified black set B is, per plane, all cells (m,n) with
    m <= fB(n) for the extended frontier fB.  A verified certificate's
    B is a simulation, so certified pairs truly satisfy p(m) <= q(n)
    in the simulation preorder.
    """

    height: int
    planes: dict = field(default_factory=dict)

    def frontier_at(self, plane: tuple, n: int):
        belt = self.planes.get(plane)
        if belt is None:
            return -1
        h = self.height
        if belt.kind == "HF":
            return INF if n >= belt.inf_from else belt.base[n]
        if n < h:
            return belt.base[n]
        if belt.kind == "VF":
            return belt.base[-1]
        px, py = belt.period
        k = -((h - 1 - n) // py)  # ceil((n - h + 1) / py)
        return belt.base[n - k * py] + k * px

    def covers(self, p: str, m: int, q: str, n: int) -> bool:
        f = self.frontier_at((p, q), n)
        return f == INF or m <= f


def build_certificate(colorings: dict, periods: dict) -> BeltCertificate:
    """Package frontiers and detected periods into a certificate.

    ``periods`` maps the SF planes to their detected vectors; planes
    with an infinity-candidate row become HF entries, everything else
    VF.  Deterministic: derived from the colorings alone.
    """
    height = None
    planes = {}
    for plane, col in sorted(colorings.items()):
        fr = frontier(col)
        h = fr.height
        if height is None:
            height = h
        elif height != h:
            raise NetError("colorings disagree on interior size")
        vals = fr.values
        if plane in periods:
            px, py = periods[plane]
            base = []
            for n, v in enumerate(vals):
                if v != INF:
                    base.append(int(v))
                    continue
                # Censored row: the black prefix fills the view, so the
                # frontier value is not observable; continue the period.
                if n - py < 0:
                    raise NetError(
                        f"plane {plane}: row {n} is fully black with no "
                        "earlier row one period below it")
                base.append(base[n - py] + px)
            planes[plane] = PlaneBelt("SF", base, period=(px, py))
        elif any(v == INF for v in vals):
            first = next(i for i, v in enumerate(vals) if v == INF)
            planes[plane] = PlaneBelt("HF", [int(v) for v in vals[:first]],
                                      inf_from=first)
        else:
            planes[plane] = PlaneBelt("VF", [int(v) for v in vals])
    return BeltCertificate(height, planes)


def _validate_certificate(net: Socn, cert: BeltCertificate) -> None:
    states = set(net.states)
    if not isinstance(cert.height, int) or cert.height < 1:
        raise MalformedCertificateError("height must be a positive integer")
    h = cert.height
    for plane, belt in cert.planes.items():
        p, q = plane
        if p not in states or q not in states:
            raise MalformedCertificateError(f"plane {plane} references unknown states")
        if belt.kind not in ("SF", "VF", "HF"):
            raise MalformedCertificateError(f"plane {plane}: unknown kind {belt.kind!r}")
        if belt.kind == "HF":
            if belt.inf_from is None or not 0 <= belt.inf_from <= h:
                raise MalformedCertificateError(f"plane {plane}: bad inf_from")
            if len(belt.base) != belt.inf_from:
                raise MalformedCertificateError(
                    f"plane {plane}: base length must equal inf_from")
        else:
            if len(belt.base) != h:
                raise MalformedCertificateError(
                    f"plane {plane}: base length must equal certificate height")
        if belt.kind == "SF":
            if (belt.period is None or len(belt.period) != 2
                    or belt.period[0] < 1 or belt.period[1] < 1):
                raise MalformedCertificateError(f"plane {plane}: period must be positive")
            if belt.period[1] > h:
                raise MalformedCertificateError(
                    f"plane {plane}: base too small to contain one full period")
        for v in belt.base:
            if not isinstance(v, int) or v < -1:
                raise MalformedCertificateError(f"plane {plane}: bad frontier value {v!r}")
        # Dominance closure: the extended frontier must be nondecreasing,
        # checked across the seam into the periodic regime.  An HF
        # frontier is infinite from inf_from on, so its walk stops there.
        if belt.kind == "HF":
            horizon = belt.inf_from + 1
        else:
            horizon = h + (belt.period[1] if belt.kind == "SF" else 1)
        prev = cert.frontier_at(plane, 0)
        for n in range(1, horizon + 1):
            cur = cert.frontier_at(plane, n)
            if (prev == INF and cur != INF) or (cur != INF and cur < prev):
                raise MalformedCertificateError(
                    f"plane {plane}: frontier decreases at row {n}")
            prev = cur


def _plane_slope(belt: PlaneBelt | None):
    if belt is None:
        return Fraction(0)
    if belt.kind == "SF":
        return Fraction(belt.period[0], belt.period[1])
    return Fraction(0)  # VF; HF targets are handled via infinite rows


def _plane_stab_row(belt: PlaneBelt | None, h: int) -> int:
    """Row from which the extended frontier is shift-covariant."""
    if belt is None:
        return 0
    if belt.kind == "SF":
        return h - belt.period[1]
    if belt.kind == "VF":
        return h - 1
    return belt.inf_from


def verify_certificate_explain(net: Socn, cert: BeltCertificate):
    """Closure check of the certified black set; returns (ok, failures).

    Finitely many checks suffice:

    * rows [0, H+L) per plane, where L is the lcm of the SF periods:
      for a finite frontier value only the frontier cell is checked
      (any cell left of it enables fewer attacker rules and the same
      defender response lands deeper inside B by dominance);
    * rows in the transfer window [H, H+L) additionally require the
      chosen response to be *stable*: it must land at or above the
      target plane's covariant regime with slope(target) >= slope(source)
      (or in an infinite row), which transports the check to every
      higher row since both frontiers then shift in lockstep;
    * infinite rows get a two-regime check: explicit small m up to the
      largest delta (transfers upward because membership at fixed m is
      monotone in n), plus, for unbounded m, a defender response into
      an infinite row of the target plane.

    Raises ResourceGuardError when the rows to check, (H+L) times the
    number of planes, plus the small-m cells of the infinite rows,
    (H+L - inf_from) * (Dmax+1) per HF plane, exceed DEFAULT_CELL_BUDGET:
    an untrusted certificate can make L astronomically large, and a
    succinct net writes Dmax in binary.
    """
    _validate_certificate(net, cert)
    failures = []
    h = cert.height
    lcm = 1
    for belt in cert.planes.values():
        if belt.kind == "SF":
            lcm = lcm * belt.period[1] // math.gcd(lcm, belt.period[1])
    horizon = h + lcm
    dmax = net.max_delta
    rows = horizon * len(cert.planes)
    cells = sum((horizon - belt.inf_from) * (dmax + 1)
                for belt in cert.planes.values() if belt.kind == "HF")
    if rows + cells > DEFAULT_CELL_BUDGET:
        raise ResourceGuardError(
            f"verification needs {rows} rows and {cells} infinite-row cells "
            f"({len(cert.planes)} planes, height {h}, period lcm {lcm}, "
            f"largest delta {dmax}), budget is {DEFAULT_CELL_BUDGET}")

    for plane, belt in sorted(cert.planes.items()):
        p, q = plane
        slope = _plane_slope(belt)
        for n in range(horizon):
            f = cert.frontier_at(plane, n)
            if f == -1:
                continue
            if f == INF:
                # Small-m regime: cells m <= Dmax, transferring upward by
                # dominance since m stays fixed.  An enabled rule is
                # answered at m iff m + delta is at most the largest
                # target frontier over its enabled responses, so each
                # rule fails from one threshold on.
                firsts = []
                for ra in net.rules_from(p):
                    top = max((cert.frontier_at((ra.to, rd.to), n + rd.delta)
                               for rd in net.rules_from(q)
                               if rd.action == ra.action and n + rd.delta >= 0),
                              default=-INF)
                    firsts.append(max(0, -ra.delta, top - ra.delta + 1))
                start = min((first for first in firsts if first <= dmax), default=dmax + 1)
                for m in range(start, dmax + 1):
                    for ra, first in zip(net.rules_from(p), firsts):
                        if m >= first:
                            failures.append(
                                f"plane {plane} row {n}: infinite row, m={m}, "
                                f"rule ({ra.frm},{ra.action},{ra.delta},{ra.to}) unanswered")
                # Large-m regime: every rule needs a response into an
                # infinite row of the target plane.
                for ra in net.rules_from(p):
                    ok = any(
                        rd.action == ra.action and n + rd.delta >= 0
                        and cert.frontier_at((ra.to, rd.to), n + rd.delta) == INF
                        for rd in net.rules_from(q))
                    if not ok:
                        failures.append(
                            f"plane {plane} row {n}: infinite row, large m, "
                            f"rule ({ra.frm},{ra.action},{ra.delta},{ra.to}) has no "
                            "response into an infinite row")
                continue
            in_window = n >= h
            for ra in net.rules_from(p):
                virtual = f + ra.delta
                if virtual < 0 and not (in_window and slope > 0):
                    # Disabled at the frontier cell; below the window that
                    # is final, inside it a growing frontier re-enables the
                    # rule at higher rows unless the plane is not growing.
                    continue
                answered = False
                for rd in net.rules_from(q):
                    if rd.action != ra.action or n + rd.delta < 0:
                        continue
                    tgt_plane = (ra.to, rd.to)
                    tgt_f = cert.frontier_at(tgt_plane, n + rd.delta)
                    if tgt_f != INF and virtual > tgt_f:
                        continue
                    if in_window:
                        tgt_belt = cert.planes.get(tgt_plane)
                        if tgt_f == INF:
                            stable = True
                        else:
                            stable = (n + rd.delta >= _plane_stab_row(tgt_belt, h)
                                      and _plane_slope(tgt_belt) >= slope)
                        if not stable:
                            continue
                    answered = True
                    break
                if not answered:
                    failures.append(
                        f"plane {plane} row {n}: frontier cell m={f}, rule "
                        f"({ra.frm},{ra.action},{ra.delta},{ra.to}) unanswered")
    return not failures, failures


# ---------------------------------------------------------------------------
# Decision procedure


@dataclass
class SimDecision:
    """Outcome of decide_sim and certify_colorings: "no" with the exact
    attacker rank, "yes" with a verified certificate, or "unknown" with
    diagnostics."""

    kind: str
    rank: int | None = None
    certificate: BeltCertificate | None = None
    diagnostics: dict = field(default_factory=dict)


def belt_periods(colorings: dict) -> tuple[dict, dict]:
    """Fit every plane's frontier and detect the period of each SF plane.

    Returns (fits, periods): ``periods`` maps every SF plane to its
    period vector, or to None when the view holds no full period.
    Raises UnstableFitError when some frontier fits no belt.
    """
    fits = classify_and_fit({plane: frontier(col) for plane, col in colorings.items()})
    periods = {plane: detect_belt_period(colorings[plane], fit)
               for plane, fit in sorted(fits.items()) if fit.kind == "SF"}
    return fits, periods


def certify_colorings(net: Socn, colorings: dict) -> SimDecision:
    """The belt-certificate pipeline on a net's plane colorings.

    Fits the frontiers, detects the belt periods, builds the periodic
    certificate and verifies it.  "yes" carries the verified
    certificate; "unknown" names the first stage that failed in its
    diagnostics: ``unstable_fit``, ``period_not_found`` (the first such
    plane) or ``verification_failures``.
    """
    try:
        fits, periods = belt_periods(colorings)
    except UnstableFitError as exc:
        return SimDecision("unknown", diagnostics={"unstable_fit": str(exc)})
    diagnostics = {"fits": fits}
    missing = [plane for plane, period in periods.items() if period is None]
    if missing:
        diagnostics["period_not_found"] = missing[0]
        return SimDecision("unknown", diagnostics=diagnostics)
    diagnostics["periods"] = periods
    cert = build_certificate(colorings, periods)
    ok, failures = verify_certificate_explain(net, cert)
    if not ok:
        diagnostics["verification_failures"] = failures
        return SimDecision("unknown", diagnostics=diagnostics)
    return SimDecision("yes", certificate=cert, diagnostics=diagnostics)


def _reachable_offsets(deltas: set, n: int, limit: int):
    """Yield, for moves = 0, 1, 2, ..., the offsets d with n + d
    reachable from n by at most ``moves`` steps of the given deltas,
    never going below 0: one set, grown in place by the offsets first
    reached at each step.  Ends once a step reaches nothing new or the
    set holds more than ``limit`` offsets, which means too many."""
    seen, fresh = {0}, {0}
    while fresh and len(seen) <= limit:
        yield seen
        fresh = {x + d for x in fresh for d in deltas if n + x + d >= 0} - seen
        seen |= fresh
    yield seen


def _query_rank(net: Socn, p: str, m: int, q: str, n: int, budget: int,
                cell_budget: int):
    """Exact attacker rank of (p(m), q(n)) if at most ``budget``, else None.

    Runs :func:`_threshold_rounds` on the pairs reachable from (p, q)
    through same-action rule pairs, deepening iteratively: stage b runs b
    rounds over the defender counters reachable from n in at most b - 1
    moves, as offsets from n, for b = 1, 2, 4, ... up to ``budget``; each
    stage grows the offsets of the last.  Row n at round r only reads rows
    within b - r moves, so every read that decides the answer stays
    inside the row set and stage b answers every rank up to b exactly.
    The rank is the first round whose threshold in row n is at most m.
    Rows, rounds and guards thus grow with the rank reached, not with
    ``budget``.  Raises ResourceGuardError when a stage's counters pass
    64 bits or its rows times response entries (the size of its gather
    table) exceed ``cell_budget``.  budget < 1 always returns None.
    """
    if budget < 1:
        return None
    pairs, seen = [(p, q)], {(p, q)}
    deltas, dmax, entries = set(), 0, 0
    for s, t in pairs:  # grows while it is walked: a breadth-first search
        attacker = net.rules_from(s)
        entries += not attacker
        for ra in attacker:
            dmax = max(dmax, abs(ra.delta))
            responses = [rd for rd in net.rules_from(t) if rd.action == ra.action]
            entries += max(1, len(responses))
            for rd in responses:
                deltas.add(rd.delta)
                dmax = max(dmax, abs(rd.delta))
                if (ra.to, rd.to) not in seen:
                    seen.add((ra.to, rd.to))
                    pairs.append((ra.to, rd.to))
    m = min(m, _BLACK - 1)  # a black row stays black for every m
    offsets = _reachable_offsets(deltas, n, cell_budget // entries)
    stage = taken = 0
    while stage < budget:
        stage = min(2 * stage or 1, budget)
        # Offsets and finite thresholds stay below stage * Dmax.
        if stage * dmax >= _BLACK // 2:
            raise ResourceGuardError(
                f"refutation counters exceed 64 bits ({stage} rounds, largest delta {dmax})")
        for reached in itertools.islice(offsets, stage - taken):  # stage - 1 moves
            pass
        taken = stage
        rows = np.array(sorted(reached))
        if len(rows) * entries > cell_budget:
            raise ResourceGuardError(
                f"refutation needs at least {len(rows) * entries} cells ({len(rows)} "
                f"rows, {entries} response entries), budget is {cell_budget}")
        row = int(np.searchsorted(rows, 0))
        rounds = _threshold_rounds(net, pairs, rows, low=-min(n, _BLACK))
        for r, (w, _, _) in zip(range(1, stage + 1), rounds):
            if w[0, row] <= m:
                return r
    return None


def decide_sim(net: Socn, p: str, m: int, q: str, n: int,
               budget: int | None = None, view: int | None = None,
               rank_bound: int | None = None,
               cell_budget: int | None = None) -> SimDecision:
    """Does q(n) simulate p(m)?  Sound in both directions, else Unknown.

    The refutation direction runs the threshold rounds of
    :func:`color_planes` for up to ``budget`` rounds, deepening
    iteratively, on the state pairs reachable from (p, q) and the
    defender counters reachable from n, and reads the exact rank of the
    query cell off them.  The positive
    direction colors the planes and runs :func:`certify_colorings` on
    them; Yes only when the verified certificate covers the queried
    cell.  Both count their cells against ``cell_budget``.
    """
    if p not in set(net.states) or q not in set(net.states):
        raise NetError("unknown state in query")
    if view is None:
        view = max(m, n) + 10
    if rank_bound is None:
        rank_bound = 2 * view
    if budget is None:
        budget = rank_bound
    r = _query_rank(net, p, m, q, n, budget,
                    DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget)
    if r is not None:
        return SimDecision("no", rank=r)
    decision = certify_colorings(
        net, color_planes(net, rank_bound, view, cell_budget=cell_budget))
    if decision.kind == "yes" and not decision.certificate.covers(p, m, q, n):
        decision.diagnostics["uncovered"] = (p, m, q, n)
        return SimDecision("unknown", diagnostics=decision.diagnostics)
    return decision

