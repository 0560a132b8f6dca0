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

The certificate checks run on whole tables: the extended frontiers of
a certificate's planes as arrays, evaluated at the rows a check needs,
and the checks themselves as rows times (plane, attacker rule, defender
response) triples, a block of rows at a time.  All belt geometry is
exact: slopes and bands of fits are rationals, and the checks compare
integers, int64 while every value stays below 2**62 and Python ints
past that.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
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
    vals = [INF if blacks == r else blacks - 1 for blacks in coloring.black_counts().tolist()]
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
    then be fully black, so the fit contradicts the observation).

    The differences f(n + dy) - f(n) agree over the rows exactly when
    the steps f(n + 1) - f(n) repeat with period dy, so the least such
    dy is the least shift that maps the list of steps onto itself.  The
    band is read off the integers dy*f(n) - dx*n, the residuals times dy.
    """
    if t - half < 2:
        return None
    v = vals[half:t]
    steps = [b - a for a, b in zip(v, v[1:])]
    # A shift by every step compares nothing, so some dy matches.
    dy = next(dy for dy in range(1, len(steps) + 1) if steps[dy:] == steps[:-dy])
    dx = v[dy] - v[0]
    if dx < 1:
        return None  # a smaller dy dominates any multiple of itself
    # The censored rows continue the period and grow by dx with every
    # repeat, so the first dy of them are the lowest.
    if min(vals[t - dy:min(t, len(vals) - dy)], default=width) + dx < width - 1:
        return None
    scaled = [dy * f - dx * n for n, f in enumerate(v, half)]
    return BeltFit(plane, "SF", alpha=Fraction(dx, dy),
                   band=(Fraction(min(scaled), dy), Fraction(max(scaled), dy)),
                   period_hint=(dx, dy))


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
        t = vals.index(INF) if INF in vals else h
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
        shifted = np.maximum(b[n0 + py:] - px, 0)
        if (np.minimum(b[n0:r - py], r - px) == np.minimum(shifted, r - px)).all():
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
    VF.  Deterministic: derived from the colorings alone.  Reads the
    frontiers off the black counts, as :func:`frontier` does: a full row
    is an infinity candidate, any other one ends at its count - 1.
    """
    height = None
    planes = {}
    for plane, col in sorted(colorings.items()):
        r = col.interior
        if r <= 0:
            raise NetError("empty interior")
        if height is None:
            height = r
        elif height != r:
            raise NetError("colorings disagree on interior size")
        counts = col.black_counts().tolist()
        if plane in periods:
            px, py = periods[plane]
            base = []
            for n, blacks in enumerate(counts):
                if blacks < r:
                    base.append(blacks - 1)
                    continue
                # Censored row: the black prefix fills the view, so the
                # frontier value is not observable; continue the period.
                if n - py < 0:
                    raise NetError(
                        f"plane {plane}: row {n} is fully black with no "
                        "earlier row one period below it")
                base.append(base[n - py] + px)
            planes[plane] = PlaneBelt("SF", base, period=(px, py))
        elif r in counts:
            first = counts.index(r)
            planes[plane] = PlaneBelt("HF", [blacks - 1 for blacks in counts[:first]],
                                      inf_from=first)
        else:
            planes[plane] = PlaneBelt("VF", [blacks - 1 for blacks in counts])
    return BeltCertificate(height, planes)


# Cells (rows times planes or response triples) one numpy pass of the
# certificate check evaluates: the rows are taken in blocks of about
# this many cells, so memory does not grow with the horizon.
_BLOCK_CELLS = 1 << 13


class _FrontierTable:
    """The extended frontiers of a certificate's planes, as arrays.

    ``base`` holds the base values of the certificate's planes, in its
    order, one after another, each followed by one pad value: ``inf``
    for an HF plane, which is infinite from inf_from on, and the last
    value otherwise.  A last plane of one value, -1, stands for every
    plane without a belt.  Row i of ``meta`` holds, for plane i, its offset
    into ``base``, its base length, the row from which it steps through
    its period (SF by (px, py), VF by (0, 1), which repeats its last
    value; HF and missing planes never do, ``inf``), and px and py.
    ``regimes`` maps each plane to its index, the row from which it is
    shift-covariant, and its period ((0, 1) unless SF).  :meth:`at`
    evaluates the extended frontier with the formula of
    :meth:`BeltCertificate.frontier_at`, at the rows it is given and
    only there; an infinite value reads ``inf``, above every finite one.

    The dtype is int64 while every row and value that checking the
    certificate can meet stays below 2**62: rows up to the height plus
    the lcm of the periods plus the largest delta, values up to the
    largest base value plus a period step per row.  Otherwise it is
    numpy ``object`` (Python ints), on which the same code runs, and
    ``inf`` is a power of two above that bound.
    """

    def __init__(self, cert: BeltCertificate, dmax: int):
        h = self.height = cert.height
        self.regimes = {}
        flat, meta = [], []
        for i, (plane, b) in enumerate(cert.planes.items()):
            if b.kind == "SF":
                period, stab, start, pad = b.period, h - b.period[1], h, b.base[-1]
            elif b.kind == "VF":
                period, stab, start, pad = (0, 1), h - 1, h, b.base[-1]
            else:  # the start and the pad become inf once it is known
                period, stab, start, pad = (0, 1), b.inf_from, None, -1
            self.regimes[plane] = (i, stab, period)
            meta.append([len(flat), len(b.base), start, *period])
            flat += b.base
            flat.append(pad)
        self.outside = (len(meta), 0, (0, 1))
        meta.append([len(flat), 0, None, 0, 1])
        flat.append(-1)
        self.lcm = math.lcm(*(row[4] for row in meta))
        bound = (max(flat) + (h + self.lcm + dmax + 1) * (max(row[3] for row in meta) + 1)
                 + dmax + 2)
        inf = self.inf = 1 << max(62, bound.bit_length())
        self.dtype = np.int64 if inf == 1 << 62 else object
        for row in meta[:-1]:
            if row[2] is None:
                row[2] = flat[row[0] + row[1]] = inf
        meta[-1][2] = inf
        self.base = np.array(flat, dtype=self.dtype)
        self.meta = np.array(meta, dtype=self.dtype)

    def columns(self, planes: np.ndarray) -> tuple:
        """What :meth:`at` reads of the table planes ``planes``:
        offset, base length, start, px and py, each shaped as ``planes``."""
        meta = self.meta[planes]
        return tuple(meta[..., j] for j in range(5))

    def at(self, columns: tuple, rows: np.ndarray) -> np.ndarray:
        """Extended frontiers of the planes of ``columns`` at rows >= 0,
        broadcast."""
        offset, cap, start, px, py = columns
        k = np.maximum((rows - start) // py + 1, 0)
        col = np.minimum(rows - k * py, cap)
        col += offset
        return self.base.take(col.astype(np.intp, copy=False)) + k * px


def _belt_fault(states: set, h: int, plane: tuple, belt: PlaneBelt) -> str | None:
    """The first fault of one plane's belt, or None: its states, kind,
    base length, period, frontier values (integers >= -1, checked in
    bulk and walked only to name a bad one), and the dominance closure.
    The extended frontier must be nondecreasing: one comparison of the
    base with itself shifted by a row, walked only to name the row.
    Past the base an SF frontier repeats the base's last period shifted
    by px, so it decreases there exactly when it does at the seam, row
    H; a VF one repeats its last value and an HF one is infinite."""
    p, q = plane
    if p not in states or q not in states:
        return f"plane {plane} references unknown states"
    if belt.kind not in ("SF", "VF", "HF"):
        return f"plane {plane}: unknown kind {belt.kind!r}"
    if belt.kind == "HF":
        if belt.inf_from is None or not 0 <= belt.inf_from <= h:
            return f"plane {plane}: bad inf_from"
        if len(belt.base) != belt.inf_from:
            return f"plane {plane}: base length must equal inf_from"
    elif len(belt.base) != h:
        return f"plane {plane}: base length must equal certificate height"
    if belt.kind == "SF":
        if (belt.period is None or len(belt.period) != 2
                or belt.period[0] < 1 or belt.period[1] < 1):
            return f"plane {plane}: period must be positive"
        if belt.period[1] > h:
            return f"plane {plane}: base too small to contain one full period"
    base = belt.base
    if set(map(type, base)) - {int} or min(base, default=0) < -1:
        bad = next((v for v in base if not isinstance(v, int) or v < -1), None)
        if bad is not None:
            return f"plane {plane}: bad frontier value {bad!r}"
    if not all(map(operator.le, base, base[1:])):
        n = next(n for n in range(1, len(base)) if base[n] < base[n - 1])
        return f"plane {plane}: frontier decreases at row {n}"
    if belt.kind == "SF" and base[h - belt.period[1]] + belt.period[0] < base[h - 1]:
        return f"plane {plane}: frontier decreases at row {h}"
    return None


def _validate_certificate(net: Socn, cert: BeltCertificate) -> _FrontierTable:
    """Check the certificate's shape, plane by plane in its order, and
    return its frontier table; raises on the first fault."""
    states = set(net.states)
    if not isinstance(cert.height, int) or cert.height < 1:
        raise MalformedCertificateError("height must be a positive integer")
    for plane, belt in cert.planes.items():
        fault = _belt_fault(states, cert.height, plane, belt)
        if fault is not None:
            raise MalformedCertificateError(fault)
    return _FrontierTable(cert, net.max_delta)


class _ResponseTriples:
    """The checks of :func:`verify_certificate_explain` as flat tables.

    One entry per (source plane, attacker rule, same-action defender
    response) triple, laid out as ``_RuleCells`` lays out the rounds:
    the source planes are the certificate's, sorted, each attacker rule
    owns a slice of entries, and a rule with no response owns one dead
    entry, whose defender delta reads below row 0 in every row checked.
    Per entry: the target's table row, the defender delta, and the row
    from which a response into the target is stable: the target's
    covariant regime when its slope is at least the source's (compared
    as px' * py >= px * py'), and no row otherwise.
    """

    def __init__(self, net: Socn, cert: BeltCertificate, table: _FrontierTable,
                 horizon: int):
        never, regimes, outside = table.inf, table.regimes, table.outside
        responses = {}
        for rd in net.rules:
            responses.setdefault((rd.frm, rd.action), []).append(rd)
        self.sources = sorted(cert.planes)
        rules, entries, self.plane_rules = [], [], []
        for s, (p, q) in enumerate(self.sources):
            px, py = regimes[(p, q)][2]
            first = len(rules)
            for ra in net.rules_from(p):
                u = len(rules)
                rules.append((ra, s, ra.delta, px > 0, len(entries)))
                for rd in responses.get((q, ra.action), ()):
                    row, stab, (tpx, tpy) = regimes.get((ra.to, rd.to), outside)
                    entries.append((row, rd.delta, stab if tpx * py >= px * tpy else never, u))
                if len(entries) == rules[-1][4]:
                    entries.append((outside[0], -horizon, never, u))
            self.plane_rules.append(range(first, len(rules)))
        self.rules = [rule[0] for rule in rules]
        if not rules:
            return
        _, rule_src, das, growing, self.starts = zip(*rules)
        targets, dds, stabs, owners = zip(*entries)
        self.rule_src, self.entry_rule = np.array(rule_src), np.array(owners)
        self.da = np.array(das, dtype=table.dtype)[:, None]
        self.growing = np.array(growing)[:, None]
        self.stab = np.array(stabs, dtype=table.dtype)[:, None]
        # The sources, read at defender delta 0, then the targets: one
        # table read per block.
        self.width = len(self.sources) + len(entries)
        self.columns = table.columns(np.array(
            [regimes[plane][0] for plane in self.sources] + list(targets))[:, None])
        self.reads = np.array([0] * len(self.sources) + list(dds), dtype=table.dtype)[:, None]


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

    The check runs on the rows times the (plane, attacker rule,
    defender response) triples of :class:`_ResponseTriples`, in blocks
    of rows of about ``_BLOCK_CELLS`` cells, so its memory does not grow
    with the horizon, and in a fixed number of numpy passes per block:
    the source and target frontiers of every triple and row at once,
    then per rule whether some response answers the frontier cell (for
    an infinite row: whether some response lands in an infinite row)
    and the largest target frontier, which settles the small-m cells of
    an infinite row (a rule enabled at m is answered iff m + delta is at
    most that frontier, so it fails from one threshold on).  Failures
    are worded only for the rows that fail, ordered by plane, then row,
    then m, then rule.  Values are int64, or Python ints when a row or
    value could pass 2**62 (see :class:`_FrontierTable`).

    Raises ResourceGuardError when the rows to check, (H+L) times the
    number of planes, plus the small-m cells of the infinite rows,
    (H+L - inf_from) * (Dmax+1) per HF plane, exceed DEFAULT_CELL_BUDGET:
    an untrusted certificate can make L astronomically large, and a
    succinct net writes Dmax in binary.  The guard counts these rows and
    cells although the small-m cells of a row are settled at once.
    """
    table = _validate_certificate(net, cert)
    h, lcm = cert.height, table.lcm
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
    checks = _ResponseTriples(net, cert, table, horizon)
    if not checks.rules:
        return True, []
    inf, count = table.inf, len(checks.sources)
    per_plane = [[] for _ in checks.sources]
    step = max(1, _BLOCK_CELLS // checks.width)
    for lo in range(0, horizon, step):
        n = np.arange(lo, min(lo + step, horizon), dtype=table.dtype)
        reads = n + checks.reads
        vals = table.at(checks.columns, np.maximum(reads, 0))
        f = vals[:count][checks.rule_src]  # per attacker rule
        reads = reads[count:]
        tgt = np.where(reads >= 0, vals[count:], -inf)  # per triple
        virtual = f + checks.da
        below = n < h
        # A response answers a frontier cell when it lands in an infinite
        # row or at or left of the target frontier, and inside the window
        # [H, H+L) also stably.
        answered = (tgt == inf) | (virtual[checks.entry_rule] <= tgt) & (
            below | (reads >= checks.stab))
        answered = np.logical_or.reduceat(answered, checks.starts, axis=0)
        # Disabled at the frontier cell; below the window that is final,
        # inside it a growing frontier re-enables the rule at higher rows.
        # An infinite row's rules are all enabled, and answered exactly
        # when some response lands in an infinite row (the large-m check).
        enabled = (virtual >= 0) | (checks.growing & ~below)
        failed = (f >= 0) & enabled & ~answered
        infinite = f == inf
        if infinite.any():
            # Small-m check: a rule is unanswered from this m on (past
            # Dmax when some response lands in an infinite row).
            top = np.maximum.reduceat(tgt, checks.starts, axis=0)
            first = np.maximum(np.maximum(-checks.da, 0), top - checks.da + 1)
            failed |= infinite & (first <= dmax)
        for s, j in sorted({(int(checks.rule_src[u]), j) for u, j in zip(*failed.nonzero())}):
            rules = checks.plane_rules[s]
            lines = per_plane[s]
            head = f"plane {checks.sources[s]} row {lo + j}"
            texts = [f"({ra.frm},{ra.action},{ra.delta},{ra.to})"
                     for ra in checks.rules[rules.start:rules.stop]]
            fv = f[rules.start, j]
            if fv != inf:
                lines.extend(f"{head}: frontier cell m={int(fv)}, rule {text} unanswered"
                             for u, text in zip(rules, texts) if failed[u, j])
                continue
            firsts = [int(first[u, j]) for u in rules]
            start = min((x for x in firsts if x <= dmax), default=dmax + 1)
            for m in range(start, dmax + 1):
                lines.extend(f"{head}: infinite row, m={m}, rule {text} unanswered"
                             for x, text in zip(firsts, texts) if m >= x)
            lines.extend(f"{head}: infinite row, large m, rule {text} "
                         "has no response into an infinite row"
                         for u, text in zip(rules, texts) if not answered[u, j])
    failures = [line for lines in per_plane for line in lines]
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

