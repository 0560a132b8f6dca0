"""Brute-force oracles and random instance generators for the test suite.

Everything here is deliberately naive: definitional fixpoints over
explicit pair sets, memoized recursion, literal machine stepping.  The
package must agree with these on small instances; none of this code
shares logic with the implementation under test.  The vector-travel
walk checks the step lemma on colorings the package computed; it only
reads their white ranks.  The dense threshold rounds re-evaluate every
rule cell each round, the reference for the package's semi-naive ones.
The belt fit and the certificate checks that walk one row and one rule
pair at a time through ``BeltCertificate.frontier_at``, with
``Fraction`` residuals and slopes, are the references for the package's
whole-table ones.
The record-by-record parsers of counter-game and sequence-description
documents are the references for the package's bulk ones; they share
the field checks of ``documents`` that word each fault.
"""

import contextlib
import copy
import itertools
import json
import math
import signal
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ocn_gamelab import (ADAM, EVE, INF, BeltCertificate, BeltFit, Config, CountdownGame,
                         DocumentError, EcgAnswer, EgspAnswer, InvariantError, Lts,
                         MalformedCertificateError, NetError, PeriodAnswer, PlaneBelt, RGame,
                         ResourceGuardError, Rule, SeqDescription, SeqError, Socn, SocnRGame,
                         UnstableFitError, head_symbol, successors, winning_area)
from ocn_gamelab.documents import (_counter_rule, _counter_state, _int, _list, _obj, _str,
                                   _str_list)
from ocn_gamelab.ocnsim import _BLACK, DEFAULT_CELL_BUDGET

# ---------------------------------------------------------------------------
# Relation oracles


def brute_simulation(lts: Lts) -> set:
    """Greatest simulation by shrinking the full pair set to a fixpoint."""
    states = list(lts.states)
    rel = {(s, t) for s in states for t in states}

    def supported(s, t):
        for a in lts.enabled_actions(s):
            for s2 in lts.successors(s, a):
                if not any((s2, t2) in rel for t2 in lts.successors(t, a)):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            if not supported(*pair):
                rel.discard(pair)
                changed = True
    return rel


def brute_bisimulation(lts: Lts) -> set:
    """Greatest bisimulation, same scheme with the symmetric condition."""
    states = list(lts.states)
    rel = {(s, t) for s in states for t in states}

    def supported(s, t):
        for a in lts.enabled_actions(s):
            for s2 in lts.successors(s, a):
                if not any((s2, t2) in rel for t2 in lts.successors(t, a)):
                    return False
        for a in lts.enabled_actions(t):
            for t2 in lts.successors(t, a):
                if not any((s2, t2) in rel for s2 in lts.successors(s, a)):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            if not supported(*pair):
                rel.discard(pair)
                changed = True
    return rel


def brute_rank(lts: Lts, s: str, t: str):
    """Stratified simulation rank: least r with (s,t) outside the r-th
    approximant, or None when the pair survives to the fixpoint."""
    states = list(lts.states)
    rel = {(a, b) for a in states for b in states}
    r = 0
    while True:
        r += 1
        nxt = set()
        for a, b in rel:
            ok = True
            for act in lts.enabled_actions(a):
                for a2 in lts.successors(a, act):
                    if not any((a2, b2) in rel for b2 in lts.successors(b, act)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                nxt.add((a, b))
        if (s, t) not in nxt:
            return r
        if nxt == rel:
            return None
        rel = nxt


# ---------------------------------------------------------------------------
# Plane coloring oracle


def _shift_bool(a, dm: int, dn: int):
    """out[m,n] = a[m+dm, n+dn] where defined, False outside the grid."""
    gm, gn = a.shape
    out = np.zeros_like(a)
    m0, m1 = max(0, -dm), min(gm, gm - dm)
    n0, n1 = max(0, -dn), min(gn, gn - dn)
    if m0 < m1 and n0 < n1:
        out[m0:m1, n0:n1] = a[m0 + dm:m1 + dm, n0 + dn:n1 + dn]
    return out


def grid_color_planes(net: Socn, rank_bound: int, view: int) -> dict:
    """White-rank grid per plane, computed cell by cell on a box.

    At round r a cell turns white when some attacker rule that stays in
    the box has every enabled response already white; cells outside the
    box count as black.  The box has the rows [0, g) of ``color_planes``,
    g = view + K*Dmax, and K*Dmax more columns of m past g, which makes
    every rank up to K exact on m < g.
    """
    dmax = net.max_delta
    gn = view + rank_bound * dmax
    gm = gn + rank_bound * dmax
    white = {(p, q): np.zeros((gm, gn), dtype=np.int32)
             for p in net.states for q in net.states}
    mvec = np.arange(gm).reshape(-1, 1)
    nvec = np.arange(gn).reshape(1, -1)
    for r in range(1, rank_bound + 1):
        newly = {}
        for (p, q), grid in white.items():
            win = np.zeros((gm, gn), dtype=bool)
            for ra in net.rules_from(p):
                move_ok = np.broadcast_to((mvec + ra.delta >= 0)
                                          & (mvec + ra.delta < gm), (gm, gn)).copy()
                for rd in net.rules_from(q):
                    if rd.action == ra.action:
                        target_white = _shift_bool(
                            white[(ra.to, rd.to)] > 0, ra.delta, rd.delta)
                        move_ok &= target_white | (nvec + rd.delta < 0)
                win |= move_ok
            fresh = win & (grid == 0)
            if fresh.any():
                newly[(p, q)] = fresh
        if not newly:
            break
        for key, fresh in newly.items():
            white[key][fresh] = r
    return white


# ---------------------------------------------------------------------------
# Dense threshold rounds


def reference_reachable_offsets(deltas: set, n: int, moves: int, limit: int) -> np.ndarray:
    """Sorted offsets d with n + d reachable from n by at most ``moves``
    steps of the given deltas, never going below 0, recomputed from
    scratch.  Stops past ``limit`` offsets: more than ``limit`` returned
    means too many."""
    seen, fresh = {0}, {0}
    for _ in range(moves):
        fresh = {x + d for x in fresh for d in deltas if n + x + d >= 0} - seen
        if not fresh or len(seen) > limit:
            break
        seen |= fresh
    return np.array(sorted(seen))


def reference_threshold_rounds(net: Socn, pairs: list, rows: np.ndarray, low: int = 0):
    """Yield the threshold arrays w_1, w_2, ... of ``pairs`` on ``rows``.

    ``w_r[i, j]`` is the least m white at rank <= r in plane ``pairs[i]``
    and row ``rows[j]`` (sorted counters), or ``_BLACK`` when the row has
    none.  Round r takes, per pair, the min over attacker rules of the max
    over same-action responses of w_{r-1}(target)(n + dd) - da, floored
    at -da so the rule is enabled.  A read below ``low`` means the
    response is disabled; a read of a counter outside ``rows`` counts as
    black, the conservative direction.  ``pairs`` must be closed under
    same-action rule pairs.  Stops once a round changes nothing.
    """
    index = {pair: i for i, pair in enumerate(pairs)}
    size = len(pairs) * len(rows)
    outside, disabled = size, size + 1
    # Flat tables: one entry per response of each attacker rule, one
    # attacker rule per slice of entries, one pair per slice of rules.
    # An attacker rule with no response reads a disabled entry; a pair
    # with no attacker rule gets one whose floor is black.
    targets, dds, das, floors, rule_starts, pair_starts = [], [], [], [], [], []
    for p, q in pairs:
        pair_starts.append(len(floors))
        attacker = net.rules_from(p)
        for ra in attacker:
            rule_starts.append(len(targets))
            floors.append(max(0, -ra.delta))
            responses = [(index[(ra.to, rd.to)], rd.delta)
                         for rd in net.rules_from(q) if rd.action == ra.action]
            for t, dd in responses or [(-1, 0)]:
                targets.append(t)
                dds.append(dd)
                das.append(ra.delta)
        if not attacker:
            rule_starts.append(len(targets))
            floors.append(_BLACK)
            targets.append(-1)
            dds.append(0)
            das.append(0)
    targets = np.array(targets)[:, None]
    reads = rows + np.array(dds)[:, None]
    pos = np.searchsorted(rows, reads)
    gather = np.where(rows.take(pos, mode="clip") == reads,
                      targets * len(rows) + pos, outside)
    gather[(reads < low) | (targets < 0)] = disabled
    del reads, pos  # the generator would keep them alive for every round
    das = np.array(das)[:, None]
    floors = np.array(floors)[:, None]
    flat = np.empty(size + 2, dtype=np.int64)
    flat[outside], flat[disabled] = _BLACK, -_BLACK
    w = np.full((len(pairs), len(rows)), _BLACK)
    while True:
        flat[:size] = w.ravel()
        vals = flat.take(gather)
        vals -= das
        need = np.maximum.reduceat(vals, rule_starts, axis=0)
        np.maximum(need, floors, out=need)
        nxt = np.minimum.reduceat(need, pair_starts, axis=0)
        # Thresholds read off black stay near _BLACK; finite ones are small.
        nxt[nxt >= _BLACK // 2] = _BLACK
        if np.array_equal(nxt, w):
            return
        yield nxt
        w = nxt


# ---------------------------------------------------------------------------
# Row-by-row belt fit and certificate checks


def reference_sf_fit(plane: tuple, vals: list, half: int, t: int, width: int):
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


def reference_classify_and_fit(frontiers: dict) -> dict:
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
            fit = reference_sf_fit(plane, vals, t // 2, t, h)
            fits[plane] = fit if fit is not None else BeltFit(plane, "HF",
                                                              inf_from=t)
            continue
        upper = vals[half:]
        if all(v == upper[0] for v in upper):
            fits[plane] = BeltFit(plane, "VF", level=upper[0])
            continue
        fit = reference_sf_fit(plane, vals, half, h, h)
        if fit is None:
            raise UnstableFitError(
                f"plane {plane}: no frontier repetition over rows [{half},{h}); "
                "enlarge the view")
        fits[plane] = fit
    return fits


def reference_validate_certificate(net: Socn, cert: BeltCertificate) -> None:
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


def _reference_plane_slope(belt: PlaneBelt | None):
    if belt is None:
        return Fraction(0)
    if belt.kind == "SF":
        return Fraction(belt.period[0], belt.period[1])
    return Fraction(0)  # VF; HF targets are handled via infinite rows


def _reference_plane_stab_row(belt: PlaneBelt | None, h: int) -> int:
    """Row from which the extended frontier is shift-covariant."""
    if belt is None:
        return 0
    if belt.kind == "SF":
        return h - belt.period[1]
    if belt.kind == "VF":
        return h - 1
    return belt.inf_from


def reference_verify_certificate_explain(net: Socn, cert: BeltCertificate):
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
    reference_validate_certificate(net, cert)
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
        slope = _reference_plane_slope(belt)
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
                            stable = (n + rd.delta >= _reference_plane_stab_row(tgt_belt, h)
                                      and _reference_plane_slope(tgt_belt) >= slope)
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
# Vector travel: a checker of the step lemma on computed colorings


@dataclass
class TravelStep:
    plane: tuple
    start: tuple
    end: tuple
    white_rank: int
    action: str


@dataclass
class TravelResult:
    """Travel trace; ``mismatch_action`` names the unanswerable action
    when the final white end has rank 1."""

    steps: list
    mismatch_action: str | None = None


def trace_vector_travel(net: Socn, colorings: dict, plane: tuple,
                        start: tuple, end: tuple) -> TravelResult:
    """Walk a black-white vector to an axis with decreasing white ranks.

    At each step the attacker fixes a rule from the white end's left
    state whose every enabled response lands white with a smaller rank,
    and the defender answers it from the black start into a black
    candidate; both endpoints shift by the common rule offsets, landing
    in the defended plane.  The walk continues while one of the three
    side conditions holds (start off the vertical axis with the end off
    the horizontal axis, or the degenerate on-axis variants) and ends
    with the start on the vertical axis or the end on the horizontal
    axis.  Horizontal vectors end on the vertical axis, vertical ones
    on the horizontal axis.

    Stuck searches inside the exact interior are invariant breaches:
    for truly black starts the step lemma guarantees progress.  After j
    steps the walk is at most j*Dmax rows past the interior with a rank
    of at most K - j, where ``PlaneColoring`` keeps the ranks exact.
    """
    if not net.unary:
        raise NetError("vector travel requires a unary net")
    p, q = plane
    if (p, q) not in colorings:
        raise NetError(f"no coloring for plane {plane}")
    col = colorings[(p, q)]
    (m, n), (m2, n2) = start, end
    r0 = col.interior
    for x, y in (start, end):
        if not (0 <= x < r0 and 0 <= y < r0):
            raise NetError(f"cell ({x},{y}) outside the exact interior")
    if col.white[m, n] != 0:
        raise NetError(f"start cell {start} is not a black candidate")
    rank = int(col.white[m2, n2])
    if rank == 0:
        raise NetError(f"end cell {end} is not white")

    steps = []
    while True:
        keep_going = ((m > 0 and n2 > 0)
                      or (m > 0 and n == n2 == 0)
                      or (m == m2 == 0 and n2 > 0))
        if not keep_going:
            break
        attacker = None
        for ra in net.rules_from(p):
            if m2 + ra.delta < 0:
                continue
            responses = [rd for rd in net.rules_from(q)
                         if rd.action == ra.action and n2 + rd.delta >= 0]
            if all(0 < colorings[(ra.to, rd.to)].white[m2 + ra.delta, n2 + rd.delta] < rank
                   for rd in responses):
                attacker = ra
                break
        if attacker is None:
            raise InvariantError(
                f"no rank-reducing attacker rule at white ({p},{q})({m2},{n2}) rank {rank}")
        if m + attacker.delta < 0:
            raise InvariantError("attacker rule disabled at the black start")
        defender = None
        for rd in net.rules_from(q):
            if rd.action != attacker.action or n + rd.delta < 0:
                continue
            if colorings[(attacker.to, rd.to)].white[m + attacker.delta, n + rd.delta] == 0:
                defender = rd
                break
        if defender is None:
            raise InvariantError(
                f"black start ({p},{q})({m},{n}) has no black-preserving response "
                f"to action {attacker.action}")
        if n2 + defender.delta < 0:
            raise InvariantError("defender rule disabled at the white end")
        p, q = attacker.to, defender.to
        m, m2 = m + attacker.delta, m2 + attacker.delta
        n, n2 = n + defender.delta, n2 + defender.delta
        new_rank = int(colorings[(p, q)].white[m2, n2])
        if not 0 < new_rank < rank:
            raise InvariantError("white rank did not decrease")
        rank = new_rank
        steps.append(TravelStep((p, q), (m, n), (m2, n2), new_rank, attacker.action))

    mismatch = None
    if rank == 1:
        for ra in net.rules_from(p):
            if m2 + ra.delta < 0:
                continue
            if not any(rd.action == ra.action and n2 + rd.delta >= 0
                       for rd in net.rules_from(q)):
                mismatch = ra.action
                break
    return TravelResult(steps, mismatch_action=mismatch)


# ---------------------------------------------------------------------------
# Countdown oracle


def recursive_cg(game: CountdownGame, p0: str, n0: int) -> bool:
    """Memoized recursion on the level: the definitional winning set."""
    memo = {}
    eve = set(game.eve)

    def win(q, j):
        key = (q, j)
        if key in memo:
            return memo[key]
        if j == 0:
            memo[key] = q == game.target
            return memo[key]
        enabled = [(z, to) for frm, z, to in game.rules
                   if frm == q and j + z >= 0]
        if q in eve:
            out = any(win(to, j + z) for z, to in enabled)
        else:
            out = bool(enabled) and all(win(to, j + z) for z, to in enabled)
        memo[key] = out
        return out

    return win(p0, n0)


# The pure-Python level recurrence the array kernel replaced: a segment
# is a tuple of the last max(M, 1) levels as frozensets, None for levels
# below 0, and each level visits every state's rules in order.


def _reference_rules_from(game: CountdownGame) -> dict:
    rules_from = {s: [] for s in game.states}
    for frm, z, to in game.rules:
        rules_from[frm].append((z, to))
    return rules_from


def _reference_next_segment(game, rules_from: dict, segment: tuple) -> tuple:
    w = len(segment)
    won = set()
    for q in game.states:
        eve = q in game.eve
        enabled = 0
        good = 0
        for z, to in rules_from[q]:
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


def _reference_segments(game: CountdownGame):
    rules_from = _reference_rules_from(game)
    m = max((-z for _, z, _ in game.rules), default=0)
    segment = (None,) * (max(m, 1) - 1) + (frozenset({game.target}),)
    for j in itertools.count():
        yield j, segment
        segment = _reference_next_segment(game, rules_from, segment)


def reference_levels(game: CountdownGame, upto: int) -> list:
    """[W(0), ..., W(upto)] as frozensets of state names."""
    out = []
    for j, segment in _reference_segments(game):
        if j > upto:
            return out
        out.append(segment[-1])


def reference_solve_ecg(game: CountdownGame, p0: str, cap=None,
                        low_memory: bool = False) -> EcgAnswer:
    """The existential countdown game over the reference recurrence, with
    the same answers as ``solve_ecg``: a table of the segments seen from
    level max(M - 1, 1) on, or from max(M, 1) with ``low_memory``."""
    m = max((-z for _, z, _ in game.rules), default=0)
    record_from = max(m if low_memory else m - 1, 1)
    seen = {}
    for j, segment in _reference_segments(game):
        if p0 in segment[-1]:
            return EcgAnswer("yes", n=j)
        if cap is not None and j >= cap:
            return EcgAnswer("inconclusive", cap=cap)
        if j >= record_from:
            if segment in seen:
                return EcgAnswer("no", repeat=(seen[segment], j))
            seen[segment] = j


def reference_game_error(states, eve, rules, target, countdown: bool):
    """The message of the first check a counter game fails, in the order
    of the separate checks of the two game classes (every check of the
    base game, then the countdown deltas), or None."""
    ss = set(states)
    if len(ss) != len(states):
        return "duplicate states"
    extra = set(eve) - ss
    if extra:
        return f"eve set references unknown states: {sorted(extra)}"
    for frm, z, to in rules:
        if frm not in ss or to not in ss:
            return f"rule ({frm!r},{z},{to!r}) references unknown state"
        if not isinstance(z, int):
            return f"rule delta {z!r} is not an integer"
    if target not in ss:
        return f"target {target!r} is not a state"
    if countdown:
        for frm, z, to in rules:
            if z >= 0:
                return f"countdown rule ({frm!r},{z},{to!r}) must have negative delta"
    return None


# ---------------------------------------------------------------------------
# Word game and counter-game document oracles


def reference_seqdesc_to_countdown(d: SeqDescription) -> tuple:
    """The word game built rule tuple by rule tuple, as the reduction
    did before it built index tables: the game and the symbol map."""
    m = d.m
    sym_state = {b: f"s[{b}]" for b in d.alphabet}
    triples = list(itertools.product(d.alphabet, repeat=3))
    names = [f"t[{x}|{y}|{z}]" for x, y, z in triples]
    states = (["p_win", "p_bad", "p1", "p2"]
              + [sym_state[b] for b in d.alphabet]
              + names)
    eve = {"p_win", "p_bad", "p1"} | {sym_state[b] for b in d.alphabet}
    rules = [
        ("p1", -1, "p1"),
        ("p1", -1, "p_win"),
        ("p2", -1, "p1"),
        ("p2", -(m + 2), "p_bad"),
        (sym_state[d.blank], -1, "p2"),
        (sym_state[d.hash_symbol], -2, "p_win"),
    ]
    out = [sym_state[d.rules.get(t, d.default)] for t in triples]
    rules += [(s, -(m - 2), name) for s, name in zip(out, names)]
    rules += [rule for (x, y, z), name in zip(triples, names)
              for rule in ((name, -3, sym_state[x]), (name, -2, sym_state[y]),
                           (name, -1, sym_state[z]))]
    game = CountdownGame(states=states, eve=eve, rules=rules, target="p_win")
    return game, sym_state


def reference_counter_game_bytes(game: SocnRGame, kind: str) -> bytes:
    """A countdown or socn-rgame document as a sorted-key dict payload
    through ``json.dumps``, the canonical form the writer must match."""
    payload = {"kind": kind,
               "states": [{"name": s, "owner": EVE if s in game.eve else ADAM}
                          for s in game.states],
               "rules": [{"from": frm, "delta": z, "to": to}
                         for frm, z, to in game.rules],
               "target": game.target}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Document parser oracles: the record-by-record parsers the bulk ones replaced


def reference_parse_counter_game(obj, kind):
    """A counter-game document parsed record by record, as the parser
    did before it checked whole lists: the reference for its values and
    for the message of its first fault."""
    _obj(obj, "$", ("kind", "states", "rules", "target"))
    states = []
    eve = set()
    for i, s in enumerate(_list(obj["states"], "$.states")):
        if type(s) is dict and len(s) == 2:
            name, owner = s.get("name"), s.get("owner")
            if type(name) is not str or owner not in (EVE, ADAM):
                name, owner = _counter_state(s, i)
        else:
            name, owner = _counter_state(s, i)
        states.append(name)
        if owner == EVE:
            eve.add(name)
    countdown = kind == "countdown"
    rules = []
    for i, r in enumerate(_list(obj["rules"], "$.rules")):
        if type(r) is dict and len(r) == 3:
            rule = (r.get("from"), r.get("delta"), r.get("to"))
            if (type(rule[0]) is not str or type(rule[1]) is not int
                    or type(rule[2]) is not str or countdown and rule[1] >= 0):
                rule = _counter_rule(r, i, countdown)
        else:
            rule = _counter_rule(r, i, countdown)
        rules.append(rule)
    target = _str(obj["target"], "$.target")
    cls = CountdownGame if countdown else SocnRGame
    return cls(states=states, eve=eve, rules=rules, target=target)


def reference_parse_seqdesc(obj) -> SeqDescription:
    """A seqdesc document parsed record by record, as for counter games."""
    _obj(obj, "$", ("kind", "alphabet", "hash", "blank", "m", "rules", "default"))
    m = _int(obj["m"], "$.m")
    if m < 3:
        raise DocumentError("$.m: m >= 3 required")
    rules = {}
    for i, r in enumerate(_list(obj["rules"], "$.rules")):
        _obj(r, ("$.rules[{}]", i), ("triple", "out"))
        triple = _list(r["triple"], ("$.rules[{}].triple", i))
        if len(triple) != 3:
            raise DocumentError(f"$.rules[{i}].triple: expected exactly 3 symbols")
        key = tuple(_str(t, ("$.rules[{}].triple[{}]", i, j))
                    for j, t in enumerate(triple))
        if key in rules:
            raise DocumentError(f"$.rules[{i}].triple: duplicate rule for {key}")
        rules[key] = _str(r["out"], ("$.rules[{}].out", i))
    d = SeqDescription.__new__(SeqDescription)
    vars(d).update(alphabet=_str_list(obj["alphabet"], "$.alphabet"),
                   hash_symbol=_str(obj["hash"], "$.hash"),
                   blank=_str(obj["blank"], "$.blank"),
                   rules=rules,
                   default=_str(obj["default"], "$.default"),
                   m=m)
    reference_check_seqdesc(d)
    return d


def reference_check_seqdesc(d: SeqDescription) -> None:
    """The checks of the SeqDescription constructor with every rule
    walked one by one: raises the SeqError the constructor raises."""
    symbols = set(d.alphabet)
    if len(symbols) != len(d.alphabet):
        raise SeqError("duplicate symbols in alphabet")
    if d.m < 3:
        raise SeqError("initial length m must be at least 3")
    if d.hash_symbol == d.blank:
        raise SeqError("hash and blank must differ")
    for s in (d.hash_symbol, d.blank, d.default):
        if s not in symbols:
            raise SeqError(f"distinguished symbol {s!r} not in alphabet")
    for triple, out in d.rules.items():
        if len(triple) != 3 or any(t not in symbols for t in triple):
            raise SeqError(f"rule key {triple!r} is not an alphabet triple")
        if out not in symbols:
            raise SeqError(f"rule value {out!r} not in alphabet")


# ---------------------------------------------------------------------------
# Sequence description oracles: the window tables the cycle finder replaced


def _reference_windows(d: SeqDescription):
    """(k, window) for k = 0, 1, ...: the (m+1)-symbol window of positions
    k..k+m as a tuple, cut from a literal list of the word."""
    word = [d.hash_symbol] + [d.blank] * d.m
    for k in itertools.count():
        yield k, tuple(word[k:k + d.m + 1])
        word.append(d.apply(*word[k:k + 3]))


def reference_find_period(d: SeqDescription, cap: int) -> PeriodAnswer:
    """``find_period`` by a table of the windows seen, giving up after
    ``cap`` distinct windows."""
    seen = {}
    for k, window in _reference_windows(d):
        if window in seen:
            return PeriodAnswer("found", start=seen[window], period=k - seen[window])
        if k >= cap:
            return PeriodAnswer("inconclusive")
        seen[window] = k


def reference_decide_egsp(d: SeqDescription, beta0: str, cap: int) -> EgspAnswer:
    """``decide_egsp`` by a table of the windows seen: the least witness,
    No at the first repeated window, inconclusive after ``cap`` distinct
    windows."""
    seen = {}
    for k, window in _reference_windows(d):
        if beta0 in window:
            return EgspAnswer("yes", witness=k + window.index(beta0))
        if window in seen:
            return EgspAnswer("no")
        if k >= cap:
            return EgspAnswer("inconclusive")
        seen[window] = k


# ---------------------------------------------------------------------------
# Turing machine stepping


def tm_rows(machine, m: int, rows: int, start_marker: str | None = None):
    """Row-major serialization of `machine` run on the empty length-m tape.

    Cell j of each row is the plain tape symbol, or head_symbol(...) when
    the head sits on j.  The marker state for "#" defaults to the
    machine's own start.  Raises if the head ever leaves [0, m).
    """
    marker = machine.start if start_marker is None else start_marker
    tape = [machine.blank] * m
    q = machine.start
    head = 0
    out = []
    for _ in range(rows):
        row = [head_symbol(marker, machine.blank, q, g) if j == head else g
               for j, g in enumerate(tape)]
        out.append(row)
        q2, g2, mv = machine.delta[(q, tape[head])]
        tape[head] = g2
        q = q2
        head += mv
        if not 0 <= head < m:
            raise AssertionError("head left the row: border normal form broken")
    return out


# ---------------------------------------------------------------------------
# Expected transitions of the game-to-net construction


def _prime(s: str) -> str:
    return s + "'"


def expected_net_successors(game: SocnRGame, bound: int) -> dict:
    """Expected successor lists of the constructed net's configuration
    LTS, per construction clause, for every counter value <= bound.

    `game` must already have at most one rule per ordered state pair.
    Keys are Config tuples over plain/primed/challenge/commitment state
    names; values are sets of (action, Config).
    """
    out = {}

    def add(state, k, action, state2, k2):
        if k2 < 0:
            return
        out.setdefault(Config(state, k), set()).add((action, Config(state2, k2)))

    for q in game.states:
        moves = game.rules_from(q)
        for k in range(bound + 1):
            out.setdefault(Config(q, k), set())
            out.setdefault(Config(_prime(q), k), set())
        if game.owner(q) == EVE:
            for z, to in moves:
                act = f"a[{q}->{to}]"
                for k in range(bound + 1):
                    add(q, k, act, to, k + z)
                    add(_prime(q), k, act, _prime(to), k + z)
        elif moves:
            ch = f"ch[{q}]"
            for k in range(bound + 1):
                add(q, k, "a_c", ch, k)
                out.setdefault(Config(ch, k), set())
            for z, to in moves:
                act = f"a[{q}->{to}]"
                zlo, zhi = min(z, 0), max(z, 0)
                pr = f"pr[{q}|{to}]"
                for k in range(bound + 1):
                    add(ch, k, act, to, k + z)
                    add(q, k, "a_c", pr, k + zlo)
                    add(_prime(q), k, "a_c", pr, k + zlo)
                    out.setdefault(Config(pr, k), set())
                    add(pr, k, act, _prime(to), k + zhi)
                    for z2, to2 in moves:
                        if to2 != to:
                            add(pr, k, f"a[{q}->{to2}]", to2, k + z2 - zlo)
    for k in range(bound + 1):
        add(game.target, k, "a_win", game.target, k)
    return out


# ---------------------------------------------------------------------------
# Sound winning area for counter games with arbitrary deltas


def sink_winning_area(game: SocnRGame, bound: int) -> dict:
    """Eve-winning configurations with rank upper bounds.

    Built on the truncation to counters [0, bound] with an extra losing
    sink: Adam rules leaving the box feed the sink (pessimizing every
    escape to an immediate loss for Eve), Eve rules leaving the box are
    dropped.  Membership is therefore sound for the untruncated game
    and the rank of a certified configuration bounds its true rank
    from above.
    """
    sink = ("__sink__", -1)
    vertices = [sink]
    owner = {sink: ADAM}
    edges = [(sink, sink)]
    for q in game.states:
        for k in range(bound + 1):
            v = (q, k)
            vertices.append(v)
            owner[v] = EVE if game.owner(q) == EVE else ADAM
    for q in game.states:
        for k in range(bound + 1):
            for z, to in game.rules_from(q):
                if k + z < 0:
                    continue
                if k + z > bound:
                    if game.owner(q) != EVE:
                        edges.append(((q, k), sink))
                    continue
                edges.append(((q, k), (to, k + z)))
    rg = RGame(tuple(vertices), owner, tuple(edges),
               frozenset({(game.target, 0)}))
    area = winning_area(rg)
    return {v: r for v, r in area.rank_of.items() if v != sink}


# ---------------------------------------------------------------------------
# PGM parsing


def parse_pgm(data: bytes):
    """(width, height, maxval, values) of a plain P2 image."""
    tokens = data.decode("ascii").split()
    if tokens[0] != "P2":
        raise AssertionError("not a P2 file")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    values = [int(tok) for tok in tokens[4:]]
    if len(values) != width * height:
        raise AssertionError("pixel count mismatch")
    return width, height, maxval, values


# ---------------------------------------------------------------------------
# Random instances


def random_lts(rng, max_states: int = 6, max_actions: int = 3,
               density: float = 0.3) -> Lts:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    actions = tuple("abc"[:rng.randint(1, max_actions)])
    transitions = []
    for s in states:
        for a in actions:
            for t in states:
                if rng.random() < density:
                    transitions.append((s, a, t))
    return Lts(states=states, actions=actions, transitions=tuple(transitions))


def random_rgame(rng, max_vertices: int = 8, max_out: int = 3) -> RGame:
    n = rng.randint(1, max_vertices)
    names = tuple(f"v{i}" for i in range(n))
    owner = {v: rng.choice([EVE, ADAM]) for v in names}
    edges = []
    for v in names:
        for w in rng.sample(names, k=min(len(names), rng.randint(0, max_out))):
            edges.append((v, w))
    targets = frozenset(v for v in names if rng.random() < 0.3)
    return RGame(names, owner, tuple(edges), targets)


def random_countdown(rng, max_states: int = 6, max_dec: int = 5,
                     max_rules: int = 10) -> CountdownGame:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    eve = {s for s in states if rng.random() < 0.5}
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        rules.append((rng.choice(states), -rng.randint(1, max_dec),
                      rng.choice(states)))
    return CountdownGame(states, eve, rules, rng.choice(states))


def random_socnrgame(rng, max_states: int = 5, max_delta: int = 4,
                     max_rules: int = 8) -> SocnRGame:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    eve = {s for s in states if rng.random() < 0.5}
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        rules.append((rng.choice(states), rng.randint(-max_delta, max_delta),
                      rng.choice(states)))
    return SocnRGame(states, eve, rules, rng.choice(states))


def random_unary_net(rng, max_states: int = 3, max_rules: int = 4):
    from ocn_gamelab import Rule, Socn
    n = rng.randint(1, max_states)
    states = tuple(f"p{i}" for i in range(n))
    actions = tuple("ab"[:rng.randint(1, 2)])
    rules = []
    seen = set()
    for _ in range(rng.randint(1, max_rules)):
        rule = Rule(rng.choice(states), rng.choice(actions),
                    rng.choice([-1, 0, 1]), rng.choice(states))
        key = (rule.frm, rule.action, rule.delta, rule.to)
        if key not in seen:
            seen.add(key)
            rules.append(rule)
    return Socn(states=states, actions=actions, rules=tuple(rules))


def canonical_unary_nets(n_states, max_rules):
    """All unary nets on exactly n_states states with 1..max_rules
    rules, one representative per renaming of states and actions."""
    names = tuple(f"p{i}" for i in range(n_states))
    cores = [(f, d, t) for f in range(n_states) for d in (-1, 0, 1)
             for t in range(n_states)]
    perms = list(itertools.permutations(range(n_states)))

    def canonical(classes):
        best = None
        for pm in perms:
            relabeled = tuple(sorted(
                tuple(sorted((pm[f], d, pm[t]) for (f, d, t) in cl))
                for cl in classes))
            if best is None or relabeled < best:
                best = relabeled
        return best

    def partitions(slots):
        # Set partitions of the rule slots into action classes; a class
        # may not hold the same core twice (that would duplicate a rule).
        if not slots:
            yield []
            return
        first, rest = slots[0], slots[1:]
        for sub in partitions(rest):
            for i, cl in enumerate(sub):
                if first not in cl:
                    yield sub[:i] + [cl | {first}] + sub[i + 1:]
            yield sub + [{first}]

    seen = set()
    out = []
    for size in range(1, max_rules + 1):
        for multiset in itertools.combinations_with_replacement(cores, size):
            for part in partitions(list(multiset)):
                key = canonical(tuple(frozenset(cl) for cl in part))
                if key in seen:
                    continue
                seen.add(key)
                rules = []
                for ai, cl in enumerate(key):
                    for (f, d, t) in cl:
                        rules.append(Rule(names[f], f"a{ai}", d, names[t]))
                out.append(Socn(states=names,
                                actions=tuple(f"a{ai}" for ai in range(len(key))),
                                rules=tuple(rules)))
    return out


def random_succinct_net(rng, max_states: int = 3, max_rules: int = 5,
                        max_delta: int = 3):
    """Random net with deltas in [-max_delta, max_delta]."""
    n = rng.randint(1, max_states)
    states = tuple(f"p{i}" for i in range(n))
    actions = tuple("ab"[:rng.randint(1, 2)])
    rules = {(rng.choice(states), rng.choice(actions),
              rng.randint(-max_delta, max_delta), rng.choice(states))
             for _ in range(rng.randint(1, max_rules))}
    return Socn(states=states, actions=actions,
                rules=tuple(Rule(*key) for key in sorted(rules)))


def random_seqdesc(rng, max_extra: int = 2, m_lo: int = 3,
                   m_hi: int = 6) -> SeqDescription:
    extra = ["A", "B"][:rng.randint(0, max_extra)]
    alphabet = tuple(["#", " "] + extra)
    m = rng.randint(m_lo, m_hi)
    rules = {}
    for _ in range(rng.randint(0, 3 * len(alphabet))):
        triple = tuple(rng.choice(alphabet) for _ in range(3))
        rules[triple] = rng.choice(alphabet)
    default = rng.choice(alphabet)
    return SeqDescription(alphabet, "#", " ", rules, default, m)


# Values a damaged document puts where a field belongs.
JUNK = [None, True, False, 0, 1, -1, 1.5, "", "x", "q0", [], ["q0"], {}, {"name": "q0"},
        2 ** 63, -2 ** 63, 2 ** 70]


def _lists(doc: dict, key: str) -> tuple:
    """The list under ``key`` (empty when an earlier fault removed it or
    made it something else) and its object records."""
    items = doc.get(key)
    items = items if isinstance(items, list) else []
    return items, [r for r in items if isinstance(r, dict)]


def _damage_counter_game(rng, doc: dict) -> None:
    where = rng.choice(["states", "rules"])
    items, records = _lists(doc, where)
    (_, states), (_, rules) = _lists(doc, "states"), _lists(doc, "rules")
    fault = rng.randrange(13)
    if fault == 0 and records:  # a missing field
        record = rng.choice(records)
        if record:
            del record[rng.choice(sorted(record))]
    elif fault == 1:  # an extra field
        target = rng.choice(records) if records and rng.random() < 0.8 else doc
        target[rng.choice(["x", "kind2", "owner", "delta"])] = rng.choice(JUNK)
    elif fault == 2 and records:  # a retyped field
        record = rng.choice(records)
        if record:
            record[rng.choice(sorted(record))] = rng.choice(JUNK)
    elif fault == 3 and rules:  # a bool delta, or one beyond int64
        rng.choice(rules)["delta"] = rng.choice([True, False, 2 ** 63, -2 ** 63 - 1,
                                                 -2 ** 70, 2 ** 70, -2 ** 63])
    elif fault == 4 and rules:  # a delta >= 0
        rng.choice(rules)["delta"] = rng.choice([0, 1, 7])
    elif fault == 5 and states:  # a duplicate state
        copy = dict(rng.choice(states), owner=rng.choice([EVE, ADAM]))
        doc["states"].insert(rng.randrange(len(doc["states"]) + 1), copy)
    elif fault == 6:  # an unknown from, to or target
        if rules and rng.random() < 0.7:
            rng.choice(rules)[rng.choice(["from", "to"])] = "nowhere"
        else:
            doc["target"] = rng.choice(["nowhere", 3, None])
    elif fault == 7 and items:  # a record that is not an object
        items[rng.randrange(len(items))] = rng.choice([["q0", -1, "q0"], "q0", 3, None])
    elif fault == 8:  # a list that is not an array
        doc[where] = rng.choice([{}, "q0", None, 0])
    elif fault == 9 and states:  # a bad owner
        rng.choice(states)["owner"] = rng.choice(["X", "e", "", 1, None, [EVE]])
    elif fault == 10:  # an empty list
        doc[where] = []
    elif fault == 11:  # a missing or retyped top-level field
        key = rng.choice(["states", "rules", "target"])
        if rng.random() < 0.5:
            doc.pop(key, None)
        else:
            doc[key] = rng.choice(JUNK)
    elif fault == 12 and states:  # a name retyped everywhere it is used
        old, new = rng.choice(states).get("name"), rng.choice([0, 1, None, True, 1.5])
        for record in states + rules + [doc]:
            for key in ("name", "from", "to", "target"):
                if key in record and record[key] == old:
                    record[key] = new


def _damage_seqdesc(rng, doc: dict) -> None:
    items, rules = _lists(doc, "rules")
    triples = [r["triple"] for r in rules if isinstance(r.get("triple"), list)]
    alphabet = doc.get("alphabet")
    symbols = [a for a in alphabet if isinstance(a, str)] if isinstance(alphabet, list) else []
    symbols = symbols or ["#"]
    fault = rng.randrange(12)
    if fault == 0 and triples:  # a triple of the wrong length
        triple = rng.choice(triples)
        if rng.random() < 0.5 or not triple:
            triple.append(rng.choice(symbols))
        else:
            triple.pop()
    elif fault == 1 and triples:  # a triple with a non-string entry
        triple = rng.choice(triples)
        if triple:
            triple[rng.randrange(len(triple))] = rng.choice(JUNK[:13])
    elif fault == 2 and rules:  # a triple that is not an array
        rng.choice(rules)["triple"] = rng.choice(["# A", "###", None, {"0": "#"}, 3])
    elif fault == 3 and triples:  # a duplicate triple
        copy = {"triple": list(rng.choice(triples)), "out": rng.choice(symbols)}
        items.insert(rng.randrange(len(items) + 1), copy)
    elif fault == 4:  # a symbol outside the alphabet
        if triples and rng.random() < 0.6:
            if rng.random() < 0.5:
                triple = rng.choice(triples)
                if triple:
                    triple[rng.randrange(len(triple))] = "Z"
            else:
                rng.choice(rules)["out"] = "Z"
        else:
            doc[rng.choice(["hash", "blank", "default"])] = "Z"
    elif fault == 5 and rules:  # a missing, extra or retyped rule field
        rule = rng.choice(rules)
        choice = rng.randrange(3)
        if choice == 0:
            rule.pop(rng.choice(["triple", "out"]), None)
        elif choice == 1:
            rule[rng.choice(["x", "in"])] = "#"
        else:
            rule["out"] = rng.choice(JUNK)
    elif fault == 6:  # a bad m
        doc["m"] = rng.choice([0, 2, 3, -1, True, 3.0, "4", None, 2 ** 70])
    elif fault == 7:  # a bad alphabet
        if rng.random() < 0.5 and isinstance(alphabet, list):
            alphabet.append(rng.choice(symbols))
        else:
            doc["alphabet"] = rng.choice([symbols + [3], "# ", None, []])
    elif fault == 8:  # a missing or extra top-level field
        if rng.random() < 0.5:
            doc.pop(rng.choice(["alphabet", "hash", "blank", "m", "rules", "default"]), None)
        else:
            doc["extra"] = 1
    elif fault == 9:  # hash equal to blank
        doc["blank"] = doc.get("hash")
    elif fault == 10 and items:  # a record that is not an object
        items[rng.randrange(len(items))] = rng.choice([["#", "#", "#"], "#", None])
    elif fault == 11:  # rules that are not an array, or none
        doc["rules"] = rng.choice([{}, "#", None, []])


def damaged_documents(rng, count: int):
    """Yield ``count`` seeded (kind, document object) pairs, a third each
    of countdown, socn-rgame and seqdesc, each damaged by up to three
    faults (about one in four by none)."""
    kinds = ("countdown", "socn-rgame", "seqdesc")
    for i in range(count):
        kind = kinds[i % 3]
        if kind == "seqdesc":
            d = random_seqdesc(rng)
            doc = {"kind": kind, "alphabet": list(d.alphabet), "hash": d.hash_symbol,
                   "blank": d.blank, "m": d.m, "default": d.default,
                   "rules": [{"triple": list(k), "out": v} for k, v in d.rules.items()]}
        else:
            game = (random_countdown(rng, max_rules=30) if kind == "countdown"
                    else random_socnrgame(rng, max_rules=30))
            doc = json.loads(reference_counter_game_bytes(game, kind))
        for _ in range(rng.choice([0, 1, 1, 1, 2, 2, 3]) if i % 10 else 0):
            if kind == "seqdesc":
                _damage_seqdesc(rng, doc)
            else:
                _damage_counter_game(rng, doc)
        yield kind, doc


def prime_period_certificate():
    """A 4-state net and a well-formed 60-row certificate for it whose 16
    SF planes have the prime periods 2..53.  Their lcm puts the
    verification horizon at about 3.3e19 rows."""
    states = ("s0", "s1", "s2", "s3")
    net = Socn(states=states, actions=("a",),
               rules=tuple(Rule(s, "a", -1, s) for s in states))
    primes = [p for p in range(2, 54) if all(p % d for d in range(2, p))]
    planes = [(p, q) for p in states for q in states]
    cert = BeltCertificate(60, {plane: PlaneBelt("SF", list(range(60)), period=(k, k))
                                for plane, k in zip(planes, primes, strict=True)})
    return net, cert


def big_delta_certificate(delta: int = 10 ** 7):
    """A 1-state net with the single rule s -a,+delta-> s and the
    well-formed 1-row certificate claiming its plane all black.  The
    infinite rows' small-m check would visit about 2 * delta cells."""
    net = Socn(states=("s",), actions=("a",), rules=(Rule("s", "a", delta, "s"),))
    return net, BeltCertificate(1, {("s", "s"): PlaneBelt("HF", [], inf_from=0)})


def certificate_mutants(rng, cert: BeltCertificate) -> list:
    """Damaged copies of ``cert``, each with one change: a frontier value
    or a suffix of one raised or lowered, px shifted, a VF level raised,
    an HF inf_from lowered (with the base cut to match, or not), a plane
    dropped, and a decrease in one plane followed by a shape fault in a
    later one, which pins the order in which faults are named."""
    planes = list(cert.planes)
    out = []

    def mutant():
        bad = copy.deepcopy(cert)
        out.append(bad)
        return bad.planes

    with_base = [plane for plane in planes if cert.planes[plane].base]
    if with_base:
        plane = rng.choice(with_base)
        i = rng.randrange(len(cert.planes[plane].base))
        mutant()[plane].base[i] += rng.choice([-1, 1, 2])
        plane = rng.choice(with_base)
        i, d = rng.randrange(len(cert.planes[plane].base)), rng.choice([-1, 1])
        belt = mutant()[plane]
        belt.base[i:] = [v + d for v in belt.base[i:]]
    kinds = {kind: [plane for plane in planes if cert.planes[plane].kind == kind]
             for kind in ("SF", "VF", "HF")}
    if kinds["SF"]:
        belt = mutant()[rng.choice(kinds["SF"])]
        belt.period = (belt.period[0] + rng.choice([-1, 1]), belt.period[1])
    if kinds["VF"]:
        belt = mutant()[rng.choice(kinds["VF"])]
        i = rng.randrange(len(belt.base))
        belt.base[i:] = [v + 1 for v in belt.base[i:]]
    lowered = [plane for plane in kinds["HF"] if cert.planes[plane].inf_from > 0]
    if lowered:
        belt = mutant()[rng.choice(lowered)]
        belt.inf_from -= 1
        if rng.random() < 0.8:
            belt.base.pop()
    if planes:
        del mutant()[rng.choice(planes)]
    long = [i for i, plane in enumerate(planes) if len(cert.planes[plane].base) >= 2]
    if long and long[0] + 1 < len(planes):
        i = rng.choice(long[:-1] or long)
        j = rng.randrange(i + 1, len(planes))
        bad = mutant()
        bad[planes[i]].base[0] = bad[planes[i]].base[-1] + 1
        bad[planes[j]].kind = "XX"
    return out


def huge_period_certificates():
    """Nets and certificates whose rows or values pass 64 bits: an SF
    plane of px = 2**70 that verifies, one that fails, the big-delta
    plane of 2**70 (refused by the guard), and an SF plane that verifies
    on a net whose one delta is 2**70."""
    one = Socn(states=("s",), actions=("a",), rules=(Rule("s", "a", 0, "s"),))
    steep = BeltCertificate(2, {("s", "s"): PlaneBelt("SF", [0, 2 ** 70], period=(2 ** 70, 1))})
    two = Socn(states=("s", "t"), actions=("a",),
               rules=(Rule("s", "a", 0, "s"), Rule("t", "a", -1, "t")))
    wrong = BeltCertificate(3, {("s", "t"): PlaneBelt("SF", [0, 2 ** 70, 2 ** 71],
                                                      period=(2 ** 70, 1)),
                                ("s", "s"): PlaneBelt("VF", [5, 5, 5])})
    leap = Socn(states=("s",), actions=("a",), rules=(Rule("s", "a", 2 ** 70, "s"),))
    diagonal = BeltCertificate(2, {("s", "s"): PlaneBelt("SF", [0, 1], period=(1, 1))})
    return [(one, steep), (two, wrong), big_delta_certificate(2 ** 70), (leap, diagonal)]


def tall_certificate(height: int = 10 ** 12):
    """A 1-state net with the single rule s -a,-1-> s and a well-formed
    certificate of ``height`` rows whose one plane is infinite from row
    0 on.  Its dominance walk need not pass row 1; its verification
    needs ``height`` + 1 rows."""
    net = Socn(states=("s",), actions=("a",), rules=(Rule("s", "a", -1, "s"),))
    return net, BeltCertificate(height, {("s", "s"): PlaneBelt("HF", [], inf_from=0)})


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mimicking_bisim_witness(game: RGame, ml, losing: set) -> set:
    """Symmetric relation witnessing v ~ v' for every Eve-losing vertex.

    Pairs each losing vertex's two copies, and each losing Adam
    vertex's open challenge state with the commitment to one losing
    successor (Adam's dodge).  Returns the relation including the
    identity; check it with `is_one_step_closed`.
    """
    rel = {(s, s) for s in ml.lts.states}
    for v in losing:
        rel.add((ml.plain[v], ml.primed[v]))
        rel.add((ml.primed[v], ml.plain[v]))
        if game.owner[v] == ADAM and game.successors(v):
            dodge = next(t for t in game.successors(v) if t in losing)
            rel.add((ml.choice[v], ml.pair[(v, dodge)]))
            rel.add((ml.pair[(v, dodge)], ml.choice[v]))
    return rel


def is_one_step_closed(lts: Lts, rel: set) -> bool:
    """Does every pair survive one round of the simulation condition?

    A symmetric one-step-closed relation is a bisimulation.
    """
    for s, t in rel:
        for a in lts.enabled_actions(s):
            for s2 in lts.successors(s, a):
                if not any((s2, t2) in rel for t2 in lts.successors(t, a)):
                    return False
    return True
