"""Brute-force oracles and random instance generators for the test suite.

Everything here is deliberately naive: definitional fixpoints over
explicit pair sets, memoized recursion, literal machine stepping.  The
package must agree with these on small instances; none of this code
shares logic with the implementation under test.  The vector-travel
walk checks the step lemma on colorings the package computed; it only
reads their white ranks.
"""

import contextlib
import itertools
import json
import signal
from dataclasses import dataclass

import numpy as np

from ocn_gamelab import (ADAM, EVE, BeltCertificate, Config, CountdownGame, EcgAnswer,
                         EgspAnswer, InvariantError, Lts, NetError, PeriodAnswer,
                         PlaneBelt, RGame, Rule, SeqDescription, Socn, SocnRGame,
                         head_symbol, successors, winning_area)

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
