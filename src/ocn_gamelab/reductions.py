"""Constructive reductions between the problem families.

Four translations, each preserving its winning or simulation
structure exactly:

* sequence description to countdown game, where a symbol query
  becomes a counter-value membership query;
* existential countdown game to counter reachability game, by letting
  Eve pump the counter before entering the game;
* reachability game to a mimicking transition system, where Eve wins
  from v exactly when the copy v' fails to simulate v;
* counter reachability game to a labelled one-counter net, the
  counter-aware version of the mimicking construction.

Naming is deterministic so reduction outputs are byte-reproducible:
primed copies append an apostrophe, composite states use bracketed
forms like ch[q], pr[q|r], via[q|r], and actions are a_c, a_win, and
a[q->r].

The word game of a sequence description has a state per symbol triple
and four rules per triple, millions of rules for the double-exponential
family, so its reduction numbers every state by construction and hands
the game int32 index tables; no rule tuple is built unless a caller
reads ``game.rules``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .countdown import CountdownGame
from .lts import Lts
from .rgame import EVE, GameError, RGame, SocnRGame
from .seqdesc import SeqDescription
from .socn import Rule, Socn

ACT_CHOICE = "a_c"
ACT_WIN = "a_win"


def edge_action(s: str, t: str) -> str:
    return f"a[{s}->{t}]"


# ---------------------------------------------------------------------------
# Sequence description -> countdown game


def seqdesc_to_countdown(d: SeqDescription) -> tuple:
    """Countdown game whose winning counter values spell out the word.

    Eve wins from the symbol state of beta with counter k+2 exactly
    when the word's symbol at position k is beta.  Querying a symbol
    forces a descent through the defining triple: Adam picks which of
    the three source positions to challenge, the decrements land the
    counter on that position's own query, and the initial stretch is
    settled by the hash and blank house states.  Returns the game and
    the symbol-to-state map.

    States are the house states p_win, p_bad, p1, p2, then s[b] for
    each symbol b, then t[x|y|z] for each triple in product order, so
    every rule's state indices are known by construction and the game
    is built from index tables (:meth:`SocnRGame.from_tables`) without
    a rule tuple.  Rules, in order: the six house rules; for each
    triple t, (s[d.apply(*t)], -(m-2), t); for each triple (x,y,z),
    (t, -3, s[x]), (t, -2, s[y]), (t, -1, s[z]).
    """
    m = d.m
    if not isinstance(m, int):
        raise GameError(f"rule delta {-(m + 2)!r} is not an integer")
    alphabet = d.alphabet
    k = len(alphabet)
    sym_state = {b: f"s[{b}]" for b in alphabet}
    sym = {b: 4 + i for i, b in enumerate(alphabet)}
    tails = [f"{z}]" for z in alphabet]
    heads = [f"t[{x}|{y}|" for x, y in product(alphabet, repeat=2)]
    states = (["p_win", "p_bad", "p1", "p2"] + list(sym_state.values())
              + [head + tail for head in heads for tail in tails])
    eve = {"p_win", "p_bad", "p1"} | set(sym_state.values())
    # Triple number t = (x*k + y)*k + z by symbol numbers, in product
    # order; t[x|y|z] is state 4 + k + t.  out[t] is the state of
    # d.apply(x, y, z), and only a tuple key can equal a triple.
    out = np.full(k ** 3, sym[d.default], dtype=np.int32)
    for key, b in d.rules.items():
        if isinstance(key, tuple):
            x, y, z = (sym[c] - 4 for c in key)
            out[(x * k + y) * k + z] = sym[b]
    t = np.arange(k ** 3, dtype=np.int32)
    challenged = 4 + np.stack([t // (k * k), t // k % k, t % k], axis=1).ravel()
    src = np.concatenate([np.array([2, 2, 3, 3, sym[d.blank], sym[d.hash_symbol]],
                                   dtype=np.int32),
                          out, np.repeat(4 + k + t, 3)])
    tgt = np.concatenate([np.array([2, 0, 2, 1, 3, 0], dtype=np.int32),
                          4 + k + t, challenged])
    dtype = np.int64 if m + 2 <= np.iinfo(np.int64).max else object
    deltas = np.concatenate([np.array([-1, -1, -1, -(m + 2), -1, -2], dtype=dtype),
                             np.full(k ** 3, -(m - 2), dtype=dtype),
                             np.tile(np.array([-3, -2, -1], dtype=dtype), k ** 3)])
    game = CountdownGame.from_tables(states, eve, src, deltas, tgt, "p_win")
    return game, sym_state


# ---------------------------------------------------------------------------
# Existential countdown game -> counter reachability game


def ecg_to_socnrg(game: CountdownGame, p0: str) -> tuple:
    """Add a pumping start state so one fixed query covers all n.

    The fresh Eve state can raise the counter arbitrarily before
    switching to p0, so Eve wins from the fresh state with counter 0
    exactly when she wins from p0 with some counter value.  Returns
    the extended game and the fresh state's name.
    """
    if p0 not in set(game.states):
        raise GameError(f"unknown start state {p0!r}")
    taken = set(game.states)
    # Bracketed like the other constructed names; a prime suffix would
    # collide with the primed copies of the net constructions downstream.
    fresh = f"start[{p0}]"
    serial = 1
    while fresh in taken:
        serial += 1
        fresh = f"start[{p0}|{serial}]"
    extended = SocnRGame(
        states=list(game.states) + [fresh],
        eve=set(game.eve) | {fresh},
        rules=list(game.rules) + [(fresh, 1, fresh), (fresh, 0, p0)],
        target=game.target,
    )
    return extended, fresh


# ---------------------------------------------------------------------------
# Reachability game -> mimicking transition system


@dataclass
class MimickingLts:
    """Transition system plus the maps back into the source game.

    ``plain`` and ``primed`` give the two copies of each vertex,
    ``choice`` the challenge state of each Adam vertex, ``pair`` the
    commitment states, and ``act_edge`` the per-edge action names.
    """

    lts: Lts
    plain: dict
    primed: dict
    choice: dict
    pair: dict
    act_choice: str
    act_win: str
    act_edge: dict


def rgame_to_mimicking_lts(game: RGame) -> MimickingLts:
    """Two copies of the game graph with Adam's choices made visible.

    Eve's moves become shared actions of both copies.  An Adam vertex
    s instead gets a challenge action into either the open state
    ch[s] or a commitment pr[s,t]; the open state can resolve to any
    successor's plain copy while pr[s,t] answers t's action into the
    primed copy and every other successor's action by escaping into
    that successor's plain copy.  Targets alone carry the winning
    action, on the plain copy only.  Eve wins the game from s exactly
    when s' fails to simulate s, and loses exactly when the two are
    bisimilar.
    """
    plain = {v: v for v in game.vertices}
    primed = {v: v + "'" for v in game.vertices}
    choice = {}
    pair = {}
    act_edge = {}
    states = [plain[v] for v in game.vertices] + [primed[v] for v in game.vertices]
    transitions = []
    actions = [ACT_CHOICE, ACT_WIN]
    for v in game.vertices:
        for t in game.successors(v):
            act_edge[(v, t)] = edge_action(v, t)
            actions.append(edge_action(v, t))
    for v in game.vertices:
        succ = game.successors(v)
        if game.owner[v] == EVE:
            for t in succ:
                a = act_edge[(v, t)]
                transitions.append((plain[v], a, plain[t]))
                transitions.append((primed[v], a, primed[t]))
        elif succ:
            choice[v] = f"ch[{v}]"
            states.append(choice[v])
            transitions.append((plain[v], ACT_CHOICE, choice[v]))
            for t in succ:
                pair[(v, t)] = f"pr[{v}|{t}]"
                states.append(pair[(v, t)])
                transitions.append((plain[v], ACT_CHOICE, pair[(v, t)]))
                transitions.append((primed[v], ACT_CHOICE, pair[(v, t)]))
                transitions.append((choice[v], act_edge[(v, t)], plain[t]))
                transitions.append((pair[(v, t)], act_edge[(v, t)], primed[t]))
                for u in succ:
                    if u != t:
                        transitions.append((pair[(v, t)], act_edge[(v, u)], plain[u]))
    for v in sorted(game.targets):
        transitions.append((plain[v], ACT_WIN, plain[v]))
    if len(set(states)) != len(states):
        raise GameError("vertex names collide with the construction's naming scheme")
    lts = Lts(states=states, actions=actions, transitions=transitions)
    return MimickingLts(lts=lts, plain=plain, primed=primed, choice=choice,
                        pair=pair, act_choice=ACT_CHOICE, act_win=ACT_WIN,
                        act_edge=act_edge)


# ---------------------------------------------------------------------------
# Counter reachability game -> one-counter net


def dedup_rules(game: SocnRGame) -> SocnRGame:
    """Equivalent game with at most one rule per ordered state pair.

    Each extra rule between the same states is routed through a fresh
    relay state owned by the source's owner: the original counter
    change into the relay, then a zero step onward.  Reachability
    does not care about path length, so winning areas at every
    counter value are unchanged.
    """
    taken = set(game.states)
    states = list(game.states)
    eve = set(game.eve)
    rules = []
    seen = set()
    for frm, z, to in game.rules:
        if (frm, to) not in seen:
            seen.add((frm, to))
            rules.append((frm, z, to))
            continue
        relay = f"via[{frm}|{to}]"
        serial = 1
        while relay in taken:
            serial += 1
            relay = f"via[{frm}|{to}|{serial}]"
        taken.add(relay)
        states.append(relay)
        if frm in eve:
            eve.add(relay)
        rules.append((frm, z, relay))
        rules.append((relay, 0, to))
    return SocnRGame(states=states, eve=eve, rules=rules, target=game.target)


def socnrgame_to_socn(game: SocnRGame) -> Socn:
    """One-counter net whose simulation problem embeds the game.

    Eve wins from q with counter k exactly when q(k) is *not*
    simulated by q'(k) in the net.  The construction mirrors the
    mimicking transition system with counter changes reattached: an
    Adam rule with change z splits into the challenge at min(z,0)
    and the completion at max(z,0) so both halves stay nonnegative
    exactly when the full move does.  The target keeps the winning
    action as a zero self-loop on the plain copy.

    Naming follows the mimicking scheme: q' for copies, ch[q] and
    pr[q|r] for Adam's challenge states, a[q->r] for rule actions.
    Rule multiplicity is normalized first (see dedup_rules), so run
    queries against the returned net's state names, which may include
    relay states.
    """
    game = dedup_rules(game)
    plain = {q: q for q in game.states}
    primed = {q: q + "'" for q in game.states}
    states = [plain[q] for q in game.states] + [primed[q] for q in game.states]
    actions = [ACT_CHOICE, ACT_WIN]
    rules = []
    for q in game.states:
        moves = game.rules_from(q)
        for z, to in moves:
            actions.append(edge_action(q, to))
        if game.owner(q) == EVE:
            for z, to in moves:
                a = edge_action(q, to)
                rules.append(Rule(plain[q], a, z, plain[to]))
                rules.append(Rule(primed[q], a, z, primed[to]))
        elif moves:
            ch = f"ch[{q}]"
            states.append(ch)
            rules.append(Rule(plain[q], ACT_CHOICE, 0, ch))
            for z, to in moves:
                rules.append(Rule(ch, edge_action(q, to), z, plain[to]))
            for z, to in moves:
                pr = f"pr[{q}|{to}]"
                states.append(pr)
                zlo, zhi = min(z, 0), max(z, 0)
                rules.append(Rule(plain[q], ACT_CHOICE, zlo, pr))
                rules.append(Rule(primed[q], ACT_CHOICE, zlo, pr))
                rules.append(Rule(pr, edge_action(q, to), zhi, primed[to]))
                for z2, to2 in moves:
                    if to2 != to:
                        rules.append(Rule(pr, edge_action(q, to2), z2 - zlo, plain[to2]))
    rules.append(Rule(plain[game.target], ACT_WIN, 0, plain[game.target]))
    if len(set(states)) != len(states):
        raise GameError("state names collide with the construction's naming scheme")
    return Socn(states=states, actions=actions, rules=rules)
