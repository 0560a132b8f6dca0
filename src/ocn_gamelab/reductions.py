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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    """
    m = d.m
    sym_state = {b: f"s[{b}]" for b in d.alphabet}
    triples = list(product(d.alphabet, repeat=3))
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
    out = [sym_state[d.rules.get(t, d.default)] for t in triples]  # d.apply(*t)
    rules += [(s, -(m - 2), name) for s, name in zip(out, names)]
    rules += [rule for (x, y, z), name in zip(triples, names)
              for rule in ((name, -3, sym_state[x]), (name, -2, sym_state[y]),
                           (name, -1, sym_state[z]))]
    game = CountdownGame(states=states, eve=eve, rules=rules, target="p_win")
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
