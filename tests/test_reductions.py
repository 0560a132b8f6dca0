import functools
import random

import pytest

import numpy as np

from ocn_gamelab import (ADAM, EVE, Config, CountdownGame, GameError, RGame,
                         Rule, SeqDescription, SocnRGame,
                         bounded_attacker_search, dedup_rules,
                         doubleexp_period_instance, ecg_to_socnrg, edge_action,
                         expand_region, max_simulation,
                         rgame_to_mimicking_lts, seqdesc_to_countdown,
                         socnrgame_to_socn, solve_cg, solve_ecg, successors,
                         winning_area)

from oracles import (brute_bisimulation, expected_net_successors, is_one_step_closed,
                     mimicking_bisim_witness, random_socnrgame,
                     reference_seqdesc_to_countdown)

BLANK = " "


def constant_a(m=3):
    return SeqDescription(alphabet=["#", BLANK, "A", "B"], hash_symbol="#",
                          blank=BLANK, rules={}, default="A", m=m)


# ---------------------------------------------------------------------------
# Sequence description -> countdown game


def test_symbol_states_spell_out_the_word():
    d = constant_a()
    game, sym = seqdesc_to_countdown(d)
    # Position k has symbol beta iff Eve wins from beta's state at k+2.
    assert solve_cg(game, sym["#"], 2)
    assert not solve_cg(game, sym[BLANK], 2)
    for k in range(8):
        assert solve_cg(game, sym[BLANK], k + 2) == (1 <= k <= 3)
        assert solve_cg(game, sym["A"], k + 2) == (k >= 4)
        assert not solve_cg(game, sym["B"], k + 2)


def test_counter_values_below_two_always_lose():
    game, sym = seqdesc_to_countdown(constant_a())
    for state in sym.values():
        assert not solve_cg(game, state, 0)
        assert not solve_cg(game, state, 1)


def test_house_states():
    d = constant_a()
    game, _ = seqdesc_to_countdown(d)
    assert ("p2", -(d.m + 2), "p_bad") in game.rules
    for k in range(8):
        assert solve_cg(game, "p_win", k) == (k == 0)
        assert not solve_cg(game, "p_bad", k)
        assert solve_cg(game, "p1", k) == (k >= 1)
        assert solve_cg(game, "p2", k) == (2 <= k <= d.m + 1)


def test_triple_states_descend_by_offset():
    d = constant_a()
    game, sym = seqdesc_to_countdown(d)
    name = "t[#|%s|%s]" % (BLANK, BLANK)
    assert (name, -3, sym["#"]) in game.rules
    assert (name, -2, sym[BLANK]) in game.rules
    assert (name, -1, sym[BLANK]) in game.rules


# Symbols that a name or a JSON string must carry through unchanged.
# With a, a|b and b|a drawn together the triple names collide:
# t[a|b|a|z] is both (a|b, a, z) and (a, b|a, z).
AWKWARD_SYMBOLS = ["a", "a|b", "b|a", '"', "\\", "|", "]", "[q]", "\u00e9",
                   "\u2603", "\n"]


def random_word_description(rng) -> SeqDescription:
    alphabet = rng.sample(AWKWARD_SYMBOLS, rng.randint(2, 6))
    hash_symbol, blank = alphabet[:2]
    rules = {}
    for _ in range(rng.randint(0, 12)):
        rules[tuple(rng.choice(alphabet) for _ in range(3))] = rng.choice(alphabet)
    return SeqDescription(alphabet=alphabet, hash_symbol=hash_symbol, blank=blank,
                          rules=rules, default=rng.choice(alphabet), m=rng.randint(3, 7))


def assert_same_word_game(d: SeqDescription):
    """The index-built game equals the tuple-built reference in every
    part a caller or the solvers read."""
    game, sym = seqdesc_to_countdown(d)
    ref, ref_sym = reference_seqdesc_to_countdown(d)
    assert isinstance(game, CountdownGame)
    assert sym == ref_sym
    assert game.states == ref.states
    assert game.eve == ref.eve
    assert game.target == ref.target
    assert len(game.rules) == len(ref.rules)
    assert game.rules == ref.rules
    assert list(game.rules) == list(ref.rules)
    assert game.max_decrement == ref.max_decrement
    for table in ("_src", "_dec", "_tgt", "_eve"):
        a, b = getattr(game, table), getattr(ref, table)
        assert a.dtype == b.dtype and np.array_equal(a, b), table
    return game, ref, sym


def test_index_built_word_game_equals_reference():
    rng = random.Random(17)
    collisions = 0
    for _ in range(300):
        d = random_word_description(rng)
        try:
            reference_seqdesc_to_countdown(d)
        except GameError as exc:
            collisions += 1
            with pytest.raises(GameError) as caught:
                seqdesc_to_countdown(d)
            assert str(caught.value) == str(exc) == "duplicate states"
            continue
        assert_same_word_game(d)
    assert 0 < collisions <= 50


def test_index_built_word_game_solves_like_reference():
    rng = random.Random(18)
    checked = 0
    while checked < 80:
        d = random_word_description(rng)
        try:
            game, ref, sym = assert_same_word_game(d)
        except GameError:
            continue
        checked += 1
        for state in sym.values():
            for n0 in (0, 2, 5, 9, 14, 10 ** 6):
                assert solve_cg(game, state, n0) == solve_cg(ref, state, n0)
            for low_memory in (False, True):
                assert (solve_ecg(game, state, cap=300, low_memory=low_memory)
                        == solve_ecg(ref, state, cap=300, low_memory=low_memory))


def test_index_built_doubleexp_game_equals_reference():
    game, ref, _ = assert_same_word_game(doubleexp_period_instance(1))
    assert len(game.rules) == 1_314_042
    assert solve_cg(game, "s[#]", 2) and solve_cg(ref, "s[#]", 2)


def test_colliding_triple_names_are_refused_as_before():
    # t[a|b|c|d] is both (a|b, c, d) and (a, b|c, d).
    d = SeqDescription(alphabet=["a|b", "c", "a", "b|c", "d"], hash_symbol="a",
                       blank="c", rules={}, default="d", m=3)
    for build in (reference_seqdesc_to_countdown, seqdesc_to_countdown):
        with pytest.raises(GameError, match="^duplicate states$"):
            build(d)


def test_word_game_keeps_an_exact_row_length():
    d = SeqDescription(alphabet=["#", BLANK, "A"], hash_symbol="#", blank=BLANK,
                       rules={("#", BLANK, BLANK): "A"}, default=BLANK, m=2 ** 70)
    game, ref, _ = assert_same_word_game(d)
    assert game.max_decrement == 2 ** 70 + 2
    assert ("p2", -(2 ** 70 + 2), "p_bad") in game.rules
    d.m = 3.5
    for build in (reference_seqdesc_to_countdown, seqdesc_to_countdown):
        with pytest.raises(GameError, match=r"^rule delta -5\.5 is not an integer$"):
            build(d)


# ---------------------------------------------------------------------------
# The rule view


def test_rule_view_agrees_with_the_list_built_game():
    d = SeqDescription(alphabet=["#", BLANK, "A"], hash_symbol="#", blank=BLANK,
                       rules={("#", BLANK, BLANK): "A", ("A", "A", BLANK): "#"},
                       default=BLANK, m=3)
    game, _ = seqdesc_to_countdown(d)
    rules = list(game.rules)
    listed = CountdownGame(states=list(game.states), eve=set(game.eve),
                           rules=rules, target=game.target)
    n = len(rules)
    assert len(game.rules) == len(listed.rules) == n == 6 + 27 + 81
    assert list(game.rules) == list(listed.rules) == rules
    for i in (0, 1, 5, 6, 40, n - 1, -1, -2, -n):
        assert game.rules[i] == listed.rules[i] == rules[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            game.rules[i]
    assert game.rules == listed.rules and game.rules == rules and rules == game.rules
    assert game.rules != rules[:-1] and game.rules != rules[::-1]
    assert game.rules != tuple(rules)
    assert game.rules + [("p1", -1, "p1")] == rules + [("p1", -1, "p1")]
    assert [("p1", -1, "p1")] + game.rules == [("p1", -1, "p1")] + rules
    assert rules[7] in game.rules and game.rules.index(rules[7]) == 7
    with pytest.raises(TypeError):
        hash(game.rules)
    for q in game.states:
        assert game.rules_from(q) == listed.rules_from(q)
    assert expand_region(game, 7) == expand_region(listed, 7)
    for p0 in ("s[#]", "s[A]"):
        assert ecg_to_socnrg(game, p0) == ecg_to_socnrg(listed, p0)
    assert socnrgame_to_socn(game) == socnrgame_to_socn(listed)


# ---------------------------------------------------------------------------
# Existential countdown game -> counter reachability game


def test_pumping_start_reaches_every_level():
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p_win")], target="p_win")
    ext, fresh = ecg_to_socnrg(g, "p0")
    assert fresh == "start[p0]"
    assert len(ext.states) == len(g.states) + 1
    assert set(ext.rules) - set(g.rules) == {(fresh, 1, fresh), (fresh, 0, "p0")}
    wa = winning_area(expand_region(ext, 3))
    assert wa.is_winning((fresh, 0))


def test_pumping_start_cannot_fake_a_win():
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p0")], target="p_win")
    ext, fresh = ecg_to_socnrg(g, "p0")
    wa = winning_area(expand_region(ext, 10))
    assert not wa.is_winning((fresh, 0))


def test_fresh_name_avoids_collisions():
    g = CountdownGame(states=["p0", "start[p0]", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p_win")], target="p_win")
    _, fresh = ecg_to_socnrg(g, "p0")
    assert fresh == "start[p0|2]"
    with pytest.raises(GameError):
        ecg_to_socnrg(g, "nope")


def test_pumped_game_feeds_the_net_construction():
    # The extended game's fresh state must survive the downstream
    # priming scheme of the net construction.
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p_win")], target="p_win")
    ext, fresh = ecg_to_socnrg(g, "p0")
    net = socnrgame_to_socn(ext)
    assert fresh in net.states and fresh + "'" in net.states


# ---------------------------------------------------------------------------
# Reachability game -> mimicking transition system


def eve_reach_game():
    return RGame(vertices=["v0", "tgt", "dead"],
                 owner={"v0": EVE, "tgt": ADAM, "dead": ADAM},
                 edges=[("v0", "tgt"), ("v0", "dead")], targets={"tgt"})


def test_winning_vertices_are_not_simulated():
    ml = rgame_to_mimicking_lts(eve_reach_game())
    sim = max_simulation(ml.lts)
    assert (ml.plain["v0"], ml.primed["v0"]) not in sim
    assert (ml.plain["tgt"], ml.primed["tgt"]) not in sim
    assert (ml.plain["dead"], ml.primed["dead"]) in sim
    assert (ml.plain["dead"], ml.primed["dead"]) in brute_bisimulation(ml.lts)


def mimicking_rank(ml, v, budget=10):
    return bounded_attacker_search(ml.lts.moves, ml.lts.moves,
                                   (ml.plain[v], ml.primed[v]), budget)


def test_target_rank_is_one():
    ml = rgame_to_mimicking_lts(eve_reach_game())
    assert mimicking_rank(ml, "tgt") == 1


def test_adam_dodge_makes_copies_bisimilar():
    g = RGame(vertices=["v0", "tgt", "dead"],
              owner={"v0": ADAM, "tgt": ADAM, "dead": ADAM},
              edges=[("v0", "tgt"), ("v0", "dead")], targets={"tgt"})
    ml = rgame_to_mimicking_lts(g)
    bis = brute_bisimulation(ml.lts)
    assert (ml.plain["v0"], ml.primed["v0"]) in bis
    losing = {v for v in g.vertices
              if not winning_area(g).is_winning(v)}
    rel = mimicking_bisim_witness(g, ml, losing)
    assert is_one_step_closed(ml.lts, rel)


def test_forced_adam_vertex_is_winning():
    g = RGame(vertices=["v1", "tgt"], owner={"v1": ADAM, "tgt": ADAM},
              edges=[("v1", "tgt")], targets={"tgt"})
    ml = rgame_to_mimicking_lts(g)
    assert (ml.plain["v1"], ml.primed["v1"]) not in max_simulation(ml.lts)
    assert mimicking_rank(ml, "v1") == 3


def test_colliding_vertex_names_rejected():
    g = RGame(vertices=["v", "v'"], owner={"v": EVE, "v'": EVE},
              edges=[("v", "v'")], targets=set())
    with pytest.raises(GameError):
        rgame_to_mimicking_lts(g)


# ---------------------------------------------------------------------------
# Rule deduplication


def test_dedup_leaves_simple_games_alone():
    g = SocnRGame(states=["a", "b"], eve={"a"},
                  rules=[("a", 1, "b"), ("b", -1, "a")], target="b")
    out = dedup_rules(g)
    assert out.states == g.states and out.rules == g.rules


def test_dedup_routes_extras_through_relays():
    g = SocnRGame(states=["q0"], eve=set(),
                  rules=[("q0", 1, "q0"), ("q0", -1, "q0"), ("q0", 0, "q0")],
                  target="q0")
    out = dedup_rules(g)
    assert "via[q0|q0]" in out.states
    assert "via[q0|q0|2]" in out.states
    assert ("q0", -1, "via[q0|q0]") in out.rules
    assert ("via[q0|q0]", 0, "q0") in out.rules
    # relays inherit the source's owner
    assert "via[q0|q0]" not in out.eve
    pairs = [(frm, to) for frm, _, to in out.rules]
    assert len(pairs) == len(set(pairs))


def test_dedup_preserves_winning_areas():
    rng = random.Random(90210)
    for _ in range(25):
        g = random_socnrgame(rng)
        out = dedup_rules(g)
        wa_g = winning_area(expand_region(g, 12))
        wa_o = winning_area(expand_region(out, 12))
        for q in g.states:
            for k in range(13):
                assert wa_g.is_winning((q, k)) == wa_o.is_winning((q, k))


def test_dedup_skips_taken_relay_names():
    g = SocnRGame(states=["q0", "via[q0|q0]"], eve=set(),
                  rules=[("q0", 1, "q0"), ("q0", -1, "q0")], target="q0")
    out = dedup_rules(g)
    assert "via[q0|q0|2]" in out.states


# ---------------------------------------------------------------------------
# Counter game -> one-counter net


def test_adam_rule_splits_into_nonpositive_then_nonnegative():
    g = SocnRGame(states=["q", "r", "s"], eve=set(),
                  rules=[("q", -3, "r"), ("q", 2, "s")], target="r")
    net = socnrgame_to_socn(g)
    rules = set((r.frm, r.action, r.delta, r.to) for r in net.rules)
    a_r, a_s = edge_action("q", "r"), edge_action("q", "s")
    # challenge at min(z, 0), completion at max(z, 0)
    assert ("q", "a_c", -3, "pr[q|r]") in rules
    assert ("q'", "a_c", -3, "pr[q|r]") in rules
    assert ("pr[q|r]", a_r, 0, "r'") in rules
    assert ("q", "a_c", 0, "pr[q|s]") in rules
    assert ("pr[q|s]", a_s, 2, "s'") in rules
    # open challenge keeps the full delta
    assert ("ch[q]", a_r, -3, "r") in rules
    assert ("ch[q]", a_s, 2, "s") in rules
    # crossing answers re-base the other rule's delta: 2 - (-3) = 5
    assert ("pr[q|r]", a_s, 5, "s") in rules
    assert ("pr[q|s]", a_r, -3, "r") in rules
    # the target's winning loop sits on the plain copy only
    assert ("r", "a_win", 0, "r") in rules
    assert not any(r.frm == "r'" and r.action == "a_win" for r in net.rules)


def test_split_deltas_recompose():
    rng = random.Random(314)
    for _ in range(20):
        g = dedup_rules(random_socnrgame(rng))
        net = socnrgame_to_socn(g)
        by_pr = {}
        for r in net.rules:
            if r.frm.startswith("pr[") and r.to.endswith("'"):
                by_pr[r.frm] = r.delta
        for q in g.states:
            if g.owner(q) == ADAM:
                for z, to in g.rules_from(q):
                    pr = f"pr[{q}|{to}]"
                    assert min(z, 0) + by_pr[pr] == z


def test_net_moves_match_the_construction_table():
    rng = random.Random(2718)
    for _ in range(20):
        g = dedup_rules(random_socnrgame(rng))
        net = socnrgame_to_socn(g)
        oracle = functools.partial(successors, net)
        expected = expected_net_successors(g, 30)
        for cfg, want in expected.items():
            assert set(oracle(cfg)) == want, (g, cfg)


def test_duplicate_rules_handled_end_to_end():
    g = SocnRGame(states=["q0"], eve=set(),
                  rules=[("q0", 1, "q0"), ("q0", -1, "q0"), ("q0", 0, "q0")],
                  target="q0")
    net = socnrgame_to_socn(g)
    assert "via[q0|q0]'" in net.states
    assert "via[q0|q0|2]'" in net.states


def test_primed_name_collision_rejected():
    g = SocnRGame(states=["q", "q'"], eve=set(), rules=[], target="q")
    with pytest.raises(GameError):
        socnrgame_to_socn(g)


def drain_then_jump_game():
    # q is Adam's: he picks one of two Eve chutes; e1 needs 2, e2 needs 5.
    return SocnRGame(
        states=["q", "e1", "e2", "t"], eve={"e1", "e2"},
        rules=[("q", 0, "e1"), ("q", 0, "e2"),
               ("e1", -2, "t"), ("e1", -1, "e1"),
               ("e2", -5, "t"), ("e2", -1, "e2")],
        target="t")


def test_game_verdicts_transfer_to_the_net():
    g = drain_then_jump_game()
    wa = winning_area(expand_region(g, 5))
    assert wa.is_winning(("q", 5)) and wa.rank(("q", 5)) == 5
    assert not winning_area(expand_region(g, 25)).is_winning(("q", 4))

    net = socnrgame_to_socn(g)
    oracle = functools.partial(successors, net)
    rank = wa.rank(("q", 5))
    hit = bounded_attacker_search(
        oracle, oracle, (Config("q", 5), Config("q'", 5)), 2 * rank + 2)
    assert hit is not None and hit <= 2 * rank + 2
    survive = bounded_attacker_search(
        oracle, oracle, (Config("q", 4), Config("q'", 4)), 20)
    assert survive is None
