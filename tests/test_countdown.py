import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocn_gamelab import (CountdownGame, GameError, SocnRGame, doubleexp_period_instance,
                         expand_region, seqdesc_to_countdown, solve_cg, solve_ecg,
                         winning_area)
from ocn_gamelab.countdown import _Kernel, _levels

from oracles import (random_countdown, random_socnrgame, recursive_cg,
                     reference_game_error, reference_levels, reference_solve_ecg,
                     time_limit)


def levels(game, upto):
    """W(0), ..., W(upto) as sets of state names."""
    return [frozenset(game.states[i] for i in np.flatnonzero(segment[-1]))
            for _, segment, _ in _levels(_Kernel(game), limit=upto)]


def test_level_zero_is_the_target():
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p_win")], target="p_win")
    assert levels(g, 0)[0] == frozenset({"p_win"})


def test_single_eve_rule_wins_exactly_at_its_cost():
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p_win")], target="p_win")
    ws = levels(g, 3)
    assert ws[1] == frozenset()
    assert ws[2] == frozenset({"p0"})
    assert ws[3] == frozenset()
    assert solve_cg(g, "p0", 2) is True
    assert solve_cg(g, "p0", 3) is False
    assert solve_cg(g, "p0", 1) is False


def test_adam_must_win_under_every_decrement():
    g = CountdownGame(states=["p0", "p_win"], eve=set(),
                      rules=[("p0", -1, "p_win"), ("p0", -2, "p_win")],
                      target="p_win")
    # At 1 only the -1 rule is enabled and it hits the target level.
    assert solve_cg(g, "p0", 1) is True
    # At 2 Adam picks -1 and lands on the empty level W(1).
    assert solve_cg(g, "p0", 2) is False


def test_adam_deadlock_off_target_loses():
    g = CountdownGame(states=["p0", "p_win"], eve=set(),
                      rules=[("p_win", -1, "p_win")], target="p_win")
    assert solve_cg(g, "p0", 5) is False
    assert solve_cg(g, "p0", 0) is False


def test_negative_or_zero_delta_rejected():
    with pytest.raises(GameError):
        CountdownGame(states=["a"], eve=set(), rules=[("a", 0, "a")],
                      target="a")
    with pytest.raises(GameError):
        CountdownGame(states=["a"], eve=set(), rules=[("a", 3, "a")],
                      target="a")


def test_solve_cg_guards_inputs():
    g = CountdownGame(states=["a"], eve=set(), rules=[], target="a")
    with pytest.raises(GameError):
        solve_cg(g, "zz", 0)
    with pytest.raises(GameError):
        solve_cg(g, "a", -1)


def test_ecg_yes_reports_least_witness():
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p_win")], target="p_win")
    ans = solve_ecg(g, "p0")
    assert ans.kind == "yes" and ans.n == 2


def test_ecg_no_with_segment_repeat_witness():
    # p0 only reaches itself and never the target, so every level from 1
    # on is empty and the 2-level segments repeat at indices 2 and 3.
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p0")], target="p_win")
    ans = solve_ecg(g, "p0", cap=50)
    assert ans.kind == "no"
    assert ans.repeat == (2, 3)
    j1, j2 = ans.repeat
    # Verify the witness: identical M-segments, no hit up to j2.
    m = g.max_decrement
    ws = levels(g, j2)
    assert ws[j1 - m + 1:j1 + 1] == ws[j2 - m + 1:j2 + 1]
    assert all("p0" not in w for w in ws)


def test_ecg_inconclusive_respects_cap():
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p0")], target="p_win")
    ans = solve_ecg(g, "p0", cap=1)
    assert ans.kind == "inconclusive" and ans.cap == 1


def test_window_streaming_matches_full_recomputation():
    rng = random.Random(5150)
    for _ in range(25):
        g = random_countdown(rng)
        ws = levels(g, 200)
        for j, level in enumerate(ws):
            for q in g.states:
                assert (q in level) == recursive_cg(g, q, j), (g, q, j)


def test_solve_cg_agrees_with_region_expansion():
    rng = random.Random(31337)
    for _ in range(25):
        g = random_countdown(rng)
        n0 = rng.randrange(0, 40)
        wa = winning_area(expand_region(g, n0))
        for q in g.states:
            assert solve_cg(g, q, n0) == wa.is_winning((q, n0))


def test_ecg_no_witnesses_verified_on_random_games():
    rng = random.Random(8086)
    checked_no = 0
    for _ in range(60):
        g = random_countdown(rng)
        for p0 in g.states:
            ans = solve_ecg(g, p0)
            if ans.kind == "yes":
                assert solve_cg(g, p0, ans.n)
                assert all(not solve_cg(g, p0, n) for n in range(ans.n))
            else:
                assert ans.kind == "no"
                j1, j2 = ans.repeat
                m = g.max_decrement
                ws = levels(g, j2)
                assert j1 < j2
                assert ws[max(j1 - m + 1, 0):j1 + 1] == ws[j2 - m + 1:j2 + 1]
                assert all(p0 not in w for w in ws)
                checked_no += 1
    assert checked_no > 10


def test_brent_mode_agrees_with_hash_mode():
    rng = random.Random(600)
    for _ in range(40):
        g = random_countdown(rng)
        p0 = g.states[0]
        fast = solve_ecg(g, p0)
        thrifty = solve_ecg(g, p0, low_memory=True)
        assert fast.kind == thrifty.kind
        if fast.kind == "yes":
            assert fast.n == thrifty.n
        else:
            # Both witnesses must be valid; low memory's repeat search starts
            # a level later, so its pair may be later.
            for j1, j2 in (fast.repeat, thrifty.repeat):
                m = g.max_decrement
                ws = levels(g, j2)
                assert ws[max(j1 - m + 1, 0):j1 + 1] == ws[j2 - m + 1:j2 + 1]
                assert all(p0 not in w for w in ws)


def test_ecg_least_witness_through_detour():
    # Target reachable by spending 2 then 4; the -1 self-loop on mid
    # opens no cheaper route, so the least winning counter is 6.
    g = CountdownGame(
        states=["s0", "mid", "p_win"], eve={"s0", "mid"},
        rules=[("s0", -2, "mid"), ("mid", -4, "p_win"), ("mid", -1, "mid")],
        target="p_win")
    ans = solve_ecg(g, "s0")
    assert ans.kind == "yes" and ans.n == 6


@st.composite
def generated_countdowns(draw):
    n = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(n)]
    eve = set(draw(st.lists(st.sampled_from(states), max_size=n)))
    rules = draw(st.lists(
        st.tuples(st.sampled_from(states), st.integers(-4, -1),
                  st.sampled_from(states)), min_size=1, max_size=8))
    return CountdownGame(states, eve, rules, draw(st.sampled_from(states)))


@given(generated_countdowns(), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_solver_matches_recursive_oracle_on_generated_games(game, n0):
    for q in game.states:
        assert solve_cg(game, q, n0) == recursive_cg(game, q, n0)


def kernel_corpus(count: int = 300) -> list:
    """Random countdown games with M up to 6, every tenth with duplicated
    rules and every thirtieth with no rules at all."""
    rng = random.Random(1515)
    games = []
    for k in range(count):
        g = random_countdown(rng, max_dec=6)
        if k % 30 == 0:
            g = CountdownGame(g.states, g.eve, [], g.target)
        elif k % 10 == 0:
            g = CountdownGame(g.states, g.eve, g.rules + rng.sample(g.rules, 1) + g.rules,
                              g.target)
        games.append(g)
    return games


def test_corpus_covers_the_corner_cases():
    games = kernel_corpus()
    assert any(not g.rules for g in games)
    assert any(len(set(g.rules)) < len(g.rules) for g in games)
    assert any(q not in g.eve and all(frm != q for frm, _, _ in g.rules)
               for g in games if g.rules for q in g.states)
    assert max(g.max_decrement for g in games) == 6


def test_kernel_matches_reference_recurrence():
    for g in kernel_corpus():
        assert levels(g, 200) == reference_levels(g, 200), g


def test_kernel_matches_reference_on_doubleexp_game():
    game, _ = seqdesc_to_countdown(doubleexp_period_instance(1))
    assert len(game.states) == 328_582 and len(game.rules) == 1_314_042
    assert levels(game, 6) == reference_levels(game, 6)


@pytest.mark.parametrize("cap", [None, 3, 40])
def test_ecg_answers_match_reference(cap):
    for g in kernel_corpus():
        for p0 in g.states:
            for low_memory in (False, True):
                assert solve_ecg(g, p0, cap=cap, low_memory=low_memory) == \
                    reference_solve_ecg(g, p0, cap=cap, low_memory=low_memory), (g, p0)


def test_ecg_answers_match_reference_at_the_repeat_caps():
    # Each verdict is decided on the least repeat (j1, j2), not on the level
    # at which the cycle finder saw a repeat: No needs j2 < cap.
    checked = 0
    for g in kernel_corpus()[:100]:
        for p0 in g.states:
            for low_memory in (False, True):
                free = reference_solve_ecg(g, p0, low_memory=low_memory)
                if free.kind != "no":
                    continue
                j2 = free.repeat[1]
                for cap in (j2 - 1, j2, j2 + 1):
                    assert solve_ecg(g, p0, cap=cap, low_memory=low_memory) == \
                        reference_solve_ecg(g, p0, cap=cap, low_memory=low_memory), \
                        (g, p0, cap)
                checked += 1
    assert checked > 50


def test_solve_cg_jump_matches_streaming():
    for g in kernel_corpus()[:30]:
        ws = reference_levels(g, 400)
        for p0 in g.states[:2]:
            for n0 in range(401):
                assert solve_cg(g, p0, n0) == (p0 in ws[n0]), (g, p0, n0)


def test_solve_cg_jumps_over_the_cycle_at_a_binary_counter():
    g = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                      rules=[("p0", -2, "p_win")], target="p_win")
    with time_limit(1.0):
        assert solve_cg(g, "p0", 10 ** 18) is False
        assert solve_cg(g, "p0", 2) is True
        assert solve_cg(g, "p_win", 10 ** 18) is False
        assert solve_cg(g, "p_win", 0) is True
    # p0 wins at every even counter from 2 on: two moves of its loop.
    loop = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                         rules=[("p0", -2, "p_win"), ("p0", -2, "p0")],
                         target="p_win")
    with time_limit(1.0):
        assert solve_cg(loop, "p0", 10 ** 18) is True
        assert solve_cg(loop, "p0", 10 ** 18 + 1) is False


def test_oversized_segment_is_refused():
    g = CountdownGame(states=["a", "b"], eve={"a"}, rules=[("a", -(2 ** 40), "b")],
                      target="b")
    assert g.max_decrement == 2 ** 40
    with time_limit(1.0), pytest.raises(MemoryError, match="countdown segment"):
        solve_cg(g, "a", 5)


def test_validation_reports_the_first_fault_in_the_old_order():
    # An unknown state in a late rule wins over a nonnegative delta in an
    # early one: every check of the base game runs before the deltas.
    with pytest.raises(GameError, match=r"^rule \('a',-1,'zz'\) references unknown"):
        CountdownGame(["a"], set(), [("a", 0, "a"), ("a", -1, "zz")], "a")
    # A missing target also wins over an early nonnegative delta.
    with pytest.raises(GameError, match=r"^target 'zz' is not a state"):
        CountdownGame(["a"], set(), [("a", 2, "a")], "zz")
    # Among the rules, the first faulty rule decides, whatever its fault.
    with pytest.raises(GameError, match=r"^rule delta 1.5 is not an integer"):
        CountdownGame(["a"], set(), [("a", 1.5, "a"), ("b", -1, "a")], "a")
    with pytest.raises(GameError, match=r"^countdown rule \('a',3,'a'\)"):
        CountdownGame(["a"], set(), [("a", -1, "a"), ("a", 3, "a"), ("a", 0, "a")], "a")


def test_validation_messages_match_reference_on_faulty_games():
    rng = random.Random(77)
    names = ["q0", "q1", "q2", "zz"]
    deltas = [-3, -1, 0, 2, 1.5, "x", True]
    checked = 0
    for _ in range(2000):
        states = rng.sample(names[:3], rng.randint(1, 3))
        if rng.random() < 0.1:
            states.append(states[0])
        eve = set(rng.sample(names, rng.randint(0, 2)))
        rules = [(rng.choice(names), rng.choice(deltas) if rng.random() < 0.3
                  else -rng.randint(1, 4), rng.choice(names))
                 for _ in range(rng.randint(0, 6))]
        target = rng.choice(names)
        for cls in (SocnRGame, CountdownGame):
            want = reference_game_error(states, eve, rules, target,
                                        cls is CountdownGame)
            if want is None:
                cls(states, eve, rules, target)
                continue
            with pytest.raises(GameError) as err:
                cls(states, eve, rules, target)
            assert str(err.value) == want
            checked += 1
    assert checked > 1000


def test_rules_from_lists_every_rule_in_order():
    rng = random.Random(99)
    games = kernel_corpus(60) + [random_socnrgame(rng) for _ in range(60)]
    for g in games:
        for q in g.states:
            assert g.rules_from(q) == [(z, to) for frm, z, to in g.rules if frm == q]
        with pytest.raises(KeyError):
            g.rules_from("not a state")
