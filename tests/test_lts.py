import functools
import random

import pytest

from ocn_gamelab import (Config, Lts, LtsError, Rule, Socn,
                         bounded_attacker_search, max_simulation, successors)

from oracles import brute_bisimulation, brute_rank, brute_simulation, random_lts


def chain(n):
    """a-chain of n transitions ending deadlocked: c0 -a-> c1 ... -a-> cn."""
    states = tuple(f"c{i}" for i in range(n + 1))
    return Lts(states=states, actions=("a",),
               transitions=tuple((f"c{i}", "a", f"c{i+1}") for i in range(n)))


def test_simulation_identity_loop():
    lts = Lts(states=("u",), actions=("a",), transitions=(("u", "a", "u"),))
    assert max_simulation(lts) == frozenset({("u", "u")})


def test_simulation_action_mismatch():
    lts = Lts(states=("u", "v"), actions=("a", "b"),
              transitions=(("u", "a", "u"), ("u", "b", "u"), ("v", "a", "v")))
    sim = max_simulation(lts)
    assert ("v", "u") in sim
    assert ("u", "v") not in sim


def test_simulation_two_state_chain():
    lts = chain(1)  # c0 -a-> c1, c1 deadlocked
    sim = max_simulation(lts)
    assert sim == frozenset({("c0", "c0"), ("c1", "c1"), ("c1", "c0")})


def test_bisimulation_two_loops():
    lts = Lts(states=("u", "v"), actions=("a",),
              transitions=(("u", "a", "u"), ("v", "a", "v")))
    bis = brute_bisimulation(lts)
    assert ("u", "v") in bis and ("v", "u") in bis


def test_bisimulation_chain_separates_levels():
    lts = chain(1)
    bis = brute_bisimulation(lts)
    assert bis == {("c0", "c0"), ("c1", "c1")}


def test_bisimulation_ignores_branching_count():
    lts = Lts(states=("u", "x1", "x2", "v", "y"), actions=("a",),
              transitions=(("u", "a", "x1"), ("u", "a", "x2"),
                           ("x1", "a", "x1"), ("x2", "a", "x2"),
                           ("v", "a", "y"), ("y", "a", "y")))
    assert ("u", "v") in brute_bisimulation(lts)


def rank(lts, s, t, budget=10):
    return bounded_attacker_search(lts.moves, lts.moves, (s, t), budget)


def test_sim_rank_action_mismatch_is_one():
    lts = Lts(states=("s", "t"), actions=("b",), transitions=(("s", "b", "s"),))
    assert rank(lts, "s", "t") == 1


def test_sim_rank_chain_two_vs_one():
    two = chain(2)
    both = Lts(states=two.states + ("d0", "d1", "u"), actions=("a",),
               transitions=two.transitions + (("d0", "a", "d1"), ("u", "a", "u")))
    assert rank(both, "c0", "d0") == 2
    assert rank(both, "u", "c0") == 3
    assert rank(both, "c0", "u") is None


def test_sim_rank_loop_vs_loop_infinite():
    lts = Lts(states=("u", "v"), actions=("a",),
              transitions=(("u", "a", "u"), ("v", "a", "v")))
    assert rank(lts, "u", "v", budget=50) is None


def test_bounded_search_counter_exhaustion():
    net = Socn(states=("p", "q"), actions=("a",),
               rules=(Rule("p", "a", 0, "p"), Rule("q", "a", -1, "q")))
    oracle = functools.partial(successors, net)
    got = bounded_attacker_search(oracle, oracle,
                                  (Config("p", 0), Config("q", 2)), 5)
    assert got == 3


def test_bounded_search_not_within_budget():
    lts = Lts(states=("u", "v"), actions=("a",),
              transitions=(("u", "a", "u"), ("v", "a", "v")))
    oracle = lts.moves
    assert bounded_attacker_search(oracle, oracle, ("u", "v"), 10) is None


def test_bounded_search_rank_one_with_budget_one():
    lts = Lts(states=("s", "t"), actions=("b",), transitions=(("s", "b", "s"),))
    oracle = lts.moves
    assert bounded_attacker_search(oracle, oracle, ("s", "t"), 1) == 1


def test_bounded_search_budget_zero():
    lts = Lts(states=("s", "t"), actions=("b",), transitions=(("s", "b", "s"),))
    oracle = lts.moves
    assert bounded_attacker_search(oracle, oracle, ("s", "t"), 0) is None


def test_duplicate_state_rejected():
    with pytest.raises(LtsError):
        Lts(states=("u", "u"), actions=("a",), transitions=())


def test_unknown_transition_endpoint_rejected():
    with pytest.raises(LtsError):
        Lts(states=("u",), actions=("a",), transitions=(("u", "a", "w"),))


def test_matches_brute_force_on_random_instances():
    rng = random.Random(1234)
    for _ in range(60):
        lts = random_lts(rng)
        assert max_simulation(lts) == frozenset(brute_simulation(lts))


def test_returned_simulation_is_a_simulation():
    rng = random.Random(99)
    for _ in range(30):
        lts = random_lts(rng)
        sim = max_simulation(lts)
        for s, t in sim:
            for a in lts.enabled_actions(s):
                for s2 in lts.successors(s, a):
                    assert any((s2, t2) in sim for t2 in lts.successors(t, a))


def test_bounded_search_equals_sim_rank_on_finite_lts():
    rng = random.Random(4321)
    for _ in range(40):
        lts = random_lts(rng, max_states=5)
        budget = len(lts.states) ** 2 + 1
        for s in lts.states:
            for t in lts.states:
                got = bounded_attacker_search(lts.moves, lts.moves, (s, t), budget)
                assert got == brute_rank(lts, s, t)
