import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocn_gamelab import (SeqDescription, SeqError, TuringMachine, decide_egsp,
                         decide_gsp, doubleexp_period_instance, eval_at,
                         eval_prefix, find_period, head_symbol, tm_to_seqdesc)
from ocn_gamelab.seqdesc import _counter_machine, _with_prologue

from oracles import (random_seqdesc, reference_decide_egsp, reference_find_period,
                     tm_rows)

BLANK = " "


def constant_a(m=3):
    return SeqDescription(alphabet=["#", BLANK, "A", "B"], hash_symbol="#",
                          blank=BLANK, rules={}, default="A", m=m)


def naive_prefix(d, count):
    out = [d.hash_symbol] + [d.blank] * d.m
    while len(out) < count:
        i = len(out)
        out.append(d.apply(out[i - d.m - 1], out[i - d.m], out[i - d.m + 1]))
    return out[:count]


def test_initial_segment():
    d = constant_a()
    assert eval_at(d, 0) == "#"
    assert eval_at(d, 2) == BLANK
    assert eval_prefix(d, 4) == ["#", BLANK, BLANK, BLANK]


def test_recurrence_kicks_in_after_the_blanks():
    d = constant_a()
    assert eval_at(d, 4) == "A"
    assert eval_at(d, 7) == "A"


def test_negative_position_rejected():
    with pytest.raises(SeqError):
        eval_at(constant_a(), -1)


def test_validation_rejects_bad_descriptions():
    with pytest.raises(SeqError):
        SeqDescription(["#", BLANK], "#", BLANK, {}, "#", m=2)
    with pytest.raises(SeqError):
        SeqDescription(["#", "#"], "#", "#", {}, "#", m=3)
    with pytest.raises(SeqError):
        SeqDescription(["#", BLANK], "#", BLANK, {("#", BLANK): "#"}, "#", m=3)


def test_streaming_matches_naive_recurrence():
    rng = random.Random(424242)
    for _ in range(30):
        d = random_seqdesc(rng)
        n = rng.randrange(50, 2000)
        assert eval_prefix(d, n) == naive_prefix(d, n)


def test_find_period_constant_tail():
    pa = find_period(constant_a(), cap=100)
    assert pa.kind == "found"
    assert (pa.start, pa.period) == (4, 1)
    d = constant_a()
    for i in range(pa.start, pa.start + 11):
        assert eval_at(d, i) == eval_at(d, i + pa.period)


def test_find_period_gives_up_at_cap():
    # The counter machine's word has a long preperiod; a tiny cap loses.
    d = doubleexp_period_instance(1)
    assert find_period(d, cap=10).kind == "inconclusive"


def differential_words() -> list:
    rng = random.Random(1919)
    return ([random_seqdesc(rng) for _ in range(300)]
            + [doubleexp_period_instance(1), doubleexp_period_instance(2)])


def test_period_and_egsp_match_the_window_tables():
    for d in differential_words():
        least = reference_find_period(d, 10 ** 6)
        end = least.start + least.period
        for cap in sorted({-1, 0, 1, 2, 5, end - 1, end, end + 1}):
            assert find_period(d, cap) == reference_find_period(d, cap), (d, cap)
            for beta in d.alphabet:
                assert decide_egsp(d, beta, cap) == reference_decide_egsp(d, beta, cap), \
                    (d, beta, cap)


def test_eval_at_matches_the_stream_across_the_jump():
    # Up to 3 (start + period) + m covers the positions below, at and past
    # the cycle finder's detection, where the jump is 0 steps or more.
    for d in differential_words():
        least = reference_find_period(d, 10 ** 6)
        count = 3 * (least.start + least.period) + d.m
        assert [eval_at(d, i) for i in range(count)] == eval_prefix(d, count), d


def test_gsp_queries():
    d = constant_a()
    assert decide_gsp(d, 4, "A") is True
    assert decide_gsp(d, 2, "A") is False
    assert decide_gsp(d, 0, "#") is True
    with pytest.raises(SeqError):
        decide_gsp(d, 0, "Z")


def test_egsp_queries():
    d = constant_a()
    yes = decide_egsp(d, "A", cap=100)
    assert yes.kind == "yes" and yes.witness == 4
    assert decide_egsp(d, "#", cap=100).witness == 0
    # B is in the alphabet but no rule ever produces it.
    assert decide_egsp(d, "B", cap=100).kind == "no"
    assert decide_egsp(d, "B", cap=1).kind == "inconclusive"
    with pytest.raises(SeqError):
        decide_egsp(d, "Z", cap=10)


def mover_machine():
    """Two states: the start hands over to h, which walks right forever."""
    blank = BLANK
    states = ["s", "h", "acc", "rej"]
    delta = {}
    for q in states:
        delta[(q, blank)] = (q, blank, 0)
    delta[("s", blank)] = ("h", blank, 1)
    delta[("h", blank)] = ("h", blank, 1)
    for q in ("acc", "rej"):
        delta[(q, blank)] = (q, blank, 0)
    return TuringMachine(states=states, start="s", accept="acc", reject="rej",
                         input_alphabet=[], tape_alphabet=[blank], blank=blank,
                         delta=delta)


def test_machine_word_rows_by_hand():
    d = tm_to_seqdesc(mover_machine(), "", 4)
    assert d.m == 4
    h = head_symbol("s", BLANK, "h", BLANK)
    assert h == "[h| ]"
    b = BLANK
    assert eval_prefix(d, 16) == [
        "#", b, b, b,
        b, h, b, b,
        b, b, h, b,
        b, b, b, h,
    ]


def test_machine_word_matches_direct_run():
    machine = _counter_machine(1)
    m = 2 ** 1 + 2
    d = tm_to_seqdesc(machine, "", m)
    rows = tm_rows(machine, m, 50)
    flat = [sym for row in rows for sym in row]
    assert eval_prefix(d, len(flat)) == flat


def test_machine_word_with_input_prologue():
    machine = _counter_machine(1)
    full, start = _with_prologue(machine, "")
    assert (full, start) == (machine, machine.start)


def acceptor_machine():
    """Accepts iff cell 1 holds the letter a; otherwise rejects."""
    blank = BLANK
    states = ["r0", "acc", "rej"]
    delta = {
        ("r0", blank): ("rej", blank, 0),
        ("r0", "a"): ("acc", "a", 0),
        ("acc", blank): ("acc", blank, 0),
        ("acc", "a"): ("acc", "a", 0),
        ("rej", blank): ("rej", blank, 0),
        ("rej", "a"): ("rej", "a", 0),
    }
    return TuringMachine(states=states, start="r0", accept="acc",
                         reject="rej", input_alphabet=["a"],
                         tape_alphabet=[blank, "a"], blank=blank, delta=delta)


def test_acceptance_visible_in_the_word():
    d = tm_to_seqdesc(acceptor_machine(), "a", 4)
    ans = decide_egsp(d, "[acc|a]", cap=500)
    assert ans.kind == "yes" and ans.witness == 17
    # The rejecting state is never entered on this input.
    assert decide_egsp(d, "[rej|a]", cap=500).kind == "no"
    assert decide_egsp(d, f"[rej|{BLANK}]", cap=500).kind == "no"


def test_tm_to_seqdesc_guards():
    with pytest.raises(SeqError):
        tm_to_seqdesc(acceptor_machine(), "a", 1)
    with pytest.raises(SeqError):
        tm_to_seqdesc(acceptor_machine(), "aaaa", 4)
    with pytest.raises(SeqError):
        tm_to_seqdesc(acceptor_machine(), "b", 6)


def test_counter_word_period_grows_doubly_exponentially():
    d1 = doubleexp_period_instance(1)
    pa = find_period(d1, cap=2000)
    assert pa.kind == "found"
    assert pa.period % d1.m == 0
    assert pa.period == 172
    quotient = pa.period // d1.m
    assert quotient == 43
    assert quotient >= 2 ** (2 ** 1)
    # The hash marks the restart rows and nothing else.
    hits = [i for i in range(3 * pa.period + 1)
            if eval_at(d1, i) == d1.hash_symbol]
    assert hits == [0, pa.period, 2 * pa.period, 3 * pa.period]


def test_counter_word_period_level_two():
    d2 = doubleexp_period_instance(2)
    pa = find_period(d2, cap=5000)
    assert pa.kind == "found"
    assert pa.period == 1206
    assert pa.period // d2.m >= 2 ** (2 ** 2)


def test_counter_word_period_level_three():
    d3 = doubleexp_period_instance(3)
    pa = find_period(d3, cap=200000)
    assert pa.kind == "found"
    assert pa.period == 47170
    assert pa.period // d3.m >= 2 ** (2 ** 3)


@st.composite
def generated_descriptions(draw):
    alphabet = tuple(["#", BLANK] + list(draw(st.sampled_from(["", "A", "AB"]))))
    m = draw(st.integers(3, 6))
    triple = st.tuples(*[st.sampled_from(alphabet)] * 3)
    rules = draw(st.dictionaries(triple, st.sampled_from(alphabet), max_size=10))
    default = draw(st.sampled_from(alphabet))
    return SeqDescription(alphabet, "#", BLANK, rules, default, m)


@given(generated_descriptions(), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_prefix_evaluation_matches_naive_reference(d, count):
    assert eval_prefix(d, count) == naive_prefix(d, count)
    assert eval_at(d, count - 1) == naive_prefix(d, count)[-1]
