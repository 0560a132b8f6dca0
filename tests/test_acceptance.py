"""End-to-end acceptance checks for the toolchain.

Each test exercises one headline property of the package across module
boundaries: the word games spell out their sequences, reachability
games embed into simulation on the mimicking system, the constructed
nets behave cell-for-cell like their defining clauses, belts and
certificates describe the drain net exactly, coloring agrees with the
direct attacker search on an exhaustive family of small nets, vector
travel always reaches an axis, restart periods grow doubly
exponentially, and every byte the CLI emits is reproducible.

On success each test prints one `ACCEPTANCE n: PASS ...` line (run
pytest with -s to see them alongside the verdicts).
"""

import functools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ocn_gamelab import (Config, CountdownGame, InputDocument, Rule,
                         SeqDescription, Socn, TuringMachine,
                         bounded_attacker_search, build_certificate,
                         classify_and_fit, color_planes,
                         decide_sim, dedup_rules, detect_belt_period,
                         doubleexp_period_instance, eval_at, eval_prefix,
                         expand_region, find_period, frontier,
                         max_simulation,
                         rgame_to_mimicking_lts, seqdesc_to_countdown,
                         serialize_document, socnrgame_to_socn, solve_cg,
                         solve_ecg, successors, verify_certificate_explain,
                         winning_area)
from ocn_gamelab.cli import main
from ocn_gamelab.countdown import _Kernel, _levels

from oracles import (brute_bisimulation, canonical_unary_nets, expected_net_successors,
                     is_one_step_closed, mimicking_bisim_witness, random_countdown,
                     random_rgame, random_seqdesc, random_socnrgame, random_unary_net,
                     recursive_cg, sink_winning_area, trace_vector_travel)

BLANK = " "


def announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def levels_upto(game, upto):
    """W(0), ..., W(upto) as sets of state names."""
    return [frozenset(game.states[i] for i in np.flatnonzero(segment[-1]))
            for _, segment, _ in _levels(_Kernel(game), limit=upto)]


# ---------------------------------------------------------------------------
# 1. The countdown game built from a sequence description decides the
#    word, position by position and symbol by symbol.


def test_criterion_01_word_game_tracks_the_sequence():
    rng = random.Random(101)
    claims = 0
    for _ in range(100):
        d = random_seqdesc(rng)
        game, sym = seqdesc_to_countdown(d)
        word = eval_prefix(d, 51)
        ws = levels_upto(game, 52)
        for state in sym.values():
            assert not solve_cg(game, state, 0)
            assert not solve_cg(game, state, 1)
        for k in range(51):
            for beta, state in sym.items():
                assert (state in ws[k + 2]) == (word[k] == beta), (d, k, beta)
                claims += 1
        # The level stream is the batch face of the solver; pin the
        # single-query entry point at the far edge of the window too.
        for beta, state in sym.items():
            assert solve_cg(game, state, 52) == (word[50] == beta)
    announce(1, f"{claims} position claims over 100 descriptions, "
                "k <= 50, all symbols")


# ---------------------------------------------------------------------------
# 2. House states of the word game.  The blank fact pins the full
#    winning set only when the word never returns to the blank after
#    its opening run, so the corpus here keeps blank out of the rule
#    outputs; the general blank law is re-checked at the end on a
#    description whose tail is all blanks.


def blankfree_seqdesc(rng):
    extra = ["A", "B"][:rng.randint(1, 2)]
    alphabet = tuple(["#", BLANK] + extra)
    m = rng.randint(3, 6)
    out_pool = [s for s in alphabet if s != BLANK]
    rules = {}
    for _ in range(rng.randint(0, 3 * len(alphabet))):
        triple = tuple(rng.choice(alphabet) for _ in range(3))
        rules[triple] = rng.choice(out_pool)
    return SeqDescription(alphabet, "#", BLANK, rules,
                          rng.choice(out_pool), m)


def test_criterion_02_house_states_of_the_word_game():
    rng = random.Random(202)
    for _ in range(20):
        d = blankfree_seqdesc(rng)
        game, sym = seqdesc_to_countdown(d)
        m = d.m
        horizon = 4 * m + 12
        ws = levels_upto(game, horizon)
        for k in range(horizon + 1):
            assert ("p_win" in ws[k]) == (k == 0)
            assert "p_bad" not in ws[k]
            assert ("p1" in ws[k]) == (k >= 1)
            assert ("p2" in ws[k]) == (2 <= k <= m + 1)
        assert sym["#"] in ws[2]
        word = eval_prefix(d, horizon)
        for k in range(horizon - 2):
            assert (word[k] == BLANK) == (1 <= k <= m)
            assert (sym[BLANK] in ws[k + 2]) == (1 <= k <= m)
    d = SeqDescription(("#", BLANK), "#", BLANK, {}, BLANK, 3)
    game, sym = seqdesc_to_countdown(d)
    ws = levels_upto(game, 12)
    for k in range(10):
        assert (sym[BLANK] in ws[k + 2]) == (eval_at(d, k) == BLANK)
    announce(2, "house-state winning sets pinned on 20 games, "
                "blank law confirmed on an all-blank tail")


# ---------------------------------------------------------------------------
# 3. Winning a reachability game is the same as escaping simulation
#    between the two copies in the mimicking system, and losing is the
#    same as the copies being bisimilar.  The dodge relation is an
#    explicit bisimulation witness for the losing side.


def test_criterion_03_reachability_games_embed_into_simulation():
    rng = random.Random(303)
    vertices = 0
    for _ in range(200):
        game = random_rgame(rng)
        wa = winning_area(game)
        ml = rgame_to_mimicking_lts(game)
        sim = max_simulation(ml.lts)
        bis = brute_bisimulation(ml.lts)
        losing = set()
        for v in game.vertices:
            copies = (ml.plain[v], ml.primed[v])
            win = wa.is_winning(v)
            assert win == (copies not in sim), (game, v)
            assert (not win) == (copies in bis), (game, v)
            if not win:
                losing.add(v)
            vertices += 1
        rel = mimicking_bisim_witness(game, ml, losing)
        assert all((t, s) in rel for (s, t) in rel)
        assert is_one_step_closed(ml.lts, rel)
    announce(3, f"{vertices} vertices over 200 games, both directions, "
                "witness relations one-step closed")


# ---------------------------------------------------------------------------
# 4. The streaming window solver agrees with explicit region expansion,
#    and every No verdict of the existential solver carries a checked
#    segment-repeat witness that brute enumeration confirms.


def test_criterion_04_window_solver_cross_checks():
    rng = random.Random(404)
    for _ in range(100):
        game = random_countdown(rng)
        n0 = rng.randrange(0, 61)
        wa = winning_area(expand_region(game, n0))
        for q in game.states:
            assert solve_cg(game, q, n0) == wa.is_winning((q, n0)), (game, q, n0)
    rng = random.Random(405)
    verified_no = 0
    for _ in range(60):
        game = random_countdown(rng)
        for p0 in game.states:
            ans = solve_ecg(game, p0)
            if ans.kind == "yes":
                assert solve_cg(game, p0, ans.n)
                continue
            assert ans.kind == "no"
            j1, j2 = ans.repeat
            assert j1 < j2
            m = game.max_decrement
            ws = levels_upto(game, j2)
            assert ws[max(j1 - m + 1, 0):j1 + 1] == ws[j2 - m + 1:j2 + 1]
            for n in range(j2 + 1):
                assert not recursive_cg(game, p0, n)
            verified_no += 1
    assert verified_no >= 20
    announce(4, f"100 games against region expansion, {verified_no} "
                "No witnesses verified and brute-confirmed")


# ---------------------------------------------------------------------------
# 5. The net built from a counter reachability game has exactly the
#    transitions its clauses prescribe, and winning configurations are
#    refuted between the two copies within the promised move budget.


def test_criterion_05_net_construction_cells_and_refutations():
    rng = random.Random(505)
    cells = 0
    refuted = 0
    for _ in range(50):
        game = random_socnrgame(rng)
        ded = dedup_rules(game)
        net = socnrgame_to_socn(ded)
        oracle = functools.partial(successors, net)
        for cfg, succs in expected_net_successors(ded, 30).items():
            assert set(oracle(cfg)) == succs, cfg
            cells += 1
        # Inside a box of 80 a rank cap of 15 with deltas of at most 4
        # never touches the sink from counters up to 12, so the sink
        # ranks below are the true game ranks for the checked set.
        area = sink_winning_area(ded, 80)
        memo = {}
        for (q, k), r in sorted(area.items()):
            if r > 15 or k > 12:
                continue
            found = bounded_attacker_search(
                oracle, oracle, (Config(q, k), Config(q + "'", k)), 32,
                _memo=memo)
            assert found is not None and found <= 2 * r + 2, (game, q, k, r)
            refuted += 1
    assert refuted >= 150
    announce(5, f"{cells} configuration cells matched, {refuted} winning "
                "configurations refuted within twice their rank plus two")


# ---------------------------------------------------------------------------
# 6. The drain net's (p,q) plane is the half-plane n >= 2m: frontier,
#    slanted fit, period, certificate, and both decision directions.


def drain_net():
    return Socn(states=("p", "p1", "q", "q1"), actions=("a", "b"),
                rules=(Rule("p", "a", -1, "p1"), Rule("p1", "b", 0, "p"),
                       Rule("q", "a", -1, "q1"), Rule("q1", "b", -1, "q")))


def test_criterion_06_drain_net_belt_structure():
    net = drain_net()
    t0 = time.perf_counter()
    cols = color_planes(net, 40, 20)
    pq = cols[("p", "q")]
    for m in range(20):
        for n in range(20):
            assert (pq.white[m, n] == 0) == (n >= 2 * m), (m, n)
    assert frontier(pq).values == [n // 2 for n in range(20)]
    fits = classify_and_fit({pl: frontier(c) for pl, c in cols.items()})
    fit = fits[("p", "q")]
    assert fit.kind == "SF"
    assert fit.alpha == Fraction(1, 2)
    assert detect_belt_period(pq, fit) == (1, 2)
    periods = {pl: detect_belt_period(cols[pl], f)
               for pl, f in fits.items() if f.kind == "SF"}
    cert = build_certificate(cols, periods)
    assert verify_certificate_explain(net, cert)[0]
    yes = decide_sim(net, "p", 3, "q", 6)
    assert yes.kind == "yes"
    assert verify_certificate_explain(net, yes.certificate)[0]
    no = decide_sim(net, "p", 3, "q", 5)
    assert no.kind == "no"
    # Ranks count single moves and each descent costs an a move and a
    # b move, so the three-descent refutation takes six.
    assert no.rank == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(6, f"half-plane coloring, frontier n//2, SF slope 1/2, "
                f"period (1,2), certificate verified, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 7. On an exhaustive family of small unary nets (and a wider random
#    stratum) the plane coloring agrees cell-for-cell with the direct
#    bounded attacker search, and every plane is monotone.


def assert_coloring_exact_and_monotone(net, rank_bound, view):
    cols = color_planes(net, rank_bound, view)
    oracle = functools.partial(successors, net)
    memo = {}
    cells = 0
    for (p, q), col in cols.items():
        black = col.interior_view() == 0
        assert np.all(black[1:, :] <= black[:-1, :]), (net.rules, p, q)
        assert np.all(black[:, :-1] <= black[:, 1:]), (net.rules, p, q)
        for m in range(col.interior):
            for n in range(col.interior):
                found = bounded_attacker_search(
                    oracle, oracle, (Config(p, m), Config(q, n)),
                    rank_bound, _memo=memo)
                assert found == col.rank(m, n), (net.rules, p, q, m, n)
                cells += 1
    return cells


def test_criterion_07_coloring_matches_attacker_search_exhaustively():
    strata = [(1, 4, 74), (2, 3, 772), (3, 2, 144)]
    cells = 0
    count = 0
    for n_states, max_rules, expected in strata:
        nets = canonical_unary_nets(n_states, max_rules)
        assert len(nets) == expected
        for net in nets:
            cells += assert_coloring_exact_and_monotone(net, 16, 8)
            count += 1
    rng = random.Random(707)
    for _ in range(120):
        net = random_unary_net(rng)
        cells += assert_coloring_exact_and_monotone(net, 24, 12)
        count += 1
    announce(7, f"{cells} cells across {count} nets (exhaustive strata "
                "plus 120 random), ranks exact, planes monotone")


# ---------------------------------------------------------------------------
# 8. Every vector from a black cell to a white cell travels to an axis
#    with strictly decreasing white ranks.


def test_criterion_08_vector_travel_reaches_an_axis():
    rng = random.Random(808)
    travels = 0
    for _ in range(30):
        net = random_unary_net(rng)
        cols = color_planes(net, 24, 6)
        for pl, col in cols.items():
            span = range(col.interior)
            blacks = [(m, n) for m in span for n in span
                      if col.white[m, n] == 0]
            whites = [(m, n) for m in span for n in span
                      if col.white[m, n] > 0]
            for b in blacks:
                for w in whites:
                    tr = trace_vector_travel(net, cols, pl, b, w)
                    ranks = [int(col.white[w])]
                    ranks += [s.white_rank for s in tr.steps]
                    assert all(x > y for x, y in zip(ranks, ranks[1:]))
                    fm, _ = tr.steps[-1].start if tr.steps else b
                    _, fn2 = tr.steps[-1].end if tr.steps else w
                    assert fm == 0 or fn2 == 0, (net.rules, pl, b, w)
                    travels += 1
    assert travels >= 5000
    announce(8, f"{travels} vectors travelled to an axis with strictly "
                "decreasing white ranks")


# ---------------------------------------------------------------------------
# 9. The restart period of the counter-word instances grows doubly
#    exponentially in the instance size.


def test_criterion_09_restart_period_growth():
    t0 = time.perf_counter()
    d1 = doubleexp_period_instance(1)
    pa1 = find_period(d1, cap=2000)
    assert pa1.kind == "found"
    assert pa1.period % d1.m == 0
    rows1 = pa1.period // d1.m
    assert rows1 >= 2 ** (2 ** 1)
    hits = [i for i in range(3 * pa1.period + 1)
            if eval_at(d1, i) == d1.hash_symbol]
    assert hits == [0, pa1.period, 2 * pa1.period, 3 * pa1.period]
    d2 = doubleexp_period_instance(2)
    pa2 = find_period(d2, cap=5000)
    assert pa2.kind == "found"
    rows2 = pa2.period // d2.m
    assert rows2 >= 2 ** (2 ** 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(9, f"row periods {rows1} and {rows2} beat 4 and 16, "
                f"restarts exactly periodic, {elapsed:.1f}s")


def test_criterion_09_level_three():
    d3 = doubleexp_period_instance(3)
    pa = find_period(d3, cap=200000)
    assert pa.kind == "found"
    assert pa.period // d3.m >= 2 ** (2 ** 3)
    announce("9 (level 3)", f"row period {pa.period // d3.m}")


# ---------------------------------------------------------------------------
# 10. Every byte the CLI emits, on stdout or into files, is identical
#     across two consecutive runs.


def write_doc(path, kind, value):
    path.write_bytes(serialize_document(InputDocument(kind, value)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_10_reruns_are_byte_identical(capsys, tmp_path):
    net_doc = write_doc(tmp_path / "net.json", "socn", drain_net())
    cg_doc = write_doc(tmp_path / "cg.json", "countdown", CountdownGame(
        states=["p0", "p_win"], eve={"p0"}, rules=[("p0", -2, "p_win")],
        target="p_win"))
    hopeless_doc = write_doc(tmp_path / "hopeless.json", "countdown",
                             CountdownGame(states=["p0", "p_win"], eve={"p0"},
                                           rules=[("p0", -2, "p0")],
                                           target="p_win"))
    seq_doc = write_doc(tmp_path / "seq.json", "seqdesc", SeqDescription(
        alphabet=["#", BLANK, "A"], hash_symbol="#", blank=BLANK,
        rules={}, default="A", m=3))
    tm_doc = write_doc(tmp_path / "tm.json", "tm", TuringMachine(
        states=["r0", "acc", "rej"], start="r0", accept="acc", reject="rej",
        input_alphabet=["a"], tape_alphabet=[BLANK, "a"], blank=BLANK,
        delta={("r0", BLANK): ("rej", BLANK, 0), ("r0", "a"): ("acc", "a", 0),
               ("acc", BLANK): ("acc", BLANK, 0), ("acc", "a"): ("acc", "a", 0),
               ("rej", BLANK): ("rej", BLANK, 0), ("rej", "a"): ("rej", "a", 0)}))

    stdout_cmds = [
        ("cg", "solve", "--game", cg_doc, "--state", "p0", "--n", "2"),
        ("cg", "solve", "--game", cg_doc, "--state", "p0", "--n", "3"),
        ("ecg", "solve", "--game", cg_doc, "--state", "p0"),
        ("ecg", "solve", "--game", hopeless_doc, "--state", "p0"),
        ("ecg", "solve", "--game", hopeless_doc, "--state", "p0",
         "--cap", "1"),
        ("seq", "eval", "--desc", seq_doc, "--i", "4"),
        ("seq", "period", "--desc", seq_doc),
        ("seq", "gsp", "--desc", seq_doc, "--n0", "4", "--symbol", "A"),
        ("seq", "egsp", "--desc", seq_doc, "--symbol", "A"),
        ("sim", "check", "--net", net_doc, "--left", "p:3", "--right", "q:6"),
        ("sim", "check", "--net", net_doc, "--left", "p:3", "--right", "q:5"),
        ("sim", "plane", "--net", net_doc, "--left", "p", "--right", "q",
         "--view", "8"),
        ("sim", "belts", "--net", net_doc),
    ]
    for argv in stdout_cmds:
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv), argv
    assert run_cli(capsys, *stdout_cmds[0]) == (0, "WIN\n", "")

    def battery(sink):
        sink.mkdir()
        cmds = [
            ("reduce", "seq2cg", "--desc", seq_doc,
             "--out", str(sink / "word_game.json")),
            ("reduce", "ecg2rg", "--game", cg_doc, "--state", "p0",
             "--out", str(sink / "pumped.json")),
            ("reduce", "rg2socn", "--game", str(sink / "pumped.json"),
             "--out", str(sink / "net_of_game.json")),
            ("reduce", "tm2seq", "--machine", tm_doc, "--input", "a",
             "--m", "4", "--out", str(sink / "desc_of_tm.json")),
            ("sim", "certify", "--net", net_doc,
             "--out", str(sink / "cert.json")),
            ("render", "plane", "--net", net_doc, "--left", "p",
             "--right", "q", "--view", "6", "--out", str(sink / "pq.pgm")),
            ("render", "all", "--net", net_doc, "--dir", str(sink / "imgs"),
             "--view", "6"),
        ]
        for argv in cmds:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
        out = {}
        for path in sorted(sink.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(sink))] = path.read_bytes()
        return out

    first = battery(tmp_path / "one")
    second = battery(tmp_path / "two")
    assert first == second
    assert len(first) >= 20
    announce(10, f"{len(stdout_cmds)} commands and {len(first)} written "
                 "files byte-identical across two runs")
