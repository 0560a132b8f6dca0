import copy
import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from ocn_gamelab import (INF, BeltCertificate, Config, InvariantError,
                         MalformedCertificateError, NetError, PlaneBelt, PlaneColoring,
                         ResourceGuardError, Rule, Socn,
                         belt_periods, bounded_attacker_search, build_certificate,
                         certify_colorings, classify_and_fit, color_planes,
                         decide_sim, detect_belt_period, frontier,
                         successors, verify_certificate_explain)
from ocn_gamelab import ocnsim
from ocn_gamelab.ocnsim import (_BLACK, _assert_interior_monotone, _query_rank,
                                _threshold_rounds)

import numpy as np

from oracles import (big_delta_certificate, canonical_unary_nets, grid_color_planes,
                     prime_period_certificate, random_succinct_net, random_unary_net,
                     reference_reachable_offsets, reference_threshold_rounds,
                     tall_certificate, time_limit, trace_vector_travel)


def drain_net():
    """p cycles on one decrement per a/b round, q on two."""
    return Socn(states=("p", "p1", "q", "q1"), actions=("a", "b"),
                rules=(Rule("p", "a", -1, "p1"), Rule("p1", "b", 0, "p"),
                       Rule("q", "a", -1, "q1"), Rule("q1", "b", -1, "q")))


def loop_net():
    """p loops for free, q pays one per step."""
    return Socn(states=("p", "q"), actions=("a",),
                rules=(Rule("p", "a", 0, "p"), Rule("q", "a", -1, "q")))


def fits_of(cols):
    return classify_and_fit({pl: frontier(c) for pl, c in cols.items()})


def test_successor_enumeration():
    net = drain_net()
    assert successors(net, Config("p", 0)) == []
    assert successors(net, Config("p", 2)) == [("a", Config("p1", 1))]
    assert successors(net, Config("p1", 0)) == [("b", Config("p", 0))]


def test_color_planes_rejects_bad_parameters():
    with pytest.raises(NetError):
        color_planes(drain_net(), 0, 16)
    with pytest.raises(NetError):
        color_planes(drain_net(), 32, 0)


def test_cell_budget_guard():
    with pytest.raises(ResourceGuardError):
        color_planes(drain_net(), 32, 16, cell_budget=100)


def test_drain_interior_is_the_halfplane():
    cols = color_planes(drain_net(), 32, 16)
    pq = cols[("p", "q")]
    for m in range(16):
        for n in range(16):
            assert (pq.white[m, n] == 0) == (n >= 2 * m)


def test_drain_low_white_ranks():
    cols = color_planes(drain_net(), 32, 16)
    assert cols[("p", "q")].white[1, 1] == 2
    assert cols[("p1", "q1")].white[0, 0] == 1


def test_rank_rejects_cells_outside_the_coloring():
    pq = color_planes(drain_net(), 32, 16)[("p", "q")]
    g = 16 + 32
    assert pq.rank(1, 1) == 2 and pq.rank(0, g - 1) is None
    for m, n in ((-1, 0), (3, -1), (g, 0), (0, g), (-1, -1)):
        with pytest.raises(NetError, match="outside the coloring"):
            pq.rank(m, n)


def test_monotone_check_rejects_decreasing_black_counts():
    # A plane is one threshold per row, so its rows are black prefixes of
    # m and left-closure holds by construction; up-closure is what the
    # check has left to catch.
    falling = PlaneColoring("p", "q", np.array([2, 3, 1, 4]), 4, 8, 1)
    with pytest.raises(InvariantError, match="black not up-closed"):
        _assert_interior_monotone({("p", "q"): falling})
    # Only the interior counts: thresholds past it are clipped to the view.
    clipped = PlaneColoring("p", "q", np.array([1, 2, 9, 5, 0]), 4, 8, 1)
    _assert_interior_monotone({("p", "q"): clipped})


def test_drain_frontier_and_fit():
    cols = color_planes(drain_net(), 32, 16)
    fr = frontier(cols[("p", "q")])
    assert fr.values == [n // 2 for n in range(16)]
    fit = fits_of(cols)[("p", "q")]
    assert fit.kind == "SF"
    assert fit.alpha == Fraction(1, 2)
    assert fit.band == (Fraction(-1, 2), Fraction(0, 1))
    assert fit.period_hint == (1, 2)
    assert fit.step == 3


def test_drain_belt_periods():
    cols = color_planes(drain_net(), 32, 16)
    fits = fits_of(cols)
    assert detect_belt_period(cols[("p", "q")], fits[("p", "q")]) == (1, 2)
    assert detect_belt_period(cols[("q", "p")], fits[("q", "p")]) == (2, 1)


def test_drain_certificate_verifies():
    cols = color_planes(drain_net(), 32, 16)
    fits = fits_of(cols)
    periods = {pl: detect_belt_period(cols[pl], f)
               for pl, f in fits.items() if f.kind == "SF"}
    cert = build_certificate(cols, periods)
    assert verify_certificate_explain(drain_net(), cert)[0]
    assert cert.covers("p", 3, "q", 6)
    assert not cert.covers("p", 3, "q", 5)
    # The pipeline entry point runs exactly these stages.
    assert belt_periods(cols) == (fits, periods)
    decision = certify_colorings(drain_net(), cols)
    assert decision.kind == "yes" and decision.certificate == cert


def test_steep_belt_survives_view_censoring():
    # Plane (q,p) has slope 2: its frontier leaves a 16-view at row 8,
    # so the upper rows are fully black in the view.  The fit must
    # come from the uncensored rows and the certificate must continue
    # the belt through the censored ones instead of claiming black rows.
    cols = color_planes(drain_net(), 32, 16)
    fit = fits_of(cols)[("q", "p")]
    assert fit.kind == "SF"
    assert fit.alpha == Fraction(2, 1)
    periods = {pl: detect_belt_period(cols[pl], f)
               for pl, f in fits_of(cols).items() if f.kind == "SF"}
    cert = build_certificate(cols, periods)
    belt = cert.planes[("q", "p")]
    assert belt.base == [2 * n for n in range(16)]
    assert cert.frontier_at(("q", "p"), 30) == 60
    assert verify_certificate_explain(drain_net(), cert)[0]


def test_drain_decide_sim_both_ways():
    net = drain_net()
    yes = decide_sim(net, "p", 3, "q", 6)
    assert yes.kind == "yes"
    assert verify_certificate_explain(net, yes.certificate)[0]
    no = decide_sim(net, "p", 3, "q", 5)
    assert no.kind == "no"
    assert no.rank == 6


def test_decide_sim_unknown_when_uncovered():
    # With the refutation search disabled the white query cell is
    # simply not covered by the certificate: Unknown, with the cell
    # reported in the diagnostics.
    unk = decide_sim(drain_net(), "p", 3, "q", 5, budget=0)
    assert unk.kind == "unknown"
    assert unk.diagnostics["uncovered"] == ("p", 3, "q", 5)


def test_drain_travel_example():
    net = drain_net()
    cols = color_planes(net, 32, 16)
    tr = trace_vector_travel(net, cols, ("p", "q"), (1, 2), (1, 1))
    assert len(tr.steps) == 1
    step = tr.steps[0]
    assert step.plane == ("p1", "q1")
    assert step.start == (0, 1)
    assert step.end == (0, 0)
    assert step.white_rank == 1
    assert step.action == "a"
    assert tr.mismatch_action == "b"


def test_travel_rejects_wrongly_colored_endpoints():
    net = drain_net()
    cols = color_planes(net, 32, 16)
    with pytest.raises(NetError):
        trace_vector_travel(net, cols, ("p", "q"), (1, 1), (1, 2))
    with pytest.raises(NetError):
        trace_vector_travel(net, cols, ("p", "q"), (1, 2), (0, 30))


def test_travel_walks_past_one_move_beyond_the_interior():
    # Two climbing rules push both endpoints two cells up each counter
    # before the drain loop walks them back down to the axis; the second
    # step reads (7,3), two moves past the 6 x 6 interior.
    rules = []
    for s in "pq":
        rules += [Rule(f"{s}0", "a", 1, f"{s}1"), Rule(f"{s}1", "a", 1, f"{s}2"),
                  Rule(f"{s}2", "b", -1, f"{s}2")]
    net = Socn(states=("p0", "p1", "p2", "q0", "q1", "q2"), actions=("a", "b"),
               rules=tuple(rules))
    cols = color_planes(net, 24, 6)
    tr = trace_vector_travel(net, cols, ("p0", "q0"), (1, 5), (5, 1))
    assert [(s.plane, s.start, s.end, s.white_rank, s.action) for s in tr.steps] == [
        (("p1", "q1"), (2, 6), (6, 2), 5, "a"),
        (("p2", "q2"), (3, 7), (7, 3), 4, "a"),
        (("p2", "q2"), (2, 6), (6, 2), 3, "b"),
        (("p2", "q2"), (1, 5), (5, 1), 2, "b"),
        (("p2", "q2"), (0, 4), (4, 0), 1, "b"),
    ]
    assert tr.mismatch_action == "b"


def test_all_white_plane_counts_defender_fuel():
    cols = color_planes(loop_net(), 24, 12)
    pq = cols[("p", "q")]
    for m in range(12):
        for n in range(12):
            assert pq.white[m, n] == n + 1
    fit = fits_of(cols)[("p", "q")]
    assert fit.kind == "VF"
    assert fit.level == -1


def test_all_black_plane_is_a_degenerate_belt():
    cols = color_planes(loop_net(), 24, 12)
    qp = cols[("q", "p")]
    assert not qp.white.any()
    fit = fits_of(cols)[("q", "p")]
    assert fit.kind == "HF"
    assert fit.inf_from == 0
    assert detect_belt_period(qp, fit) == (1, 1)


def test_loop_net_certificate():
    net = loop_net()
    cols = color_planes(net, 24, 12)
    fits = fits_of(cols)
    periods = {pl: detect_belt_period(cols[pl], f)
               for pl, f in fits.items() if f.kind == "SF"}
    cert = build_certificate(cols, periods)
    assert verify_certificate_explain(net, cert)[0]
    assert cert.covers("q", 7, "p", 0)
    assert not cert.covers("p", 0, "q", 7)
    assert decide_sim(net, "q", 7, "p", 0).kind == "yes"


def test_ruleless_net_is_all_black_and_verifies():
    net = Socn(states=("s",), actions=("a",), rules=())
    cols = color_planes(net, 8, 4)
    assert not cols[("s", "s")].white.any()
    cert = build_certificate(cols, {})
    assert verify_certificate_explain(net, cert)[0]
    assert cert.covers("s", 3, "s", 0)


def test_tampered_certificate_is_rejected_not_crashed():
    net = drain_net()
    cols = color_planes(net, 32, 16)
    fits = fits_of(cols)
    periods = {pl: detect_belt_period(cols[pl], f)
               for pl, f in fits.items() if f.kind == "SF"}
    cert = build_certificate(cols, periods)
    bad = copy.deepcopy(cert)
    # Push the (p,q) frontier one cell right: claims p(3) <= q(5).
    bad.planes[("p", "q")].base = [v + 1 for v in bad.planes[("p", "q")].base]
    ok, failures = verify_certificate_explain(net, bad)
    assert not ok
    assert failures


def test_malformed_certificates_raise():
    net = drain_net()
    with pytest.raises(MalformedCertificateError):
        verify_certificate_explain(net, BeltCertificate(0, {}))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_explain(net, BeltCertificate(
            4, {("p", "zz"): PlaneBelt("VF", [0, 0, 0, 0])}))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_explain(net, BeltCertificate(
            4, {("p", "q"): PlaneBelt("XX", [0, 0, 0, 0])}))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_explain(net, BeltCertificate(
            4, {("p", "q"): PlaneBelt("VF", [0, 0])}))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_explain(net, BeltCertificate(
            4, {("p", "q"): PlaneBelt("SF", [0, 0, 0, 0], period=(0, 1))}))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_explain(net, BeltCertificate(
            4, {("p", "q"): PlaneBelt("VF", [3, 2, 1, 0])}))


def test_verification_horizon_is_guarded():
    net, cert = prime_period_certificate()
    with time_limit(1.0), pytest.raises(ResourceGuardError, match="verification needs"):
        verify_certificate_explain(net, cert)


def test_infinite_row_cells_are_guarded():
    net, cert = big_delta_certificate()
    with time_limit(1.0), pytest.raises(ResourceGuardError,
                                        match="verification needs .* infinite-row cells"):
        verify_certificate_explain(net, cert)


def test_tall_hf_certificate_is_guarded_not_walked():
    net, cert = tall_certificate()
    with time_limit(1.0), pytest.raises(ResourceGuardError, match="verification needs"):
        verify_certificate_explain(net, cert)


def test_interior_monotone_on_random_nets():
    rng = random.Random(1999)
    for _ in range(25):
        net = random_unary_net(rng)
        cols = color_planes(net, 16, 8)
        for col in cols.values():
            black = col.interior_view() == 0
            r = col.interior
            for m in range(1, r):
                for n in range(r - 1):
                    if black[m, n]:
                        assert black[m - 1, n]
                        assert black[m, n + 1]


def test_interior_ranks_match_bounded_search():
    rng = random.Random(555)
    for _ in range(12):
        net = random_unary_net(rng)
        view, bound = 6, 12
        cols = color_planes(net, bound, view)
        oracle = functools.partial(successors, net)
        for (p, q), col in cols.items():
            for m in range(view):
                for n in range(view):
                    got = bounded_attacker_search(
                        oracle, oracle, (Config(p, m), Config(q, n)), bound)
                    want = int(col.white[m, n])
                    assert got == (want if want else None), (net, p, m, q, n)


def assert_matches_grid_oracle(net, rank_bound, view):
    cols = color_planes(net, rank_bound, view)
    grid = grid_color_planes(net, rank_bound, view)
    g = view + rank_bound * net.max_delta
    for plane, col in cols.items():
        assert np.array_equal(col.white, grid[plane][:g]), (
            net.rules, rank_bound, view, plane)
        # The frontier comes from the thresholds; recompute it from the ranks.
        blacks = (col.interior_view() == 0).sum(axis=0)
        assert frontier(col).values == [INF if b == view else int(b) - 1 for b in blacks], (
            net.rules, rank_bound, view, plane)


def test_staircase_coloring_matches_grid_oracle():
    nets = canonical_unary_nets(2, 3)
    assert len(nets) == 772
    for net in nets:
        assert_matches_grid_oracle(net, 16, 8)
    rng = random.Random(303)
    for _ in range(200):
        net = random_succinct_net(rng)
        view = rng.randint(1, 10)
        assert_matches_grid_oracle(net, rng.randint(1, 3 * view), view)


def test_large_view_coloring():
    tracemalloc.start()
    try:
        with time_limit(5.0):
            cols = color_planes(drain_net(), 512, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Thresholds only: the 16 rank matrices of 768 x 768 cells take 37 MB.
    assert peak < 4 * 2 ** 20, peak
    assert frontier(cols[("p", "q")]).values == [n // 2 for n in range(256)]
    black = cols[("p", "q")].interior_view() == 0
    m, n = np.ogrid[:256, :256]
    assert np.array_equal(black, n >= 2 * m)


def test_big_delta_infinite_rows_verify_in_time():
    net, cert = big_delta_certificate(10 ** 6)
    with time_limit(1.0):
        assert verify_certificate_explain(net, cert) == (True, [])


def assert_query_ranks_match_search(net, rng, queries):
    oracle = functools.partial(successors, net)
    for _ in range(queries):
        p, q = rng.choice(net.states), rng.choice(net.states)
        m, n, budget = rng.randint(0, 15), rng.randint(0, 15), rng.randint(0, 10)
        want = bounded_attacker_search(oracle, oracle, (Config(p, m), Config(q, n)), budget)
        assert _query_rank(net, p, m, q, n, budget, 10 ** 6) == want, (
            net.rules, p, m, q, n, budget)


def test_query_rank_matches_attacker_search():
    rng = random.Random(4040)
    for _ in range(150):
        assert_query_ranks_match_search(random_unary_net(rng, 3, 6), rng, 4)
        assert_query_ranks_match_search(random_succinct_net(rng, 3, 5, 5), rng, 4)
    big = 10 ** 6
    wide = Socn(states=("s", "t"), actions=("a", "b"),
                rules=(Rule("s", "a", big, "t"), Rule("s", "a", -big, "s"),
                       Rule("t", "a", -big, "s"), Rule("t", "b", 1, "t"),
                       Rule("s", "b", -1, "t"), Rule("t", "a", big - 1, "t")))
    assert_query_ranks_match_search(wide, rng, 40)
    wide_oracle = functools.partial(successors, wide)
    assert _query_rank(wide, "s", big, "t", 3 * big, 10, 10 ** 6) == bounded_attacker_search(
        wide_oracle, wide_oracle, (Config("s", big), Config("t", 3 * big)), 10)
    ruleless = Socn(states=("s",), actions=("a",), rules=())
    assert_query_ranks_match_search(ruleless, rng, 10)
    # The pair (t, s) has no attacker rule; (s, t) has no response.
    one_sided = Socn(states=("s", "t"), actions=("a",),
                     rules=(Rule("s", "a", 0, "s"), Rule("s", "a", -1, "t")))
    assert_query_ranks_match_search(one_sided, rng, 40)
    assert _query_rank(one_sided, "t", 3, "s", 3, 5, 10 ** 6) is None
    assert _query_rank(one_sided, "s", 0, "t", 0, 5, 10 ** 6) == 1


def test_query_rank_on_counters_beyond_64_bits():
    net = drain_net()
    oracle = functools.partial(successors, net)
    for p, m, q, n in (("p", 10 ** 30, "q", 1), ("p", 2 ** 62, "q", 3),
                       ("p", 10 ** 30, "q", 10 ** 30), ("p1", 2 ** 63, "q", 10 ** 20)):
        want = bounded_attacker_search(oracle, oracle, (Config(p, m), Config(q, n)), 10)
        assert _query_rank(net, p, m, q, n, 10, 10 ** 6) == want, (p, m, q, n)


def test_query_rank_refuses_thresholds_past_64_bits():
    wide = Socn(states=("s",), actions=("a",), rules=(Rule("s", "a", 2 ** 60, "s"),))
    with pytest.raises(ResourceGuardError, match="64 bits"):
        _query_rank(wide, "s", 0, "s", 0, 8, 10 ** 6)


def test_query_rank_counts_response_entries_against_the_budget():
    # One pair, but 20 attacker rules with 20 responses each: 400 entries
    # per row.  Stage 1 has one row (400 entries); stage 2 has three.
    rules = tuple(Rule("s", "a", d, "s") for d in (1, -1) * 10)
    net = Socn(states=("s",), actions=("a",), rules=rules)
    assert _query_rank(net, "s", 5, "s", 5, 1, 1000) is None
    with pytest.raises(ResourceGuardError, match="3 rows, 400 response entries"):
        _query_rank(net, "s", 5, "s", 5, 8_000_000, 1000)


def assert_rounds_match_reference(net, rows, low):
    pairs = [(p, q) for p in net.states for q in net.states]
    prev = np.full((len(pairs), len(rows)), _BLACK)
    got_rounds = _threshold_rounds(net, pairs, rows, low)
    want_rounds = reference_threshold_rounds(net, pairs, rows, low)
    for r, (got, want) in enumerate(itertools.zip_longest(got_rounds, want_rounds), 1):
        assert got is not None and want is not None, (net.rules, list(rows), low, r)
        w, changed, old = got
        assert np.array_equal(w, want), (net.rules, list(rows), low, r)
        assert sorted(changed) == np.flatnonzero(want != prev).tolist(), r
        assert list(old) == prev.ravel()[changed].tolist(), r
        prev = want


def test_rounds_match_the_dense_reference(monkeypatch):
    # Round 1 of every kernel is dense; later rounds pick either kind.
    kinds = {"__init__": 0, "dense_round": 0, "sparse_round": 0}
    for kind in kinds:
        def counted(self, *args, kind=kind, run=getattr(ocnsim._RuleCells, kind)):
            kinds[kind] += 1
            return run(self, *args)
        monkeypatch.setattr(ocnsim._RuleCells, kind, counted)
    for net in canonical_unary_nets(2, 3):
        assert_rounds_match_reference(net, np.arange(8 + 16 * net.max_delta), 0)
    rng = random.Random(2323)
    for _ in range(200):
        net = random_succinct_net(rng)
        view = rng.randint(1, 10)
        assert_rounds_match_reference(
            net, np.arange(view + rng.randint(1, 3 * view) * net.max_delta), 0)
    # The offset row sets of the refutation: counters reachable from n,
    # as offsets from n, with reads below -n disabled.
    for _ in range(200):
        net = random_succinct_net(rng) if rng.random() < 0.5 else random_unary_net(rng)
        n = rng.randint(0, 12)
        deltas = {rule.delta for rule in net.rules}
        rows = reference_reachable_offsets(deltas, n, rng.randint(0, 12), 10 ** 6)
        assert_rounds_match_reference(net, rows, -n)
    assert kinds["dense_round"] > kinds["__init__"] and kinds["sparse_round"] > 0, kinds


def test_query_rank_rows_match_a_per_stage_recomputation(monkeypatch):
    # Each stage grows the last stage's offsets; its rows, and those a
    # guard refuses, must be the offsets recomputed from scratch for
    # b - 1 moves, at every limit.
    stages, run = [], ocnsim._threshold_rounds

    def recorded(net, pairs, rows, low=0):
        stages.append(rows)
        return run(net, pairs, rows, low)
    monkeypatch.setattr(ocnsim, "_threshold_rounds", recorded)
    rng = random.Random(2424)
    checked = capped = 0
    for _ in range(300):
        net = random_succinct_net(rng) if rng.random() < 0.5 else random_unary_net(rng)
        p, q = rng.choice(net.states), rng.choice(net.states)
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        budget, cell_budget = rng.randint(1, 40), rng.choice([4, 30, 200, 10 ** 6])
        pairs = [(p, q)]
        for s, t in pairs:
            for ra in net.rules_from(s):
                for rd in net.rules_from(t):
                    if rd.action == ra.action and (ra.to, rd.to) not in pairs:
                        pairs.append((ra.to, rd.to))
        responses = [[rd for rd in net.rules_from(t) if rd.action == ra.action]
                     for s, t in pairs for ra in net.rules_from(s)]
        deltas = {rd.delta for rds in responses for rd in rds}
        entries = (sum(max(1, len(rds)) for rds in responses)
                   + sum(not net.rules_from(s) for s, _ in pairs))
        stages.clear()
        try:
            _query_rank(net, p, m, q, n, budget, cell_budget)
            refused = None
        except ResourceGuardError as exc:
            refused = str(exc)
        for i, rows in enumerate(stages + [refused] if refused else stages):
            stage = min(2 ** i, budget)
            want = reference_reachable_offsets(deltas, n, stage - 1, cell_budget // entries)
            if isinstance(rows, str):
                assert f"({len(want)} rows, {entries} response entries)" in rows, rows
                capped += 1
            else:
                assert np.array_equal(rows, want), (net.rules, p, q, n, stage)
                checked += 1
    assert checked > 600 and capped > 10, (checked, capped)


def test_deep_refutations_answer_in_time():
    # Ranks 2000 to 8000: a round re-evaluates only the few rule cells
    # that read a changed threshold, so the refutation stays far below
    # quadratic time in the rank.
    for m in (1000, 2000, 4000):
        with time_limit(1.0):
            decision = decide_sim(drain_net(), "p", m, "q", 2 * m - 1)
        assert (decision.kind, decision.rank) == ("no", 2 * m)
