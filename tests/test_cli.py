import json
import os

import numpy as np
import pytest

from ocn_gamelab import (CertificateDoc, CountdownGame, InputDocument, InvariantError,
                         RenderSpec, Rule, SeqDescription, Socn, TuringMachine,
                         certify_colorings, color_planes, decide_sim,
                         doubleexp_period_instance, eval_prefix, net_sha256,
                         parse_document, rank_matrix, render_plane, serialize_document)
from ocn_gamelab.cli import main

from oracles import (big_delta_certificate, prime_period_certificate, reference_find_period,
                     tall_certificate, time_limit)

BLANK = " "


def write_doc(path, kind, value):
    path.write_bytes(serialize_document(InputDocument(kind, value)))
    return str(path)


def drain_net():
    return Socn(states=("p", "p1", "q", "q1"), actions=("a", "b"),
                rules=(Rule("p", "a", -1, "p1"), Rule("p1", "b", 0, "p"),
                       Rule("q", "a", -1, "q1"), Rule("q1", "b", -1, "q")))


@pytest.fixture
def drain_net_doc(tmp_path):
    return write_doc(tmp_path / "drain.json", "socn", drain_net())


@pytest.fixture
def cg_doc(tmp_path):
    game = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                         rules=[("p0", -2, "p_win")], target="p_win")
    return write_doc(tmp_path / "cg.json", "countdown", game)


@pytest.fixture
def hopeless_cg_doc(tmp_path):
    game = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                         rules=[("p0", -2, "p0")], target="p_win")
    return write_doc(tmp_path / "cg_hopeless.json", "countdown", game)


@pytest.fixture
def seq_doc(tmp_path):
    d = SeqDescription(alphabet=["#", BLANK, "A"], hash_symbol="#",
                       blank=BLANK, rules={}, default="A", m=3)
    return write_doc(tmp_path / "seq.json", "seqdesc", d)


@pytest.fixture
def tm_doc(tmp_path):
    machine = TuringMachine(
        states=["r0", "acc", "rej"], start="r0", accept="acc", reject="rej",
        input_alphabet=["a"], tape_alphabet=[BLANK, "a"], blank=BLANK,
        delta={("r0", BLANK): ("rej", BLANK, 0), ("r0", "a"): ("acc", "a", 0),
               ("acc", BLANK): ("acc", BLANK, 0), ("acc", "a"): ("acc", "a", 0),
               ("rej", BLANK): ("rej", BLANK, 0), ("rej", "a"): ("rej", "a", 0)})
    return write_doc(tmp_path / "tm.json", "tm", machine)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cg_solve_win_and_lose(capsys, cg_doc):
    code, out, _ = run(capsys, "cg", "solve", "--game", cg_doc,
                       "--state", "p0", "--n", "2")
    assert (code, out) == (0, "WIN\n")
    code, out, _ = run(capsys, "cg", "solve", "--game", cg_doc,
                       "--state", "p0", "--n", "3")
    assert (code, out) == (1, "LOSE\n")


def test_cg_solve_at_a_binary_counter(capsys, cg_doc):
    with time_limit(1.0):
        code, out, err = run(capsys, "cg", "solve", "--game", cg_doc,
                             "--state", "p0", "--n", str(10 ** 18))
    assert (code, out, err) == (1, "LOSE\n", "")


def test_cg_solve_refuses_an_oversized_segment(capsys, tmp_path):
    game = CountdownGame(states=["p0", "p_win"], eve={"p0"},
                         rules=[("p0", -(2 ** 40), "p_win")], target="p_win")
    doc = write_doc(tmp_path / "huge.json", "countdown", game)
    with time_limit(1.0):
        code, out, err = run(capsys, "cg", "solve", "--game", doc,
                             "--state", "p0", "--n", "3")
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: countdown segment needs 1099511627776 levels")
    assert err.count("\n") == 1


def test_ecg_solve_all_outcomes(capsys, cg_doc, hopeless_cg_doc):
    code, out, _ = run(capsys, "ecg", "solve", "--game", cg_doc,
                       "--state", "p0")
    assert (code, out) == (0, "YES (n=2)\n")
    code, out, _ = run(capsys, "ecg", "solve", "--game", hopeless_cg_doc,
                       "--state", "p0")
    assert (code, out) == (1, "NO (segment repeat at j=2 and j=3)\n")
    code, out, _ = run(capsys, "ecg", "solve", "--game", hopeless_cg_doc,
                       "--state", "p0", "--cap", "1")
    assert (code, out) == (2, "INCONCLUSIVE (cap=1)\n")
    code, out, _ = run(capsys, "ecg", "solve", "--game", hopeless_cg_doc,
                       "--state", "p0", "--low-memory")
    assert code == 1 and out.startswith("NO (segment repeat")


def test_seq_commands(capsys, seq_doc):
    code, out, _ = run(capsys, "seq", "eval", "--desc", seq_doc, "--i", "4")
    assert (code, out) == (0, "A\n")
    code, out, _ = run(capsys, "seq", "period", "--desc", seq_doc)
    assert (code, out) == (0, "PERIOD start=4 period=1\n")
    code, out, _ = run(capsys, "seq", "gsp", "--desc", seq_doc,
                       "--n0", "4", "--symbol", "A")
    assert (code, out) == (0, "YES\n")
    code, out, _ = run(capsys, "seq", "gsp", "--desc", seq_doc,
                       "--n0", "2", "--symbol", "A")
    assert (code, out) == (1, "NO\n")
    code, out, _ = run(capsys, "seq", "egsp", "--desc", seq_doc,
                       "--symbol", "A")
    assert (code, out) == (0, "YES (i=4)\n")


def test_ecg_solve_cap_boundary(capsys, tmp_path):
    # q1 is winning exactly at the multiples of 3 and q0 nowhere.  The
    # least segment repeat is (2, 5) from level M - 1 = 2 and (3, 6) from
    # level M = 3 with --low-memory; No needs j2 < cap.
    game = CountdownGame(states=["q0", "q1"], eve={"q0"}, rules=[("q1", -3, "q1")],
                         target="q1")
    doc = write_doc(tmp_path / "three.json", "countdown", game)
    for flags, (j1, j2) in (([], (2, 5)), (["--low-memory"], (3, 6))):
        base = ["ecg", "solve", "--game", doc, "--state", "q0", *flags]
        assert run(capsys, *base, "--cap", str(j2)) == (2, f"INCONCLUSIVE (cap={j2})\n", "")
        assert run(capsys, *base, "--cap", str(j2 + 1)) == \
            (1, f"NO (segment repeat at j={j1} and j={j2})\n", "")


def test_seq_period_and_egsp_cap_boundary(capsys, seq_doc):
    # The word is # then blanks to position 3 and A from 4 on: the window
    # at 4 repeats at 5, and no rule writes #.
    period = ["seq", "period", "--desc", seq_doc, "--cap"]
    assert run(capsys, *period, "4") == (2, "INCONCLUSIVE (cap=4)\n", "")
    assert run(capsys, *period, "5") == (0, "PERIOD start=4 period=1\n", "")
    egsp = ["seq", "egsp", "--desc", seq_doc, "--symbol"]
    assert run(capsys, *egsp, "A", "--cap", "0") == (2, "INCONCLUSIVE (cap=0)\n", "")
    assert run(capsys, *egsp, "A", "--cap", "1") == (0, "YES (i=4)\n", "")


def test_seq_queries_at_binary_positions(capsys, tmp_path):
    # Positions far past the word's cycle are read off it: the symbol at i
    # is the one at start + (i - start) mod period.
    d = doubleexp_period_instance(1)
    doc = write_doc(tmp_path / "dexp1.json", "seqdesc", d)
    least = reference_find_period(d, 1000)
    word = eval_prefix(d, least.start + least.period)

    def streamed(i):
        return word[least.start + (i - least.start) % least.period]

    for i in (10 ** 18, 10 ** 30):
        with time_limit(1.0):
            got = run(capsys, "seq", "eval", "--desc", doc, "--i", str(i))
        assert got == (0, streamed(i) + "\n", "")
    with time_limit(1.0):
        got = run(capsys, "seq", "gsp", "--desc", doc, "--n0", str(10 ** 18),
                  "--symbol", "#")
    assert got == ((0, "YES\n", "") if streamed(10 ** 18) == "#" else (1, "NO\n", ""))


def test_reduce_seq2cg(capsys, seq_doc, tmp_path):
    out_path = str(tmp_path / "game.json")
    code, out, _ = run(capsys, "reduce", "seq2cg", "--desc", seq_doc,
                       "--out", out_path)
    assert code == 0
    assert "symbol # -> s[#]" in out
    game = parse_document(open(out_path, "rb").read()).value
    assert isinstance(game, CountdownGame)
    # and the produced game answers position queries
    code, out, _ = run(capsys, "cg", "solve", "--game", out_path,
                       "--state", "s[A]", "--n", "6")
    assert (code, out) == (0, "WIN\n")


def test_reduce_without_out_streams_document(capsys, seq_doc):
    code, out, err = run(capsys, "reduce", "seq2cg", "--desc", seq_doc)
    assert code == 0
    assert json.loads(out)["kind"] == "countdown"
    assert "symbol # -> s[#]" in err


def test_reduce_ecg2rg(capsys, cg_doc, tmp_path):
    out_path = str(tmp_path / "rg.json")
    code, out, _ = run(capsys, "reduce", "ecg2rg", "--game", cg_doc,
                       "--state", "p0", "--out", out_path)
    assert code == 0
    assert "start=start[p0]" in out
    assert parse_document(open(out_path, "rb").read()).kind == "socn-rgame"


def test_reduce_rg2socn_then_sim(capsys, tmp_path, cg_doc):
    rg_path = str(tmp_path / "rg.json")
    run(capsys, "reduce", "ecg2rg", "--game", cg_doc, "--state", "p0",
        "--out", rg_path)
    net_path = str(tmp_path / "net.json")
    code, _, _ = run(capsys, "reduce", "rg2socn", "--game", rg_path,
                     "--out", net_path)
    assert code == 0
    net = parse_document(open(net_path, "rb").read()).value
    assert "start[p0]" in net.states and "start[p0]'" in net.states


def test_reduce_tm2seq(capsys, tm_doc, tmp_path):
    desc_path = str(tmp_path / "desc.json")
    code, _, _ = run(capsys, "reduce", "tm2seq", "--machine", tm_doc,
                     "--input", "a", "--m", "4", "--out", desc_path)
    assert code == 0
    code, out, _ = run(capsys, "seq", "egsp", "--desc", desc_path,
                       "--symbol", "[acc|a]")
    assert (code, out) == (0, "YES (i=17)\n")


def test_sim_check_yes_no_unknown(capsys, drain_net_doc):
    code, out, _ = run(capsys, "sim", "check", "--net", drain_net_doc,
                       "--left", "p:3", "--right", "q:6")
    assert (code, out) == (0, "YES\n")
    code, out, _ = run(capsys, "sim", "check", "--net", drain_net_doc,
                       "--left", "p:3", "--right", "q:5")
    assert (code, out) == (1, "NO (rank=6)\n")
    code, out, err = run(capsys, "sim", "check", "--net", drain_net_doc,
                         "--left", "p:3", "--right", "q:5", "--budget", "0")
    assert (code, out) == (2, "UNKNOWN\n")
    assert "uncovered" in err


def test_sim_plane_lists_frontier(capsys, drain_net_doc):
    code, out, _ = run(capsys, "sim", "plane", "--net", drain_net_doc,
                       "--left", "p", "--right", "q", "--view", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f(0) = 0"
    assert lines[5] == "f(5) = 2"
    assert lines[-1] == ("fit: SF alpha=1/2 band=[-1/2,0] "
                         "period_hint=(1,2) step=3")


def test_sim_belts_lines(capsys, drain_net_doc):
    code, out, _ = run(capsys, "sim", "belts", "--net", drain_net_doc)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert ("(p,q) SF alpha=1/2 band=[-1/2,0] period_hint=(1,2) step=3 "
            "period=(1,2)") in lines
    assert any(line.startswith("(p,p1) VF level=0") for line in lines)


def test_sim_certify_build_then_verify(capsys, drain_net_doc, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "sim", "certify", "--net", drain_net_doc,
                       "--out", cert_path)
    assert (code, out) == (0, "VERIFIED\n")
    code, out, _ = run(capsys, "sim", "certify", "--net", drain_net_doc,
                       "--cert", cert_path)
    assert (code, out) == (0, "VERIFIED\n")


def test_decision_path_builds_no_rank_matrix(capsys, drain_net_doc, tmp_path,
                                             monkeypatch):
    from ocn_gamelab import ocnsim
    original = ocnsim._rank_matrices

    def refuse(*args):
        raise AssertionError("rank matrices built")
    monkeypatch.setattr(ocnsim, "_rank_matrices", refuse)
    net = drain_net()
    assert decide_sim(net, "p", 3000, "q", 6000, view=16).kind == "yes"
    assert certify_colorings(net, color_planes(net, 32, 16)).kind == "yes"
    assert run(capsys, "sim", "certify", "--net", drain_net_doc,
               "--out", str(tmp_path / "cert.json")) == (0, "VERIFIED\n", "")
    assert run(capsys, "sim", "belts", "--net", drain_net_doc)[0] == 0
    code, out, _ = run(capsys, "sim", "plane", "--net", drain_net_doc,
                       "--left", "p", "--right", "q")
    assert code == 0 and out.startswith("f(0) = 0\n")

    calls = []

    def count(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(ocnsim, "_rank_matrices", count)
    cols = color_planes(net, 32, 16)
    assert not calls
    assert cols[("p", "q")].white[1, 1] == 2
    assert cols[("q", "p")].rank(0, 1) is None
    assert len(calls) == 1  # once for every plane of the call
    # Images read the black cells off the thresholds; only the rank
    # dump builds the matrices.
    plane = color_planes(net, 32, 16)[("p", "q")]
    render_plane(plane, RenderSpec())
    render_plane(plane, RenderSpec(format="svg"))
    assert len(calls) == 1
    rank_matrix(plane)
    assert len(calls) == 2


def test_sim_certify_hash_mismatch(capsys, drain_net_doc, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    run(capsys, "sim", "certify", "--net", drain_net_doc, "--out", cert_path)
    other = Socn(states=("p", "p1", "q", "q1"), actions=("a", "b"),
                 rules=(Rule("p", "a", -1, "p1"), Rule("p1", "b", 0, "p"),
                        Rule("q", "a", -1, "q1"), Rule("q1", "b", 0, "q")))
    other_path = write_doc(tmp_path / "other.json", "socn", other)
    code, _, err = run(capsys, "sim", "certify", "--net", other_path,
                       "--cert", cert_path)
    assert code == 3
    assert "hash mismatch" in err


def test_sim_certify_rejects_overclaiming_certificate(capsys, drain_net_doc,
                                                      tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "sim", "certify", "--net", drain_net_doc,
        "--out", str(cert_path))
    doc = json.loads(cert_path.read_bytes())
    for plane in doc["planes"]:
        if (plane["left"], plane["right"]) == ("p", "q"):
            plane["belt"]["base"] = [v + 1 for v in plane["belt"]["base"]]
    cert_path.write_bytes(json.dumps(doc).encode())
    code, out, _ = run(capsys, "sim", "certify", "--net", drain_net_doc,
                       "--cert", str(cert_path))
    assert code == 1
    assert out.rstrip().endswith("REJECTED")


def test_sim_certify_guards_unbounded_verification(capsys, tmp_path):
    net, cert = prime_period_certificate()
    net_path = write_doc(tmp_path / "net.json", "socn", net)
    cert_path = write_doc(tmp_path / "cert.json", "certificate",
                          CertificateDoc(certificate=cert, net_sha256=net_sha256(net)))
    with time_limit(1.0):
        code, out, err = run(capsys, "sim", "certify", "--net", net_path,
                             "--cert", cert_path)
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: verification needs ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_sim_certify_guards_infinite_rows_of_big_deltas(capsys, tmp_path):
    net, cert = big_delta_certificate()
    net_path = write_doc(tmp_path / "net.json", "socn", net)
    cert_path = write_doc(tmp_path / "cert.json", "certificate",
                          CertificateDoc(certificate=cert, net_sha256=net_sha256(net)))
    with time_limit(1.0):
        code, out, err = run(capsys, "sim", "certify", "--net", net_path,
                             "--cert", cert_path)
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: verification needs ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_sim_certify_refuses_a_tall_hf_certificate(capsys, tmp_path):
    # About 200 bytes: 10**12 rows, one plane infinite from row 0.
    net, cert = tall_certificate()
    net_path = write_doc(tmp_path / "net.json", "socn", net)
    cert_path = write_doc(tmp_path / "cert.json", "certificate",
                          CertificateDoc(certificate=cert, net_sha256=net_sha256(net)))
    with time_limit(1.0):
        code, out, err = run(capsys, "sim", "certify", "--net", net_path,
                             "--cert", cert_path)
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: verification needs ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_render_plane_golden(capsys, tmp_path):
    net = Socn(states=("p", "q"), actions=("a",),
               rules=(Rule("p", "a", -1, "p"), Rule("q", "a", 0, "q")))
    net_path = write_doc(tmp_path / "tiny.json", "socn", net)
    out_path = tmp_path / "plane.pgm"
    code, out, _ = run(capsys, "render", "plane", "--net", net_path,
                       "--left", "p", "--right", "q", "--view", "2",
                       "--out", str(out_path))
    assert code == 0
    assert out.strip() == str(out_path)
    assert out_path.read_bytes() == b"P2\n2 2\n1\n0 0\n0 0\n"


def test_render_refuses_an_oversized_pgm(capsys, tmp_path):
    net = Socn(states=("p", "q"), actions=("a",),
               rules=(Rule("p", "a", -1, "p"), Rule("q", "a", 0, "q")))
    net_path = write_doc(tmp_path / "tiny.json", "socn", net)
    out_path = tmp_path / "plane.pgm"
    with time_limit(1.0):
        code, out, err = run(capsys, "render", "plane", "--net", net_path,
                             "--left", "p", "--right", "q", "--view", "2",
                             "--cell-size", "100000", "--out", str(out_path))
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: PGM image needs 200000x200000 pixels")
    assert err.count("\n") == 1 and not out_path.exists()


def test_render_refuses_an_oversized_svg(capsys, tmp_path):
    # 4000 x 4000 cells pass the coloring guard, but the SVG would be
    # about 1 GB.
    net = Socn(states=("s",), actions=("a",), rules=(Rule("s", "a", 0, "s"),))
    net_path = write_doc(tmp_path / "loop.json", "socn", net)
    out_path = tmp_path / "plane.svg"
    with time_limit(2.0):
        code, out, err = run(capsys, "render", "plane", "--net", net_path,
                             "--left", "s", "--right", "s", "--view", "4000",
                             "--format", "svg", "--out", str(out_path))
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: SVG image needs 4000x4000 cells")
    assert err.count("\n") == 1 and not out_path.exists()


def test_render_plane_has_no_ranks_option(capsys, drain_net_doc, tmp_path):
    out_path = tmp_path / "plane.pgm"
    code, out, err = run(capsys, "render", "plane", "--net", drain_net_doc,
                         "--left", "p", "--right", "q", "--ranks",
                         "--out", str(out_path))
    assert (code, out) == (3, "")
    assert err.startswith("usage error:") and "--ranks" in err
    assert not out_path.exists()


def test_render_all_manifest(capsys, drain_net_doc, tmp_path):
    out_dir = tmp_path / "imgs"
    code, out, _ = run(capsys, "render", "all", "--net", drain_net_doc,
                       "--dir", str(out_dir), "--view", "8")
    assert code == 0
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 16
    assert manifest[3].startswith("plane_p_q1.pgm\t(p,q1)\t")
    pq = next(l for l in manifest if l.startswith("plane_p_q.pgm"))
    assert "SF alpha=1/2" in pq


def test_repeated_calls_in_one_process_equal_fresh_calls(capsys, cg_doc, seq_doc,
                                                        monkeypatch):
    from ocn_gamelab import cli
    calls = [["cg", "solve", "--game", cg_doc, "--state", "p0", "--n", "2"],
             ["cg", "solve", "--game", cg_doc, "--state", "p0", "--n", "3"],
             ["cg", "solve", "--game", cg_doc, "--n", "2"],
             ["ecg", "solve", "--game", cg_doc, "--state", "p0", "--low-memory"],
             ["frobnicate"],
             ["seq", "eval", "--desc", seq_doc, "--i", "0"],
             ["cg", "solve", "--game", cg_doc, "--state", "p0", "--n", "x"],
             ["ecg", "solve", "--game", cg_doc, "--state", "p0"]]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 1, 3, 0, 3, 0, 3, 0]
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert [run(capsys, *argv) for argv in calls] == fresh


def test_usage_errors_exit_3(capsys):
    code, _, err = run(capsys, "cg")
    assert code == 3 and "usage error:" in err
    code, _, err = run(capsys, "no-such-command")
    assert code == 3 and "usage error:" in err


def test_unreadable_and_malformed_inputs(capsys, tmp_path, seq_doc):
    code, _, err = run(capsys, "seq", "eval", "--desc",
                       str(tmp_path / "missing.json"), "--i", "0")
    assert code == 3 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "seq", "eval", "--desc", str(bad), "--i", "0")
    assert code == 3 and "$: invalid JSON" in err
    code, _, err = run(capsys, "cg", "solve", "--game", seq_doc,
                       "--state", "x", "--n", "0")
    assert code == 3 and "expected a countdown document" in err


def test_bad_query_syntax(capsys, drain_net_doc):
    code, _, err = run(capsys, "sim", "check", "--net", drain_net_doc,
                       "--left", "p", "--right", "q:1")
    assert code == 3 and "expected STATE:COUNTER" in err
    code, _, err = run(capsys, "sim", "check", "--net", drain_net_doc,
                       "--left", "p:-1", "--right", "q:1")
    assert code == 3 and "nonnegative" in err


def test_cell_budget_guard(capsys, drain_net_doc, monkeypatch):
    monkeypatch.setenv("OCN_GAMELAB_CELL_BUDGET", "100")
    code, _, err = run(capsys, "sim", "belts", "--net", drain_net_doc)
    assert code == 4 and "resource guard" in err
    monkeypatch.setenv("OCN_GAMELAB_CELL_BUDGET", "lots")
    code, _, err = run(capsys, "sim", "belts", "--net", drain_net_doc)
    assert code == 3 and "expected an integer" in err


DEEP_QUERY = ("--left", "p:700", "--right", "q:1399", "--budget", "3000")


def test_deep_refutation_is_answered(capsys, drain_net_doc):
    with time_limit(2.0):
        result = run(capsys, "sim", "check", "--net", drain_net_doc, *DEEP_QUERY)
    assert result == (1, "NO (rank=1400)\n", "")


def test_shallow_refutation_of_a_huge_counter(capsys, drain_net_doc):
    # The default budget grows with the counters (2 * (10**19 + 10) rounds
    # here), but q(0) cannot answer a, so rank 1 is found at once.
    with time_limit(1.0):
        result = run(capsys, "sim", "check", "--net", drain_net_doc,
                     "--left", f"p:{10 ** 19}", "--right", "q:0")
    assert result == (1, "NO (rank=1)\n", "")


def test_refutation_cell_budget_guard(capsys, drain_net_doc, monkeypatch):
    monkeypatch.setenv("OCN_GAMELAB_CELL_BUDGET", "1000")
    code, out, err = run(capsys, "sim", "check", "--net", drain_net_doc, *DEEP_QUERY)
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: refutation needs ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("error, code, prefix", [
    (RecursionError("maximum recursion depth exceeded"), 4, "resource guard: "),
    (MemoryError(), 4, "resource guard: "),
    (InvariantError("black not left-closed in plane (p,q)"), 5, "internal error: "),
])
def test_unexpected_errors_exit_with_one_line(capsys, drain_net_doc, monkeypatch,
                                              error, code, prefix):
    from ocn_gamelab import cli

    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "decide_sim", fail)
    got, out, err = run(capsys, "sim", "check", "--net", drain_net_doc,
                        "--left", "p:1", "--right", "q:1")
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and len(err) > len(prefix) + 1
    assert err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# Golden outputs of the certificate pipeline's inconclusive branches.  Both
# nets are small enough to pin every printed line at view 8.

def three_state_net(rules):
    return Socn(states=("p0", "p1", "p2"), actions=("a", "b"),
                rules=tuple(Rule(*r) for r in rules))


@pytest.fixture
def no_period_net_doc(tmp_path):
    # Plane (p1,p2) has a slope-2/3 fit but no belt period inside the view.
    net = three_state_net([("p0", "a", 0, "p1"), ("p1", "a", 2, "p0"),
                           ("p1", "b", -1, "p0"), ("p2", "a", -2, "p0"),
                           ("p1", "b", -2, "p2"), ("p2", "b", -1, "p0")])
    return write_doc(tmp_path / "no_period.json", "socn", net)


@pytest.fixture
def unverified_net_doc(tmp_path):
    # Every SF period is found, but the certificate fails its closure check.
    net = three_state_net([("p1", "b", 1, "p2"), ("p2", "a", -1, "p2"),
                           ("p1", "a", -2, "p1"), ("p1", "a", -2, "p2"),
                           ("p2", "a", 2, "p1"), ("p1", "a", 2, "p0")])
    return write_doc(tmp_path / "unverified.json", "socn", net)


UNVERIFIED_FAILURES = [
    "plane ('p1', 'p1') row 8: frontier cell m=8, rule (p1,a,-2,p1) unanswered",
    "plane ('p1', 'p1') row 8: frontier cell m=8, rule (p1,a,-2,p2) unanswered",
    "plane ('p2', 'p1') row 8: frontier cell m=4, rule (p2,a,-1,p2) unanswered",
    "plane ('p2', 'p1') row 8: frontier cell m=4, rule (p2,a,2,p1) unanswered",
]


def test_golden_period_not_found(capsys, no_period_net_doc, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(capsys, "sim", "certify", "--net", no_period_net_doc,
               "--out", str(cert_path), "--view", "8") == (
        2, "PERIOD NOT FOUND for plane (p1,p2)\n", "")
    assert not cert_path.exists()
    assert run(capsys, "sim", "belts", "--net", no_period_net_doc,
               "--view", "8") == (2, (
        "(p0,p0) SF alpha=1 band=[0,0] period_hint=(1,1) step=2 period=(1,1)\n"
        "(p0,p1) VF level=-1\n"
        "(p0,p2) VF level=-1\n"
        "(p1,p0) VF level=-1\n"
        "(p1,p1) SF alpha=1 band=[0,0] period_hint=(1,1) step=2 period=(1,1)\n"
        "(p1,p2) SF alpha=2/3 band=[-8/3,-2] period_hint=(2,3) step=5/2 period=?\n"
        "(p2,p0) VF level=0\n"
        "(p2,p1) SF alpha=1 band=[0,0] period_hint=(1,1) step=2 period=(1,1)\n"
        "(p2,p2) SF alpha=1 band=[0,0] period_hint=(1,1) step=2 period=(1,1)\n"),
        "")
    assert run(capsys, "sim", "check", "--net", no_period_net_doc,
               "--left", "p0:0", "--right", "p1:0", "--budget", "0",
               "--view", "8") == (
        2, "UNKNOWN\n", "  period_not_found: ('p1', 'p2')\n")


def test_golden_unverified_certificate(capsys, unverified_net_doc, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(capsys, "sim", "certify", "--net", unverified_net_doc,
               "--out", str(cert_path), "--view", "8") == (
        2, "".join(f"  {line}\n" for line in UNVERIFIED_FAILURES)
        + "UNVERIFIED\n", "")
    assert not cert_path.exists()
    code, out, _ = run(capsys, "sim", "belts", "--net", unverified_net_doc,
                       "--view", "8")
    assert code == 0 and out.splitlines()[0] == "(p0,p0) HF inf_from=0"
    assert run(capsys, "sim", "check", "--net", unverified_net_doc,
               "--left", "p0:0", "--right", "p1:0", "--budget", "0",
               "--view", "8") == (
        2, "UNKNOWN\n", f"  verification_failures: {UNVERIFIED_FAILURES}\n")


def test_golden_unstable_fit(capsys, no_period_net_doc, tmp_path, monkeypatch):
    # No generated net has reached this branch: a monotone frontier that
    # never saturates always fits VF or SF.  So the coloring is made by
    # hand, with a frontier 0,0,0,0,1,3,4,1 that repeats with no vector.
    from ocn_gamelab import PlaneColoring, cli
    frontier_values = [0, 0, 0, 0, 1, 3, 4, 1]
    thresholds = np.array(frontier_values) + 1
    coloring = PlaneColoring("p0", "p0", thresholds, 8, 16, 2)
    monkeypatch.setattr(cli, "color_planes",
                        lambda *args, **kwargs: {("p0", "p0"): coloring})
    unstable = ("UNSTABLE (plane ('p0', 'p0'): no frontier repetition over "
                "rows [4,8); enlarge the view)\n")
    cert_path = tmp_path / "cert.json"
    assert run(capsys, "sim", "certify", "--net", no_period_net_doc,
               "--out", str(cert_path), "--view", "8") == (2, unstable, "")
    assert not cert_path.exists()
    assert run(capsys, "sim", "belts", "--net", no_period_net_doc,
               "--view", "8") == (2, unstable, "")
