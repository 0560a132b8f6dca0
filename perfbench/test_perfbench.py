"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ocn_gamelab  # noqa: E402
from harness import (SKIP, Query, check_passes, compare_with_record,  # noqa: E402
                     percentile, run_pass, samples_beyond, tail_percentile)
from tracing import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (cli_query, drain_expect, drain_net, interleave,  # noqa: E402
                       write_doc)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([3.0], 0.9) == 3.0
    assert percentile([5, 1, 4, 2, 3], 0.5) == 3


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert tail_percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 0.9)


def test_interleave_keeps_order_and_spreads_the_block():
    merged = interleave(list("abcdef"), [1, 2, 3])
    assert [x for x in merged if isinstance(x, str)] == list("abcdef")
    assert [x for x in merged if isinstance(x, int)] == [1, 2, 3]
    gaps = [i for i, x in enumerate(merged) if isinstance(x, int)]
    assert gaps == [0, 3, 6]
    assert interleave([], [1, 2]) == [1, 2]


def span(name, start, end, parent):
    return [name, start, end, parent, "q"]


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("b", 3.0, 6.0, 0),       # overlaps a: union is [1, 6]
             span("a.inner", 2.0, 3.0, 1),
             span("late", 9.0, 12.0, 0)]   # clipped to the root's end
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_identical_children_counts_once():
    spans = [span("root", 0.0, 4.0, -1), span("x", 1.0, 2.0, 0), span("y", 1.0, 2.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_checker_rejects_a_flipped_verdict():
    assert compare_with_record("no:6", "yes") is not None
    assert compare_with_record("no:6", "no:7") is not None
    assert compare_with_record("yes", "unknown") is not None
    assert compare_with_record("verified", "unverified") is not None
    assert compare_with_record("yes", "exit4") is not None
    assert compare_with_record("unknown", "yes") is None
    assert compare_with_record("exit4", "yes") is None
    assert compare_with_record("yes", "yes") is None

    queries = [Query("a", lambda: "yes"), Query("b", lambda: "win")]
    passes = [run_pass(queries)]
    assert check_passes(queries, passes, {"a": "yes", "b": "win"}).correct
    report = check_passes(queries, passes, {"a": "no:3", "b": "win"})
    assert not report.correct and "a" in report.problems
    report = check_passes(queries, passes, {"a": "yes", "b": "ecg-yes:4"})
    assert not report.correct and list(report.problems) == ["b"]


def test_checker_counts_failures_known_defects_and_skips():
    def boom():
        raise RecursionError

    queries = [Query("ok", lambda: "yes"), Query("skip", lambda: SKIP),
               Query("defect", boom, known_defect="raise:RecursionError"),
               Query("wrong", lambda: "no:2", expect=drain_expect(1, 2))]
    result = run_pass(queries)
    assert result.outcomes["defect"] == "raise:RecursionError"
    assert len(result.latencies) == 3
    report = check_passes(queries, [result], None)
    assert (report.attempted, report.decided, report.failed) == (3, 2, 2)
    assert report.known_defects == 1 and report.unexpected == 1
    assert list(report.problems) == ["wrong"]


def test_known_defect_excuses_only_its_recorded_failure():
    queries = [Query("defect", lambda: "exit4", known_defect="raise:RecursionError")]
    report = check_passes(queries, [run_pass(queries)], None)
    assert report.failed == 1 and report.known_defects == 0 and not report.correct
    assert report.problems == {"defect": "exit4"}


def small_queries(tmp_path):
    doc = write_doc(tmp_path / "drain.json", "socn", drain_net())
    game = ocn_gamelab.CountdownGame(states=["p0", "p_win"], eve={"p0"},
                                     rules=[("p0", -2, "p_win")], target="p_win")
    return [
        Query("check.no", cli_query("sim check", ["sim", "check", "--net", doc,
                                                  "--left", "p:40", "--right", "q:79"])),
        Query("certify", cli_query("certify out", ["sim", "certify", "--net", doc,
                                                   "--out", tmp_path / "c.json"])),
        Query("cg", lambda: str(ocn_gamelab.solve_cg(game, "p0", 2))),
    ]


def test_traced_and_untraced_verdicts_are_equal(tmp_path):
    queries = small_queries(tmp_path)
    plain = run_pass(queries)
    original = ocn_gamelab.cli.color_planes
    tracer = Tracer()
    tracer.install(ocn_gamelab)
    try:
        assert ocn_gamelab.cli.color_planes is not original
        assert ocn_gamelab.ocnsim.color_planes is ocn_gamelab.cli.color_planes
        traced = run_pass(queries, tracer)
    finally:
        tracer.uninstall()
    assert ocn_gamelab.cli.color_planes is original
    assert plain.outcomes == traced.outcomes == {
        "check.no": "no:80", "certify": "verified", "cg": "True"}
    names = [s[0] for s in tracer.spans]
    assert {"cli.main", "ocnsim.decide_sim", "lts.bounded_attacker_search",
            "ocnsim.color_planes", "countdown.solve_cg"} <= set(names)
    search = names.index("lts.bounded_attacker_search")
    assert tracer.spans[tracer.spans[search][3]][0] == "ocnsim.decide_sim"
    assert tracer.spans[search][4] == "check.no"
    metrics = layer_metrics(tracer, 1, traced.wall_s, plain.wall_s, True)
    assert metrics["lts.refuted_ratio"]["value"] == 1.0
    assert metrics["socn.successors.calls"]["value"] > 0
    assert metrics["countdown.solve_cg.levels"]["value"] == 3
    assert 0.5 < metrics["trace.covered_frac"]["value"] <= 1.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]][0] == "setup_s"
