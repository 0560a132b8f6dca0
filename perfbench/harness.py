"""Queries, the closed loop that times them, the verdict checker and the
statistics of a run.

A query is one call into ocn-gamelab: a ``cli.main(argv)`` run or a call
of a name exported from the package.  Its result is normalised into a
short *outcome* string (``yes``, ``no:6``, ``verified``, ``win``,
``ecg-no:39-45``, ``raise:RecursionError``, ``exit4``, ...) so that
verdicts can be compared across passes, across the traced and untraced
run, and against the verdicts recorded when the benchmark was defined.
"""

from __future__ import annotations

import gc
import io
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

# A query that found nothing to ask (a re-check of a certificate that was
# never written) returns SKIP: it is neither timed nor counted.
SKIP = "skip"

# Outcome prefixes that are a definite verdict.  A finished reduction or
# render counts as definite: it produced the whole object it was asked for.
DECIDED = ("yes", "no", "verified", "rejected", "win", "lose", "ecg-yes",
           "ecg-no", "period", "written", "rendered", "parsed", "area", "sim")


@dataclass
class Query:
    """One timed call.  ``run`` returns the outcome; ``expect`` is the
    analytic check (None when the verdict has no closed form), given
    the outcome and returning an error message or None."""

    qid: str
    run: Callable[[], str]
    expect: Callable[[str], str | None] | None = None
    # The failure outcome of a known defect of the program; only that
    # exact failure is excused.
    known_defect: str | None = None


def is_decided(outcome: str) -> bool:
    return outcome.split(":", 1)[0] in DECIDED


def is_failure(outcome: str) -> bool:
    """Raised, tripped a resource guard, or ended with an exit code the
    documents do not give for a valid input."""
    return outcome.startswith(("raise:", "exit"))


def call_cli(main, argv: list) -> tuple[int, str]:
    """Run ``main(argv)`` with stdout and stderr captured; returns the
    exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@dataclass
class PassResult:
    wall_s: float
    latencies: list
    outcomes: dict


def run_pass(queries: list, tracer=None) -> PassResult:
    """Issue every query once, one after another (a closed loop with one
    client).  Exceptions become ``raise:<type>`` outcomes.  A tracer, if
    given, tags its spans with the running query's id."""
    latencies = []
    outcomes = {}
    # Every pass starts from the same heap: garbage left by the previous
    # pass would otherwise be collected at a random point inside this one.
    gc.collect()
    start = time.perf_counter()
    for q in queries:
        if tracer is not None:
            tracer.qid = q.qid
        t0 = time.perf_counter()
        try:
            outcome = q.run()
        except Exception as exc:  # every query failure is counted, not fatal
            outcome = f"raise:{type(exc).__name__}"
        if outcome != SKIP:
            latencies.append(time.perf_counter() - t0)
        outcomes[q.qid] = outcome
    return PassResult(time.perf_counter() - start, latencies, outcomes)


def run_passes(queries: list, seconds: float, tracer=None) -> list:
    """Repeat whole passes while another one is expected to end within
    ``seconds``; always at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(queries, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Percentiles


MIN_TAIL = 10


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    share ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q
    percentile's position."""
    return n - max(math.ceil(q * n), 1)


def tail_percentile(values: list, q: float = 0.9) -> float:
    """The q percentile, refused unless at least MIN_TAIL samples lie
    beyond it."""
    if samples_beyond(len(values), q) < MIN_TAIL:
        raise ValueError(f"{len(values)} samples leave fewer than {MIN_TAIL} "
                         f"beyond the {q:.0%} percentile")
    return percentile(values, q)


# ---------------------------------------------------------------------------
# Verdict checking


@dataclass
class CheckReport:
    attempted: int = 0
    decided: int = 0
    failed: int = 0          # every failed query, known defects included
    known_defects: int = 0   # failures of queries marked known_defect
    problems: dict = field(default_factory=dict)   # qid -> first problem seen

    @property
    def unexpected(self) -> int:
        return self.failed - self.known_defects

    @property
    def correct(self) -> bool:
        return self.unexpected == 0


def compare_with_record(recorded: str, outcome: str) -> str | None:
    """A decided seed verdict must stay as it is: it may neither flip to
    another decided verdict nor be lost to an undecided outcome.  An
    undecided one may become anything."""
    if not is_decided(recorded) or recorded == outcome:
        return None
    if is_decided(outcome):
        return f"verdict flipped from {recorded} to {outcome}"
    return f"decided verdict {recorded} lost: {outcome}"


def check_passes(queries: list, passes: list, record: dict | None) -> CheckReport:
    """Count attempts, decisions and failures over all passes.

    A query execution fails when its outcome is a failure, when it
    contradicts the analytic check, when it differs from the first
    pass, or when it changes a decided verdict of the seed ``record``.
    A known defect's failure is counted but excused only when it is
    exactly the recorded failure.
    """
    report = CheckReport()
    first = passes[0].outcomes
    for i, result in enumerate(passes):
        for q in queries:
            outcome = result.outcomes[q.qid]
            report.attempted += outcome != SKIP
            report.decided += is_decided(outcome)
            problem = None
            if q.expect is not None:
                problem = q.expect(outcome)
            if problem is None and outcome != first[q.qid]:
                problem = f"pass {i} gave {outcome}, pass 0 gave {first[q.qid]}"
            if problem is None and record and q.qid in record:
                problem = compare_with_record(record[q.qid], outcome)
            if problem is not None:
                report.failed += 1
                report.problems.setdefault(q.qid, problem)
            elif is_failure(outcome):
                report.failed += 1
                if outcome == q.known_defect:
                    report.known_defects += 1
                else:
                    report.problems.setdefault(q.qid, outcome)
    return report
