"""Closed-loop benchmark of ocn-gamelab.

    python3 perfbench/run.py --workload sim-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in one process issues the workload's queries one after
another, repeating whole passes for ``--seconds``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` an untraced loop and then
a traced loop of half the time each, and the per-layer metrics.  The
last stdout line is one JSON object (correct, attempted, failed,
metrics); the lines before it are a readable report.  ``--workload all``
runs every workload in its own process, one at a time, and exits non-zero
when any verdict check fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded numeric libraries, pinned before numpy is imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("sim-certify", "sim-refute", "word-games")
SETUP_RUNS = 7


def _import_program():
    """Import ocn_gamelab from this checkout's sources, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "ocn_gamelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ocn_gamelab sources under {src}")
    sys.path.insert(0, str(src))
    import ocn_gamelab
    if Path(ocn_gamelab.__file__).resolve().parent != src / "ocn_gamelab":
        sys.exit(f"perfbench: imported ocn_gamelab from {ocn_gamelab.__file__}")
    return ocn_gamelab


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit(), "seed": seed,
            **{var: os.environ[var] for var in BLAS_VARS}}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_record(workload: str, seed: int) -> dict | None:
    path = HERE / "verdicts.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: str, seed: int, work: Path):
    """Generate the instances, write their documents and run the
    untimed warm-up query."""
    import workloads
    work.mkdir(parents=True, exist_ok=True)
    built = workloads.BUILDERS[workload](seed, work)
    built.warmup.run()
    return built


def measure_setup(workload: str, seed: int) -> list:
    """Wall time from starting a fresh process to the end of its set-up,
    for SETUP_RUNS processes run one after another."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--setup-only"], stdout=subprocess.PIPE,
                              cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed ({child.returncode})")
    return times


# ---------------------------------------------------------------------------
# One workload


def end_to_end(passes, report, setup_times, peak_rss_mb) -> dict:
    """The seven end-to-end metrics as name -> (value, unit)."""
    from harness import percentile, tail_percentile
    latencies = [t for p in passes for t in p.latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "query_s.p50": (percentile(latencies, 0.5), "s"),
        "query_s.p90": (tail_percentile(latencies, 0.9), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (report.failed / report.attempted, "ratio"),
        "decided_frac": (report.decided / report.attempted, "ratio"),
    }


def run_workload(args) -> int:
    lib = _import_program()
    from harness import check_passes, run_passes
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        built = setup(args.workload, args.seed, work)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        queries = built.queries
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = run_passes(queries, seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(lib)
            try:
                traced = run_passes(queries, seconds, tracer)
            finally:
                tracer.uninstall()
        # The traced loop's verdicts are checked too, against the untraced
        # first pass: the wrappers add stack frames near the recursion limit.
        report = check_passes(queries, passes + (traced or []),
                              load_record(args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_times = measure_setup(args.workload, args.seed)
    env = environment(args.seed)
    spec = load_spec()
    e2e = end_to_end(passes, report, setup_times, peak)
    samples = sum(len(p.latencies) for p in passes)
    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
             f"queries/pass {len(queries)}  samples {samples}",
             "environment " + json.dumps(env, sort_keys=True)]
    lines += [f"  {name:<14} {value:12.6g} {unit}" for name, (value, unit) in e2e.items()]
    lines.append(f"  setup runs     {', '.join(f'{t:.4f}' for t in setup_times)} s")
    lines.append(f"  failed {report.failed} of {report.attempted} "
                 f"(known defects {report.known_defects}), decided {report.decided}")
    lines += [f"  CHECK FAILED {qid}: {problem}" for qid, problem in report.problems.items()]
    if traced is None:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in names}
    else:
        from tracing import layer_metrics
        equal = passes[0].outcomes == traced[0].outcomes
        if not equal:
            lines += [f"  TRACED VERDICT DIFFERS {qid}: {o} vs {traced[0].outcomes[qid]}"
                      for qid, o in passes[0].outcomes.items()
                      if o != traced[0].outcomes[qid]]
        layer = layer_metrics(tracer, len(traced),
                              statistics.mean(p.wall_s for p in traced),
                              statistics.mean(p.wall_s for p in passes), equal)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: layer[name] for name in names}
        lines += [f"  {name:<44} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
        _write(OUT / f"spans-{args.workload}-seed{args.seed}.json",
               {"fields": ["name", "start", "end", "parent", "qid"], "spans": tracer.spans})
    result = {"correct": report.correct, "attempted": report.attempted,
              "failed": report.unexpected, "metrics": metrics}
    _write(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
           {**result, "environment": env, "samples": samples, "passes": len(passes),
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "failed_all": report.failed, "known_defects": report.known_defects,
            "problems": report.problems, "outcomes": passes[0].outcomes})
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if report.correct else 1


def _write(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    _import_program()
    status = 0
    rows = []
    for workload in WORKLOADS:
        result = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        status = status or done.returncode
        if args.trace == 0 and result.is_file():
            rows.append((workload, json.loads(result.read_text())))
    if rows:
        names = list(rows[0][1]["end_to_end"])
        print("\n" + f"{'metric':<14} {'unit':<6}" + "".join(f"{w:>14}" for w, _ in rows))
        for name in names:
            unit = rows[0][1]["end_to_end"][name]["unit"]
            print(f"{name:<14} {unit:<6}" + "".join(
                f"{r['end_to_end'][name]['value']:14.6g}" for _, r in rows))
        print(f"{'samples':<14} {'count':<6}" + "".join(f"{r['samples']:14d}" for _, r in rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
