"""Spans around the public functions of each layer, self times, and the
per-layer metrics of a traced run.

Wrappers are installed by rebinding every module attribute of the
``ocn_gamelab`` package that refers to a traced function, so a call
through ``ocn_gamelab.cli.color_planes`` is seen as well as one through
``ocn_gamelab.ocnsim.color_planes`` or ``ocn_gamelab.color_planes``.
Spans stay in memory until the run ends.  The program itself is not
changed: spans only mark the layer boundaries the benchmark can see.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "documents", "ocnsim", "lts", "socn", "countdown", "seqdesc",
          "reductions", "rgame", "render")

# Spans grouped under one metric name: frontier, fitting and period
# detection are one stage of the certificate pipeline.
GROUPS = {"ocnsim.frontier": "ocnsim.fit", "ocnsim.classify_and_fit": "ocnsim.fit",
          "ocnsim.detect_belt_period": "ocnsim.fit",
          "ocnsim.verify_certificate_explain": "ocnsim.verify_certificate"}


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the part of it covered
    by its children.  Spans are (name, start, end, parent, qid) with
    parent an index into ``spans`` or -1.  Children may nest or
    overlap; the covered part is the union of their intervals clipped
    to the parent's."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    result = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append(end - start - covered)
    return result


class Tracer:
    """Records spans and the counters measured at layer boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.qid = None
        self.counts = Counter()
        self.built = set()
        self._installed = []

    def span(self, name, fn, account=None):
        """Wrap ``fn`` so each call records a span.  ``name`` is a string
        or a function of the call's (args, kwargs).  ``account`` gets
        (tracer, args, kwargs, result, exception) after the call."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            record = [label, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                      self.qid]
            spans.append(record)
            stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if account is not None:
                    account(self, args, kwargs, result, exc)
        return traced

    def counter(self, name, fn):
        """Wrap a hot function with a call counter and no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, package) -> None:
        """Rebind every traced function in every loaded module of
        ``package``."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for module_name, attr, make in _targets(self):
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], attr)
            wrapper = make(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()


# ---------------------------------------------------------------------------
# What is traced, and what each boundary counts


def _cells(tracer, args, kwargs, result, exc):
    net, rank_bound, view = args[:3]
    g = view + rank_bound * net.max_delta
    tracer.counts["ocnsim.color_planes.cells"] += g * g * len(net.states) ** 2
    if exc is not None and type(exc).__name__ == "ResourceGuardError":
        tracer.counts["ocnsim.guard_trips"] += 1


def _built(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.built.add(id(result))
        tracer.counts["ocnsim.built"] += 1


def _verified(tracer, args, kwargs, result, exc):
    cert = args[1]
    lcm = 1
    for belt in cert.planes.values():
        if belt.kind == "SF":
            lcm = lcm * belt.period[1] // math.gcd(lcm, belt.period[1])
    tracer.counts["ocnsim.verify_certificate.rows"] += (cert.height + lcm) * len(cert.planes)
    if result is not None and result[0] and id(cert) in tracer.built:
        tracer.counts["ocnsim.verified"] += 1


def _searched(tracer, args, kwargs, result, exc):
    tracer.counts["lts.searches"] += 1
    if result is not None:
        tracer.counts["lts.refuted"] += 1
    if isinstance(exc, RecursionError):
        tracer.counts["lts.recursion_errors"] += 1


def _levels(tracer, args, kwargs, result, exc):
    game, _, n0 = args[:3]
    tracer.counts["countdown.solve_cg.levels"] += n0 + 1
    tracer.counts["countdown.rule_visits"] += (n0 + 1) * len(game.rules)


def _ecg_levels(tracer, args, kwargs, result, exc):
    if result is None:
        return
    last = {"yes": result.n, "no": result.repeat and result.repeat[1],
            "inconclusive": result.cap}.get(result.kind)
    tracer.counts["countdown.solve_ecg.levels"] += (last or 0) + 1


def _ecg_name(args, kwargs):
    low = kwargs.get("low_memory", args[3] if len(args) > 3 else False)
    return "countdown.solve_ecg." + ("low_memory" if low else "hash")


def _rules_out(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["reductions.seqdesc_to_countdown.rules_out"] += len(result[0].rules)


def _symbols(tracer, args, kwargs, result, exc):
    if result is not None and result.kind == "found":
        tracer.counts["seqdesc.symbols"] += result.start + result.period + args[0].m + 1


def _vertices(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["rgame.vertices"] += len(result.vertices)


def _parsed(tracer, args, kwargs, result, exc):
    tracer.counts["documents.parse.bytes"] += len(args[0])


def _serialized(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["documents.serialize.bytes"] += len(result)


def _rendered(tracer, args, kwargs, result, exc):
    for path in result or ():
        tracer.counts["render.bytes"] += os.path.getsize(path)


def _targets(tracer):
    """(module, attribute, wrapper factory) for every traced function."""
    def span(name, account=None):
        return lambda fn: tracer.span(name, fn, account)

    return [
        ("cli", "main", span("cli.main")),
        ("documents", "parse_document", span("documents.parse_document", _parsed)),
        ("documents", "serialize_document",
         span("documents.serialize_document", _serialized)),
        ("ocnsim", "color_planes", span("ocnsim.color_planes", _cells)),
        ("ocnsim", "frontier", span("ocnsim.frontier")),
        ("ocnsim", "classify_and_fit", span("ocnsim.classify_and_fit")),
        ("ocnsim", "detect_belt_period", span("ocnsim.detect_belt_period")),
        ("ocnsim", "build_certificate", span("ocnsim.build_certificate", _built)),
        ("ocnsim", "verify_certificate_explain",
         span("ocnsim.verify_certificate_explain", _verified)),
        ("ocnsim", "decide_sim", span("ocnsim.decide_sim")),
        ("lts", "bounded_attacker_search",
         span("lts.bounded_attacker_search", _searched)),
        ("lts", "max_simulation", span("lts.max_simulation")),
        ("socn", "successors", lambda fn: tracer.counter("socn.successors.calls", fn)),
        ("countdown", "solve_cg", span("countdown.solve_cg", _levels)),
        ("countdown", "solve_ecg", span(_ecg_name, _ecg_levels)),
        ("reductions", "seqdesc_to_countdown",
         span("reductions.seqdesc_to_countdown", _rules_out)),
        ("reductions", "ecg_to_socnrg", span("reductions.ecg_to_socnrg")),
        ("reductions", "socnrgame_to_socn", span("reductions.socnrgame_to_socn")),
        ("reductions", "rgame_to_mimicking_lts", span("reductions.rgame_to_mimicking_lts")),
        ("seqdesc", "tm_to_seqdesc", span("seqdesc.tm_to_seqdesc")),
        ("seqdesc", "find_period", span("seqdesc.find_period", _symbols)),
        ("seqdesc", "decide_gsp", span("seqdesc.decide_gsp")),
        ("rgame", "expand_region", span("rgame.expand_region", _vertices)),
        ("rgame", "winning_area", span("rgame.winning_area")),
        ("render", "render_all", span("render.render_all", _rendered)),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics

# name -> unit, in the order they are reported.
PER_LAYER = {
    "ocnsim.color_planes.self_s": "s",
    "ocnsim.color_planes.calls": "count",
    "ocnsim.color_planes.cells": "count",
    "ocnsim.color_planes.cells_per_s": "1/s",
    "ocnsim.fit.self_s": "s",
    "ocnsim.build_certificate.self_s": "s",
    "ocnsim.verify_certificate.self_s": "s",
    "ocnsim.verify_certificate.rows": "count",
    "ocnsim.decide_sim.self_s": "s",
    "ocnsim.guard_trips": "count",
    "ocnsim.verified_ratio": "ratio",
    "lts.bounded_attacker_search.self_s": "s",
    "lts.bounded_attacker_search.calls": "count",
    "lts.refuted_ratio": "ratio",
    "lts.recursion_errors": "count",
    "socn.successors.calls": "count",
    "socn.successors.calls_per_s": "1/s",
    "countdown.solve_cg.self_s": "s",
    "countdown.solve_cg.levels": "count",
    "countdown.levels_per_s": "1/s",
    "countdown.rule_visits_per_s": "1/s",
    "countdown.solve_ecg.hash.self_s": "s",
    "countdown.solve_ecg.low_memory.self_s": "s",
    "countdown.solve_ecg.levels": "count",
    "reductions.seqdesc_to_countdown.self_s": "s",
    "reductions.seqdesc_to_countdown.rules_out": "count",
    "reductions.rules_out_per_s": "1/s",
    "reductions.socnrgame_to_socn.self_s": "s",
    "reductions.ecg_to_socnrg.self_s": "s",
    "reductions.rgame_to_mimicking_lts.self_s": "s",
    "seqdesc.tm_to_seqdesc.self_s": "s",
    "seqdesc.find_period.self_s": "s",
    "seqdesc.symbols": "count",
    "seqdesc.symbols_per_s": "1/s",
    "rgame.expand_region.self_s": "s",
    "rgame.winning_area.self_s": "s",
    "rgame.vertices": "count",
    "lts.max_simulation.self_s": "s",
    "documents.parse_document.self_s": "s",
    "documents.parse.bytes": "bytes",
    "documents.serialize_document.self_s": "s",
    "documents.serialize.bytes": "bytes",
    "render.render_all.self_s": "s",
    "render.bytes": "bytes",
    "cli.main.self_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.covered_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.verdicts_equal": "bool",
}


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                  untraced_wall: float, verdicts_equal: bool) -> dict:
    """Per-layer metrics, per pass.  ``traced_wall`` and
    ``untraced_wall`` are mean pass times of the two loops."""
    by_name = Counter()
    calls = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = GROUPS.get(span[0], span[0])
        by_name[name] += own
        calls[name] += 1
    c = {key: value / passes for key, value in tracer.counts.items()}
    s = {key: value / passes for key, value in by_name.items()}
    layer_self = {layer: sum(v for k, v in s.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    covered = sum(layer_self.values())
    values = {
        "ocnsim.color_planes.calls": calls["ocnsim.color_planes"] / passes,
        "ocnsim.color_planes.cells": c.get("ocnsim.color_planes.cells", 0),
        "ocnsim.color_planes.cells_per_s": _rate(c.get("ocnsim.color_planes.cells", 0),
                                                 s.get("ocnsim.color_planes", 0)),
        "ocnsim.verified_ratio": _rate(c.get("ocnsim.verified", 0), c.get("ocnsim.built", 0)),
        "lts.bounded_attacker_search.calls": c.get("lts.searches", 0),
        "lts.refuted_ratio": _rate(c.get("lts.refuted", 0), c.get("lts.searches", 0)),
        "socn.successors.calls_per_s": _rate(c.get("socn.successors.calls", 0),
                                             s.get("lts.bounded_attacker_search", 0)),
        "countdown.levels_per_s": _rate(c.get("countdown.solve_cg.levels", 0),
                                        s.get("countdown.solve_cg", 0)),
        "countdown.rule_visits_per_s": _rate(c.get("countdown.rule_visits", 0),
                                             s.get("countdown.solve_cg", 0)),
        "reductions.rules_out_per_s": _rate(
            c.get("reductions.seqdesc_to_countdown.rules_out", 0),
            s.get("reductions.seqdesc_to_countdown", 0)),
        "seqdesc.symbols_per_s": _rate(c.get("seqdesc.symbols", 0),
                                       s.get("seqdesc.find_period", 0)),
        **{f"layer.{layer}.self_s": value for layer, value in layer_self.items()},
        "bench.self_s": traced_wall - covered,
        "trace.wall_s": traced_wall,
        "trace.covered_frac": _rate(covered, traced_wall),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.verdicts_equal": 1.0 if verdicts_equal else 0.0,
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in values:
            value = values[name]
        elif name.endswith(".self_s"):
            value = s.get(name[:-len(".self_s")], 0.0)
        else:
            value = c.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
