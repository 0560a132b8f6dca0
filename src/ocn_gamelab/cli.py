"""Command-line interface.

Subcommands mirror the library surface: countdown and existential
countdown solving, sequence description queries, the constructive
reductions, simulation checking with belt certificates, and plane
rendering.  ``sim check`` and ``sim certify`` build certificates only
through ``ocnsim.certify_colorings``, and ``sim belts`` reads the same
fits and periods from ``ocnsim.belt_periods``.  Documents are the
strict JSON formats of the documents module.

Exit codes: 0 success or positive decision, 1 negative decision,
2 inconclusive or unknown, 3 input error, 4 resource guard (also for
exhausted recursion or memory), 5 internal error (a computed result
contradicted a theorem).  The environment variable
OCN_GAMELAB_CELL_BUDGET overrides the cell budget of coloring and
refutation for the sim and render paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .countdown import solve_cg, solve_ecg
from .documents import (CertificateDoc, DocumentError, InputDocument, net_sha256,
                        parse_document, serialize_document)
from .ocnsim import (INF, InvariantError, ResourceGuardError, UnstableFitError,
                     belt_periods, certify_colorings, classify_and_fit, color_planes,
                     decide_sim, frontier, verify_certificate_explain)
from .reductions import (ecg_to_socnrg, rgame_to_mimicking_lts, seqdesc_to_countdown,
                         socnrgame_to_socn)
from .render import RenderSpec, fit_summary, render_all, render_plane
from .seqdesc import decide_egsp, decide_gsp, eval_at, find_period, tm_to_seqdesc

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(path: str, kind: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    doc = parse_document(data)
    if doc.kind != kind:
        raise DocumentError(f"{path}: expected a {kind} document, got {doc.kind}")
    return doc.value


def _emit(kind: str, value, out: str | None, info: list) -> None:
    """Write a document to --out (info lines to stdout) or to stdout
    (info lines to stderr, keeping stdout parseable)."""
    data = serialize_document(InputDocument(kind, value))
    if out:
        try:
            Path(out).write_bytes(data)
        except OSError as exc:
            raise DocumentError(f"cannot write {out}: {exc}") from None
        for line in info:
            print(line)
    else:
        sys.stdout.write(data.decode("utf-8"))
        for line in info:
            print(line, file=sys.stderr)


def _cell_budget() -> int | None:
    raw = os.environ.get("OCN_GAMELAB_CELL_BUDGET")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise DocumentError("OCN_GAMELAB_CELL_BUDGET: expected an integer") from None


def _parse_query(text: str, flag: str) -> tuple:
    state, sep, counter = text.rpartition(":")
    if not sep or not state:
        raise DocumentError(f"{flag}: expected STATE:COUNTER, got {text!r}")
    try:
        value = int(counter)
    except ValueError:
        raise DocumentError(f"{flag}: counter {counter!r} is not an integer") from None
    if value < 0:
        raise DocumentError(f"{flag}: counter must be nonnegative")
    return state, value


# ---------------------------------------------------------------------------
# Countdown commands


def cmd_cg_solve(args) -> int:
    game = _load(args.game, "countdown")
    if solve_cg(game, args.state, args.n):
        print("WIN")
        return EXIT_OK
    print("LOSE")
    return EXIT_NEGATIVE


def cmd_ecg_solve(args) -> int:
    game = _load(args.game, "countdown")
    answer = solve_ecg(game, args.state, cap=args.cap, low_memory=args.low_memory)
    if answer.kind == "yes":
        print(f"YES (n={answer.n})")
        return EXIT_OK
    if answer.kind == "no":
        j1, j2 = answer.repeat
        print(f"NO (segment repeat at j={j1} and j={j2})")
        return EXIT_NEGATIVE
    print(f"INCONCLUSIVE (cap={answer.cap})")
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Sequence description commands


def cmd_seq_eval(args) -> int:
    d = _load(args.desc, "seqdesc")
    print(eval_at(d, args.i))
    return EXIT_OK


def cmd_seq_period(args) -> int:
    d = _load(args.desc, "seqdesc")
    answer = find_period(d, args.cap)
    if answer.kind == "found":
        print(f"PERIOD start={answer.start} period={answer.period}")
        return EXIT_OK
    print(f"INCONCLUSIVE (cap={args.cap})")
    return EXIT_INCONCLUSIVE


def cmd_seq_gsp(args) -> int:
    d = _load(args.desc, "seqdesc")
    if decide_gsp(d, args.n0, args.symbol):
        print("YES")
        return EXIT_OK
    print("NO")
    return EXIT_NEGATIVE


def cmd_seq_egsp(args) -> int:
    d = _load(args.desc, "seqdesc")
    answer = decide_egsp(d, args.symbol, args.cap)
    if answer.kind == "yes":
        print(f"YES (i={answer.witness})")
        return EXIT_OK
    if answer.kind == "no":
        print("NO")
        return EXIT_NEGATIVE
    print(f"INCONCLUSIVE (cap={args.cap})")
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Reductions


def cmd_reduce_seq2cg(args) -> int:
    d = _load(args.desc, "seqdesc")
    game, sym_state = seqdesc_to_countdown(d)
    info = [f"symbol {b} -> {sym_state[b]}" for b in d.alphabet]
    _emit("countdown", game, args.out, info)
    return EXIT_OK


def cmd_reduce_ecg2rg(args) -> int:
    game = _load(args.game, "countdown")
    extended, fresh = ecg_to_socnrg(game, args.state)
    _emit("socn-rgame", extended, args.out, [f"start={fresh}"])
    return EXIT_OK


def cmd_reduce_rg2lts(args) -> int:
    game = _load(args.game, "rgame")
    mimicking = rgame_to_mimicking_lts(game)
    _emit("lts", mimicking.lts, args.out, [])
    return EXIT_OK


def cmd_reduce_rg2socn(args) -> int:
    game = _load(args.game, "socn-rgame")
    _emit("socn", socnrgame_to_socn(game), args.out, [])
    return EXIT_OK


def cmd_reduce_tm2seq(args) -> int:
    machine = _load(args.machine, "tm")
    _emit("seqdesc", tm_to_seqdesc(machine, args.input, args.m), args.out, [])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Simulation commands


def cmd_sim_check(args) -> int:
    net = _load(args.net, "socn")
    p, m = _parse_query(args.left, "--left")
    q, n = _parse_query(args.right, "--right")
    decision = decide_sim(net, p, m, q, n, budget=args.budget, view=args.view,
                          rank_bound=args.rank_bound, cell_budget=_cell_budget())
    if decision.kind == "yes":
        print("YES")
        return EXIT_OK
    if decision.kind == "no":
        print(f"NO (rank={decision.rank})")
        return EXIT_NEGATIVE
    print("UNKNOWN")
    for key in sorted(decision.diagnostics):
        if key in ("fits", "periods"):
            continue
        print(f"  {key}: {decision.diagnostics[key]}", file=sys.stderr)
    return EXIT_INCONCLUSIVE


def _colorings(net, args):
    view = args.view
    rank_bound = args.rank_bound if args.rank_bound is not None else 2 * view
    return color_planes(net, rank_bound, view, cell_budget=_cell_budget())


def cmd_sim_plane(args) -> int:
    net = _load(args.net, "socn")
    states = set(net.states)
    if args.left not in states or args.right not in states:
        raise DocumentError("--left/--right: unknown control state")
    colorings = _colorings(net, args)
    coloring = colorings[(args.left, args.right)]
    fr = frontier(coloring)
    for n, v in enumerate(fr.values):
        print(f"f({n}) = {'inf' if v == INF else v}")
    try:
        fit = classify_and_fit({(args.left, args.right): fr})[(args.left, args.right)]
    except UnstableFitError as exc:
        print(f"fit: unstable ({exc})")
        return EXIT_INCONCLUSIVE
    print(f"fit: {fit_summary(fit)}")
    return EXIT_OK


def cmd_sim_belts(args) -> int:
    net = _load(args.net, "socn")
    try:
        fits, periods = belt_periods(_colorings(net, args))
    except UnstableFitError as exc:
        print(f"UNSTABLE ({exc})")
        return EXIT_INCONCLUSIVE
    for plane in sorted(fits):
        line = f"({plane[0]},{plane[1]}) {fit_summary(fits[plane])}"
        if plane in periods:
            period = periods[plane]
            line += (" period=?" if period is None
                     else f" period=({period[0]},{period[1]})")
        print(line)
    return EXIT_INCONCLUSIVE if None in periods.values() else EXIT_OK


def cmd_sim_certify(args) -> int:
    net = _load(args.net, "socn")
    if args.cert:
        doc = _load(args.cert, "certificate")
        if doc.net_sha256 != net_sha256(net):
            raise DocumentError(f"{args.cert}: certificate was built for a "
                                "different net (hash mismatch)")
        ok, failures = verify_certificate_explain(net, doc.certificate)
        if ok:
            print("VERIFIED")
            return EXIT_OK
        for line in failures:
            print(f"  {line}")
        print("REJECTED")
        return EXIT_NEGATIVE
    if not args.out:
        raise DocumentError("pass --out to build a certificate or --cert to "
                            "verify an existing one")
    decision = certify_colorings(net, _colorings(net, args))
    diagnostics = decision.diagnostics
    if "unstable_fit" in diagnostics:
        print(f"UNSTABLE ({diagnostics['unstable_fit']})")
        return EXIT_INCONCLUSIVE
    if "period_not_found" in diagnostics:
        p, q = diagnostics["period_not_found"]
        print(f"PERIOD NOT FOUND for plane ({p},{q})")
        return EXIT_INCONCLUSIVE
    if decision.kind != "yes":
        for line in diagnostics["verification_failures"]:
            print(f"  {line}")
        print("UNVERIFIED")
        return EXIT_INCONCLUSIVE
    doc = CertificateDoc(certificate=decision.certificate, net_sha256=net_sha256(net))
    _emit("certificate", doc, args.out, ["VERIFIED"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Rendering


def _render_spec(args, emit_ranks: bool = False) -> RenderSpec:
    return RenderSpec(format=args.format, cell_size=args.cell_size,
                      show_frontier=not args.no_frontier, show_fitted=args.fitted,
                      emit_ranks=emit_ranks)


def cmd_render_plane(args) -> int:
    net = _load(args.net, "socn")
    states = set(net.states)
    if args.left not in states or args.right not in states:
        raise DocumentError("--left/--right: unknown control state")
    colorings = _colorings(net, args)
    plane = (args.left, args.right)
    fit = None
    try:
        fit = classify_and_fit({plane: frontier(colorings[plane])})[plane]
    except UnstableFitError:
        pass
    data = render_plane(colorings[plane], _render_spec(args), fit)
    try:
        Path(args.out).write_bytes(data)
    except OSError as exc:
        raise DocumentError(f"cannot write {args.out}: {exc}") from None
    print(args.out)
    return EXIT_OK


def cmd_render_all(args) -> int:
    net = _load(args.net, "socn")
    colorings = _colorings(net, args)
    fits = {}
    for plane, col in colorings.items():
        try:
            fits[plane] = classify_and_fit({plane: frontier(col)})[plane]
        except UnstableFitError:
            pass
    written = render_all(colorings, fits, args.dir, _render_spec(args, args.ranks))
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def _add_view_options(parser, default_view=16):
    parser.add_argument("--view", type=int, default=default_view,
                        help="exact interior size (default %(default)s)")
    parser.add_argument("--rank-bound", type=int, default=None,
                        help="coloring rank bound (default 2*view)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ocn-gamelab",
                     description="Countdown games, sequence descriptions, and "
                                 "simulation on one-counter nets.")
    sub = parser.add_subparsers(dest="command", required=True)

    cg = sub.add_parser("cg", help="countdown games")
    cg_sub = cg.add_subparsers(dest="subcommand", required=True)
    cg_solve = cg_sub.add_parser("solve", help="decide one configuration")
    cg_solve.add_argument("--game", required=True, help="countdown document")
    cg_solve.add_argument("--state", required=True)
    cg_solve.add_argument("--n", type=int, required=True)
    cg_solve.set_defaults(func=cmd_cg_solve)

    ecg = sub.add_parser("ecg", help="existential countdown games")
    ecg_sub = ecg.add_subparsers(dest="subcommand", required=True)
    ecg_solve = ecg_sub.add_parser("solve", help="is any counter value winning")
    ecg_solve.add_argument("--game", required=True, help="countdown document")
    ecg_solve.add_argument("--state", required=True)
    ecg_solve.add_argument("--cap", type=int, default=None)
    ecg_solve.add_argument("--low-memory", action="store_true",
                           help="start the segment-repeat search at level M, not M - 1")
    ecg_solve.set_defaults(func=cmd_ecg_solve)

    seq = sub.add_parser("seq", help="sequence descriptions")
    seq_sub = seq.add_subparsers(dest="subcommand", required=True)
    seq_eval = seq_sub.add_parser("eval", help="symbol at a position")
    seq_eval.add_argument("--desc", required=True, help="seqdesc document")
    seq_eval.add_argument("--i", type=int, required=True)
    seq_eval.set_defaults(func=cmd_seq_eval)
    seq_period = seq_sub.add_parser("period", help="least repeating window")
    seq_period.add_argument("--desc", required=True)
    seq_period.add_argument("--cap", type=int, default=100000)
    seq_period.set_defaults(func=cmd_seq_period)
    seq_gsp = seq_sub.add_parser("gsp", help="is the symbol at n0 equal to beta")
    seq_gsp.add_argument("--desc", required=True)
    seq_gsp.add_argument("--n0", type=int, required=True)
    seq_gsp.add_argument("--symbol", required=True)
    seq_gsp.set_defaults(func=cmd_seq_gsp)
    seq_egsp = seq_sub.add_parser("egsp", help="does the symbol occur at all")
    seq_egsp.add_argument("--desc", required=True)
    seq_egsp.add_argument("--symbol", required=True)
    seq_egsp.add_argument("--cap", type=int, default=100000)
    seq_egsp.set_defaults(func=cmd_seq_egsp)

    reduce_p = sub.add_parser("reduce", help="constructive reductions")
    reduce_sub = reduce_p.add_subparsers(dest="subcommand", required=True)
    seq2cg = reduce_sub.add_parser("seq2cg", help="sequence description to countdown")
    seq2cg.add_argument("--desc", required=True)
    seq2cg.add_argument("--out", default=None)
    seq2cg.set_defaults(func=cmd_reduce_seq2cg)
    ecg2rg = reduce_sub.add_parser("ecg2rg",
                                   help="existential countdown to counter game")
    ecg2rg.add_argument("--game", required=True)
    ecg2rg.add_argument("--state", required=True)
    ecg2rg.add_argument("--out", default=None)
    ecg2rg.set_defaults(func=cmd_reduce_ecg2rg)
    rg2lts = reduce_sub.add_parser("rg2lts", help="reachability game to mimicking LTS")
    rg2lts.add_argument("--game", required=True, help="rgame document")
    rg2lts.add_argument("--out", default=None)
    rg2lts.set_defaults(func=cmd_reduce_rg2lts)
    rg2socn = reduce_sub.add_parser("rg2socn", help="counter game to one-counter net")
    rg2socn.add_argument("--game", required=True, help="socn-rgame document")
    rg2socn.add_argument("--out", default=None)
    rg2socn.set_defaults(func=cmd_reduce_rg2socn)
    tm2seq = reduce_sub.add_parser("tm2seq", help="Turing machine to description")
    tm2seq.add_argument("--machine", required=True, help="tm document")
    tm2seq.add_argument("--input", default="")
    tm2seq.add_argument("--m", type=int, required=True, help="row length")
    tm2seq.add_argument("--out", default=None)
    tm2seq.set_defaults(func=cmd_reduce_tm2seq)

    sim = sub.add_parser("sim", help="simulation preorder on one-counter nets")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    sim_check = sim_sub.add_parser("check", help="decide one configuration pair")
    sim_check.add_argument("--net", required=True, help="socn document")
    sim_check.add_argument("--left", required=True, metavar="STATE:COUNTER")
    sim_check.add_argument("--right", required=True, metavar="STATE:COUNTER")
    sim_check.add_argument("--budget", type=int, default=None,
                           help="refutation rounds (default rank bound)")
    sim_check.add_argument("--view", type=int, default=None)
    sim_check.add_argument("--rank-bound", type=int, default=None)
    sim_check.set_defaults(func=cmd_sim_check)
    sim_plane = sim_sub.add_parser("plane", help="frontier of one plane")
    sim_plane.add_argument("--net", required=True)
    sim_plane.add_argument("--left", required=True)
    sim_plane.add_argument("--right", required=True)
    _add_view_options(sim_plane)
    sim_plane.set_defaults(func=cmd_sim_plane)
    sim_belts = sim_sub.add_parser("belts", help="classify every plane")
    sim_belts.add_argument("--net", required=True)
    _add_view_options(sim_belts)
    sim_belts.set_defaults(func=cmd_sim_belts)
    sim_certify = sim_sub.add_parser("certify",
                                     help="build or verify a belt certificate")
    sim_certify.add_argument("--net", required=True)
    sim_certify.add_argument("--out", default=None, help="write a new certificate")
    sim_certify.add_argument("--cert", default=None, help="verify this certificate")
    _add_view_options(sim_certify)
    sim_certify.set_defaults(func=cmd_sim_certify)

    render = sub.add_parser("render", help="images of plane colorings")
    render_sub = render.add_subparsers(dest="subcommand", required=True)
    render_plane_p = render_sub.add_parser("plane", help="one plane to a file")
    render_plane_p.add_argument("--net", required=True)
    render_plane_p.add_argument("--left", required=True)
    render_plane_p.add_argument("--right", required=True)
    render_plane_p.add_argument("--out", required=True)
    render_all_p = render_sub.add_parser("all", help="every plane into a directory")
    render_all_p.add_argument("--net", required=True)
    render_all_p.add_argument("--dir", required=True)
    render_all_p.add_argument("--ranks", action="store_true",
                              help="also write white-rank matrices")
    for p in (render_plane_p, render_all_p):
        p.add_argument("--format", choices=("pgm", "svg"), default="pgm")
        p.add_argument("--cell-size", type=int, default=1)
        p.add_argument("--no-frontier", action="store_true")
        p.add_argument("--fitted", action="store_true")
        _add_view_options(p)
    render_plane_p.set_defaults(func=cmd_render_plane)
    render_all_p.set_defaults(func=cmd_render_all)

    return parser


_parser = None


def main(argv=None) -> int:
    # The parser tree is built on the first call, not at import, and
    # kept: parsing leaves it unchanged.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceGuardError, RecursionError, MemoryError) as exc:
        print(f"resource guard: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
