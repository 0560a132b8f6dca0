"""Games and simulation on one-counter nets.

The package groups four toolboxes that feed each other:

* finite labelled transition systems with the simulation preorder and
  a bounded attacker search (:mod:`~ocn_gamelab.lts`), plus
  reachability games and counter reachability games
  (:mod:`~ocn_gamelab.rgame`);
* countdown games and their existential variant
  (:mod:`~ocn_gamelab.countdown`);
* periodic sequence descriptions, their decision problems, and the
  Turing machine encodings behind the double-exponential period family
  (:mod:`~ocn_gamelab.seqdesc`);
* the chain of reductions connecting all of the above to simulation on
  succinct one-counter nets (:mod:`~ocn_gamelab.reductions`), and the
  plane-coloring machinery that decides that simulation with checkable
  belt certificates (:mod:`~ocn_gamelab.ocnsim`, whose single pipeline
  from colorings to a verified certificate is ``certify_colorings``).

JSON input/output lives in :mod:`~ocn_gamelab.documents`, images in
:mod:`~ocn_gamelab.render`, and the ``ocn-gamelab`` entry point in
:mod:`~ocn_gamelab.cli`.
"""

from .countdown import CountdownGame, EcgAnswer, solve_cg, solve_ecg
from .documents import (CertificateDoc, DocumentError, InputDocument, net_sha256,
                        parse_document, serialize_document)
from .lts import Lts, LtsError, bounded_attacker_search, max_simulation
from .ocnsim import (INF, BeltCertificate, BeltFit, Frontier, InvariantError,
                     MalformedCertificateError, PlaneBelt, PlaneColoring,
                     ResourceGuardError, SimDecision, UnstableFitError, belt_periods,
                     build_certificate, certify_colorings, classify_and_fit,
                     color_planes, decide_sim, detect_belt_period, frontier,
                     verify_certificate_explain)
from .reductions import (MimickingLts, dedup_rules, ecg_to_socnrg,
                         edge_action, rgame_to_mimicking_lts,
                         seqdesc_to_countdown, socnrgame_to_socn)
from .render import RenderError, RenderSpec, fit_summary, rank_matrix, render_all, render_plane
from .rgame import (ADAM, EVE, GameError, RGame, SocnRGame, WinningArea,
                    expand_region, winning_area)
from .seqdesc import (EgspAnswer, PeriodAnswer, SeqDescription, SeqError,
                      TuringMachine, decide_egsp, decide_gsp,
                      doubleexp_period_instance, eval_at, eval_prefix, find_period,
                      head_symbol, symbol_stream, tm_to_seqdesc)
from .socn import Config, NetError, Rule, Socn, successors

__version__ = "0.1.0"

__all__ = [
    "ADAM", "EVE", "INF",
    "BeltCertificate", "BeltFit", "CertificateDoc", "Config", "CountdownGame",
    "DocumentError", "EcgAnswer", "EgspAnswer", "Frontier", "GameError",
    "InputDocument", "InvariantError", "Lts", "LtsError",
    "MalformedCertificateError", "MimickingLts", "NetError", "PeriodAnswer",
    "PlaneBelt", "PlaneColoring", "RGame", "RenderError", "RenderSpec",
    "ResourceGuardError", "Rule", "SeqDescription", "SeqError", "SimDecision",
    "Socn", "SocnRGame", "TuringMachine", "UnstableFitError", "WinningArea",
    "belt_periods", "bounded_attacker_search", "build_certificate",
    "certify_colorings", "classify_and_fit", "color_planes",
    "decide_egsp", "decide_gsp", "decide_sim", "dedup_rules", "detect_belt_period",
    "doubleexp_period_instance", "ecg_to_socnrg", "edge_action", "eval_at",
    "eval_prefix",
    "expand_region", "find_period", "fit_summary", "frontier", "head_symbol",
    "max_simulation", "net_sha256", "parse_document",
    "rank_matrix", "render_all", "render_plane", "rgame_to_mimicking_lts",
    "seqdesc_to_countdown", "serialize_document", "socnrgame_to_socn",
    "solve_cg", "solve_ecg", "successors", "symbol_stream", "tm_to_seqdesc",
    "verify_certificate_explain", "winning_area",
]
