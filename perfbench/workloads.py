"""The three workloads: seeded instance generators and their query lists.

Each ``build_*`` function takes the seed and a scratch directory,
generates the instances, writes the input documents and returns a
``Workload``: the ordered queries of one pass plus an untimed warm-up
query.  Queries go through ``ocn_gamelab.cli.main`` where a command
exists and its document is small, and through names exported from
``ocn_gamelab`` otherwise.  Every call looks its target up at call time,
so the traced run's rebound wrappers see it.

Why these workloads (see README.md for the metric table):

* ``sim-certify``: the positive side of simulation.  Plane coloring
  dominates (drain net at view 128), followed by certificate building
  and re-verification.
* ``sim-refute``: the negative side.  Time goes to the refutation search
  over configuration successors; coloring runs only at tiny views, so
  this workload bypasses the coloring engine.
* ``word-games``: the hardness chain, Turing machine -> sequence
  description -> countdown game.  Level streaming dominates; no coloring
  and no search run.  Two working-set sizes: word games of 15k-22k
  states and the 328k-state game of the level-1 double-exponential
  instance.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ocn_gamelab as lib
from ocn_gamelab import cli

from harness import SKIP, Query, call_cli

BLANK = " "


@dataclass
class Workload:
    queries: list
    warmup: Query


# ---------------------------------------------------------------------------
# Documents, CLI queries and outcome parsing


def write_doc(path: Path, kind: str, value) -> str:
    path.write_bytes(lib.serialize_document(lib.InputDocument(kind, value)))
    return str(path)


def _last_line(out: str) -> str:
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def parse_outcome(command: str, code: int, out: str) -> str:
    """Normalise a CLI result.  Exit codes outside the command's
    documented answers become ``exit<code>``."""
    line = _last_line(out)
    if command == "sim check":
        if code == 0:
            return "yes"
        if code == 1:
            return "no:" + re.search(r"rank=(\d+)", line).group(1)
        if code == 2:
            return "unknown"
    elif command == "certify out":
        if code == 0:
            return "verified"
        if code == 2:
            return line.split(" ", 1)[0].lower().replace("period", "noperiod")
    elif command == "certify cert":
        if code in (0, 1):
            return "verified" if code == 0 else "rejected"
    elif command == "cg solve":
        if code in (0, 1):
            return "win" if code == 0 else "lose"
    elif command == "seq gsp":
        if code in (0, 1):
            return "yes" if code == 0 else "no"
    elif command == "ecg solve":
        if code == 0:
            return "ecg-yes:" + re.search(r"n=(\d+)", line).group(1)
        if code == 1:
            return "ecg-no:{}-{}".format(*re.findall(r"j=(\d+)", line))
        if code == 2:
            return "inconclusive"
    elif command == "seq period":
        if code == 0:
            return "period:{}/{}".format(*re.findall(r"=(\d+)", line))
        if code == 2:
            return "inconclusive"
    elif command == "reduce":
        if code == 0:
            return "written"
    elif command == "render":
        if code == 0:
            return f"rendered:{len(out.split())}"
    return f"exit{code}"


def cli_query(command: str, argv: list, before: Callable[[], None] | None = None):
    """A query body running ``ocn-gamelab argv`` in-process."""
    argv = [str(a) for a in argv]

    def run() -> str:
        if before is not None:
            before()
        code, out = call_cli(cli.main, argv)
        return parse_outcome(command, code, out)
    return run


def interleave(queries: list, block: list) -> list:
    """``queries`` in their order with ``block`` spread evenly among them.
    A block of similar queries run back to back takes a few seconds at
    most, so the host's state in those seconds would set the percentile
    inside it; spread over the pass, the block sees the same host as the
    pass time does."""
    out = list(queries)
    for i, q in enumerate(block):
        out.insert(i + i * (len(queries) + 1) // len(block), q)
    return out


def equals(expected: str):
    def expect(outcome: str):
        return None if outcome == expected else f"expected {expected}, got {outcome}"
    return expect


# ---------------------------------------------------------------------------
# Nets


def drain_net():
    """The README net: q(n) simulates p(m) exactly when n >= 2m."""
    R = lib.Rule
    return lib.Socn(states=("p", "p1", "q", "q1"), actions=("a", "b"),
                    rules=(R("p", "a", -1, "p1"), R("p1", "b", 0, "p"),
                           R("q", "a", -1, "q1"), R("q1", "b", -1, "q")))


def random_net(rng, n_states: int, n_rules: int, max_delta: int):
    states = tuple(f"p{i}" for i in range(n_states))
    rules = {}
    while len(rules) < n_rules:
        key = (rng.choice(states), rng.choice("ab"),
               rng.randint(-max_delta, max_delta), rng.choice(states))
        rules.setdefault(key, lib.Rule(*key))
    return lib.Socn(states=states, actions=("a", "b"), rules=tuple(rules.values()))


def drain_expect(m: int, n: int):
    """Membership on the drain net is analytic: black iff n >= 2m.  A
    refutation of (m, 2m-1) takes exactly 2m moves."""
    def expect(outcome: str):
        if n >= 2 * m and outcome.startswith("no"):
            return f"refuted a simulated pair: {outcome}"
        if n < 2 * m and outcome == "yes":
            return "certified a refutable pair"
        if n == 2 * m - 1 and outcome.startswith("no:") and outcome != f"no:{2 * m}":
            return f"rank should be {2 * m}, got {outcome}"
        return None
    return expect


def certify_pair(name: str, net_doc: str, cert: Path, view: int, expect=None):
    """``sim certify --out`` and then ``--cert`` on what it wrote.  When
    no certificate was written there is nothing to re-check: SKIP."""
    def recheck() -> str:
        if not cert.exists():
            return SKIP
        return cli_query("certify cert", ["sim", "certify", "--net", net_doc,
                                          "--cert", cert])()
    build = cli_query("certify out", ["sim", "certify", "--net", net_doc, "--out", cert,
                                      "--view", view],
                      before=lambda: cert.unlink(missing_ok=True))
    return [Query(f"{name}.certify", build, expect),
            Query(f"{name}.recheck", recheck,
                  lambda o: None if o in ("verified", SKIP) else f"re-check {o}")]


def drain_checks(name: str, rng, doc: str, count: int, views: range) -> list:
    """``sim check`` yes-queries at large counters and a small view: the
    search fails to refute within 2*view moves and a certificate built
    at that view covers the pair, so the answer must be a definite
    ``yes``.  Their cost depends on the view only, and the views cycle
    through fixed slots, so a block's latencies spread evenly and do not
    depend on the seed."""
    queries = []
    for i in range(count):
        m = rng.randint(1000, 5000)
        n = 2 * m + rng.randint(0, 3)
        queries.append(Query(f"{name}.{i}", cli_query(
            "sim check", ["sim", "check", "--net", doc, "--left", f"p:{m}",
                          "--right", f"q:{n}", "--view", views[i % len(views)]]),
            equals("yes")))
    return queries


# ---------------------------------------------------------------------------
# sim-certify
#
# Blocks of similar queries are placed so that the percentiles fall
# inside them, away from the seed-dependent random nets: 90 yes-checks at
# views 10-22 hold the median, 24 at views 30-50 hold p90, and the random
# nets' share of the pass time stays near a fifth.  The costs inside a
# block spread evenly rather than sitting on one plateau: the host's
# contention slows a query by up to 1.8x, and a percentile on a plateau
# would jump between the fast and the slow copy of it from run to run
# instead of moving in proportion to the contention.


def build_sim_certify(seed: int, work: Path) -> Workload:
    rng = random.Random(f"sim-certify/{seed}")
    drain = write_doc(work / "drain.json", "socn", drain_net())
    queries = []
    for view in (32, 64, 128):
        queries += certify_pair(f"drain.v{view}", drain, work / f"drain-v{view}.cert",
                                view, equals("verified"))
    mid = drain_checks("drain.check.mid", rng, drain, 90, range(10, 23))
    tail = drain_checks("drain.check.tail", rng, drain, 24, range(30, 51, 2))
    for fmt in ("pgm", "svg"):
        # 16 planes and the manifest.
        queries.append(Query(f"drain.render.{fmt}", cli_query(
            "render", ["render", "all", "--net", drain, "--dir", work / f"img-{fmt}",
                       "--view", 48, "--format", fmt]), equals("rendered:17")))
    # Sizes and views are spread over fixed slots, not drawn, so that the
    # seed varies the nets' rules but not how much coloring they need.
    for i in range(8):
        net = random_net(rng, 3 + i % 2, 6 + i % 3, 1)
        doc = write_doc(work / f"unary{i}.json", "socn", net)
        queries += certify_pair(f"unary{i}", doc, work / f"unary{i}.cert", 48 + 2 * i)
    for i in range(16):
        net = random_net(rng, 2 + i % 2, 4 + i % 3, 3)
        doc = write_doc(work / f"succinct{i}.json", "socn", net)
        queries += certify_pair(f"succinct{i}", doc, work / f"succinct{i}.cert",
                                24 + i // 2)
    queries = interleave(interleave(queries, mid), tail)
    warmup = Query("warmup", cli_query("certify out", [
        "sim", "certify", "--net", drain, "--out", work / "warmup.cert", "--view", 64]))
    return Workload(queries, warmup)


# ---------------------------------------------------------------------------
# sim-refute
#
# The search dominates through yes-queries on the walk net, whose cost
# grows with the cube of the budget and does not depend on the seed:
# budgets 16-24 hold the median and budgets 32-40 hold p90, spread evenly
# for the reason given at sim-certify.  Random nets add
# refutations of every shape at budget 16, which keeps their slowest
# searches (whose cost the seed decides) short.


def walk_net():
    """Both states step the counter up or down on a and idle on b, so q
    can copy every move of p: q(n) simulates p(m) for all m and n, and a
    refutation search explores every pair it can reach."""
    R = lib.Rule
    return lib.Socn(states=("p", "q"), actions=("a", "b"),
                    rules=(R("p", "a", 1, "p"), R("p", "a", -1, "p"), R("p", "b", 0, "p"),
                           R("q", "a", 1, "q"), R("q", "a", -1, "q"), R("q", "b", 0, "q")))


class ColoringOracle:
    """Attacker ranks read off one plane coloring per net, made after
    the timed loop.  The coloring is exact on its interior, so it checks
    the search's ranks by an independent algorithm."""

    def __init__(self, net, view: int, rank_bound: int):
        self.net, self.view, self.rank_bound = net, view, rank_bound
        self._planes = None

    def rank(self, p: str, m: int, q: str, n: int):
        if self._planes is None:
            self._planes = lib.color_planes(self.net, self.rank_bound, self.view)
        return self._planes[(p, q)].rank(m, n)

    def expect(self, p: str, m: int, q: str, n: int):
        def expect(outcome: str):
            rank = self.rank(p, m, q, n)
            if outcome.startswith("no:"):
                if rank != int(outcome[3:]):
                    return f"coloring gives rank {rank}, search {outcome}"
            elif outcome == "yes" and rank is not None:
                return f"certified a pair of rank {rank}"
            return None
        return expect


def build_sim_refute(seed: int, work: Path) -> Workload:
    rng = random.Random(f"sim-refute/{seed}")
    drain = write_doc(work / "drain.json", "socn", drain_net())
    walk = write_doc(work / "walk.json", "socn", walk_net())
    queries = []
    for i in range(15):
        m = rng.randint(1, 300)
        queries.append(Query(f"drain.no.{i}", cli_query(
            "sim check", ["sim", "check", "--net", drain, "--left", f"p:{m}",
                          "--right", f"q:{2 * m - 1}"]), drain_expect(m, 2 * m - 1)))
    blocks = {}
    for block, budgets, count in (("mid", range(16, 25), 50), ("tail", range(32, 41), 16)):
        blocks[block] = []
        for i in range(count):
            m = rng.randint(100, 1000)
            budget = budgets[i % len(budgets)]
            blocks[block].append(Query(f"walk.{block}.{i}", cli_query(
                "sim check", ["sim", "check", "--net", walk, "--left", f"p:{m}",
                              "--right", f"q:{m + rng.randint(-5, 5)}",
                              "--budget", budget, "--view", 6]), equals("yes")))
    for i in range(6):
        net = random_net(rng, 3 + i % 2, 6 + i % 3, 1)
        doc = write_doc(work / f"unary{i}.json", "socn", net)
        oracle = ColoringOracle(net, 21, 16)
        for j in range(4):
            p, m, q, n = (rng.choice(net.states), rng.randint(0, 20),
                          rng.choice(net.states), rng.randint(0, 20))
            queries.append(Query(f"unary{i}.{j}", cli_query(
                "sim check", ["sim", "check", "--net", doc, "--left", f"{p}:{m}",
                              "--right", f"{q}:{n}", "--budget", 16, "--view", 6]),
                oracle.expect(p, m, q, n)))
    # Known defects of the program, kept so that their fix shows.
    queries.append(Query("defect.recursion", cli_query(
        "sim check", ["sim", "check", "--net", drain, "--left", "p:700",
                      "--right", "q:1399", "--budget", 3000]),
        drain_expect(700, 1399), known_defect="raise:RecursionError"))
    queries.append(Query("defect.guard", cli_query(
        "sim check", ["sim", "check", "--net", drain, "--left", "p:200",
                      "--right", "q:400"]),
        drain_expect(200, 400), known_defect="exit4"))
    queries = interleave(interleave(queries, blocks["mid"]), blocks["tail"])
    warmup = Query("warmup", cli_query("sim check", [
        "sim", "check", "--net", walk, "--left", "p:500", "--right", "q:500",
        "--budget", 20, "--view", 6]))
    return Workload(queries, warmup)


# ---------------------------------------------------------------------------
# word-games
#
# The hardness chain dominates the pass time: machines of 3 and 5 states
# (plus the three prologue states that write the one-letter input) give
# word games of 10.6k and 22k states, solved through the library.  Symbol
# queries hold the median (small random words, positions 14000-30000) and
# p90 (the level-2 double-exponential word, 24000-52000); their cost grows
# with the position, which sits in even slots, so it does not depend on
# the seed and spreads evenly (see sim-certify).  Small random word games
# are solved through the CLI at counters 100-200.  Random countdown and
# reachability games make the cheap end and cross-check the reductions.

TM_ROW = 4


def random_machine(rng, n_states: int):
    """Seeded machine over tape {blank, 0, 1} with total transitions."""
    work = [f"q{i}" for i in range(n_states - 2)]
    states = work + ["acc", "rej"]
    tape = [BLANK, "0", "1"]
    delta = {(q, g): (rng.choice(states), rng.choice(tape), rng.choice((-1, 0, 1)))
             for q in work for g in tape}
    delta.update({(q, g): (q, g, 0) for q in ("acc", "rej") for g in tape})
    return lib.TuringMachine(states=states, start="q0", accept="acc", reject="rej",
                             input_alphabet=["0", "1"], tape_alphabet=tape,
                             blank=BLANK, delta=delta)


@dataclass
class WordInstance:
    machine: object
    word_input: str
    desc: object
    start: int
    period: int
    word: list


def pick_machine(rng, n_states: int) -> WordInstance:
    """Draw machines until one's word repeats its row from symbol 14 on
    (the run settles within three steps) and never shows the junk symbol
    (the run stays in its tape window), so the junk state is a sure "no"
    of the existential game.  A fixed prefix keeps the streamed levels,
    and the pass time, nearly the same for every seed."""
    while True:
        machine = random_machine(rng, n_states)
        w = rng.choice("01")
        d = lib.tm_to_seqdesc(machine, w, TM_ROW)
        answer = lib.find_period(d, 300)
        if answer.kind != "found" or (answer.start, answer.period) != (14, TM_ROW):
            continue
        word = lib.eval_prefix(d, 32)
        if d.default not in word:
            return WordInstance(machine, w, d, answer.start, answer.period, word)


def game_shape(d) -> str:
    a = len(d.alphabet)
    return f"parsed:{4 + a + a ** 3}/{6 + 4 * a ** 3}"


def word_expect(word: list, symbol: str, n0: int):
    """Eve wins the word game from the symbol's state at counter k+2
    exactly when the word has that symbol at position k."""
    return equals("win" if word[n0 - 2] == symbol else "lose")


def ecg_outcome(answer) -> str:
    if answer.kind == "yes":
        return f"ecg-yes:{answer.n}"
    if answer.kind == "no":
        return "ecg-no:{}-{}".format(*answer.repeat)
    return "inconclusive"


def word_chain(name: str, inst: WordInstance, rng, work: Path, ecg_modes: tuple,
               with_no: bool) -> list:
    """tm2seq -> seq period -> seq2cg through the CLI, then the game
    document is loaded and solved through the library (it is several
    megabytes, so it is not reparsed per query)."""
    tm = write_doc(work / f"{name}.tm.json", "tm", inst.machine)
    desc = work / f"{name}.seq.json"
    game_doc = work / f"{name}.cg.json"
    games = {}
    d, word = inst.desc, inst.word

    def load() -> str:
        game = lib.parse_document(game_doc.read_bytes()).value
        games["game"] = game
        return f"parsed:{len(game.states)}/{len(game.rules)}"

    def solve(symbol: str, n0: int):
        return lambda: "win" if lib.solve_cg(games["game"], f"s[{symbol}]", n0) else "lose"

    def ecg(symbol: str, low_memory: bool):
        return lambda: ecg_outcome(lib.solve_ecg(games["game"], f"s[{symbol}]",
                                                 low_memory=low_memory))

    n0 = 19 + rng.randrange(4)
    symbol = word[n0 - 2] if rng.random() < 0.5 else rng.choice(d.alphabet[1:-1])
    # The symbol whose first occurrence is latest makes the longest stream.
    late = max(set(word), key=word.index)
    hit = equals(f"ecg-yes:{word.index(late) + 2}")
    queries = [
        Query(f"{name}.tm2seq", cli_query("reduce", [
            "reduce", "tm2seq", "--machine", tm, "--input", inst.word_input,
            "--m", TM_ROW, "--out", desc]), equals("written")),
        Query(f"{name}.period", cli_query("seq period", [
            "seq", "period", "--desc", desc, "--cap", 300]),
            equals(f"period:{inst.start}/{inst.period}")),
        Query(f"{name}.seq2cg", cli_query("reduce", [
            "reduce", "seq2cg", "--desc", desc, "--out", game_doc]), equals("written")),
        Query(f"{name}.load", load, equals(game_shape(d))),
        Query(f"{name}.cg", solve(symbol, n0), word_expect(word, symbol, n0)),
    ]
    queries += [Query(f"{name}.ecg-yes.{'lowmem' if low else 'hash'}", ecg(late, low), hit)
                for low in ecg_modes]
    if with_no:
        def no(outcome: str):
            return None if outcome.startswith("ecg-no:") else f"junk reachable: {outcome}"
        queries += [Query(f"{name}.ecg-no.hash", ecg(d.default, False), no),
                    Query(f"{name}.ecg-no.lowmem", ecg(d.default, True), no)]
    last = queries[-1].run

    def last_then_release() -> str:
        # The game is not kept alive through the rest of the pass.
        try:
            return last()
        finally:
            games.clear()
    queries[-1].run = last_then_release
    return queries


def slot(low: int, high: int, count: int, i: int) -> tuple:
    """The i-th of ``count`` equal slots of [low, high)."""
    return low + (high - low) * i // count, low + (high - low) * (i + 1) // count


def small_word_queries(i: int, rng, work: Path, gsp: int) -> tuple:
    """A random description over four symbols with rows of five, reduced
    through the CLI and solved with ``cg solve`` at three counters from
    100 to 200; then ``gsp`` symbol queries, one in each of ``gsp`` even
    slots of positions 14000-30000, whose cost grows with the position
    and not with the rules.  The word, read after the timed loop, gives
    every verdict.  Returns the reduction and game queries and, apart,
    the symbol queries."""
    alphabet = ("#", BLANK, "A", "B")
    rules = {tuple(rng.choice(alphabet) for _ in range(3)): rng.choice(alphabet)
             for _ in range(rng.randint(4, 12))}
    d = lib.SeqDescription(alphabet, "#", BLANK, rules, rng.choice(alphabet), 5)
    desc = write_doc(work / f"word{i}.seq.json", "seqdesc", d)
    game = work / f"word{i}.cg.json"
    word = []

    def at(k: int) -> str:
        if not word:
            word.extend(lib.eval_prefix(d, 30001))
        return word[k]

    def cg_expect(symbol: str, n0: int):
        return lambda outcome: equals("win" if at(n0 - 2) == symbol else "lose")(outcome)

    def gsp_expect(symbol: str, k: int):
        return lambda outcome: equals("yes" if at(k) == symbol else "no")(outcome)

    queries = [Query(f"word{i}.seq2cg", cli_query("reduce", [
        "reduce", "seq2cg", "--desc", desc, "--out", game]), equals("written"))]
    for j in range(3):
        symbol, n0 = rng.choice(alphabet), rng.randint(100, 200)
        queries.append(Query(f"word{i}.cg.{j}", cli_query("cg solve", [
            "cg", "solve", "--game", game, "--state", f"s[{symbol}]", "--n", n0]),
            cg_expect(symbol, n0)))
    symbols = []
    for j in range(gsp):
        symbol, k = rng.choice(alphabet), rng.randrange(*slot(14000, 30000, gsp, j))
        symbols.append(Query(f"word{i}.gsp.{j}", cli_query("seq gsp", [
            "seq", "gsp", "--desc", desc, "--n0", k, "--symbol", symbol]),
            gsp_expect(symbol, k)))
    return queries, symbols


def random_countdown(rng):
    n = rng.randint(2, 6)
    states = [f"q{i}" for i in range(n)]
    eve = {s for s in states if rng.random() < 0.5}
    rules = [(rng.choice(states), -rng.randint(1, 5), rng.choice(states))
             for _ in range(rng.randint(3, 10))]
    return lib.CountdownGame(states, eve, rules, rng.choice(states))


def random_rgame(rng):
    n = rng.randint(4, 8)
    names = tuple(f"v{i}" for i in range(n))
    owner = {v: rng.choice([lib.EVE, lib.ADAM]) for v in names}
    edges = [(v, w) for v in names for w in rng.sample(names, k=rng.randint(0, 3))]
    targets = frozenset(v for v in names if rng.random() < 0.3)
    return lib.RGame(names, owner, tuple(edges), targets)


class AreaOracle:
    """Winning configurations of a countdown game up to a bound, from an
    explicit region expansion made after the timed loop."""

    def __init__(self, game, bound: int):
        self.game, self.bound = game, bound
        self._area = None

    def wins(self, state: str, n: int) -> bool:
        if self._area is None:
            self._area = lib.winning_area(lib.expand_region(self.game, self.bound))
        return self._area.is_winning((state, n))

    def cg(self, state: str, n: int):
        return lambda outcome: equals("win" if self.wins(state, n) else "lose")(outcome)

    def ecg(self, state: str):
        def expect(outcome: str):
            hits = [n for n in range(self.bound + 1) if self.wins(state, n)]
            if outcome.startswith("ecg-yes:"):
                if not hits or hits[0] != int(outcome[8:]):
                    return f"least win is {hits[:1]}, got {outcome}"
            elif outcome.startswith("ecg-no:") and hits:
                return f"{state} wins at {hits[0]}, got {outcome}"
            return None
        return expect


def small_game_queries(i: int, rng, work: Path) -> list:
    game = random_countdown(rng)
    doc = write_doc(work / f"cg{i}.json", "countdown", game)
    rg = work / f"cg{i}.rg.json"
    net = work / f"cg{i}.net.json"
    p0 = rng.choice(game.states)
    oracle = AreaOracle(game, 300)

    def area() -> str:
        won = lib.winning_area(lib.expand_region(game, 60))
        return f"area:{len(won.winning)}"

    queries = [Query(f"cg{i}.solve.{n}", cli_query("cg solve", [
        "cg", "solve", "--game", doc, "--state", p0, "--n", n]), oracle.cg(p0, n))
        for n in sorted(rng.randint(2, 300) for _ in range(3))]
    queries += [
        Query(f"cg{i}.ecg.hash", cli_query("ecg solve", [
            "ecg", "solve", "--game", doc, "--state", p0]), oracle.ecg(p0)),
        Query(f"cg{i}.ecg.lowmem", cli_query("ecg solve", [
            "ecg", "solve", "--game", doc, "--state", p0, "--low-memory"]), oracle.ecg(p0)),
        Query(f"cg{i}.ecg2rg", cli_query("reduce", [
            "reduce", "ecg2rg", "--game", doc, "--state", p0, "--out", rg]),
            equals("written")),
        Query(f"cg{i}.rg2socn", cli_query("reduce", [
            "reduce", "rg2socn", "--game", rg, "--out", net]), equals("written")),
        Query(f"cg{i}.area", area),
    ]
    return queries


def mimicking_query(i: int, rng) -> Query:
    """Eve wins from v exactly when v's primed copy fails to simulate v
    in the mimicking system: the count of simulated vertices must be the
    count of Eve-losing ones."""
    game = random_rgame(rng)

    def run() -> str:
        ml = lib.rgame_to_mimicking_lts(game)
        sim = lib.max_simulation(ml.lts)
        return f"sim:{sum((ml.plain[v], ml.primed[v]) in sim for v in game.vertices)}"

    def expect(outcome: str):
        losing = len(game.vertices) - len(lib.winning_area(game).winning)
        return equals(f"sim:{losing}")(outcome)
    return Query(f"mimic{i}", run, expect)


DEXP_PERIODS = {1: "period:0/172", 2: "period:0/1206", 3: "period:0/47170"}


def hash_queries(name: str, rng, doc: str, period: int, count: int, low: int,
                 high: int) -> list:
    """``seq gsp`` for the hash symbol, which the double-exponential words
    carry exactly at the multiples of their period (from position 0), at
    one position in each of ``count`` even slots of [low, high)."""
    queries = []
    for i in range(count):
        k = rng.randrange(*slot(low, high, count, i)) // period * period
        k += rng.choice((0, rng.randrange(1, period)))
        queries.append(Query(f"{name}.{i}", cli_query("seq gsp", [
            "seq", "gsp", "--desc", doc, "--n0", k, "--symbol", "#"]),
            equals("yes" if k % period == 0 else "no")))
    return queries


def build_word_games(seed: int, work: Path) -> Workload:
    rng = random.Random(f"word-games/{seed}")
    queries = word_chain("tm3", pick_machine(rng, 3), rng, work, (False, True), True)
    queries += word_chain("tm5", pick_machine(rng, 5), rng, work, (), False)
    docs = {}
    for level, expected in DEXP_PERIODS.items():
        docs[level] = write_doc(work / f"dexp{level}.json", "seqdesc",
                                lib.doubleexp_period_instance(level))
        queries.append(Query(f"dexp{level}.period", cli_query("seq period", [
            "seq", "period", "--desc", docs[level], "--cap", 200000]), equals(expected)))
    tail = hash_queries("dexp2.gsp", rng, docs[2], 1206, 20, 24000, 52000)
    dexp1 = lib.doubleexp_period_instance(1)
    big = {}

    def build_big() -> str:
        game, _ = lib.seqdesc_to_countdown(dexp1)
        big["game"] = game
        return f"parsed:{len(game.states)}/{len(game.rules)}"

    def solve_big() -> str:
        # Drop the game once solved, so one copy is alive at a time.
        return "win" if lib.solve_cg(big.pop("game"), "s[#]", 2) else "lose"

    queries += [Query("dexp1.seq2cg", build_big, equals(game_shape(dexp1))),
                Query("dexp1.cg", solve_big,
                      word_expect(lib.eval_prefix(dexp1, 1), "#", 2))]
    mid = []
    for i in range(8):
        chain, symbols = small_word_queries(i, rng, work, 10)
        queries += chain
        mid += symbols
    for i in range(8):
        queries += small_game_queries(i, rng, work)
    queries += [mimicking_query(i, rng) for i in range(8)]
    queries = interleave(interleave(queries, mid), tail)
    warm_doc = write_doc(work / "warmup.json", "countdown", random_countdown(rng))
    warmup = Query("warmup", cli_query("ecg solve", [
        "ecg", "solve", "--game", warm_doc, "--state", "q0"]))
    return Workload(queries, warmup)


BUILDERS = {"sim-certify": build_sim_certify, "sim-refute": build_sim_refute,
            "word-games": build_word_games}
