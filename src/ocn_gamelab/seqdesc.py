"""Sequence descriptions and their generated infinite words.

A sequence description is a finite alphabet with distinguished hash
and blank symbols, a local rule mapping symbol triples to symbols,
and an initial length m >= 3.  The generated word starts with hash
followed by m blanks; every later position i is the rule applied to
positions i-m-1, i-m, i-m+1.  Reading the word as consecutive rows
of length m, a symbol is computed from the three cells above it, so
the word is a space-time diagram.

That reading powers the Turing-machine reduction: the description
built from a machine spells out the machine's run row by row, which
turns symbol queries into run queries.  The binary-counter machines
at the end generate words whose period is double exponential in the
machine size.

Period detection, the existential query and evaluation at a position
walk the (m+1)-symbol windows, which determine the rest of the word,
through the package's cycle finder (:mod:`~ocn_gamelab.cycle`): a
position written in binary is read off the word's cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from operator import eq

from .cycle import least_repeat, orbit


class SeqError(ValueError):
    """Invalid sequence description, machine, or query."""


@dataclass
class SeqDescription:
    """Alphabet, local rule, and initial length.

    ``rules`` lists the explicit triple entries; every unlisted triple
    maps to ``default``.  ``m`` is both the blank prefix length and
    the row length of the space-time reading.
    """

    alphabet: list
    hash_symbol: str
    blank: str
    rules: dict
    default: str
    m: int

    def __post_init__(self):
        symbols = set(self.alphabet)
        if len(symbols) != len(self.alphabet):
            raise SeqError("duplicate symbols in alphabet")
        if self.m < 3:
            raise SeqError("initial length m must be at least 3")
        if self.hash_symbol == self.blank:
            raise SeqError("hash and blank must differ")
        for s in (self.hash_symbol, self.blank, self.default):
            if s not in symbols:
                raise SeqError(f"distinguished symbol {s!r} not in alphabet")
        try:
            plain = (set(map(len, self.rules)) <= {3}
                     and symbols.issuperset(chain.from_iterable(self.rules))
                     and symbols.issuperset(self.rules.values()))
        except TypeError:  # a key without a length, or an unhashable symbol
            plain = False
        if plain:
            return
        # Name the first offending rule.
        for triple, out in self.rules.items():
            if len(triple) != 3 or any(t not in symbols for t in triple):
                raise SeqError(f"rule key {triple!r} is not an alphabet triple")
            if out not in symbols:
                raise SeqError(f"rule value {out!r} not in alphabet")

    def apply(self, x: str, y: str, z: str) -> str:
        return self.rules.get((x, y, z), self.default)


def _windows(d: SeqDescription) -> tuple:
    """The window of positions 0..m, hash then m blanks, and the step
    that shifts a window on by one position, in place."""
    rules, default = d.rules, d.default

    def step(window: deque) -> deque:
        window.append(rules.get((window[0], window[1], window[2]), default))
        return window
    return deque([d.hash_symbol] + [d.blank] * d.m, maxlen=d.m + 1), step


def symbol_stream(d: SeqDescription):
    """Yield the word's symbols in order, in O(m) space."""
    window, step = _windows(d)
    yield from window
    while True:
        yield step(window)[-1]


def eval_at(d: SeqDescription, i: int) -> str:
    """The word's symbol at position i: the windows are walked up to i,
    or up to a repeat at window k with period lam and then
    (i - m - k) mod lam windows on."""
    if i < 0:
        raise SeqError("position must be a natural number")
    window, step = _windows(d)
    if i <= d.m:
        return window[i]
    for k, window, lam in orbit(window, 0, step, eq):
        if k + d.m == i:
            return window[-1]
        if lam:
            for _ in range((i - d.m - k) % lam):
                window = step(window)
            return window[-1]
    raise AssertionError("unreachable: the word is infinite")


def eval_prefix(d: SeqDescription, count: int) -> list:
    """The first ``count`` symbols of the word."""
    return list(islice(symbol_stream(d), count))


@dataclass
class PeriodAnswer:
    kind: str  # "found" | "inconclusive"
    start: int | None = None
    period: int | None = None


def _least_repeat(d: SeqDescription, lam: int) -> int:
    window, step = _windows(d)
    return least_repeat(window, 0, lam, step, eq)


def find_period(d: SeqDescription, cap: int) -> PeriodAnswer:
    """Least (start, period) at which the (m+1)-symbol window repeats,
    so S(i+period) = S(i) for every i >= start; found if
    start + period <= ``cap``."""
    window, step = _windows(d)
    _, _, lam = deque(orbit(window, 0, step, eq, cap), maxlen=1).pop()
    if lam:
        mu = _least_repeat(d, lam)
        if mu + lam <= cap:
            return PeriodAnswer("found", start=mu, period=lam)
    return PeriodAnswer("inconclusive")


def decide_gsp(d: SeqDescription, n0: int, beta0: str) -> bool:
    """Is the word's symbol at position n0 equal to beta0?"""
    if beta0 not in set(d.alphabet):
        raise SeqError(f"query symbol {beta0!r} not in alphabet")
    return eval_at(d, n0) == beta0


@dataclass
class EgspAnswer:
    kind: str  # "yes" | "no" | "inconclusive"
    witness: int | None = None


def decide_egsp(d: SeqDescription, beta0: str, cap: int) -> EgspAnswer:
    """Does beta0 occur anywhere in the word?

    Yes carries the least witness i, if i <= m + ``cap``.  No is sound:
    once a window repeats, the word replays symbols already checked; it
    needs the least repeat to end by ``cap``, as in :func:`find_period`.
    """
    if beta0 not in set(d.alphabet):
        raise SeqError(f"query symbol {beta0!r} not in alphabet")
    window, step = _windows(d)
    if beta0 in window:
        return EgspAnswer("yes", witness=window.index(beta0))
    for k, window, lam in orbit(window, 0, step, eq, cap):
        if window[-1] == beta0:
            return EgspAnswer("yes", witness=k + d.m) if k <= cap else EgspAnswer("inconclusive")
    if lam and _least_repeat(d, lam) + lam <= cap:
        return EgspAnswer("no")
    return EgspAnswer("inconclusive")


# ---------------------------------------------------------------------------
# Turing machines


@dataclass
class TuringMachine:
    """Single-tape machine with a total transition function.

    ``delta`` maps (state, symbol) to (state, symbol, move) with move
    in {-1, 0, +1}.  Accepting and rejecting states self-loop without
    writing or moving, so runs are total by convention.
    """

    states: list
    start: str
    accept: str
    reject: str
    input_alphabet: list
    tape_alphabet: list
    blank: str
    delta: dict

    def __post_init__(self):
        states = set(self.states)
        tape = set(self.tape_alphabet)
        if len(states) != len(self.states) or len(tape) != len(self.tape_alphabet):
            raise SeqError("duplicate states or tape symbols")
        for s in (self.start, self.accept, self.reject):
            if s not in states:
                raise SeqError(f"state {s!r} not declared")
        if self.blank not in tape:
            raise SeqError("blank symbol not in tape alphabet")
        if not set(self.input_alphabet) <= tape:
            raise SeqError("input alphabet must be part of the tape alphabet")
        for q in self.states:
            for g in self.tape_alphabet:
                if (q, g) not in self.delta:
                    raise SeqError(f"transition function undefined on ({q!r},{g!r})")
                q2, g2, mv = self.delta[(q, g)]
                if q2 not in states or g2 not in tape or mv not in (-1, 0, 1):
                    raise SeqError(f"bad transition on ({q!r},{g!r})")
        for q in (self.accept, self.reject):
            for g in self.tape_alphabet:
                if self.delta[(q, g)] != (q, g, 0):
                    raise SeqError(
                        f"halting state {q!r} must self-loop without writing or moving")


def _fresh(base: str, taken: set) -> str:
    name = base
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _with_prologue(machine: TuringMachine, w: str) -> tuple:
    """Extend the machine with a bootstrap that writes w on cells 1..|w|.

    The bootstrap start keeps cell 0 blank and moves right, writes the
    input left to right, walks back to cell 0, and hands over to the
    machine's own start state on cell 1.  Returns (machine, start).
    For the empty word the machine is returned as is, with its own
    start required to write blank and move right on the first step.
    """
    blank = machine.blank
    if not w:
        q2, g2, mv = machine.delta[(machine.start, blank)]
        if g2 != blank or mv != 1:
            raise SeqError(
                "first step must write blank and move right from the start state")
        return machine, machine.start
    taken = set(machine.states)
    boot = _fresh("boot", taken)
    writers = [_fresh(f"put{i + 1}", taken) for i in range(len(w))]
    back = _fresh("back", taken)
    delta = dict(machine.delta)
    rej = machine.reject

    def fill(q):
        for g in machine.tape_alphabet:
            delta.setdefault((q, g), (rej, g, 0))

    delta[(boot, blank)] = (writers[0], blank, 1)
    for i, letter in enumerate(w):
        nxt = writers[i + 1] if i + 1 < len(w) else back
        mv = 1 if i + 1 < len(w) else -1
        delta[(writers[i], blank)] = (nxt, letter, mv)
    for g in machine.tape_alphabet:
        if g == blank:
            delta[(back, g)] = (machine.start, blank, 1)
        else:
            delta[(back, g)] = (back, g, -1)
    for q in [boot, *writers]:
        fill(q)
    extended = TuringMachine(
        states=machine.states + [boot, *writers, back],
        start=boot,
        accept=machine.accept,
        reject=machine.reject,
        input_alphabet=machine.input_alphabet,
        tape_alphabet=machine.tape_alphabet,
        blank=blank,
        delta=delta,
    )
    return extended, boot


def head_symbol(start: str, blank: str, q: str, g: str) -> str:
    """Rendering of head-on-cell symbols; the start-on-blank pair is hash."""
    if q == start and g == blank:
        return "#"
    return f"[{q}|{g}]"


def tm_to_seqdesc(machine: TuringMachine, w: str, m: int) -> SeqDescription:
    """Description whose word is the machine's run, one tape row per m symbols.

    Row r holds the configuration after r steps: plain cells carry
    their tape symbol and the head's cell carries the (state, symbol)
    pair, with the initial head-on-blank pair written as hash.  The
    local rule implements one machine step cell by cell: a cell below
    the head takes the written symbol resp. the staying head pair, a
    cell below a right-mover's right neighbour resp. a left-mover's
    left neighbour receives the head, and every other cell copies the
    symbol above it.  Triples that no confined run can produce (two
    heads, misplaced hash) map to a junk default that propagates to
    itself.

    The caller must pick m large enough that the run never visits
    cell m-1's right neighbour, never moves left from cell 0, and
    never rewrites cell 0's blank; the row reading is only faithful
    for such confined runs.
    """
    if m < 3:
        raise SeqError("row length must be at least 3")
    if m <= len(w):
        raise SeqError("row length must exceed the input length")
    if any(c not in set(machine.input_alphabet) for c in w):
        raise SeqError("input word uses symbols outside the input alphabet")
    full, start = _with_prologue(machine, w)
    blank = full.blank
    plains = list(full.tape_alphabet)

    def head(q, g):
        return head_symbol(start, blank, q, g)

    heads = []
    for q in full.states:
        for g in full.tape_alphabet:
            heads.append(head(q, g))
    junk = "!"
    taken = set(plains) | set(heads) | {"#"}
    while junk in taken:
        junk += "!"

    rules = {}
    for x in plains:
        for y in plains:
            for z in plains:
                rules[(x, y, z)] = y
    for q in full.states:
        for g in full.tape_alphabet:
            q2, g2, mv = full.delta[(q, g)]
            here = head(q, g)
            under = head(q2, g2) if mv == 0 else g2
            for x in plains:
                for z in plains:
                    rules[(x, here, z)] = under
            for y in plains:
                arrives_left = head(q2, y) if mv == 1 else y
                arrives_right = head(q2, y) if mv == -1 else y
                for z in plains:
                    rules[(here, y, z)] = arrives_left
                for x in plains:
                    rules[(x, y, here)] = arrives_right

    alphabet = ["#"] + sorted(plains) + sorted(h for h in heads if h != "#") + [junk]
    return SeqDescription(alphabet=alphabet, hash_symbol="#", blank=blank,
                          rules=rules, default=junk, m=m)


# ---------------------------------------------------------------------------
# Double-exponential period family


def _counter_machine(n: int) -> TuringMachine:
    """Machine cycling through 2^(2^n) tape words on 2^n + 2 cells.

    Phase one seeds an n-bit bootstrap counter with n-1 and increments
    it to overflow; each successful increment shifts a dollar marker
    one cell right, stretching the workspace from n to ``width`` =
    2^n cells.  Phase two runs a width-bit counter from zero through
    overflow, phase three erases the tape and restarts, so the head
    revisits cell 0 in the start state exactly once per grand cycle
    and the cycle makes at least 2^width steps.
    """
    width = 2 ** n
    zero, one, dollar, blank = "0", "1", "$", "_"
    tape = [blank, zero, one, dollar]
    inits = [f"seed{i + 1}" for i in range(n)]
    walkers = [f"lsb{i + 1}" for i in range(n)]
    states = ["boot", *inits, "markend", "rewind", *walkers, "carry",
              "shiftseek", "shiftput", "mainseek", "maininc", "maincarry",
              "mainrew", "eraseseek", "eraseback", "acc", "rej"]
    bits = format(n - 1, f"0{n}b")
    d = {}

    def put(q, g, q2, g2, mv):
        d[(q, g)] = (q2, g2, mv)

    put("boot", blank, inits[0], blank, 1)
    for i in range(n):
        nxt = inits[i + 1] if i + 1 < n else "markend"
        put(inits[i], blank, nxt, bits[i], 1)
    put("markend", blank, "rewind", dollar, -1)
    for b in (zero, one):
        put("rewind", b, "rewind", b, -1)
    put("rewind", blank, walkers[0], blank, 1)
    for i in range(n - 1):
        for b in (zero, one):
            put(walkers[i], b, walkers[i + 1], b, 1)
    put(walkers[-1], zero, "shiftseek", one, 1)
    put(walkers[-1], one, "carry", zero, -1)
    put("carry", one, "carry", zero, -1)
    put("carry", zero, "shiftseek", one, 1)
    put("carry", blank, "mainseek", blank, 1)
    for b in (zero, one):
        put("shiftseek", b, "shiftseek", b, 1)
    put("shiftseek", dollar, "shiftput", zero, 1)
    put("shiftput", blank, "rewind", dollar, -1)
    for b in (zero, one):
        put("mainseek", b, "mainseek", b, 1)
    put("mainseek", dollar, "maininc", dollar, -1)
    put("maininc", zero, "mainrew", one, -1)
    put("maininc", one, "maincarry", zero, -1)
    put("maincarry", one, "maincarry", zero, -1)
    put("maincarry", zero, "mainrew", one, -1)
    put("maincarry", blank, "eraseseek", blank, 1)
    for b in (zero, one):
        put("mainrew", b, "mainrew", b, -1)
    put("mainrew", blank, "mainseek", blank, 1)
    put("eraseseek", zero, "eraseseek", zero, 1)
    put("eraseseek", dollar, "eraseback", blank, -1)
    put("eraseback", zero, "eraseback", blank, -1)
    put("eraseback", blank, "boot", blank, 0)
    for q in states:
        for g in tape:
            if q in ("acc", "rej"):
                d[(q, g)] = (q, g, 0)
            else:
                d.setdefault((q, g), ("rej", g, 0))
    return TuringMachine(states=states, start="boot", accept="acc", reject="rej",
                         input_alphabet=[zero, one], tape_alphabet=tape,
                         blank=blank, delta=d)


def doubleexp_period_instance(n: int) -> SeqDescription:
    """Description of size polynomial in n whose word has period
    at least 2^(2^n) rows of 2^n + 2 symbols each.

    Hash occurs exactly at the multiples of the full period: the
    underlying machine passes through its start configuration once
    per counter grand cycle and nowhere else.
    """
    if n < 1:
        raise SeqError("n must be at least 1")
    machine = _counter_machine(n)
    return tm_to_seqdesc(machine, "", 2 ** n + 2)
