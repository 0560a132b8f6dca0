"""Labelled one-counter nets and their configuration transition systems.

A net is a finite set of control states with rules (state, action,
delta, state); a configuration is a state with a nonnegative counter.
A rule induces the step q(m) -a-> q'(m+z) whenever the result stays
nonnegative.  The net is unary when every delta has magnitude at most
one; succinct nets with larger deltas are allowed everywhere except
the unary-only belt lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class NetError(ValueError):
    """Raised for malformed net definitions."""


class Config(NamedTuple):
    state: str
    counter: int


@dataclass
class Rule:
    frm: str
    action: str
    delta: int
    to: str


@dataclass
class Socn:
    """A (succinct) one-counter net with named states and actions."""

    states: list[str]
    actions: list[str]
    rules: list[Rule] = field(default_factory=list)

    def __post_init__(self):
        ss = set(self.states)
        if len(ss) != len(self.states):
            raise NetError("duplicate states")
        if len(set(self.actions)) != len(self.actions):
            raise NetError("duplicate actions")
        acts = set(self.actions)
        for r in self.rules:
            if r.frm not in ss or r.to not in ss:
                raise NetError(f"rule {r} references unknown state")
            if r.action not in acts:
                raise NetError(f"rule {r} references unknown action {r.action!r}")
            if not isinstance(r.delta, int):
                raise NetError(f"rule delta {r.delta!r} is not an integer")
        self._rules_from = {s: [] for s in self.states}
        for r in self.rules:
            self._rules_from[r.frm].append(r)

    @property
    def unary(self) -> bool:
        return all(abs(r.delta) <= 1 for r in self.rules)

    @property
    def max_delta(self) -> int:
        """Largest |delta| over all rules (0 for a net without rules)."""
        return max((abs(r.delta) for r in self.rules), default=0)

    def rules_from(self, state: str) -> list[Rule]:
        return self._rules_from[state]


def successors(net: Socn, c: Config) -> list[tuple[str, Config]]:
    """Enabled steps of the configuration LTS, in rule definition order."""
    out = []
    for r in net.rules_from(c.state):
        n = c.counter + r.delta
        if n >= 0:
            out.append((r.action, Config(r.to, n)))
    return out
