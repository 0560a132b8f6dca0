"""Strict JSON document formats for every domain object the CLI moves.

Each document is a JSON object with a ``kind`` tag and a fixed field
set; unknown fields and type mismatches are rejected with a path
diagnostic like ``$.rules[3].delta: expected integer``.  Counter games
(``countdown`` and ``socn-rgame``), which run to millions of rules, and
sequence descriptions are parsed in one bulk pass per list, straight
into the tables their objects keep: record shapes and types are checked
a whole list at a time and rule names resolved through the state index.
A list that pass does not accept goes through the per-record checks,
which run only to name the first fault.  Serialization is canonical:
sorted keys, compact separators, entry lists in a fixed order, one
trailing newline.  Counter games are written straight from their rule
index tables with each state name escaped once, in the same bytes as
``json.dumps`` of the sorted-key payload; every other kind goes through
``json.dumps``.  Certificates embed the SHA-256 of their
net's canonical serialization so a stale certificate cannot be
verified against the wrong net.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .countdown import CountdownGame
from .lts import Lts
from .ocnsim import BeltCertificate, PlaneBelt
from .rgame import ADAM, EVE, RGame, SocnRGame, _delta_table
from .seqdesc import SeqDescription, TuringMachine
from .socn import Rule, Socn


class DocumentError(ValueError):
    """Malformed document; the message starts with the field path."""


KINDS = ("lts", "rgame", "socn-rgame", "countdown", "seqdesc", "socn", "tm",
         "certificate")


@dataclass
class CertificateDoc:
    """A belt certificate tied to its net by content hash."""

    certificate: BeltCertificate
    net_sha256: str


@dataclass
class InputDocument:
    kind: str
    value: object


# ---------------------------------------------------------------------------
# Parsing helpers


def _at(path) -> str:
    """A diagnostic path: a string, or a (template, index, ...) tuple that
    is formatted only here, once a check has failed."""
    return path if isinstance(path, str) else path[0].format(*path[1:])


def _obj(value, path, required, optional=()):
    if type(value) is dict and len(value) == len(required):
        for key in required:
            if key not in value:
                break
        else:
            return value
    if not isinstance(value, dict):
        raise DocumentError(f"{_at(path)}: expected object")
    for key in required:
        if key not in value:
            raise DocumentError(f"{_at(path)}.{key}: missing required field")
    allowed = set(required) | set(optional)
    for key in value:
        if key not in allowed:
            raise DocumentError(f"{_at(path)}.{key}: unknown field")
    return value


def _str(value, path) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{_at(path)}: expected string")
    return value


def _int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{_at(path)}: expected integer")
    return value


def _list(value, path) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{_at(path)}: expected array")
    return value


def _str_list(value, path) -> list:
    items = _list(value, path)
    if all(type(v) is str for v in items):
        return list(items)
    return [_str(v, f"{_at(path)}[{i}]") for i, v in enumerate(items)]


def _owner(value, path) -> str:
    owner = _str(value, path)
    if owner not in (EVE, ADAM):
        raise DocumentError(f"{_at(path)}: owner must be \"{EVE}\" or \"{ADAM}\"")
    return owner


# ---------------------------------------------------------------------------
# Per-kind parsers


def _parse_lts(obj) -> Lts:
    _obj(obj, "$", ("kind", "states", "actions", "transitions"))
    transitions = []
    for i, t in enumerate(_list(obj["transitions"], "$.transitions")):
        _obj(t, ("$.transitions[{}]", i), ("from", "action", "to"))
        transitions.append((_str(t["from"], ("$.transitions[{}].from", i)),
                            _str(t["action"], ("$.transitions[{}].action", i)),
                            _str(t["to"], ("$.transitions[{}].to", i))))
    return Lts(states=_str_list(obj["states"], "$.states"),
               actions=_str_list(obj["actions"], "$.actions"),
               transitions=transitions)


def _parse_rgame(obj) -> RGame:
    _obj(obj, "$", ("kind", "vertices", "edges", "targets"))
    vertices = []
    owner = {}
    for i, v in enumerate(_list(obj["vertices"], "$.vertices")):
        _obj(v, ("$.vertices[{}]", i), ("name", "owner"))
        name = _str(v["name"], ("$.vertices[{}].name", i))
        vertices.append(name)
        owner[name] = _owner(v["owner"], ("$.vertices[{}].owner", i))
    edges = []
    for i, e in enumerate(_list(obj["edges"], "$.edges")):
        _obj(e, ("$.edges[{}]", i), ("from", "to"))
        edges.append((_str(e["from"], ("$.edges[{}].from", i)),
                      _str(e["to"], ("$.edges[{}].to", i))))
    targets = set(_str_list(obj["targets"], "$.targets"))
    return RGame(vertices=vertices, owner=owner, edges=edges, targets=targets)


def _counter_state(s, i) -> tuple:
    _obj(s, ("$.states[{}]", i), ("name", "owner"))
    return (_str(s["name"], ("$.states[{}].name", i)),
            _owner(s["owner"], ("$.states[{}].owner", i)))


def _counter_rule(r, i, countdown) -> tuple:
    _obj(r, ("$.rules[{}]", i), ("from", "delta", "to"))
    delta = _int(r["delta"], ("$.rules[{}].delta", i))
    if countdown and delta >= 0:
        raise DocumentError(f"$.rules[{i}].delta: rule delta must be negative")
    return (_str(r["from"], ("$.rules[{}].from", i)), delta,
            _str(r["to"], ("$.rules[{}].to", i)))


_NAME, _OWNER = itemgetter("name"), itemgetter("owner")
_FROM, _DELTA, _TO = itemgetter("from"), itemgetter("delta"), itemgetter("to")


def _counter_tables(obj, countdown: bool):
    """The arguments of ``from_tables`` for a counter-game document,
    checked a whole list at a time, or None when some record is not
    plain: not of its exact shape and types, an unknown name, or a
    countdown delta >= 0."""
    states, rules, target = obj["states"], obj["rules"], obj["target"]
    if type(states) is not list or type(rules) is not list:
        return None
    # Of the JSON values only an object takes a string key, so the key
    # lookups below also check that every record is an object, and the
    # lengths that it has no other key.
    try:
        if not (set(map(len, states)) <= {2} and set(map(len, rules)) <= {3}):
            return None
        names = list(map(_NAME, states))
        owners = list(map(_OWNER, states))
        if not (set(map(type, names)) <= {str} and set(owners) <= {EVE, ADAM}):
            return None
        # Duplicate names fail the first check of from_tables, as they
        # fail the constructor's.  Only a string can equal a name, so a
        # lookup that succeeds has also checked the type.
        index = dict(zip(names, range(len(names))))
        if target not in index:
            return None
        src = np.fromiter(map(index.__getitem__, map(_FROM, rules)), np.int32, len(rules))
        tgt = np.fromiter(map(index.__getitem__, map(_TO, rules)), np.int32, len(rules))
        deltas = list(map(_DELTA, rules))
    except (KeyError, TypeError):  # a missing key, a non-object, an unknown name
        return None
    if not set(map(type, deltas)) <= {int}:
        return None
    deltas = _delta_table(deltas, True)
    if countdown and len(deltas) and deltas.max() >= 0:
        return None
    eve = set(compress(names, map(EVE.__eq__, owners)))
    return names, eve, src, deltas, tgt, target


def _parse_counter_game(obj, kind):
    # Games run to millions of rules, so the lists are checked and turned
    # into index tables in bulk; when that pass does not accept them, the
    # per-record checks run from the start and raise at the first fault.
    _obj(obj, "$", ("kind", "states", "rules", "target"))
    countdown = kind == "countdown"
    cls = CountdownGame if countdown else SocnRGame
    tables = _counter_tables(obj, countdown)
    if tables is not None:
        return cls.from_tables(*tables)
    states = [_counter_state(s, i) for i, s in enumerate(_list(obj["states"], "$.states"))]
    rules = [_counter_rule(r, i, countdown)
             for i, r in enumerate(_list(obj["rules"], "$.rules"))]
    return cls(states=[name for name, _ in states],
               eve={name for name, owner in states if owner == EVE},
               rules=rules, target=_str(obj["target"], "$.target"))


_TRIPLE, _OUT = itemgetter("triple"), itemgetter("out")


def _seqdesc_rules(records):
    """The rule dict of a seqdesc document, checked a whole list at a
    time, or None when some record is not plain: not of its exact shape
    and types, or a duplicate triple."""
    if type(records) is not list:
        return None
    try:  # as in _counter_tables
        if not set(map(len, records)) <= {2}:
            return None
        triples = list(map(_TRIPLE, records))
        outs = list(map(_OUT, records))
    except (KeyError, TypeError):
        return None
    if not (set(map(type, triples)) <= {list} and set(map(len, triples)) <= {3}
            and set(map(type, chain.from_iterable(triples))) <= {str}
            and set(map(type, outs)) <= {str}):
        return None
    rules = dict(zip(map(tuple, triples), outs))
    return rules if len(rules) == len(records) else None


def _parse_seqdesc(obj) -> SeqDescription:
    _obj(obj, "$", ("kind", "alphabet", "hash", "blank", "m", "rules", "default"))
    m = _int(obj["m"], "$.m")
    if m < 3:
        raise DocumentError("$.m: m >= 3 required")
    rules = _seqdesc_rules(obj["rules"])
    if rules is None:
        rules = {}
        for i, r in enumerate(_list(obj["rules"], "$.rules")):
            _obj(r, ("$.rules[{}]", i), ("triple", "out"))
            triple = _list(r["triple"], ("$.rules[{}].triple", i))
            if len(triple) != 3:
                raise DocumentError(f"$.rules[{i}].triple: expected exactly 3 symbols")
            key = tuple(_str(t, ("$.rules[{}].triple[{}]", i, j))
                        for j, t in enumerate(triple))
            if key in rules:
                raise DocumentError(f"$.rules[{i}].triple: duplicate rule for {key}")
            rules[key] = _str(r["out"], ("$.rules[{}].out", i))
    return SeqDescription(alphabet=_str_list(obj["alphabet"], "$.alphabet"),
                          hash_symbol=_str(obj["hash"], "$.hash"),
                          blank=_str(obj["blank"], "$.blank"),
                          rules=rules,
                          default=_str(obj["default"], "$.default"),
                          m=m)


def _parse_socn(obj) -> Socn:
    _obj(obj, "$", ("kind", "states", "actions", "rules"))
    rules = []
    for i, r in enumerate(_list(obj["rules"], "$.rules")):
        _obj(r, ("$.rules[{}]", i), ("from", "action", "delta", "to"))
        rules.append(Rule(frm=_str(r["from"], ("$.rules[{}].from", i)),
                          action=_str(r["action"], ("$.rules[{}].action", i)),
                          delta=_int(r["delta"], ("$.rules[{}].delta", i)),
                          to=_str(r["to"], ("$.rules[{}].to", i))))
    return Socn(states=_str_list(obj["states"], "$.states"),
                actions=_str_list(obj["actions"], "$.actions"),
                rules=rules)


def _parse_tm(obj) -> TuringMachine:
    _obj(obj, "$", ("kind", "states", "input_alphabet", "tape_alphabet", "blank",
                    "start", "accept", "reject", "delta"))
    delta = {}
    for i, t in enumerate(_list(obj["delta"], "$.delta")):
        _obj(t, ("$.delta[{}]", i), ("state", "read", "next", "write", "move"))
        key = (_str(t["state"], ("$.delta[{}].state", i)),
               _str(t["read"], ("$.delta[{}].read", i)))
        move = _int(t["move"], ("$.delta[{}].move", i))
        if move not in (-1, 0, 1):
            raise DocumentError(f"$.delta[{i}].move: expected -1, 0, or 1")
        if key in delta:
            raise DocumentError(f"$.delta[{i}]: duplicate transition for {key}")
        delta[key] = (_str(t["next"], ("$.delta[{}].next", i)),
                      _str(t["write"], ("$.delta[{}].write", i)), move)
    return TuringMachine(states=_str_list(obj["states"], "$.states"),
                         start=_str(obj["start"], "$.start"),
                         accept=_str(obj["accept"], "$.accept"),
                         reject=_str(obj["reject"], "$.reject"),
                         input_alphabet=_str_list(obj["input_alphabet"],
                                                  "$.input_alphabet"),
                         tape_alphabet=_str_list(obj["tape_alphabet"],
                                                 "$.tape_alphabet"),
                         blank=_str(obj["blank"], "$.blank"),
                         delta=delta)


def _parse_certificate(obj) -> CertificateDoc:
    _obj(obj, "$", ("kind", "net_sha256", "height", "planes"))
    height = _int(obj["height"], "$.height")
    planes = {}
    for i, p in enumerate(_list(obj["planes"], "$.planes")):
        _obj(p, ("$.planes[{}]", i), ("left", "right", "belt"), ())
        key = (_str(p["left"], ("$.planes[{}].left", i)),
               _str(p["right"], ("$.planes[{}].right", i)))
        if key in planes:
            raise DocumentError(f"$.planes[{i}]: duplicate plane {key}")
        belt = _obj(p["belt"], ("$.planes[{}].belt", i), ("kind", "base"),
                    ("period", "inf_from"))
        kind = _str(belt["kind"], ("$.planes[{}].belt.kind", i))
        if kind not in ("SF", "VF", "HF"):
            raise DocumentError(f"$.planes[{i}].belt.kind: expected SF, VF, or HF")
        base = _list(belt["base"], ("$.planes[{}].belt.base", i))
        if not all(type(v) is int for v in base):
            base = [_int(v, ("$.planes[{}].belt.base[{}]", i, j))
                    for j, v in enumerate(base)]
        period = None
        if "period" in belt:
            raw = _list(belt["period"], ("$.planes[{}].belt.period", i))
            if len(raw) != 2:
                raise DocumentError(f"$.planes[{i}].belt.period: expected [dx, dy]")
            period = (_int(raw[0], ("$.planes[{}].belt.period[0]", i)),
                      _int(raw[1], ("$.planes[{}].belt.period[1]", i)))
        inf_from = (_int(belt["inf_from"], ("$.planes[{}].belt.inf_from", i))
                    if "inf_from" in belt else None)
        if kind == "SF" and period is None:
            raise DocumentError(f"$.planes[{i}].belt: SF belt needs a period")
        if kind == "HF" and inf_from is None:
            raise DocumentError(f"$.planes[{i}].belt: HF belt needs inf_from")
        planes[key] = PlaneBelt(kind=kind, base=list(base), period=period,
                                inf_from=inf_from)
    return CertificateDoc(certificate=BeltCertificate(height=height, planes=planes),
                          net_sha256=_str(obj["net_sha256"], "$.net_sha256"))


_PARSERS = {
    "lts": _parse_lts,
    "rgame": _parse_rgame,
    "socn-rgame": lambda obj: _parse_counter_game(obj, "socn-rgame"),
    "countdown": lambda obj: _parse_counter_game(obj, "countdown"),
    "seqdesc": _parse_seqdesc,
    "socn": _parse_socn,
    "tm": _parse_tm,
    "certificate": _parse_certificate,
}


def parse_document(data) -> InputDocument:
    """Strict parse; raises DocumentError with a path diagnostic."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"$: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DocumentError("$: expected top-level object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"$.kind: expected one of {', '.join(KINDS)}")
    return InputDocument(kind=kind, value=_PARSERS[kind](obj))


# ---------------------------------------------------------------------------
# Serialization


def _lts_payload(lts: Lts):
    return {"kind": "lts", "states": list(lts.states), "actions": list(lts.actions),
            "transitions": [{"from": s, "action": a, "to": t}
                            for s, a, t in lts.transitions]}


def _rgame_payload(game: RGame):
    return {"kind": "rgame",
            "vertices": [{"name": v, "owner": game.owner[v]} for v in game.vertices],
            "edges": [{"from": s, "to": t} for s, t in game.edges],
            "targets": sorted(game.targets)}


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _counter_game_bytes(game: SocnRGame, kind: str) -> bytes:
    """A countdown or socn-rgame document written from the game's index
    tables: each state name is escaped once and each rule is emitted as
    {"delta":..,"from":..,"to":..} in rule order, the bytes ``json.dumps``
    gives the sorted-key payload."""
    try:
        names = list(map(encode_basestring_ascii, game.states))
    except TypeError:
        names = [encode_basestring_ascii(s) if type(s) is str else _json(s)
                 for s in game.states]
    eve = game.eve
    states = ",".join([f'{{"name":{name},"owner":"{EVE if s in eve else ADAM}"}}'
                       for s, name in zip(game.states, names)])
    rules = game.rules
    parts = [f'{{"kind":"{kind}","rules":['.encode()]
    for lo in range(0, len(rules), _RULE_CHUNK):
        hi = lo + _RULE_CHUNK
        deltas = rules.delta[lo:hi].tolist()
        if rules.delta.dtype == object:
            deltas = list(map(_json, deltas))
        chunk = ",".join([f'{{"delta":{z},"from":{names[a]},"to":{names[b]}}}'
                          for a, z, b in zip(rules.src[lo:hi].tolist(), deltas,
                                             rules.tgt[lo:hi].tolist())])
        parts.append((chunk + "," if hi < len(rules) else chunk).encode())
    parts.append(f'],"states":[{states}],"target":{_json(game.target)}}}\n'.encode())
    return b"".join(parts)


# Rules per encoded piece of a counter-game document.
_RULE_CHUNK = 1 << 16


def _seqdesc_payload(d: SeqDescription):
    return {"kind": "seqdesc", "alphabet": list(d.alphabet), "hash": d.hash_symbol,
            "blank": d.blank, "m": d.m,
            "rules": [{"triple": list(k), "out": d.rules[k]}
                      for k in sorted(d.rules)],
            "default": d.default}


def _socn_payload(net: Socn):
    return {"kind": "socn", "states": list(net.states), "actions": list(net.actions),
            "rules": [{"from": r.frm, "action": r.action, "delta": r.delta,
                       "to": r.to} for r in net.rules]}


def _tm_payload(machine: TuringMachine):
    return {"kind": "tm", "states": list(machine.states),
            "input_alphabet": list(machine.input_alphabet),
            "tape_alphabet": list(machine.tape_alphabet),
            "blank": machine.blank, "start": machine.start,
            "accept": machine.accept, "reject": machine.reject,
            "delta": [{"state": q, "read": g, "next": q2, "write": g2, "move": mv}
                      for (q, g), (q2, g2, mv) in sorted(machine.delta.items())]}


def _certificate_payload(doc: CertificateDoc):
    planes = []
    for (left, right), belt in sorted(doc.certificate.planes.items()):
        body = {"kind": belt.kind, "base": [int(v) for v in belt.base]}
        if belt.period is not None:
            body["period"] = [int(belt.period[0]), int(belt.period[1])]
        if belt.inf_from is not None:
            body["inf_from"] = int(belt.inf_from)
        planes.append({"left": left, "right": right, "belt": body})
    return {"kind": "certificate", "net_sha256": doc.net_sha256,
            "height": doc.certificate.height, "planes": planes}


def serialize_document(doc: InputDocument) -> bytes:
    """Canonical bytes: sorted keys, compact separators, one newline."""
    builders = {
        "lts": _lts_payload,
        "rgame": _rgame_payload,
        "seqdesc": _seqdesc_payload,
        "socn": _socn_payload,
        "tm": _tm_payload,
        "certificate": _certificate_payload,
    }
    if doc.kind in ("countdown", "socn-rgame"):
        return _counter_game_bytes(doc.value, doc.kind)
    if doc.kind not in builders:
        raise DocumentError(f"$.kind: cannot serialize kind {doc.kind!r}")
    payload = builders[doc.kind](doc.value)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def net_sha256(net: Socn) -> str:
    """Content hash of the net's canonical socn document."""
    return hashlib.sha256(serialize_document(InputDocument("socn", net))).hexdigest()
