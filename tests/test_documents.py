import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocn_gamelab import (ADAM, EVE, BeltCertificate, CertificateDoc,
                         CountdownGame, DocumentError, InputDocument, Lts,
                         PlaneBelt, RGame, Rule, SeqDescription, Socn,
                         SocnRGame, TuringMachine, net_sha256, parse_document,
                         serialize_document)
from ocn_gamelab.rgame import RuleView

from oracles import (damaged_documents, reference_counter_game_bytes,
                     reference_parse_counter_game, reference_parse_seqdesc)


def roundtrip(doc):
    data = serialize_document(doc)
    back = parse_document(data)
    assert back.kind == doc.kind
    assert serialize_document(back) == data
    return back


def test_lts_roundtrip():
    doc = InputDocument("lts", Lts(states=("u", "v"), actions=("a",),
                                   transitions=(("u", "a", "v"),)))
    back = roundtrip(doc)
    assert list(back.value.states) == ["u", "v"]
    assert list(back.value.transitions) == [("u", "a", "v")]


def test_rgame_roundtrip():
    doc = InputDocument("rgame", RGame(
        vertices=["s", "t"], owner={"s": EVE, "t": ADAM},
        edges=[("s", "t")], targets={"t"}))
    back = roundtrip(doc)
    assert back.value.owner == {"s": EVE, "t": ADAM}
    assert back.value.targets == {"t"}


def test_counter_game_roundtrips():
    srg = SocnRGame(states=["a", "b"], eve={"a"},
                    rules=[("a", 3, "b"), ("b", -1, "a")], target="b")
    assert roundtrip(InputDocument("socn-rgame", srg)).value.rules == srg.rules
    cg = CountdownGame(states=["a", "b"], eve={"a"},
                       rules=[("a", -2, "b")], target="b")
    back = roundtrip(InputDocument("countdown", cg))
    assert isinstance(back.value, CountdownGame)


def test_seqdesc_roundtrip():
    d = SeqDescription(alphabet=["#", " ", "A"], hash_symbol="#", blank=" ",
                       rules={("#", " ", " "): "A"}, default=" ", m=4)
    back = roundtrip(InputDocument("seqdesc", d))
    assert back.value.rules == d.rules
    assert back.value.m == 4


def test_socn_roundtrip_and_hash_stability():
    net = Socn(states=("p", "q"), actions=("a",),
               rules=(Rule("p", "a", -1, "q"),))
    doc = InputDocument("socn", net)
    data = serialize_document(doc)
    assert data.endswith(b"\n")
    assert json.loads(data)["kind"] == "socn"
    assert net_sha256(net) == net_sha256(parse_document(data).value)
    other = Socn(states=("p", "q"), actions=("a",),
                 rules=(Rule("p", "a", 0, "q"),))
    assert net_sha256(net) != net_sha256(other)


def test_tm_roundtrip():
    blank = " "
    tm = TuringMachine(states=["s", "acc", "rej"], start="s", accept="acc",
                       reject="rej", input_alphabet=[], tape_alphabet=[blank],
                       blank=blank,
                       delta={("s", blank): ("acc", blank, 0),
                              ("acc", blank): ("acc", blank, 0),
                              ("rej", blank): ("rej", blank, 0)})
    back = roundtrip(InputDocument("tm", tm))
    assert back.value.delta == tm.delta


def test_certificate_roundtrip():
    cert = BeltCertificate(3, {
        ("p", "q"): PlaneBelt("SF", [0, 0, 1], period=(1, 2)),
        ("q", "p"): PlaneBelt("HF", [2], inf_from=1),
        ("p", "p"): PlaneBelt("VF", [0, 0, 0]),
    })
    doc = InputDocument("certificate", CertificateDoc(cert, "ab" * 32))
    back = roundtrip(doc)
    assert back.value.net_sha256 == "ab" * 32
    assert back.value.certificate.planes[("p", "q")].period == (1, 2)
    assert back.value.certificate.planes[("q", "p")].inf_from == 1


def test_invalid_json_diagnostic():
    with pytest.raises(DocumentError, match=r"^\$: invalid JSON"):
        parse_document(b"{nope")


def test_top_level_must_be_object():
    with pytest.raises(DocumentError, match=r"^\$: expected top-level object"):
        parse_document(b"[1,2]")


def test_unknown_kind_rejected():
    with pytest.raises(DocumentError, match=r"^\$\.kind"):
        parse_document(b'{"kind":"mystery"}')


def test_missing_field_path():
    with pytest.raises(DocumentError, match=r"^\$\.actions"):
        parse_document(b'{"kind":"lts","states":[],"transitions":[]}')


def test_unknown_field_path():
    with pytest.raises(DocumentError, match=r"^\$\.extra"):
        parse_document(b'{"kind":"lts","states":[],"actions":[],'
                       b'"transitions":[],"extra":1}')


def test_nested_type_diagnostic():
    bad = {"kind": "socn", "states": ["p"], "actions": ["a"],
           "rules": [{"from": "p", "action": "a", "delta": "x", "to": "p"}]}
    with pytest.raises(DocumentError, match=r"^\$\.rules\[0\]\.delta"):
        parse_document(json.dumps(bad).encode())


def test_bool_is_not_an_integer():
    bad = {"kind": "socn", "states": ["p"], "actions": ["a"],
           "rules": [{"from": "p", "action": "a", "delta": True, "to": "p"}]}
    with pytest.raises(DocumentError, match=r"delta: expected integer"):
        parse_document(json.dumps(bad).encode())


def test_countdown_rejects_nonnegative_delta():
    bad = {"kind": "countdown",
           "states": [{"name": "a", "owner": EVE}],
           "rules": [{"from": "a", "delta": 0, "to": "a"}],
           "target": "a"}
    with pytest.raises(DocumentError, match=r"must be negative"):
        parse_document(json.dumps(bad).encode())
    ok = dict(bad, kind="socn-rgame")
    assert parse_document(json.dumps(ok).encode()).kind == "socn-rgame"


def test_duplicate_seqdesc_rule_rejected():
    bad = {"kind": "seqdesc", "alphabet": ["#", " "], "hash": "#", "blank": " ",
           "m": 3, "default": " ",
           "rules": [{"triple": ["#", " ", " "], "out": " "},
                     {"triple": ["#", " ", " "], "out": "#"}]}
    with pytest.raises(DocumentError, match=r"duplicate rule"):
        parse_document(json.dumps(bad).encode())


def test_duplicate_tm_transition_rejected():
    bad = {"kind": "tm", "states": ["s"], "start": "s", "accept": "s",
           "reject": "s", "input_alphabet": [], "tape_alphabet": [" "],
           "blank": " ",
           "delta": [{"state": "s", "read": " ", "next": "s", "write": " ",
                      "move": 0},
                     {"state": "s", "read": " ", "next": "s", "write": " ",
                      "move": 0}]}
    with pytest.raises(DocumentError, match=r"duplicate transition"):
        parse_document(json.dumps(bad).encode())


def test_certificate_needs_kind_specific_fields():
    base = {"kind": "certificate", "net_sha256": "00", "height": 2}
    sf = dict(base, planes=[{"left": "p", "right": "q",
                             "belt": {"kind": "SF", "base": [0, 0]}}])
    with pytest.raises(DocumentError, match=r"SF belt needs a period"):
        parse_document(json.dumps(sf).encode())
    hf = dict(base, planes=[{"left": "p", "right": "q",
                             "belt": {"kind": "HF", "base": [0, 0]}}])
    with pytest.raises(DocumentError, match=r"HF belt needs inf_from"):
        parse_document(json.dumps(hf).encode())


def test_serialization_is_canonical():
    net = Socn(states=("p",), actions=("a",), rules=(Rule("p", "a", 0, "p"),))
    doc = InputDocument("socn", net)
    data = serialize_document(doc)
    # keys sorted, compact separators, exactly one trailing newline
    assert data == (b'{"actions":["a"],"kind":"socn","rules":[{"action":"a",'
                    b'"delta":0,"from":"p","to":"p"}],"states":["p"]}\n')


@st.composite
def generated_nets(draw):
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 4))))
    actions = tuple("abc"[:draw(st.integers(1, 3))])
    rules = tuple(draw(st.lists(
        st.builds(Rule, st.sampled_from(states), st.sampled_from(actions),
                  st.integers(-9, 9), st.sampled_from(states)),
        max_size=8)))
    return Socn(states=states, actions=actions, rules=rules)


@given(generated_nets())
@settings(max_examples=50, deadline=None)
def test_roundtrip_on_generated_nets(net):
    back = roundtrip(InputDocument("socn", net))
    assert tuple(back.value.states) == net.states
    assert tuple(back.value.actions) == net.actions
    assert tuple(back.value.rules) == net.rules


def test_fault_deep_in_a_large_rule_list_keeps_its_path():
    rules = [{"from": "a", "delta": -1, "to": "b"} for _ in range(50_000)]
    good = {"kind": "countdown", "target": "b",
            "states": [{"name": "a", "owner": EVE}, {"name": "b", "owner": ADAM}],
            "rules": rules}
    assert len(parse_document(json.dumps(good).encode()).value.rules) == 50_000
    k = 43_210
    faults = [
        ({"from": "a", "delta": "x", "to": "b"}, "$.rules[43210].delta: expected integer"),
        ({"from": "a", "delta": 0, "to": "b"},
         "$.rules[43210].delta: rule delta must be negative"),
        ({"from": "a", "delta": -1}, "$.rules[43210].to: missing required field"),
        ({"from": "a", "delta": -1, "to": "b", "x": 1}, "$.rules[43210].x: unknown field"),
        ({"from": 7, "delta": -1, "to": "b"}, "$.rules[43210].from: expected string"),
        ({"from": "a", "delta": False, "to": "b"}, "$.rules[43210].delta: expected integer"),
        (["a", -1, "b"], "$.rules[43210]: expected object"),
    ]
    for rule, message in faults:
        bad = dict(good, rules=rules[:k] + [rule] + rules[k + 1:])
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(bad).encode())
        assert str(err.value) == message
    states = good["states"] + [{"name": f"s{i}", "owner": ADAM} for i in range(k)]
    bad = dict(good, states=states + [{"name": "z", "owner": "X"}])
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(bad).encode())
    assert str(err.value) == f'$.states[{k + 2}].owner: owner must be "{EVE}" or "{ADAM}"'


# Names a counter-game writer must escape exactly as json.dumps does.
AWKWARD_NAMES = ["q", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
                 "\u00e9t\u00e9", "\u2603", "\U0001d11e", "</script>", "a|b]", "", " "]


def random_counter_game(rng, countdown: bool):
    states = rng.sample(AWKWARD_NAMES, rng.randint(1, 6))
    eve = {s for s in states if rng.random() < 0.5}
    rules = []
    for _ in range(rng.choice([0, 1, 3, 12])):
        delta = rng.choice([-1, -2, -7] if countdown else [-3, 0, 2, 5])
        rules.append((rng.choice(states), delta, rng.choice(states)))
    if rules and rng.random() < 0.3:
        rules += rng.sample(rules, 1) + rules[:2]
    if rng.random() < 0.2:
        rules.insert(rng.randrange(len(rules) + 1),
                     (states[0], -2 ** 40 if countdown else rng.choice([2 ** 70, -2 ** 70]),
                      states[-1]))
    cls = CountdownGame if countdown else SocnRGame
    return cls(states=states, eve=eve, rules=rules, target=rng.choice(states))


def test_counter_game_writer_matches_json_dumps():
    rng = random.Random(7)
    kinds = {"countdown": 0, "socn-rgame": 0}
    huge = empty = 0
    for i in range(400):
        kind = "countdown" if i % 2 else "socn-rgame"
        game = random_counter_game(rng, kind == "countdown")
        data = serialize_document(InputDocument(kind, game))
        assert data == reference_counter_game_bytes(game, kind)
        back = parse_document(data)
        assert (back.kind, type(back.value)) == (kind, type(game))
        assert back.value.states == game.states and back.value.eve == game.eve
        assert back.value.rules == game.rules and back.value.target == game.target
        assert serialize_document(back) == data
        kinds[kind] += 1
        huge += any(abs(z) >= 2 ** 40 for _, z, _ in game.rules)
        empty += not game.rules
    assert min(kinds.values()) == 200 and huge > 20 and empty > 20


def test_counter_game_writer_keeps_exact_deltas():
    cg = CountdownGame(states=["a", "b"], eve=set(),
                       rules=[("a", -2 ** 40, "b"), ("b", -1, "a")], target="b")
    data = serialize_document(InputDocument("countdown", cg))
    assert b'{"delta":-1099511627776,"from":"a","to":"b"}' in data
    assert cg.max_decrement == 2 ** 40 and cg._dec.max() == 2 ** 31 - 1
    # Deltas that are ints but not plain ones are written as json.dumps
    # writes them, even where no document could carry them back.
    srg = SocnRGame(states=["a"], eve={"a"}, rules=[("a", True, "a"), ("a", 2 ** 70, "a")],
                    target="a")
    data = serialize_document(InputDocument("socn-rgame", srg))
    assert data == reference_counter_game_bytes(srg, "socn-rgame")
    assert b'"delta":true' in data and srg.rules[0][1] is True


def snapshot(value):
    """Everything a parsed value holds, arrays with their dtypes and
    dicts in their order, in a form ``==`` compares exactly."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if isinstance(value, RuleView):
        return tuple(map(snapshot, (value.states, value.src, value.delta, value.tgt)))
    if isinstance(value, dict):
        return [(k, type(v), snapshot(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [(type(v), snapshot(v)) for v in value]
    if isinstance(value, (SocnRGame, SeqDescription)):
        return type(value), snapshot(dict(sorted(vars(value).items())))
    return value


def parse_outcome(parse, data):
    try:
        value = parse(data)
    except Exception as exc:  # every fault must be the reference's fault
        return type(exc), str(exc)
    if isinstance(value, SocnRGame) and value.rules.delta.dtype == object:
        return "parsed beyond int64", snapshot(value)
    return "parsed", snapshot(value)


def reference_parse(data: bytes):
    obj = json.loads(data)
    if obj["kind"] == "seqdesc":
        return reference_parse_seqdesc(obj)
    return reference_parse_counter_game(obj, obj["kind"])


def check_damaged_documents(seed: int, count: int) -> Counter:
    """Parse ``count`` damaged documents both ways; returns how often
    each outcome came up: "parsed" (or "parsed beyond int64" when the
    deltas are kept as objects), or the fault's exception type and
    message."""
    seen = Counter()
    for _, doc in damaged_documents(random.Random(seed), count):
        data = json.dumps(doc).encode()
        got = parse_outcome(lambda b: parse_document(b).value, data)
        assert got == parse_outcome(reference_parse, data), data
        seen[got[0] if isinstance(got[0], str) else f"{got[0].__name__} {got[1]}"] += 1
    return seen


def test_bulk_parsers_match_the_record_by_record_reference():
    seen = check_damaged_documents(2424, 2400)
    assert seen["parsed"] > 400 and seen["parsed beyond int64"] > 10, seen
    for fault in ["DocumentError", "GameError", "SeqError", "duplicate states",
                  "references unknown state", "is not a state", "must be negative",
                  "delta: expected integer", "expected string", "expected object",
                  "missing required field", "unknown field", "expected array",
                  "owner must be", "expected exactly 3 symbols", "duplicate rule",
                  "not an alphabet triple", "rule value", "distinguished symbol",
                  "hash and blank must differ", "duplicate symbols", "m >= 3"]:
        assert any(fault in outcome for outcome in seen), (fault, seen)
