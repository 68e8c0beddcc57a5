import copy
import dataclasses
import gc
import io
import json
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from smsc.cell import OutboundMessage
from smsc.cli import main as cli_main
from smsc.errors import (
    InvalidProbability,
    ParseError,
    SmscError,
    UnknownCellRef,
)
from smsc.governance import UpdateKind, make_update
from smsc.policy import canonical_json
from smsc.prng import stream_for_link
from smsc.sim import (
    EventLog,
    PartitionWindow,
    SimEnvelope,
    Simulator,
    load_scenario,
    parse_scenario,
    run_scenario,
    token_from_spec,
)

from .jsonfuzz import JSON_VALUES, field_at, field_paths, replaced
from .oracles import NaiveStepping, naive_neighbors
from .test_log_hashes import generated_mesh

PERMIT_ANY = {
    "rules": [{
        "id": "allow-any",
        "effect": "Permit",
        "subject": {},
        "action": "*",
        "resource": "*",
        "contexts": ["work"],
    }],
    "trustedIssuers": ["idp"],
}

USER_TOKEN = {
    "subject": "u",
    "claims": {"role": ["user"]},
    "issuer": "idp",
    "expiryTick": 999,
}


def cell_wire(cid, kind="echo", contexts=("work",), intervals=None):
    wire = {
        "cellId": cid,
        "profile": {"contexts": list(contexts)},
        "resourceKind": kind,
        "policy": PERMIT_ANY,
    }
    if intervals:
        wire["intervals"] = intervals
    return wire


def scenario_wire(n_cells=2, links=None, **extra):
    ids = [f"c{i}" for i in range(n_cells)]
    wire = {
        "name": "test",
        "seed": 7,
        "maxTicks": 6,
        "cells": [cell_wire(cid) for cid in ids],
        "topology": {
            "links": links if links is not None
            else [{"a": ids[i], "b": ids[i + 1]} for i in range(n_cells - 1)]
        },
    }
    wire.update(extra)
    return wire


RULE = PERMIT_ANY["rules"][0]


def emit_update(kind, payload, tick=1, cell="c0"):
    return {"tick": tick, "op": "emit-update", "cell": cell, "kind": kind,
            "payload": payload, "contexts": ["work"]}


def send_op(tick, dst, src=None, action="echo", args=None, context="work"):
    action_wire = {
        "tick": tick, "op": "send-op", "to": dst,
        "action": action, "context": context,
        "tokens": [USER_TOKEN], "args": args or {"msg": "x"},
    }
    if src is not None:
        action_wire["from"] = src
    return action_wire


# --- parsing ---------------------------------------------------------------

BAD_SCRIPT_FIELDS = {
    "args-string": ({**send_op(1, "c1"), "args": "x"}, "'args'"),
    "args-string-from": ({**send_op(1, "c1", src="c0"), "args": "x"}, "'args'"),
    "partition-int": ({"tick": 1, "op": "partition", "a": 5, "b": ["c1"]}, "'a'"),
    "contexts-string": ({"tick": 1, "op": "emit-update", "cell": "c0",
                         "kind": "BlocklistAdd", "payload": "x", "contexts": "work"},
                        "'contexts'"),
    "tick-string": ({"tick": "1", "op": "advertise", "cell": "c0"}, "'tick'"),
    "until-string": ({"tick": 1, "op": "partition", "a": ["c0"], "b": ["c1"],
                      "until": "x"}, "'until'"),
    "claim-value-int": ({**send_op(1, "c1"), "tokens": [
        {**USER_TOKEN, "claims": {"role": [5]}}]}, "tokens[0]"),
    "subject-not-a-token": ({**send_op(1, "c1", src="c0"), "tokens": [
        {**USER_TOKEN, "subject": "Bad Subject"}]}, "'Bad Subject'"),
    "rule-effect-maybe": (emit_update("RuleAdd", {**RULE, "effect": "Maybe"}), "'Maybe'"),
    "rule-id-not-a-token": (emit_update("RuleAdd", {**RULE, "id": "Bad Id"}), "'Bad Id'"),
    "config-without-key": (emit_update("ConfigSet", {"value": 1}), "'key'"),
    "config-key-list": (emit_update("ConfigSet", {"key": ["k"], "value": 1}), "'key'"),
    "want-reply-string": ({"tick": 1, "op": "register", "cell": "c0", "with": "c1",
                           "wantReply": "no"}, "'wantReply'"),
    "partition-overlap": ({"tick": 1, "op": "partition", "a": ["c0", "c1"], "b": ["c1"]},
                          "overlap"),
    "register-self": ({"tick": 1, "op": "register", "cell": "c0", "with": "c0"}, "itself"),
    "until-misspelled": ({"tick": 1, "op": "partition", "a": ["c0"], "b": ["c1"],
                          "unitl": 3}, "'unitl'"),
    "payload-on-send-op": ({**send_op(1, "c1"), "payload": {"k": 1}}, "'payload'"),
    "token-sig-misspelled": ({**send_op(1, "c1"), "tokens": [
        {**USER_TOKEN, "sgi": "0" * 64}]}, "'sgi'"),
    # a window that closes when it opens would cut nothing
    "until-at-tick": ({"tick": 3, "op": "partition", "a": ["c0"], "b": ["c1"],
                       "until": 3}, "'until'"),
    "until-before-tick": ({"tick": 3, "op": "partition", "a": ["c0"], "b": ["c1"],
                           "until": 2}, "'until'"),
}

# name -> (mangle, where, field): fields outside the script
BAD_NUMERIC_FIELDS = {
    # an old file's partition window: it must not run unpartitioned
    "topology-partitions": (lambda w: w["topology"].update(partitions=[
        {"a": ["c0"], "b": ["c1"], "from": 0, "to": 5}
    ]), "topology", "'partitions'"),
    "name-int": (lambda w: w.update(name=5), "scenario", "'name'"),
    "latency-string": (lambda w: w["topology"]["links"][0].update(latency="1"),
                       "link c0-c1", "'latency'"),
    "max-ticks-string": (lambda w: w.update(maxTicks="x"), "scenario", "'maxTicks'"),
    "ttl-bool": (lambda w: w["cells"][0]["profile"].update(ttlTicks=True),
                 "cell 'c0'", "'ttlTicks'"),
    "interval-string": (lambda w: w["cells"][0].update(intervals={"advertise": "5"}),
                        "cell 'c0'", "intervals"),
    "at-tick-string": (lambda w: w.update(assertions=[
        {"check": "converged", "atTick": "x"}
    ]), "assertions[0]", "'atTick'"),
    "topology-list": (lambda w: w.update(topology=[]), "scenario", "'topology'"),
    "intervals-list": (lambda w: w["cells"][0].update(intervals=[1]),
                       "cell 'c0'", "'intervals'"),
    "trust-policy-list": (lambda w: w["cells"][0].update(trustPolicy=["work"]),
                          "cell 'c0'", "'trustPolicy'"),
    "script-object": (lambda w: w.update(script=send_op(1, "c1")), "scenario", "'script'"),
    "rule-without-effect": (lambda w: w["cells"][0].update(policy={**PERMIT_ANY, "rules": [
        {k: v for k, v in RULE.items() if k != "effect"}
    ]}), "cell 'c0'", "'effect'"),
    "contexts-string": (lambda w: w["cells"][0]["profile"].update(contexts="work"),
                        "cell 'c0'", "'contexts'"),
    "seed-float": (lambda w: w.update(seed=1.5), "scenario", "'seed'"),
    "drop-bool": (lambda w: w["topology"]["links"][0].update(drop=True),
                  "link c0-c1", "'drop'"),
    "regression-context-list": (lambda w: w["cells"][0].update(policy={**PERMIT_ANY, "regression": [
        {"request": {"action": "echo", "resourceId": "echo", "context": ["work"]},
         "expected": "Permit"}
    ]}), "cell 'c0'", "'context'"),
    "expected-string-false": (lambda w: w.update(assertions=[
        {"check": "catalogue-contains", "cell": "c0", "peer": "c1", "expected": "false",
         "atEnd": True}
    ]), "assertions[0]", "'expected'"),
    "expected-string-zero": (lambda w: w.update(assertions=[
        {"check": "store-version", "cell": "c0", "expected": "0", "atEnd": True}
    ]), "assertions[0]", "'expected'"),
    "expected-bool-version": (lambda w: w.update(assertions=[
        {"check": "store-version", "cell": "c0", "expected": True, "atEnd": True}
    ]), "assertions[0]", "'expected'"),
    "expected-misspelled": (lambda w: w.update(assertions=[
        {"check": "catalogue-contains", "cell": "c0", "peer": "c1", "expcted": False,
         "atEnd": True}
    ]), "assertions[0]", "'expcted'"),
    "at-end-string": (lambda w: w.update(assertions=[
        {"check": "converged", "atEnd": "yes"}
    ]), "assertions[0]", "'atEnd'"),
    "id-int": (lambda w: w.update(assertions=[
        {"id": 7, "check": "converged", "atEnd": True}
    ]), "assertions[0]", "'id'"),
    "converged-no-cells": (lambda w: w.update(assertions=[
        {"check": "converged", "cells": [], "atEnd": True}
    ]), "assertions[0]", "'cells'"),
    "policy-file-misspelled": (lambda w: w["cells"][0].update(policyfile="p.json"),
                               "cell 'c0'", "'policyfile'"),
    "policy-and-policy-file": (lambda w: w["cells"][0].update(policyFile="p.json"),
                               "cell 'c0'", "'policyFile'"),
    "drop-misspelled": (lambda w: w["topology"]["links"][0].update(dorp=0.9),
                        "link c0-c1", "'dorp'"),
    "max-ticks-misspelled": (lambda w: w.update(maxTick=3), "scenario", "'maxTick'"),
    "ttl-misspelled": (lambda w: w["cells"][0]["profile"].update(ttl=3),
                       "cell 'c0' profile", "'ttl'"),
    "interval-misspelled": (lambda w: w["cells"][0].update(intervals={"antientropy": 2}),
                            "cell 'c0' intervals", "'antientropy'"),
    # an assertion that could never fire, or that names two times
    "at-tick-past-max-ticks": (lambda w: w.update(assertions=[
        {"check": "store-version", "cell": "c0", "expected": 0, "atTick": 50}
    ]), "assertions[0]", "'atTick'"),
    "at-tick-negative": (lambda w: w.update(assertions=[
        {"check": "converged", "atTick": -1}
    ]), "assertions[0]", "'atTick'"),
    "at-tick-and-at-end": (lambda w: w.update(assertions=[
        {"check": "converged", "atTick": 2, "atEnd": True}
    ]), "assertions[0]", "'atTick'"),
}

_SCRIPT_MANGLES = [lambda w, action=action: w.update(script=[action])
                   for action, _ in BAD_SCRIPT_FIELDS.values()]
_OTHER_MANGLES = [mangle for mangle, _, _ in BAD_NUMERIC_FIELDS.values()]
# the size of each table at each earlier cut: the entries up to a cut keep
# their test_parse_rejections ids, and those added since come after them
_CUTS = [(6, 7), (18, 29), (20, 32), (None, None)]
_MANGLES_IN_ID_ORDER = [
    mangle
    for (s0, o0), (s1, o1) in zip([(0, 0)] + _CUTS, _CUTS)
    for mangle in _SCRIPT_MANGLES[s0:s1] + _OTHER_MANGLES[o0:o1]
]


@pytest.mark.parametrize(
    "mangle,exc",
    [
        (lambda w: w.pop("cells"), ParseError),
        (lambda w: w["cells"][0].pop("cellId"), ParseError),
        (lambda w: w["cells"][0].pop("resourceKind"), ParseError),
        (lambda w: w["cells"][0]["profile"].update(contexts=[]), ParseError),
        (lambda w: w["cells"][0]["profile"].update(ttlTicks=0), ParseError),
        (lambda w: w["cells"][0].update(intervals={"advertise": 0}), ParseError),
        (lambda w: w["cells"].append(cell_wire("c0")), ParseError),
        (lambda w: w["topology"]["links"].append({"a": "c0", "b": "ghost"}),
         UnknownCellRef),
        (lambda w: w["topology"]["links"].append({"a": "c0", "b": "c0"}),
         ParseError),
        (lambda w: w["topology"]["links"].append({"a": "c1", "b": "c0"}),
         ParseError),
        (lambda w: w["topology"]["links"][0].update(latency=0), ParseError),
        (lambda w: w["topology"]["links"][0].update(drop=1.5),
         InvalidProbability),
        (lambda w: w.update(maxTicks=-1), ParseError),
        (lambda w: w.update(script=[{"tick": 0, "op": "warp"}]), ParseError),
        (lambda w: w.update(script=[{"tick": 0, "op": "advertise"}]), ParseError),
        (lambda w: w.update(script=[{"tick": 0, "op": "advertise",
                                     "cell": "ghost"}]), UnknownCellRef),
        (lambda w: w.update(script=[
            {"tick": 3, "op": "advertise", "cell": "c0"},
            {"tick": 1, "op": "advertise", "cell": "c0"},
        ]), ParseError),
        (lambda w: w.update(script=[{
            "tick": 0, "op": "emit-update", "cell": "c0", "kind": "Nonsense",
            "payload": "x", "contexts": ["work"],
        }]), ParseError),
        (lambda w: w.update(script=[{
            "tick": 0, "op": "emit-update", "cell": "c0",
            "kind": "BlocklistAdd", "payload": "x", "contexts": [],
        }]), ParseError),
        (lambda w: w.update(assertions=[{"check": "levitates", "atTick": 1}]),
         ParseError),
        (lambda w: w.update(assertions=[{"check": "converged"}]), ParseError),
        (lambda w: w.update(assertions=[{
            "check": "decision-equals", "cell": "c0", "action": "echo",
            "expected": "Maybe", "atTick": 1,
        }]), ParseError),
        (lambda w: w.update(assertions=[{
            "check": "store-version", "cell": "ghost", "expected": 0,
            "atEnd": True,
        }]), UnknownCellRef),
        (lambda w: w.update(script=[
            {"tick": 0, "op": "partition", "a": ["c0"], "b": ["c0"]}
        ]), ParseError),
        (lambda w: w["topology"].update(partitions=[
            {"a": ["c0"], "b": ["c1"], "from": 0}
        ]), ParseError),
        *((mangle, ParseError) for mangle in _MANGLES_IN_ID_ORDER),
    ],
)
def test_parse_rejections(mangle, exc):
    wire = scenario_wire()
    mangle(wire)
    with pytest.raises(exc):
        parse_scenario(wire)


def _without(key):
    stanza = dict(USER_TOKEN)
    del stanza[key]
    return stanza


BAD_TOKEN_STANZAS = {
    "no-issuer": ([_without("issuer")], "'issuer'"),
    "no-subject": ([_without("subject")], "'subject'"),
    "no-expiry": ([_without("expiryTick")], "'expiryTick'"),
    "claims-list": ([{**USER_TOKEN, "claims": ["role"]}], "'claims'"),
    "claims-string": ([{**USER_TOKEN, "claims": "role"}], "'claims'"),
    "claim-values-int": ([{**USER_TOKEN, "claims": {"role": 5}}], "'claims'"),
    "stanza-string": (["token"], "token stanza"),
    "tokens-object": (USER_TOKEN, "'tokens'"),
}


@pytest.mark.parametrize("op", ["send-op", "send-mgmt"])
@pytest.mark.parametrize("name", sorted(BAD_TOKEN_STANZAS))
def test_bad_token_stanza_is_a_parse_error(op, name, tmp_path, capsys):
    """A token stanza the run could not turn into a token is rejected at
    parse time, naming the script entry and the field, and ``smsc run``
    exits 2 instead of failing mid-run."""
    tokens, field = BAD_TOKEN_STANZAS[name]
    action = {"tick": 1, "op": op, "to": "c1", "context": "work", "tokens": tokens}
    action.update({"action": "echo"} if op == "send-op" else {"command": "flag-spam"})
    wire = scenario_wire(script=[action])
    with pytest.raises(ParseError, match=r"script\[0\]") as info:
        parse_scenario(wire)
    assert field in str(info.value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(wire))
    assert cli_main(["run", "--scenario", str(path)]) == 2
    assert "script[0]" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BAD_SCRIPT_FIELDS))
def test_bad_script_field_is_a_parse_error(name, tmp_path, capsys):
    """A script field of the wrong type is rejected at parse time, naming
    the script entry and the field, and ``smsc run`` exits 2."""
    action, field = BAD_SCRIPT_FIELDS[name]
    wire = scenario_wire(script=[action])
    with pytest.raises(ParseError, match=r"script\[0\]") as info:
        parse_scenario(wire)
    assert field in str(info.value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(wire))
    assert cli_main(["run", "--scenario", str(path)]) == 2
    assert "script[0]" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BAD_NUMERIC_FIELDS))
def test_bad_numeric_field_is_a_parse_error(name, tmp_path, capsys):
    """A field outside the script of the wrong type (a tick, interval or
    latency that is not an integer, a container of the wrong kind, a
    malformed inline rule) is rejected at parse time, naming where it
    sits and the field, and ``smsc run`` exits 2 instead of raising."""
    mangle, where, field = BAD_NUMERIC_FIELDS[name]
    wire = scenario_wire()
    mangle(wire)
    with pytest.raises(ParseError, match=re.escape(where)) as info:
        parse_scenario(wire)
    assert field in str(info.value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(wire))
    assert cli_main(["run", "--scenario", str(path)]) == 2
    assert where in capsys.readouterr().err


def test_parse_defaults():
    spec = parse_scenario(scenario_wire())
    assert spec.cells[0].advertise_interval == 10
    assert spec.cells[0].anti_entropy_interval == 5
    assert spec.cells[0].ttl_ticks == 30
    # absent trust policy: trust anyone inside the cell's own contexts
    assert spec.cells[0].trust_policy == {"work": []}
    assert spec.links[0].latency == 1 and spec.links[0].drop == 0.0


def test_policy_file_requires_resolver():
    wire = scenario_wire()
    del wire["cells"][0]["policy"]
    wire["cells"][0]["policyFile"] = "something.json"
    with pytest.raises(ParseError):
        parse_scenario(wire)


# policyFile contents -> None for a file that is absent
BAD_POLICY_FILES = {"missing": None, "not-json": "{not json"}


@pytest.mark.parametrize("name", sorted(BAD_POLICY_FILES))
def test_unreadable_policy_file_is_a_parse_error(name, tmp_path, capsys):
    """A ``policyFile`` that is absent or not JSON is a ``ParseError``
    naming the cell and the file, and ``smsc run`` exits 2."""
    wire = scenario_wire()
    del wire["cells"][0]["policy"]
    wire["cells"][0]["policyFile"] = "p.json"
    if BAD_POLICY_FILES[name] is not None:
        (tmp_path / "p.json").write_text(BAD_POLICY_FILES[name])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(wire))
    with pytest.raises(ParseError, match=re.escape("cell 'c0'")) as info:
        load_scenario(str(path))
    assert "policyFile 'p.json'" in str(info.value)
    assert cli_main(["run", "--scenario", str(path)]) == 2
    assert "cell 'c0'" in capsys.readouterr().err


def test_token_from_spec_signs_or_keeps_signature():
    signed = token_from_spec(USER_TOKEN, "here")
    assert signed.signature and signed.subject == "u" and signed.expiry_tick == 999
    forged = dict(USER_TOKEN)
    forged["sig"] = "f" * 64
    assert token_from_spec(forged, "here").signature == "f" * 64


# a small valid scenario that uses every section, op and check
_REGRESSION = {"request": {"subjectAttrs": {"role": ["user"]}, "action": "echo",
                           "resourceId": "echo", "context": "work", "tick": 0},
               "expected": "Permit", "protected": True}
SMALL = scenario_wire(
    seed=3, maxTicks=8,
    cells=[
        {**cell_wire("c0", intervals={"advertise": 2, "antiEntropy": 3}),
         "profile": {"contexts": ["work"], "capabilities": ["echo"], "ttlTicks": 20},
         "policy": {**PERMIT_ANY, "regression": [_REGRESSION]}, "trustPolicy": {"work": []}},
        cell_wire("c1", kind="registry"),
    ],
    links=[{"a": "c0", "b": "c1", "latency": 1, "drop": 0.1}],
    script=[
        {"tick": 0, "op": "advertise", "cell": "c0"},
        {"tick": 1, "op": "register", "cell": "c0", "with": "c1", "wantReply": True},
        send_op(1, "c1", src="c0", action="lookup", args={"context": "work"}),
        {**send_op(2, "c0"), "tokens": [{**USER_TOKEN, "sig": "0" * 64}]},
        {"tick": 2, "op": "send-mgmt", "to": "c0", "command": "set-config", "context": "work",
         "tokens": [USER_TOKEN], "payload": {"key": "k", "value": 1}},
        {"tick": 2, "op": "send-mgmt", "to": "c1", "from": "c0", "command": "flag-spam",
         "context": "work", "tokens": [USER_TOKEN], "payload": {"entry": "e"}},
        emit_update("RuleAdd", {**RULE, "id": "r2"}, tick=3),
        emit_update("ConfigSet", {"key": "k", "value": [1]}, tick=3),
        emit_update("BlocklistAdd", "bad", tick=3, cell="c1"),
        {"tick": 4, "op": "partition", "a": ["c0"], "b": ["c1"], "until": 5},
        {"tick": 5, "op": "heal"},
        {"tick": 6, "op": "partition", "a": ["c0"], "b": ["c1"], "until": 7},
    ],
    assertions=[
        {"id": "d", "check": "decision-equals", "cell": "c0", "action": "echo",
         "context": "work", "expected": "Indeterminate", "atTick": 3},
        {"id": "v", "check": "store-version", "cell": "c0", "expected": 3, "atEnd": True},
        {"id": "cat", "check": "catalogue-contains", "cell": "c0", "peer": "c1",
         "expected": True, "atEnd": True},
        {"id": "conv", "check": "converged", "cells": ["c0"], "atEnd": True},
        {"id": "bl", "check": "blocklist-contains", "cell": "c1", "context": "work",
         "entry": "bad", "atEnd": True},
    ],
)


def test_small_scenario_passes():
    report = Simulator(parse_scenario(copy.deepcopy(SMALL))).run()
    assert report["passed"], report["assertions"]


@settings(max_examples=400)
@given(path=st.sampled_from(tuple(field_paths(SMALL))), value=JSON_VALUES)
def test_a_field_of_another_type_fails_the_load_or_runs(path, value):
    """Any one field replaced by a value of another JSON type is either a
    parse error or a scenario whose run returns a report: nothing a
    scenario file holds can fail mid-run."""
    assume(type(value) is not type(field_at(SMALL, path)))
    wire = replaced(copy.deepcopy(SMALL), path, value)
    try:
        spec = parse_scenario(wire)
    except ParseError:
        return
    report = Simulator(spec).run()
    assert set(report) == {"passed", "assertions", "finalTick"}


# --- transport -------------------------------------------------------------


def run_sim(wire):
    sim = Simulator(parse_scenario(wire))
    report = sim.run()
    return sim, report


def records_of(sim, kind):
    return [r for r in sim.log.records if r["kind"] == kind]


def test_latency_honored():
    wire = scenario_wire(links=[{"a": "c0", "b": "c1", "latency": 3}],
                         script=[send_op(1, "c1", src="c0")])
    sim, _ = run_sim(wire)
    delivers = [r for r in records_of(sim, "deliver")
                if r["detail"]["kind"] == "op-req"]
    assert [r["tick"] for r in delivers] == [4]
    decisions = [r for r in records_of(sim, "decision")]
    assert decisions and decisions[0]["tick"] == 4
    assert decisions[0]["detail"]["verdict"] == "Permit"


def test_unlinked_destination_drops():
    wire = scenario_wire(3, links=[{"a": "c0", "b": "c1"}],
                         script=[send_op(1, "c2", src="c0")])
    sim, _ = run_sim(wire)
    drops = records_of(sim, "drop")
    assert len(drops) == 1
    assert drops[0]["detail"]["reason"] == "no-link"
    assert drops[0]["cell"] == "c0"


def test_full_drop_loses_everything():
    wire = scenario_wire(links=[{"a": "c0", "b": "c1", "drop": 1.0}],
                         script=[send_op(1, "c1", src="c0")])
    sim, _ = run_sim(wire)
    assert records_of(sim, "deliver") == []
    assert all(r["detail"]["reason"] == "loss" for r in records_of(sim, "drop"))


def test_partition_blocks_then_heal_restores():
    wire = scenario_wire(script=[
        {"tick": 1, "op": "partition", "a": ["c0"], "b": ["c1"]},
        send_op(1, "c1", src="c0"),
        {"tick": 3, "op": "heal"},
        send_op(3, "c1", src="c0"),
    ])
    sim, _ = run_sim(wire)
    drops = records_of(sim, "drop")
    # the tick-0 adverts land inside the partition window too
    assert all(r["detail"]["reason"] == "partition" for r in drops)
    assert [r["tick"] for r in drops] == [1, 1, 2]
    delivers = [r for r in records_of(sim, "deliver")
                if r["detail"]["kind"] == "op-req"]
    assert [r["tick"] for r in delivers] == [4]


def test_partition_window_until_is_exclusive():
    # a window cuts only between its groups; the simulator drops it at its
    # until, which test_scripted_partition_until checks
    window = PartitionWindow(frozenset({"a"}), frozenset({"b"}), 5)
    assert window.cuts("a", "b")
    assert window.cuts("b", "a")
    assert not window.cuts("a", "c")


def test_scripted_partition_until():
    wire = scenario_wire(script=[
        {"tick": 1, "op": "partition", "a": ["c0"], "b": ["c1"], "until": 3},
        send_op(1, "c1", src="c0"),
        send_op(2, "c1", src="c0"),
    ])
    sim, _ = run_sim(wire)
    # adverts due t1 and the op due t2 are cut; the op due t3 is not,
    # because the window closes at its "until" tick
    assert [r["tick"] for r in records_of(sim, "drop")] == [1, 1, 2]
    delivers = [r for r in records_of(sim, "deliver")
                if r["detail"]["kind"] == "op-req"]
    assert [r["tick"] for r in delivers] == [3]
    # a closed window is dropped: later deliveries are not tested against it
    assert sim.partitions == []


def test_exactly_one_draw_per_due_envelope():
    wire = scenario_wire(
        links=[{"a": "c0", "b": "c1", "drop": 0.5}],
        script=[
            {"tick": 1, "op": "partition", "a": ["c0"], "b": ["c1"]},
            send_op(1, "c1", src="c0"),
            send_op(1, "c1", src="c0"),
            send_op(2, "c1", src="c0"),
        ],
    )
    sim, _ = run_sim(wire)
    consumed = len(records_of(sim, "deliver")) + len([
        r for r in records_of(sim, "drop")
        if r["detail"]["reason"] in ("loss", "partition")
    ])
    assert consumed == 5  # 2 adverts + 3 op requests, all due on the link
    fresh = stream_for_link(7, "c0", "c1")
    for _ in range(consumed):
        fresh.next_float()
    assert sim._stream(frozenset(("c0", "c1"))).next_float() == fresh.next_float()


def test_a_partition_that_cuts_no_link_leaves_the_log_as_it_is():
    """With no partition window the partition check is skipped, and the
    loss draws must not notice: a window between two cells that share no
    link gives the same log as no window at all, but for its ``fault``
    record."""
    lossy = [{"a": "c0", "b": "c1", "drop": 0.4}, {"a": "c1", "b": "c2", "drop": 0.4}]
    plain = scenario_wire(3, links=lossy, maxTicks=25,
                          script=[send_op(tick, "c2", src="c1") for tick in range(1, 9)])
    cut = copy.deepcopy(plain)
    cut["script"].insert(0, {"tick": 0, "op": "partition", "a": ["c0"], "b": ["c2"]})
    sim, _ = run_sim(plain)
    assert any(r["detail"]["reason"] == "loss" for r in records_of(sim, "drop"))
    cut_sim, _ = run_sim(cut)
    assert len(records_of(cut_sim, "fault")) == 1
    assert [line for line in cut_sim.log.lines if '"kind":"fault"' not in line] == sim.log.lines


CELL_POOL = [f"c{i}" for i in range(8)]
PAIRS = [(a, b) for i, a in enumerate(CELL_POOL) for b in CELL_POOL[i + 1:]]


@st.composite
def random_links(draw):
    pairs = draw(st.lists(st.sampled_from(PAIRS), unique=True, max_size=len(PAIRS)))
    return [
        {"a": b, "b": a} if draw(st.booleans()) else {"a": a, "b": b}
        for a, b in pairs
    ]


@given(random_links())
def test_neighbor_lists_match_naive_scan(links):
    spec = parse_scenario(scenario_wire(len(CELL_POOL), links=links))
    sim = Simulator(spec)
    for cell_id in CELL_POOL:
        assert sim._adjacency.get(cell_id, []) == naive_neighbors(spec.links, cell_id)


@given(random_links(),
       st.lists(st.integers(1, 3), min_size=len(PAIRS), max_size=len(PAIRS)),
       st.sampled_from([0.0, 0.3]))
def test_deliveries_in_dst_then_net_seq_order(links, latencies, drop):
    for link, latency in zip(links, latencies):
        link.update(latency=latency, drop=drop)
    wire = scenario_wire(len(CELL_POOL), links=links, maxTicks=8)
    for cell in wire["cells"]:
        cell["intervals"] = {"advertise": 2, "antiEntropy": 1}
    sim, _ = run_sim(wire)
    by_tick = {}
    seen = set()
    for record in sim.log.records:
        detail = record["detail"]
        if record["kind"] not in ("deliver", "drop") or "netSeq" not in detail:
            continue
        assert detail["netSeq"] not in seen
        seen.add(detail["netSeq"])
        if record["kind"] == "deliver":
            by_tick.setdefault(record["tick"], []).append(
                (record["cell"], detail["netSeq"])
            )
    for order in by_tick.values():
        assert order == sorted(order)


@st.composite
def small_scenarios(draw):
    """Random small federations: lossy links of mixed latency, partitions
    with and without an end tick, short TTLs, mixed intervals, and
    register, send-op, emit-update and advertise actions."""
    ids = [f"c{i}" for i in range(draw(st.integers(2, 5)))]
    max_ticks = draw(st.integers(4, 24))
    cells = []
    for cid in ids:
        cell = cell_wire(cid, contexts=draw(st.sampled_from(
            [["work"], ["work", "home"], ["home", "work"]])))
        cell["profile"]["ttlTicks"] = draw(st.integers(1, 5))
        cell["intervals"] = {"advertise": draw(st.integers(1, 8)),
                             "antiEntropy": draw(st.integers(1, 8))}
        cells.append(cell)
    links = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if draw(st.booleans()):
                links.append({"a": a, "b": b, "latency": draw(st.integers(1, 3)),
                              "drop": draw(st.sampled_from([0.0, 0.3, 0.7]))})
    two = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
    actions = []
    if draw(st.booleans()):
        cut = draw(st.integers(1, len(ids) - 1))
        tick = draw(st.integers(0, max_ticks))
        actions.append({"tick": tick, "op": "partition", "a": ids[:cut], "b": ids[cut:],
                        "until": draw(st.integers(tick + 1, max_ticks + 2))})
    for n, op in enumerate(draw(st.lists(st.sampled_from(
            ["register", "send-op", "send-op-from", "emit-update", "advertise",
             "partition", "heal"]), max_size=8))):
        tick = draw(st.integers(0, max_ticks))
        src, dst = draw(two)
        if op == "register":
            action = {"op": op, "cell": src, "with": dst,
                      "wantReply": draw(st.booleans())}
        elif op.startswith("send-op"):
            action = send_op(tick, dst, src=src if op == "send-op-from" else None)
        elif op == "emit-update":
            action = emit_update("BlocklistAdd", f"spam{n}", cell=src)
        elif op == "advertise":
            action = {"op": op, "cell": src}
        elif op == "partition":
            action = {"op": op, "a": [src], "b": [dst]}
        else:
            action = {"op": op}
        actions.append({**action, "tick": tick})
    actions.sort(key=lambda action: action["tick"])
    return scenario_wire(cells=cells, topology={"links": links}, script=actions,
                         maxTicks=max_ticks, seed=draw(st.integers(0, 99)))


@given(small_scenarios())
def test_wake_schedule_matches_ticking_every_cell(wire):
    """Calling ``on_tick`` only on due cells writes the same log, byte for
    byte, as calling it on every cell on every tick."""
    spec = parse_scenario(wire)
    logs = []
    for simulator in (Simulator, NaiveStepping):
        log = EventLog()
        simulator(spec, log).run()
        logs.append(log.lines)
    assert logs[0] == logs[1]


def test_new_peer_expiry_before_the_next_scheduled_wake():
    """A peer learned between wakes moves the receiver's next wake earlier,
    to the peer's expiry, and the receiver wakes at no other tick."""
    cells = [cell_wire("c0", intervals={"advertise": 20, "antiEntropy": 20}),
             cell_wire("c1", intervals={"advertise": 20, "antiEntropy": 20})]
    cells[1]["profile"]["ttlTicks"] = 2
    wire = scenario_wire(cells=cells, maxTicks=12,
                         script=[{"tick": 5, "op": "advertise", "cell": "c1"}])
    sim = Simulator(parse_scenario(wire))
    woken = []
    receiver = sim.cells["c0"]
    on_tick = receiver.on_tick
    receiver.on_tick = lambda now: (woken.append(now), on_tick(now))
    sim.run()
    # c1's adverts land at 1 and 6 and lapse after 1 + 2 and 6 + 2
    assert woken == [0, 4, 9]
    expired = [(r["tick"], r["cell"], r["detail"]) for r in records_of(sim, "peer-expired")]
    assert expired == [(4, "c0", {"peer": "c1"}), (9, "c0", {"peer": "c1"})]
    naive = EventLog()
    NaiveStepping(parse_scenario(wire), naive).run()
    assert sim.log.lines == naive.lines


def traced_ticks(simulator):
    """Each ``on_tick`` call of a run of the generated mesh under
    ``simulator``, as (tick, cell, whether the call recorded or sent
    anything)."""
    sim = simulator(parse_scenario(generated_mesh()))
    calls = []
    for cell_id, cell in sim.cells.items():
        def on_tick(now, cell_id=cell_id, cell=cell, original=cell.on_tick):
            before = len(sim.log.lines), len(cell.outbox)
            original(now)
            calls.append((now, cell_id, (len(sim.log.lines), len(cell.outbox)) != before))
        cell.on_tick = on_tick
    sim.run()
    return calls


def test_on_tick_runs_exactly_when_it_does_something():
    """The simulator calls ``on_tick`` on exactly the (tick, cell) pairs
    where ticking every cell every tick records or sends something.  The
    log cannot show a wake too many, since an idle ``on_tick`` writes
    nothing, so the calls themselves are compared."""
    woken = traced_ticks(Simulator)
    busy = [call for call in traced_ticks(NaiveStepping) if call[2]]
    assert woken == busy


def test_a_dropped_simulator_leaves_no_cycle():
    """Once a finished simulator is dropped, reference counting frees all
    of it, and the cyclic collector finds nothing."""
    spec = parse_scenario(generated_mesh())
    gc.collect()
    gc.disable()
    try:
        Simulator(spec).run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hostile_updates_do_not_stop_the_run():
    wire = scenario_wire(assertions=[
        {"id": "untouched", "check": "store-version", "cell": "c1",
         "expected": 0, "atEnd": True},
    ])
    sim = Simulator(parse_scenario(wire))
    sender = sim.cells["c0"]
    forged = make_update("c0", 0, UpdateKind.BLOCKLIST_ADD, "h", {"work"}, 0).to_wire()
    forged["sig"] = "0" * 64
    kindless = make_update("c0", 0, UpdateKind.BLOCKLIST_ADD, "h", {"work"}, 0).to_wire()
    del kindless["kind"]
    dispatch = sim._dispatch_outboxes

    def hostile_dispatch(tick):
        if tick == 3:
            sender.outbox.append(OutboundMessage("update", "c1", forged))
            sender.outbox.append(OutboundMessage(
                "digest-reply", "c1", {"packages": [kindless]}
            ))
        dispatch(tick)

    sim._dispatch_outboxes = hostile_dispatch
    report = sim.run()
    assert report["passed"], report["assertions"]
    assert report["finalTick"] == 6
    invalid = [(r["tick"], r["cell"], r["detail"]) for r in records_of(sim, "update")]
    assert invalid == [
        (4, "c1", {"status": "invalid", "from": "c0", "error": "BadSignature"}),
        (4, "c1", {"status": "invalid", "from": "c0", "error": "ParseError"}),
    ]


# every kind but "update", whose bad packages are logged as invalid updates;
# a null body is unreadable for all of them, an empty one for the first three
_PEER_KINDS = ("advert", "register", "register-reply", "digest", "digest-reply",
               "op-req", "op-resp", "mgmt-req", "mgmt-resp")


@pytest.mark.parametrize("body", [{}, None], ids=["empty", "null"])
@pytest.mark.parametrize("kind", _PEER_KINDS)
def test_unreadable_envelope_is_rejected_not_raised(kind, body):
    wire = scenario_wire(assertions=[
        {"id": "untouched", "check": "store-version", "cell": "c1",
         "expected": 0, "atEnd": True},
    ])
    sim = Simulator(parse_scenario(wire))
    sender = sim.cells["c0"]
    dispatch = sim._dispatch_outboxes

    def hostile_dispatch(tick):
        if tick == 3:
            sender.outbox.append(OutboundMessage(kind, "c1", body))
        dispatch(tick)

    sim._dispatch_outboxes = hostile_dispatch
    report = sim.run()
    assert report["passed"], report["assertions"]
    assert report["finalTick"] == 6
    rejects = [(r["tick"], r["cell"], r["detail"]) for r in records_of(sim, "reject")]
    if body is None or kind in ("advert", "register", "register-reply"):
        assert len(rejects) == 1
        tick, cell, detail = rejects[0]
        assert (tick, cell, detail["kind"], detail["from"]) == (4, "c1", kind, "c0")
        assert detail["error"] == "ParseError"
    else:
        assert rejects == []


# --- assertions and reporting ---------------------------------------------


def test_decision_equals_picks_latest_matching():
    wire = scenario_wire(
        cells=[
            cell_wire("c0"),
            {
                "cellId": "c1",
                "profile": {"contexts": ["work", "home"]},
                "resourceKind": "echo",
                "policy": {
                    "rules": [{
                        "id": "work-only", "effect": "Permit", "subject": {},
                        "action": "*", "resource": "*", "contexts": ["work"],
                    }],
                    "trustedIssuers": ["idp"],
                },
            },
        ],
        script=[
            send_op(1, "c1", context="work"),
            send_op(2, "c1", context="home"),
        ],
        assertions=[
            {"id": "latest", "check": "decision-equals", "cell": "c1",
             "action": "echo", "expected": "NotApplicable", "atTick": 3},
            {"id": "work-ctx", "check": "decision-equals", "cell": "c1",
             "action": "echo", "context": "work", "expected": "Permit",
             "atTick": 3},
            {"id": "none", "check": "decision-equals", "cell": "c1",
             "action": "ring", "expected": "Permit", "atTick": 3},
        ],
    )
    _, report = run_sim(wire)
    by_id = {r["id"]: r for r in report["assertions"]}
    assert by_id["latest"]["ok"]
    assert by_id["work-ctx"]["ok"]
    assert not by_id["none"]["ok"]
    assert "no-decision" in by_id["none"]["detail"]
    assert not report["passed"]


def test_assertion_that_never_fires_fails_the_run():
    wire = scenario_wire(assertions=[
        {"id": "late", "check": "store-version", "cell": "c0",
         "expected": 0, "atTick": 5},
    ])
    # a spec built past the load checks, whose run ends before tick 5
    spec = dataclasses.replace(parse_scenario(wire), max_ticks=3)
    report = Simulator(spec).run()
    assert not report["passed"]
    assert report["assertions"] == []


def test_one_unfired_assertion_fails_the_run():
    """A run fails when any declared assertion left no result, even if
    every one that fired passed."""
    wire = scenario_wire(assertions=[
        {"id": "early", "check": "store-version", "cell": "c0",
         "expected": 0, "atTick": 2},
        {"id": "late", "check": "store-version", "cell": "c0",
         "expected": 0, "atTick": 5},
    ])
    spec = dataclasses.replace(parse_scenario(wire), max_ticks=3)
    sim = Simulator(spec)
    report = sim.run()
    assert [(r["id"], r["ok"]) for r in report["assertions"]] == [("early", True)]
    assert not report["passed"]
    assert records_of(sim, "end")[0]["detail"] == {"passed": False}


def test_at_end_assertions_fire_after_last_tick():
    wire = scenario_wire(assertions=[
        {"id": "fin", "check": "store-version", "cell": "c0",
         "expected": 0, "atEnd": True},
    ])
    sim, report = run_sim(wire)
    assert report["passed"]
    assert report["finalTick"] == 6
    (entry,) = records_of(sim, "assert")
    assert entry["tick"] == 6


def test_run_error_is_reported_not_raised():
    sim = Simulator(parse_scenario(scenario_wire()))

    def explode(now):
        raise SmscError("boom")

    sim.cells["c1"].on_tick = explode
    report = sim.run()
    assert not report["passed"]
    assert report["assertions"][0]["id"] == "run-error"
    assert "boom" in report["assertions"][0]["detail"]
    end = records_of(sim, "end")
    assert end and end[0]["detail"] == {"passed": False}


def test_run_error_keeps_the_failed_tick_bus_records():
    sim = Simulator(parse_scenario(scenario_wire(links=[], script=[send_op(1, "c0")])))
    on_tick = sim.cells["c0"].on_tick

    def explode(now):
        if now == 1:
            raise SmscError("boom")
        on_tick(now)

    sim.cells["c0"].on_tick = explode
    report = sim.run()
    assert report["assertions"][0]["id"] == "run-error"
    assert "boom" in report["assertions"][0]["detail"]
    kinds = [(r["tick"], r["cell"], r["kind"]) for r in sim.log.records]
    assert kinds == [(1, "c0", "decision"), (1, "c0", "bus"),
                     (1, "-", "assert"), (1, "-", "end")]


# --- event log -------------------------------------------------------------


def test_event_log_sink_matches_memory():
    """A log with a sink holds nothing itself; the sink gets exactly the
    lines a log without one keeps in memory."""
    spec = parse_scenario(scenario_wire(script=[send_op(1, "c1", src="c0")]))
    sink = io.StringIO()
    streamed = EventLog(sink)
    Simulator(spec, streamed).run()
    assert streamed.lines == [] and streamed.records == []
    kept = EventLog()
    Simulator(spec, kept).run()
    assert kept.lines
    assert sink.getvalue() == "".join(line + "\n" for line in kept.lines)
    for record in kept.records:
        assert set(record) == {"tick", "cell", "kind", "detail"}


# text that often holds the characters JSON escapes
_WIRE_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'), st.characters()
))


@given(
    st.sampled_from(["deliver", "drop"]),
    _WIRE_TEXT, _WIRE_TEXT, _WIRE_TEXT,
    st.integers(min_value=0), st.integers(min_value=0),
    st.one_of(st.none(), st.sampled_from(["partition", "loss"]), _WIRE_TEXT),
)
def test_envelope_line_equals_the_canonical_record(kind, dst, envelope_kind, src,
                                                   net_seq, tick, reason):
    """A ``deliver``/``drop`` line written without the encoder is the line
    ``canonical_json`` gives for the same record, for any cell id, kind
    and reason (quotes, backslashes, control and non-ASCII characters)."""
    log = EventLog()
    log.record_envelope(tick, kind, SimEnvelope(envelope_kind, src, dst, net_seq, {}), reason)
    detail = {"kind": envelope_kind, "src": src, "netSeq": net_seq}
    if reason is not None:
        detail["reason"] = reason
    assert log.lines == [canonical_json(
        {"tick": tick, "cell": dst, "kind": kind, "detail": detail}
    )]


def test_identical_runs_identical_logs():
    wire = scenario_wire(
        links=[{"a": "c0", "b": "c1", "drop": 0.4}],
        script=[send_op(1, "c1", src="c0"), send_op(2, "c1", src="c0")],
    )
    logs = []
    for _ in range(2):
        log = EventLog()
        Simulator(parse_scenario(wire), log).run()
        logs.append(list(log.lines))
    assert logs[0] == logs[1]


def test_run_scenario_writes_log_and_report(tmp_path):
    wire = scenario_wire(assertions=[
        {"id": "v", "check": "store-version", "cell": "c0", "expected": 0,
         "atEnd": True},
    ])
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(wire))
    spec = load_scenario(str(scenario_path))
    log_path = tmp_path / "events.jsonl"
    report_path = tmp_path / "report.json"
    report = run_scenario(spec, str(log_path), str(report_path))
    assert report["passed"]
    on_disk = json.loads(report_path.read_text())
    assert on_disk == report
    lines = log_path.read_text().splitlines()
    assert json.loads(lines[-1])["kind"] == "end"
