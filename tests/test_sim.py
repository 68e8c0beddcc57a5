import io
import json

import pytest
from hypothesis import given, strategies as st

from smsc.cell import OutboundMessage
from smsc.errors import (
    InvalidProbability,
    ParseError,
    SmscError,
    UnknownCellRef,
    UnknownLink,
)
from smsc.governance import UpdateKind, make_update
from smsc.prng import stream_for_link
from smsc.sim import (
    EventLog,
    PartitionWindow,
    Simulator,
    load_scenario,
    parse_scenario,
    run_scenario,
    token_wire_from_spec,
)

from .oracles import naive_neighbors

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
        (lambda w: w["topology"].update(partitions=[
            {"a": ["c0"], "b": ["c0"], "from": 0}
        ]), ParseError),
    ],
)
def test_parse_rejections(mangle, exc):
    wire = scenario_wire()
    mangle(wire)
    with pytest.raises(exc):
        parse_scenario(wire)


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


def test_token_wire_from_spec_signs_or_keeps_signature():
    signed = token_wire_from_spec(USER_TOKEN)
    assert signed["sig"]
    forged = dict(USER_TOKEN)
    forged["sig"] = "f" * 64
    assert token_wire_from_spec(forged)["sig"] == "f" * 64


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
    window = PartitionWindow(frozenset({"a"}), frozenset({"b"}), 2, 5)
    assert not window.cuts("a", "b", 1)
    assert window.cuts("a", "b", 2)
    assert window.cuts("b", "a", 4)
    assert not window.cuts("a", "b", 5)
    assert not window.cuts("a", "c", 3)


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


def test_set_drop_validates_and_defers():
    sim = Simulator(parse_scenario(scenario_wire()))
    with pytest.raises(UnknownLink):
        sim.set_drop("c0", "ghost", 0.5)
    with pytest.raises(InvalidProbability):
        sim.set_drop("c0", "c1", 2.0)
    sim.set_drop("c0", "c1", 1.0)
    key = frozenset(("c0", "c1"))
    assert sim.links[key].drop == 0.0
    sim.step()
    assert sim.links[key].drop == 1.0


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
        assert sim._neighbors(cell_id) == naive_neighbors(spec.links, cell_id)


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
    on_tick = sender.on_tick

    def hostile_tick(now):
        on_tick(now)
        if now == 3:
            sender.outbox.append(OutboundMessage("update", "c1", forged))
            sender.outbox.append(OutboundMessage(
                "digest-reply", "c1", {"packages": [kindless]}
            ))

    sender.on_tick = hostile_tick
    report = sim.run()
    assert report["passed"], report["assertions"]
    assert report["finalTick"] == 6
    invalid = [(r["tick"], r["cell"], r["detail"]) for r in records_of(sim, "update")]
    assert invalid == [
        (4, "c1", {"status": "invalid", "from": "c0", "error": "BadSignature"}),
        (4, "c1", {"status": "invalid", "from": "c0", "error": "KeyError"}),
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
    on_tick = sender.on_tick

    def hostile_tick(now):
        on_tick(now)
        if now == 3:
            sender.outbox.append(OutboundMessage(kind, "c1", body))

    sender.on_tick = hostile_tick
    report = sim.run()
    assert report["passed"], report["assertions"]
    assert report["finalTick"] == 6
    rejects = [(r["tick"], r["cell"], r["detail"]) for r in records_of(sim, "reject")]
    if body is None or kind in ("advert", "register", "register-reply"):
        assert len(rejects) == 1
        tick, cell, detail = rejects[0]
        assert (tick, cell, detail["kind"], detail["from"]) == (4, "c1", kind, "c0")
        assert detail["error"] in ("KeyError", "TypeError", "AttributeError")
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
         "expected": 0, "atTick": 99},
    ])
    _, report = run_sim(wire)
    assert not report["passed"]
    assert report["assertions"] == []


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


# --- event log -------------------------------------------------------------


def test_event_log_sink_matches_memory():
    sink = io.StringIO()
    log = EventLog(sink)
    spec = parse_scenario(scenario_wire(script=[send_op(1, "c1", src="c0")]))
    Simulator(spec, log).run()
    assert sink.getvalue() == "".join(line + "\n" for line in log.lines)
    for line in log.lines:
        parsed = json.loads(line)
        assert set(parsed) == {"tick", "cell", "kind", "detail"}


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
