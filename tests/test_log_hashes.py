"""Golden event-log hashes: the "same behaviour" gate for simulator changes.

Every corpus scenario under ``scenarios/``, one generated mesh and one
generated request exchange are run and the SHA-256 of the JSON-lines event log is compared with a pinned
value.  A change that only makes the simulator faster must leave every
hash as it is.  A change that alters the log on purpose updates the
hashes here and names the record kinds that changed.

Last re-pinned when the cell's audit list was deleted and the event log
became the cell's one recording channel.  Changed record kinds:

* ``bus``: written when the cell's ``on_tick`` drains the bus, not at
  publish time; each record keeps its tick, cell, detail and per-cell
  order, and moves to the cell's ``on_tick`` slot within the tick;
* new ``peer-expired`` ``{peer}``, ``digest-ignored`` ``{from}``,
  ``op-resp`` / ``mgmt-resp`` ``{from, requestId, action|command,
  status}`` and ``trust`` ``{policy}``, facts only the deleted audit list
  held before;
* ``update`` gains the status ``evicted`` (none in these logs).

Every other line is byte-identical, in the same order.
"""

import hashlib
import os
import random
from collections import Counter, defaultdict

import pytest

from smsc.sim import Simulator, load_scenario, parse_scenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(REPO_ROOT, "scenarios")

CORPUS_HASHES = {
    "corporate-and-personal":
        "cceaa7384b16300cca91229ebca28b89a4f49e742fa420a501f610f2fca68f67",
    "lossy-convergence":
        "61a35117252a7222abd63429e2cccac2ae2b5ffa0976b418358e0a4848268d5a",
    "partition-heal":
        "5908ad6976f46bb85547d53483725f40efbc8ed3453150857463221f36d1240a",
    "registry-discovery":
        "a1a07191d5cc4675112409a3ee89dbe1179bb8c9ed767316fd6d2a5f6ed68385",
    "ring-flood":
        "15df2a84e07726194cf1c2e47a7215680c435cfb0c104eb4b463aa4cf7b2e097",
    "spamfilter-disjoint-contexts":
        "a3a0aa40bda3fe6f7702eb1ed1ab7cd1d1f2796f08f3c184fc69a3841d3d364e",
    "spamfilter-no-link":
        "348bc9a0fff802eaf8dc73cdb64d156c0f79ebaf343824061fda416085fa75a3",
    "spamfilter-reuse":
        "5714fe7c0cd52de572c28d9498475d36361ce4bdd69ea928ea47f135c08b798c",
}

MESH_HASH = "14f87b83efd59ec646280844d69d351998e777ab649a38e6d247377d929a7063"

REQUESTS_HASH = "a676f8278df8a0a7828aad1fac9685627077d72514786fdcb5ec42cc439947ae"

PERMIT_ANY = {
    "rules": [{
        "id": "allow-any", "effect": "Permit", "subject": {},
        "action": "*", "resource": "*", "contexts": ["mesh"],
    }],
    "trustedIssuers": ["idp"],
}

USER_TOKEN = {
    "subject": "u", "claims": {"role": ["user"]},
    "issuer": "idp", "expiryTick": 999,
}


def log_sha256(sim: Simulator) -> str:
    text = "".join(line + "\n" for line in sim.log.lines)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated_mesh(seed: int = 11, n_cells: int = 48) -> dict:
    """A ring plus chords with lossy, mixed-latency links, one partition
    window, a scripted partition and heal, updates and remote operations."""
    rng = random.Random(seed)
    ids = [f"g{i:02d}" for i in range(n_cells)]
    edges = {tuple(sorted((ids[i], ids[(i + 1) % n_cells]))) for i in range(n_cells)}
    while len(edges) < n_cells + n_cells // 2:
        a, b = rng.sample(ids, 2)
        edges.add(tuple(sorted((a, b))))
    links = [
        {"a": a, "b": b, "latency": rng.randint(1, 2), "drop": 0.2}
        for a, b in sorted(edges)
    ]
    cells = [{
        "cellId": cid,
        "profile": {"contexts": ["mesh"]},
        "resourceKind": "echo",
        "policy": PERMIT_ANY,
        "intervals": {"advertise": 4, "antiEntropy": 3},
    } for cid in ids]
    script = []
    for k in range(4):
        script.append({
            "tick": 2 + 3 * k, "op": "emit-update", "cell": rng.choice(ids),
            "kind": "BlocklistAdd", "payload": f"bad-host-{k}", "contexts": ["mesh"],
        })
    for tick in (6, 9, 14):
        a, b = rng.choice(sorted(edges))
        script.append({
            "tick": tick, "op": "send-op", "from": a, "to": b,
            "action": "echo", "context": "mesh",
            "tokens": [USER_TOKEN], "args": {"msg": f"hi-{tick}"},
        })
    script.append({"tick": 16, "op": "partition", "a": ids[:8], "b": ids[8:16]})
    script.append({"tick": 22, "op": "heal"})
    script.sort(key=lambda action: action["tick"])
    return {
        "name": "generated-mesh",
        "seed": seed,
        "maxTicks": 40,
        "cells": cells,
        "topology": {
            "links": links,
            "partitions": [
                {"a": ids[: n_cells // 2], "b": ids[n_cells // 2:], "from": 5, "to": 12}
            ],
        },
        "script": script,
        "assertions": [
            {"id": "converged", "check": "converged", "atEnd": True},
            {"id": "spread", "check": "blocklist-contains", "atEnd": True,
             "cell": ids[-1], "context": "mesh", "entry": "bad-host-0"},
        ],
    }


ADMIN_TOKEN = {
    "subject": "a", "claims": {"role": ["admin"]},
    "issuer": "idp", "expiryTick": 999,
}


def request_exchange() -> dict:
    """Three echo cells in a triangle sending operation and management
    requests to each other and taking them from outside: a permitted, a
    rule-denied and an unknown-name request on each channel, bad and
    expired tokens, a malformed payload and a blocklisted argument."""
    ids = ["r0", "r1", "r2"]
    policy = {
        "rules": [
            {"id": "allow-echo", "effect": "Permit", "subject": {"role": ["user"]},
             "action": "echo", "resource": "echo", "contexts": ["mesh"]},
            {"id": "allow-admin", "effect": "Permit", "subject": {"role": ["admin"]},
             "action": "*", "resource": "*", "contexts": ["mesh"]},
        ],
        "trustedIssuers": ["idp"],
    }
    cells = [{
        "cellId": cid,
        "profile": {"contexts": ["mesh"]},
        "resourceKind": "echo",
        "policy": policy,
        "intervals": {"advertise": 3, "antiEntropy": 4},
    } for cid in ids]
    links = [{"a": "r0", "b": "r1"}, {"a": "r1", "b": "r2", "latency": 2},
             {"a": "r0", "b": "r2"}]
    forged = dict(USER_TOKEN, sig="0" * 64)
    expired = dict(USER_TOKEN, expiryTick=3)
    extra_rule = {"id": "deny-guest", "effect": "Deny", "subject": {"role": ["guest"]},
                  "action": "echo", "resource": "echo", "contexts": ["mesh"]}

    def op(tick, to, action, tokens, sender=None, **args):
        step = {"tick": tick, "op": "send-op", "to": to, "action": action,
                "context": "mesh", "tokens": tokens, "args": args}
        return {**step, "from": sender} if sender else step

    def mgmt(tick, to, command, tokens, payload, sender=None):
        step = {"tick": tick, "op": "send-mgmt", "to": to, "command": command,
                "context": "mesh", "tokens": tokens, "payload": payload}
        return {**step, "from": sender} if sender else step

    script = [
        op(2, "r1", "echo", [USER_TOKEN], "r0", msg="hi"),
        op(2, "r2", "echo", [USER_TOKEN], msg="outside"),
        op(3, "r2", "flag", [USER_TOKEN], "r1"),
        op(3, "r0", "mgmt:add-rule", [ADMIN_TOKEN]),
        mgmt(4, "r2", "flag-spam", [ADMIN_TOKEN], {"entry": "spammer"}, "r0"),
        mgmt(4, "r1", "add-rule", [ADMIN_TOKEN], extra_rule),
        mgmt(5, "r0", "deliver", [ADMIN_TOKEN], None, "r2"),
        mgmt(5, "r0", "set-config", [USER_TOKEN], {"key": "k", "value": 1}),
        mgmt(6, "r0", "remove-rule", [ADMIN_TOKEN], 7, "r1"),
        mgmt(6, "r2", "set-config", [USER_TOKEN], {"key": "k", "value": 2}, "r1"),
        op(6, "r0", "echo", [forged], "r2"),
        op(7, "r1", "echo", [expired]),
        op(7, "r0", "echo", [], "r1"),
        op(10, "r1", "echo", [USER_TOKEN], "r0", **{"from": "spammer"}),
        mgmt(11, "r1", "remove-rule", [ADMIN_TOKEN], "deny-guest", "r2"),
    ]
    return {
        "name": "request-exchange",
        "seed": 3,
        "maxTicks": 16,
        "cells": cells,
        "topology": {"links": links},
        "script": script,
        "assertions": [
            {"id": "spread", "check": "blocklist-contains", "atEnd": True,
             "cell": "r1", "context": "mesh", "entry": "spammer"},
            {"id": "blocked", "check": "decision-equals", "atEnd": True,
             "cell": "r1", "action": "echo", "expected": "Deny"},
            {"id": "converged", "check": "converged", "atEnd": True},
        ],
    }


@pytest.mark.parametrize("name", sorted(CORPUS_HASHES))
def test_corpus_log_hash_is_pinned(name):
    sim = Simulator(load_scenario(os.path.join(SHIPPED, f"{name}.json")))
    sim.run()
    assert log_sha256(sim) == CORPUS_HASHES[name]


def test_every_corpus_file_is_pinned():
    shipped = {f[:-5] for f in os.listdir(SHIPPED) if f.endswith(".json")}
    assert shipped == set(CORPUS_HASHES)


def test_generated_mesh_log_hash_is_pinned():
    sim = Simulator(parse_scenario(generated_mesh()))
    report = sim.run()
    assert report["passed"], report["assertions"]
    kinds = {record["kind"] for record in sim.log.records}
    assert {"drop", "deliver", "update", "decision", "fault"} <= kinds
    assert log_sha256(sim) == MESH_HASH


def test_request_exchange_log_hash_is_pinned():
    """Both request channels, sent from a cell and from outside, each with
    a permitted, a denied and an unknown-name request."""
    sim = Simulator(parse_scenario(request_exchange()))
    report = sim.run()
    assert report["passed"], report["assertions"]
    decisions = {(r["detail"]["caller"], r["detail"]["action"], r["detail"]["reason"])
                 for r in sim.log.records if r["kind"] == "decision"}
    assert {("r0", "echo", "permit"), ("external", "echo", "permit"),
            ("r1", "flag", "unknown-action"),
            ("external", "mgmt:add-rule", "unknown-action"),
            ("r0", "mgmt:flag-spam", "permit"), ("external", "mgmt:add-rule", "permit"),
            ("r2", "mgmt:deliver", "unknown-command"),
            ("external", "mgmt:set-config", "not-applicable")} <= decisions
    statuses = {(r["kind"], r["detail"]["status"]) for r in sim.log.records
                if r["kind"] in ("op-resp", "mgmt-resp")}
    assert statuses == {(kind, status) for kind in ("op-resp", "mgmt-resp")
                        for status in ("ok", "denied")}
    assert log_sha256(sim) == REQUESTS_HASH


@pytest.mark.parametrize("name", sorted(CORPUS_HASHES) + ["generated-mesh", "request-exchange"])
def test_every_published_fact_has_one_bus_record(name):
    """Each ``decision`` has one ``cell.op`` bus record and each applied
    ``update`` one ``policy.updated`` bus record, with the same cell and
    tick; per cell, busSeq runs 0, 1, 2, ... with no envelope missing."""
    if name == "generated-mesh":
        sim = Simulator(parse_scenario(generated_mesh()))
    elif name == "request-exchange":
        sim = Simulator(parse_scenario(request_exchange()))
    else:
        sim = Simulator(load_scenario(os.path.join(SHIPPED, f"{name}.json")))
    sim.run()
    facts, buses = Counter(), Counter()
    seqs = defaultdict(list)
    for record in sim.log.records:
        kind, detail = record["kind"], record["detail"]
        where = (record["tick"], record["cell"])
        if kind == "decision":
            facts[where + ("cell.op",)] += 1
        elif kind == "update" and detail["status"] == "applied":
            facts[where + ("policy.updated",)] += 1
        elif kind == "bus":
            buses[where + (detail["topic"],)] += 1
            seqs[record["cell"]].append(detail["busSeq"])
    assert facts == buses
    for cell, order in seqs.items():
        assert order == list(range(len(order))), cell
