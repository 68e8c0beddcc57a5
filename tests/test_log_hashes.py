"""Golden event-log hashes: the "same behaviour" gate for simulator changes.

Every corpus scenario under ``scenarios/`` and one generated mesh are run
and the SHA-256 of the JSON-lines event log is compared with a pinned
value.  A change that only makes the simulator faster must leave every
hash as it is.  A change that alters the log on purpose updates the
hashes here and names the record kinds that changed.
"""

import hashlib
import os
import random

import pytest

from smsc.sim import Simulator, load_scenario, parse_scenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(REPO_ROOT, "scenarios")

CORPUS_HASHES = {
    "corporate-and-personal":
        "c2ee3fd24c1c12fc860c28baab0a95a9e359b8249d00419859a121e8ec85ddc9",
    "lossy-convergence":
        "26c7c06d28056c8faaed391ed0658c188aa35377aae1770eec4b5744ab1d9f72",
    "partition-heal":
        "dddee3f1dd4c9859506de09c2540694fad345d6d82a6d3e474c790db0144f5f6",
    "registry-discovery":
        "af2562ac0457d614881348e2338fc4d85e33b9186618e9be2ae9d9b1a776f271",
    "ring-flood":
        "cea813e30c892259acc777ddc63e3443af2e195625180d1da1915b0f2f1df006",
    "spamfilter-disjoint-contexts":
        "4ecc95987dbc911fa8c50fe34ef9d19da9ea0e5e089198a1ed833871530dd6cc",
    "spamfilter-no-link":
        "cc4cb81a5b9b60545ec34911b876a110aab64bbd1fa9b6a3e99e507d4e367cc9",
    "spamfilter-reuse":
        "d749eed4f3136482311d1b1669e9e98fcafd6f74a57136eeacbc406dc7554090",
}

MESH_HASH = "b483a7060d66c6b4385acedbb00a7f6b4b61b18c52957b581ee37f0231d33a08"

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
