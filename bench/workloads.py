"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and returns plain dicts in
the program's wire formats (scenario files, policy documents, request
bodies).  The same seed always gives the same inputs; nothing here is
timed.
"""

from __future__ import annotations

import random
from typing import Any

from smsc.policy import AttributePair, DecisionRequest, PolicyRule, issue_token
from tests.oracles import naive_evaluate

MESH_CELLS = 1024
MESH_TICKS = 70  # the slowest of 12 seeds converged at tick 42
MESH_UPDATES = 6

FLOOD_CELLS = 64
FLOOD_UPDATES = 100
FLOOD_TAIL_TICKS = 30
FLOOD_RULES = 20

ENFORCE_RULES = 1000
ENFORCE_REQUESTS = 2000
ENFORCE_TICK_EVERY = 25
ENFORCE_CONTEXTS = ("personal", "work", "family", "club")
TRUSTED_ISSUER = "corp-idp"

_ROLES = ("owner", "member", "guest", "auditor", "intern")
_DEPTS = ("eng", "ops", "sales", "legal")
_LEVELS = ("c0", "c1", "c2", "c3")


def random_graph(rng: random.Random, ids: list[str], extra: int) -> list[tuple[str, str]]:
    """A ring through a random permutation plus ``extra`` random chords.

    The ring keeps the graph connected; the chords give it the small
    diameter of a random graph.  The edge count is fixed at
    ``len(ids) + extra``, so the mean degree does not depend on the seed.
    """
    order = ids[:]
    rng.shuffle(order)
    edges = {frozenset((order[i], order[(i + 1) % len(order)])) for i in range(len(order))}
    while len(edges) < len(ids) + extra:
        a, b = rng.sample(ids, 2)
        edges.add(frozenset((a, b)))
    return sorted(tuple(sorted(e)) for e in edges)


def _cell(cell_id: str, context: str, policy: dict[str, Any]) -> dict[str, Any]:
    cell = {
        "cellId": cell_id,
        "profile": {"contexts": [context]},
        "resourceKind": "echo",
        "intervals": {"advertise": 5, "antiEntropy": 5},
    }
    if policy:
        cell["policy"] = policy
    return cell


def _links(rng: random.Random, edges: list[tuple[str, str]]) -> list[dict[str, Any]]:
    return [
        {"a": a, "b": b, "latency": rng.randint(1, 2), "drop": 0.1}
        for a, b in edges
    ]


def mesh_gossip_scenario(seed: int) -> dict[str, Any]:
    """1024 echo cells on a random graph; a few early blocklist updates."""
    rng = random.Random(f"mesh-gossip:{seed}")
    ids = [f"m{i:04d}" for i in range(MESH_CELLS)]
    edges = random_graph(rng, ids, MESH_CELLS * 3 // 4)
    script = []
    assertions: list[dict[str, Any]] = [
        {"id": "converged", "check": "converged", "atEnd": True}
    ]
    for k in range(MESH_UPDATES):
        entry = f"bad-host-{k}"
        script.append({
            "tick": 3 + k, "op": "emit-update", "cell": rng.choice(ids),
            "kind": "BlocklistAdd", "payload": entry, "contexts": ["mesh"],
        })
        assertions.append({
            "id": f"spread-{k}", "check": "blocklist-contains", "atEnd": True,
            "cell": rng.choice(ids), "context": "mesh", "entry": entry,
        })
    return {
        "name": "bench-mesh-gossip",
        "seed": seed,
        "maxTicks": MESH_TICKS,
        "cells": [_cell(cid, "mesh", {}) for cid in ids],
        "topology": {"links": _links(rng, edges)},
        "script": script,
        "assertions": assertions,
    }


# --- rules and requests ---------------------------------------------------


def _subject(rng: random.Random, max_atoms: int) -> dict[str, list[str]]:
    pools = {"role": _ROLES, "dept": _DEPTS, "level": _LEVELS}
    names = rng.sample(sorted(pools), rng.randint(0, max_atoms))
    return {n: sorted(rng.sample(pools[n], rng.randint(1, 2))) for n in names}


def _rule(rng: random.Random, rule_id: str, actions: tuple[str, ...],
          resources: tuple[str, ...], contexts: list[str]) -> dict[str, Any]:
    return {
        "id": rule_id,
        "effect": "Deny" if rng.random() < 0.3 else "Permit",
        "subject": _subject(rng, 2),
        "action": rng.choice(actions),
        "resource": rng.choice(resources),
        "contexts": sorted(contexts),
    }


def _claims(rng: random.Random) -> dict[str, list[str]]:
    return {
        "role": [rng.choice(_ROLES)],
        "dept": [rng.choice(_DEPTS)],
        "level": [rng.choice(_LEVELS)],
    }


def _request(rng: random.Random, actions: tuple[str, ...], resource: str,
             context: str) -> dict[str, Any]:
    return {"subjectAttrs": _claims(rng), "action": rng.choice(actions),
            "resourceId": resource, "context": context, "tick": 0}


_FLOOD_ACTIONS = ("echo", "read", "write", "*")
_FLOOD_RESOURCES = ("echo", "echo*", "*", "store")


def update_flood_scenario(seed: int) -> dict[str, Any]:
    """64 governed cells; one update per tick from a rotating origin.

    Every cell starts from the same 20 rules but pins its own two
    regression cases, some protected, so a rule change can be accepted
    by one cell and rejected by another.
    """
    rng = random.Random(f"update-flood:{seed}")
    ids = [f"f{i:02d}" for i in range(FLOOD_CELLS)]
    edges = random_graph(rng, ids, FLOOD_CELLS)
    rules = [
        _rule(rng, f"r{i:02d}", _FLOOD_ACTIONS, _FLOOD_RESOURCES, ["flood"])
        for i in range(FLOOD_RULES)
    ]
    base = [PolicyRule.from_wire(r) for r in rules]
    pool = [_request(rng, ("echo", "read", "write"), "echo", "flood") for _ in range(8)]
    cells = []
    for cid in ids:
        regression = []
        for request in rng.sample(pool, 2):
            verdict = naive_evaluate(base, DecisionRequest.from_wire(request))
            regression.append({"request": request, "expected": verdict,
                               "protected": rng.random() < 0.4})
        cells.append(_cell(cid, "flood", {"rules": rules, "regression": regression}))

    origins = ids[:]
    rng.shuffle(origins)
    live = [r["id"] for r in rules]
    # a fixed mix in seeded order: 35% RuleAdd, 20% RuleRemove,
    # 25% BlocklistAdd, 20% ConfigSet
    kinds = [kind for kind, share in (("RuleAdd", 35), ("RuleRemove", 20),
                                      ("BlocklistAdd", 25), ("ConfigSet", 20))
             for _ in range(share * FLOOD_UPDATES // 100)]
    rng.shuffle(kinds)
    script = []
    for k, kind in enumerate(kinds):
        if kind == "RuleAdd":
            payload = _rule(rng, f"u{k:03d}", _FLOOD_ACTIONS, _FLOOD_RESOURCES, ["flood"])
            live.append(payload["id"])
        elif kind == "RuleRemove":
            payload = live.pop(rng.randrange(len(live)))
        elif kind == "BlocklistAdd":
            payload = f"spam-{k}"
        else:
            payload = {"key": f"k{k % 5}", "value": k}
        script.append({"tick": 3 + k, "op": "emit-update",
                       "cell": origins[k % len(origins)], "kind": kind,
                       "payload": payload, "contexts": ["flood"]})
    return {
        "name": "bench-update-flood",
        "seed": seed,
        "maxTicks": 3 + FLOOD_UPDATES + FLOOD_TAIL_TICKS,
        "cells": cells,
        "topology": {"links": _links(rng, edges)},
        "script": script,
        "assertions": [{"id": "converged", "check": "converged", "atEnd": True}],
    }


# --- enforcement point ----------------------------------------------------

_ADMIN_CHAIN = ("root-admin", "ops-lead", "alice", "bob")
# one user per (role, dept, level) combination, so every seed has the
# same user population
_COMBOS = tuple((r, d, lv) for r in _ROLES for d in _DEPTS for lv in _LEVELS)
_USERS = tuple(f"user-{i:02d}" for i in range(len(_COMBOS)))
_SENDERS = tuple(f"sender-{i}" for i in range(40))
_EMAIL_ACTIONS = ("deliver", "flag", "*")
_EMAIL_RESOURCES = ("email-filter", "email-*", "*", "other-res")


def _email_rule(rng: random.Random, index: int, rule_id: str, contexts: list[str],
                denied: list[tuple[str, str, str]]) -> dict[str, Any]:
    """A rule whose shape is fixed by ``index``; only its values are seeded.

    Every fourth rule is a Deny rule pinning one ``(role, dept, level)``
    combination taken in turn from ``denied`` and naming a concrete
    action, so it never denies the admin's writes and about a quarter of
    requests end in Deny.  The others are Permit rules constraining one
    to three attributes.  Fixed shapes keep the cost of a request from
    depending on the seed.
    """
    shape = index % 4
    resource = _EMAIL_RESOURCES[index // 4 % 4]
    if shape == 0:
        role, dept, level = denied[index // 4 % len(denied)]
        return {"id": rule_id, "effect": "Deny",
                "subject": {"role": [role], "dept": [dept], "level": [level]},
                "action": ("deliver", "flag")[index // 16 % 2],
                "resource": resource, "contexts": sorted(contexts)}
    pools = (("role", _ROLES), ("dept", _DEPTS), ("level", _LEVELS))
    subject = {}
    for j in range(shape):
        name, pool = pools[(index + j) % 3]
        subject[name] = sorted(rng.sample(pool, 1 + index // 64 % 2))
    return {"id": rule_id, "effect": "Permit", "subject": subject,
            "action": _EMAIL_ACTIONS[index // 16 % 3], "resource": resource,
            "contexts": sorted(contexts)}


def _denied_combos(seed: int) -> list[tuple[str, str, str]]:
    order = list(_COMBOS)
    random.Random(f"enforce-denied:{seed}").shuffle(order)
    return order


def enforce_policy(seed: int) -> dict[str, Any]:
    """An ``email-filter`` policy: 1000 rules over four contexts, a
    delegation chain granting ``role:admin`` and one trusted issuer."""
    rng = random.Random(f"enforce-policy:{seed}")
    denied = _denied_combos(seed)
    contexts = list(ENFORCE_CONTEXTS)
    rules = []
    for ctx in contexts:
        for command in ("add-rule", "remove-rule", "flag-spam"):
            rules.append({"id": f"adm-{command}-{ctx}", "effect": "Permit",
                          "subject": {"role": ["admin"]}, "action": f"mgmt:{command}",
                          "resource": "*", "contexts": [ctx]})
    # fixed rule counts per context, so the cost of a request does not
    # depend on the seed: every seventh rule is scoped to two contexts
    while len(rules) < ENFORCE_RULES:
        k = len(rules)
        scope = [contexts[k % 4]] + ([contexts[(k + 1) % 4]] if k % 7 == 0 else [])
        rules.append(_email_rule(rng, k, f"e{k:04d}", scope, denied))
    admin = {"name": "role", "value": "admin"}
    roots = [{"principal": _ADMIN_CHAIN[0], "attr": admin, "depth": 3}]
    delegations = [
        {"issuer": a, "subject": b, "attr": admin, "depth": 3 - i, "contexts": contexts}
        for i, (a, b) in enumerate(zip(_ADMIN_CHAIN, _ADMIN_CHAIN[1:]))
    ]
    # a second, context-limited chain that never reaches the mgmt rules
    auditor = {"name": "role", "value": "auditor"}
    roots.append({"principal": "audit-root", "attr": auditor, "depth": 2})
    delegations.append({"issuer": "audit-root", "subject": _USERS[0], "attr": auditor,
                        "depth": 1, "contexts": ["work"]})
    parsed = [PolicyRule.from_wire(r) for r in rules]
    regression = []
    for ctx in contexts:
        for action, protected in (("deliver", True), ("flag", False)):
            request = _request(rng, (action,), "email-filter", ctx)
            verdict = naive_evaluate(parsed, DecisionRequest.from_wire(request))
            regression.append({"request": request, "expected": verdict,
                               "protected": protected})
    return {"rules": rules, "delegations": delegations, "roots": roots,
            "trustedIssuers": [TRUSTED_ISSUER], "regression": regression}


def _token(subject: str, claims: dict[str, list[str]], issuer: str, expiry: int) -> dict[str, Any]:
    pairs = [AttributePair(n, v) for n, vals in claims.items() for v in vals]
    return issue_token(subject, pairs, issuer, expiry).to_wire()


def enforce_requests(seed: int, policy: dict[str, Any]) -> list[dict[str, Any]]:
    """A closed-loop client's request sequence against ``enforce_policy``.

    Each item is ``{"kind": "op" | "mgmt", "body": ...}``.  The sequence
    opens with one flag-spam per context so later requests can hit the
    blocklist.  The rest is a fixed mix in seeded order: 2% rule writes
    by ``alice``, who holds ``role:admin`` only through the delegation
    chain; 1% each of expired, untrusted-issuer and forged tokens; 2%
    blocklisted senders; 10% two-token requests; the rest one token.
    Users hold one (role, dept, level) combination each, all of them
    covered.  Fixed counts keep the cost of a pass from depending on the
    seed.
    """
    rng = random.Random(f"enforce-requests:{seed}")
    denied = _denied_combos(seed)
    forever = 10 ** 9
    combos = list(_COMBOS)
    rng.shuffle(combos)
    user_tokens = [
        _token(u, {"role": [r], "dept": [d], "level": [lv]}, TRUSTED_ISSUER, forever)
        for u, (r, d, lv) in zip(_USERS, combos)
    ]
    admin_token = _token("alice", {"dept": ["ops"]}, TRUSTED_ISSUER, forever)
    bad_tokens = {
        "expired": _token(_USERS[1], _claims(rng), TRUSTED_ISSUER, 1),
        "untrusted": _token(_USERS[2], _claims(rng), "rogue-idp", forever),
        "forged": dict(user_tokens[0], sig="0" * 64),
    }
    blocked = [f"spammer-{i}" for i in range(len(ENFORCE_CONTEXTS))]

    out: list[dict[str, Any]] = []
    for ctx, entry in zip(ENFORCE_CONTEXTS, blocked):
        out.append({"kind": "mgmt", "body": {
            "tokens": [admin_token], "command": "flag-spam",
            "payload": {"entry": entry}, "context": ctx}})
    rest = ENFORCE_REQUESTS - len(out)
    mix = {"write": 2, "expired": 1, "untrusted": 1, "forged": 1, "blocked": 2, "two": 10}
    kinds = [kind for kind, pct in mix.items() for _ in range(rest * pct // 100)]
    kinds += ["one"] * (rest - len(kinds))
    rng.shuffle(kinds)
    added: list[tuple[str, str]] = []
    for index, kind in enumerate(kinds):
        ctx = ENFORCE_CONTEXTS[index % len(ENFORCE_CONTEXTS)]
        if kind == "write":
            if added and index % 5 < 2:
                rule_ctx, rule_id = added.pop(rng.randrange(len(added)))
                body = {"tokens": [admin_token], "command": "remove-rule",
                        "payload": rule_id, "context": rule_ctx}
            else:
                rule = _email_rule(rng, index, f"w{index:04d}", [ctx], denied)
                added.append((ctx, rule["id"]))
                body = {"tokens": [admin_token], "command": "add-rule",
                        "payload": rule, "context": ctx}
            out.append({"kind": "mgmt", "body": body})
            continue
        if kind in bad_tokens:
            tokens = [bad_tokens[kind]]
        else:
            tokens = rng.sample(user_tokens, 2 if kind == "two" else 1)
        sender = blocked[index % len(blocked)] if kind == "blocked" else rng.choice(_SENDERS)
        out.append({"kind": "op", "body": {
            "tokens": tokens, "action": ("deliver", "flag")[index // 4 % 2],
            "args": {"from": sender, "subject": "hello"}, "context": ctx}})
    return out
