#!/usr/bin/env python3
"""Update governance: pinned regression cases as guardrails.

A cell accepts rule changes only after replaying its pinned cases
against the hypothetical new rule set.  A change that would flip a
protected pin is rejected; its sequence number is still consumed so the
origin's stream keeps moving.  Also shown: out-of-order buffering and
the anti-entropy digest that lets a peer back-fill.

Run: python3 demos/governance_guardrails.py
"""

from smsc import (
    Condition,
    ConfigSetting,
    DecisionRequest,
    Effect,
    PolicyRule,
    PolicyStore,
    RegressionCase,
    UpdateKind,
    Verdict,
    make_update,
)

deliver_any = PolicyRule(
    id="deliver-any",
    effect=Effect.PERMIT,
    subject=Condition.from_mapping({}),
    action="deliver",
    resource="email-filter",
    contexts=frozenset({"personal"}),
)
pin = RegressionCase(
    request=DecisionRequest(
        subject_attrs=frozenset(),
        action="deliver",
        resource_id="email-filter",
        context="personal",
        tick=0,
    ),
    expected=Verdict.PERMIT,
    protected=True,
)
store = PolicyStore("email-filter", rules=[deliver_any], regression=[pin])
print("pinned: plain mail keeps getting delivered (protected)")

print("\n== seq 0: a harmless blocklist entry ==")
report = store.apply_update(
    make_update("admin", 0, UpdateKind.BLOCKLIST_ADD, "spam-host",
                ["personal"], 0))
print(f"  {report.status.value}; version={store.version}")

print("\n== seq 1: a rule that would silence all mail ==")
block_all = PolicyRule(
    id="block-everything",
    effect=Effect.DENY,
    subject=Condition.from_mapping({}),
    action="deliver",
    resource="email-filter",
    contexts=frozenset({"personal"}),
)
content_before, marks_before = store.content_digest(), store.digest()
report = store.apply_update(
    make_update("admin", 1, UpdateKind.RULE_ADD, block_all, ["personal"], 1))
((_, reason),) = report.consumed
print(f"  {report.status.value}: {reason}")
print(f"  version still {store.version}, rules: {sorted(store.rules)}")
print(f"  but seq 1 is consumed: high water {marks_before} -> {store.digest()}")
print(f"  content digest unchanged (it ignores bookkeeping): "
      f"{store.content_digest() == content_before}")

print("\n== seq 3 arrives before seq 2 ==")
report = store.apply_update(
    make_update("admin", 3, UpdateKind.CONFIG_SET,
                ConfigSetting("digest-mode", "daily"), ["personal"], 3))
print(f"  seq 3: {report.status.value} (high water still {store.digest()})")
report = store.apply_update(
    make_update("admin", 2, UpdateKind.BLOCKLIST_ADD, "phish-host",
                ["personal"], 2))
print(f"  seq 2: {report.status.value}, drained "
      f"{[p.seq for p, _ in report.consumed]}; version={store.version}")
print(f"  config now {store.config}")

print("\n== anti-entropy: what would a stale peer need? ==")
peer_high_water = {"admin": 0}
missing = [
    (origin, package.seq)
    for origin in sorted(store.archive)
    for package in store.archive[origin][peer_high_water.get(origin, -1) + 1:]
]
print(f"  peer has {peer_high_water}; archive serves {missing}")
print("  (the rejected seq 1 is served too, so the peer's own assessment"
      " gets its say)")
