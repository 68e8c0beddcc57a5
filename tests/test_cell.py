from dataclasses import replace

import pytest

from smsc.catalogue import CellProfile
from smsc.cell import Cell, IngestOutcome
from smsc.errors import UnknownCell
from smsc.governance import ApplyStatus, UpdateKind, make_update
from smsc.policy import (
    AttributePair,
    Condition,
    DecisionRequest,
    DelegationAssertion,
    Effect,
    PolicyDocument,
    PolicyRule,
    RegressionCase,
    RootGrant,
    Verdict,
    issue_token,
)
from smsc.resources import EchoResource


def rule(rid, effect, cond, action, resource="echo", contexts=("work", "home")):
    return PolicyRule(
        id=rid,
        effect=effect,
        subject=Condition.from_mapping(cond),
        action=action,
        resource=resource,
        contexts=frozenset(contexts),
    )


BASE_RULES = (
    rule("allow-echo", Effect.PERMIT, {"role": ["user", "admin"]}, "echo"),
    rule("deny-guest", Effect.DENY, {"role": ["guest"]}, "echo"),
    rule("mgmt-admin", Effect.PERMIT, {"role": ["admin"]}, "*", resource="*"),
)


def document(rules=BASE_RULES, **kwargs):
    kwargs.setdefault("trusted_issuers", frozenset({"idp"}))
    return PolicyDocument(rules=tuple(rules), **kwargs)


def token(subject="bob", role="user", expiry=100, issuer="idp"):
    return issue_token(subject, [AttributePair("role", role)], issuer, expiry)


class CountingEcho(EchoResource):
    def __init__(self):
        super().__init__()
        self.invocations = 0

    def invoke(self, action, args, context):
        self.invocations += 1
        return super().invoke(action, args, context)


def make_cell(cell_id="cell", policy=None, trust=None, observer=None, **kwargs):
    cell = Cell(
        cell_id,
        contexts=("work", "home"),
        resource_kind="echo",
        policy=policy or document(),
        trust_policy=trust,
        observer=observer,
        **kwargs,
    )
    cell.resource = CountingEcho()
    return cell


def peer_profile(cid, contexts=("work",), caps=("echo",)):
    return CellProfile(
        cell_id=cid,
        endpoint=cid,
        contexts=frozenset(contexts),
        capabilities=frozenset(caps),
        resource_kind="echo",
        advertised_at_tick=0,
        ttl_ticks=50,
    )


def op_body(tok, action="echo", args=None, context="work"):
    return {
        "tokens": [tok.to_wire()] if tok is not None else [],
        "action": action,
        "args": args or {"msg": "hi"},
        "context": context,
    }


# --- the decision pipeline -------------------------------------------------


def test_permit_invokes_resource():
    cell = make_cell()
    decision, response = cell.handle_operation(op_body(token()), "ext", 1)
    assert decision.verdict is Verdict.PERMIT
    assert decision.matched_rule_ids == ("allow-echo",)
    assert response["status"] == "ok"
    assert response["result"]["echo"] == {"msg": "hi"}
    assert cell.resource.invocations == 1


def test_unknown_action_denied_without_invoking():
    cell = make_cell()
    decision, response = cell.handle_operation(
        op_body(token(), action="shout"), "ext", 1
    )
    assert decision.verdict is Verdict.DENY
    assert decision.reason == "unknown-action"
    assert response["status"] == "denied"
    assert cell.resource.invocations == 0


def test_deny_overrides_inside_cell():
    cell = make_cell()
    guest_and_user = issue_token(
        "eve",
        [AttributePair("role", "user"), AttributePair("role", "guest")],
        "idp",
        100,
    )
    decision, _ = cell.handle_operation(op_body(guest_and_user), "ext", 1)
    assert decision.verdict is Verdict.DENY
    assert decision.matched_rule_ids == ("deny-guest",)
    assert cell.resource.invocations == 0


@pytest.mark.parametrize(
    "bad_token,tag",
    [
        (token(expiry=1), "expired"),
        (token(issuer="rogue"), "untrusted-issuer"),
        (replace(token(), signature="0" * 64), "bad-signature"),
    ],
)
def test_token_failures_are_indeterminate(bad_token, tag):
    cell = make_cell()
    decision, response = cell.handle_operation(op_body(bad_token), "ext", now=5)
    assert decision.verdict is Verdict.INDETERMINATE
    assert decision.reason == f"indeterminate: {tag}"
    assert response["status"] == "denied"
    assert cell.resource.invocations == 0


def test_malformed_token_wire_is_indeterminate():
    cell = make_cell()
    body = dict(op_body(token()))
    body["tokens"] = [{"bogus": 1}]
    decision, _ = cell.handle_operation(body, "ext", 1)
    assert decision.verdict is Verdict.INDETERMINATE
    assert decision.reason == "indeterminate: malformed-token"


@pytest.mark.parametrize("field,value", [("expiryTick", "never"), ("subject", "Mallory")])
@pytest.mark.parametrize("channel", ["op", "mgmt"])
def test_token_field_of_the_wrong_type_is_malformed(channel, field, value):
    cell = make_cell()
    wire = token(role="admin").to_wire()
    wire[field] = value
    if channel == "op":
        body = op_body(None)
        body["tokens"] = [wire]
        decision, response = cell.handle_operation(body, "ext", 1)
    else:
        body = mgmt_body("flag-spam", {"entry": "x"})
        body["tokens"] = [wire]
        decision, response = cell.handle_management(body, "ext", 1)
    assert decision.reason == "indeterminate: malformed-token"
    assert response["status"] == "denied"
    assert cell.resource.invocations == 0
    assert cell.store.version == 0


def test_no_token_no_attributes():
    cell = make_cell()
    decision, _ = cell.handle_operation(op_body(None), "ext", 1)
    assert decision.verdict is Verdict.NOT_APPLICABLE


def test_blocklist_gate_is_per_context():
    cell = make_cell()
    cell.store.apply_update(
        make_update("org", 0, UpdateKind.BLOCKLIST_ADD, "spam-host", ["work"], 0)
    )
    # blocked value in the blocked context
    decision, _ = cell.handle_operation(
        op_body(token(), args={"from": "spam-host"}), "ext", 1
    )
    assert decision.verdict is Verdict.DENY and decision.reason == "blocklisted"
    # same value, other context
    decision, _ = cell.handle_operation(
        op_body(token(), args={"from": "spam-host"}, context="home"), "ext", 1
    )
    assert decision.verdict is Verdict.PERMIT
    # non-string args never match the blocklist
    decision, _ = cell.handle_operation(
        op_body(token(), args={"count": 3}), "ext", 1
    )
    assert decision.verdict is Verdict.PERMIT


def test_delegated_attribute_grants_access_in_context():
    policy = document(
        roots=(RootGrant("alice", AttributePair("role", "admin"), 1),),
        delegations=(
            DelegationAssertion(
                "alice", "bob", AttributePair("role", "admin"), 5,
                frozenset({"work"}),
            ),
        ),
    )
    cell = make_cell(policy=policy)
    carol_style_token = issue_token(
        "bob", [AttributePair("dept", "eng")], "idp", 100
    )
    decision, _ = cell.handle_operation(op_body(carol_style_token), "ext", 1)
    assert decision.verdict is Verdict.PERMIT
    # the delegation is scoped to "work"; in "home" bob has only his base claim
    decision, _ = cell.handle_operation(
        op_body(carol_style_token, context="home"), "ext", 1
    )
    assert decision.verdict is Verdict.NOT_APPLICABLE


def test_decision_is_published_on_the_bus_and_observed():
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    cell.handle_operation(op_body(token()), "ext", 3)
    decisions = [d for k, d in events if k == "decision"]
    assert len(decisions) == 1
    assert decisions[0]["verdict"] == "Permit"
    assert decisions[0]["caller"] == "ext"
    bus_events = [d for k, d in events if k == "bus"]
    assert [b["topic"] for b in bus_events] == ["cell.op"]
    # the queued audit consumer sees it on the next tick drain
    cell.on_tick(5)
    topics = [r.detail["topic"] for r in cell.audit if r.kind == "bus"]
    assert "cell.op" in topics


# --- management ------------------------------------------------------------


def admin_token():
    return token(subject="alice", role="admin")


def mgmt_body(command, payload, tok=None, context="work"):
    return {
        "tokens": [(tok or admin_token()).to_wire()],
        "command": command,
        "payload": payload,
        "context": context,
    }


def test_add_rule_via_management():
    cell = make_cell()
    new_rule = rule("extra", Effect.PERMIT, {"dept": ["eng"]}, "echo",
                    contexts=("work",))
    decision, response = cell.handle_management(
        mgmt_body("add-rule", new_rule.to_wire()), "ext", 1
    )
    assert decision.verdict is Verdict.PERMIT
    assert response["status"] == "ok"
    assert "extra" in cell.store.rules
    assert cell.store.version == 1


def test_management_requires_authorization():
    cell = make_cell()
    new_rule = rule("extra", Effect.PERMIT, {}, "echo")
    decision, response = cell.handle_management(
        mgmt_body("add-rule", new_rule.to_wire(), tok=token(role="user")), "ext", 1
    )
    assert decision.verdict is Verdict.NOT_APPLICABLE
    assert response["status"] == "denied"
    assert "extra" not in cell.store.rules
    assert cell.store.version == 0


def test_unknown_command_denied():
    cell = make_cell()
    decision, response = cell.handle_management(
        mgmt_body("self-destruct", {}), "ext", 1
    )
    assert decision.verdict is Verdict.DENY
    assert decision.reason == "unknown-command"
    # the command is checked before the tokens are
    body = mgmt_body("self-destruct", {})
    body["tokens"] = [{"bogus": 1}, dict(body["tokens"][0], subject="Mallory")]
    decision, response = cell.handle_management(body, "ext", 2)
    assert decision.reason == "unknown-command"
    assert response["status"] == "denied"


def test_remove_rule_and_malformed_payload():
    cell = make_cell()
    decision, response = cell.handle_management(
        mgmt_body("remove-rule", "deny-guest"), "ext", 1
    )
    assert response["status"] == "ok"
    assert "deny-guest" not in cell.store.rules
    decision, response = cell.handle_management(
        mgmt_body("remove-rule", {"id": "x"}), "ext", 2
    )
    assert decision.verdict is Verdict.PERMIT
    assert response["status"] == "denied"
    assert response["reason"].startswith("malformed-payload")


def test_impact_rejection_blocks_add_rule_but_consumes_seq():
    pin = RegressionCase(
        DecisionRequest(
            frozenset({AttributePair("role", "user")}), "echo", "echo", "work", 0
        ),
        Verdict.PERMIT,
        protected=True,
    )
    cell = make_cell(policy=document(regression=(pin,)))
    breaker = rule("break", Effect.DENY, {"role": ["user"]}, "echo")
    decision, response = cell.handle_management(
        mgmt_body("add-rule", breaker.to_wire()), "ext", 1
    )
    assert decision.verdict is Verdict.PERMIT  # the command was authorized
    assert response == {"status": "denied", "reason": "impact-rejected", "result": None}
    assert "break" not in cell.store.rules
    assert cell.store.version == 0
    # the own-origin stream continues: the next change still applies
    harmless = rule("extra", Effect.PERMIT, {"dept": ["ops"]}, "echo")
    _, response = cell.handle_management(
        mgmt_body("add-rule", harmless.to_wire()), "ext", 2
    )
    assert response["status"] == "ok"
    assert cell.store.applied_seq[cell.cell_id] == 1


def test_flag_spam_updates_blocklist_and_pushes():
    cell = make_cell(trust={"work": []})
    cell.catalogue.upsert(peer_profile("p1"), 0)
    cell.catalogue.upsert(peer_profile("p2"), 0)
    _, response = cell.handle_management(
        mgmt_body("flag-spam", {"entry": "spam-host"}), "ext", 1
    )
    assert response["status"] == "ok"
    assert ("work", "spam-host") in cell.store.blocklist
    pushes = [m for m in cell.take_outbox() if m.kind == "update"]
    assert sorted(m.dst for m in pushes) == ["p1", "p2"]
    assert all(m.body["origin"] == "cell" for m in pushes)


@pytest.mark.parametrize("command,payload", [
    ("add-rule", rule("extra", Effect.PERMIT, {}, "echo").to_wire()),
    ("remove-rule", "deny-guest"),
    ("set-config", {"key": "mode", "value": "strict"}),
], ids=["add-rule", "remove-rule", "set-config"])
def test_local_commands_are_not_pushed(command, payload):
    cell = make_cell(trust={"work": []})
    cell.catalogue.upsert(peer_profile("p1"), 0)
    _, response = cell.handle_management(mgmt_body(command, payload), "ext", 1)
    assert response["status"] == "ok"
    assert cell.store.version == 1
    assert [m for m in cell.take_outbox() if m.kind == "update"] == []


def test_set_config_reaches_store_and_resource():
    calls = []
    cell = make_cell()
    cell.resource.apply_config = lambda key, value: calls.append((key, value))
    _, response = cell.handle_management(
        mgmt_body("set-config", {"key": "mode", "value": "strict"}), "ext", 1
    )
    assert response["status"] == "ok"
    assert cell.store.config == {"mode": "strict"}
    assert calls == [("mode", "strict")]


def test_set_trust_is_local_and_rederives():
    cell = make_cell(trust={"work": []})
    cell.catalogue.upsert(peer_profile("p1", caps=("echo",)), 0)
    assert cell.catalogue.trusted_partners() == ["p1"]
    _, response = cell.handle_management(
        mgmt_body("set-trust", {"work": ["ring"]}), "ext", 1
    )
    assert response["status"] == "ok"
    assert cell.catalogue.trusted_partners() == []
    assert cell.store.version == 0  # no governance package involved
    assert [m for m in cell.take_outbox() if m.kind == "update"] == []


# --- federation flow -------------------------------------------------------


def signed_wire(origin="org", seq=0, contexts=("work",), payload="bad-host"):
    return make_update(
        origin, seq, UpdateKind.BLOCKLIST_ADD, payload, contexts, 0
    ).to_wire()


def test_ingest_requires_trust_in_every_package_context():
    cell = make_cell(trust={"work": [], "home": []})
    cell.catalogue.upsert(peer_profile("p1", contexts=("work",)), 0)
    # trusted for work only; a work+home package must be refused
    outcome = cell.ingest_security_update(
        signed_wire(contexts=("work", "home")), "p1", 1
    )
    assert outcome is IngestOutcome.UNTRUSTED_SOURCE
    assert cell.store.version == 0
    outcome = cell.ingest_security_update(signed_wire(contexts=("work",)), "p1", 1)
    assert outcome is IngestOutcome.APPLIED
    assert ("work", "bad-host") in cell.store.blocklist


def test_ingest_from_unknown_sender_refused():
    cell = make_cell(trust={"work": []})
    outcome = cell.ingest_security_update(signed_wire(), "stranger", 1)
    assert outcome is IngestOutcome.UNTRUSTED_SOURCE
    assert cell.store.version == 0


def test_ingest_forwards_except_via_origin_self():
    cell = make_cell(trust={"work": []})
    for cid in ("p1", "p2", "org"):
        cell.catalogue.upsert(peer_profile(cid), 0)
    outcome = cell.ingest_security_update(signed_wire(origin="org"), "p1", 1)
    assert outcome is IngestOutcome.APPLIED
    pushes = [m for m in cell.take_outbox() if m.kind == "update"]
    assert [m.dst for m in pushes] == ["p2"]


def test_ingest_gap_buffers():
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    outcome = cell.ingest_security_update(signed_wire(seq=1), "p1", 1)
    assert outcome is IngestOutcome.BUFFERED
    statuses = [d["status"] for k, d in events if k == "update"]
    assert statuses == ["buffered"]
    outcome = cell.ingest_security_update(signed_wire(seq=0, payload="other"), "p1", 2)
    assert outcome is IngestOutcome.APPLIED
    assert cell.store.applied_seq["org"] == 1


def forged_wire(**kwargs):
    wire = signed_wire(**kwargs)
    wire["sig"] = "0" * 64
    return wire


def kindless_wire():
    wire = signed_wire()
    del wire["kind"]
    return wire


@pytest.mark.parametrize("wire,error", [
    (forged_wire(), "BadSignature"),
    (kindless_wire(), "KeyError"),
    ({**signed_wire(), "kind": "Nonsense"}, "ValueError"),
    ({**signed_wire(), "contexts": []}, "MalformedUpdate"),
    (["not", "a", "package"], "TypeError"),
])
def test_hostile_package_from_trusted_peer_is_contained(wire, error):
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    outcome = cell.ingest_security_update(wire, "p1", 1)
    assert outcome is IngestOutcome.INVALID
    assert cell.store.version == 0 and cell.store.applied_seq == {}
    assert cell.take_outbox() == []
    updates = [d for k, d in events if k == "update"]
    assert updates == [{"status": "invalid", "from": "p1", "error": error}]


def test_digest_reply_ingests_the_packages_around_a_bad_one():
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    packages = [forged_wire(seq=0), kindless_wire(), signed_wire(seq=0),
                signed_wire(seq=1, payload="other")]
    cell.handle_envelope("digest-reply", "p1", {"packages": packages}, 2)
    assert cell.store.applied_seq == {"org": 1}
    assert {("work", "bad-host"), ("work", "other")} <= cell.store.blocklist
    statuses = [d["status"] for k, d in events if k == "update"]
    assert statuses == ["invalid", "invalid", "applied", "applied"]


def test_digest_reply_serves_missing_archived_packages():
    cell = make_cell(trust={"work": []})
    cell.catalogue.upsert(peer_profile("p1"), 0)
    cell.emit_update(UpdateKind.BLOCKLIST_ADD, "h0", {"work"}, 0)
    cell.emit_update(UpdateKind.BLOCKLIST_ADD, "h1", {"work"}, 0)
    cell.take_outbox()
    cell.handle_envelope("digest", "p1", {"applied": {"cell": 0}}, 5)
    replies = [m for m in cell.take_outbox() if m.kind == "digest-reply"]
    assert len(replies) == 1
    assert [p["seq"] for p in replies[0].body["packages"]] == [1]


def test_digest_from_untrusted_peer_ignored():
    cell = make_cell(trust={"work": ["ring"]})  # echo peers never qualify
    cell.catalogue.upsert(peer_profile("p1"), 0)
    cell.emit_update(UpdateKind.BLOCKLIST_ADD, "h0", {"work"}, 0)
    cell.take_outbox()
    cell.handle_envelope("digest", "p1", {"applied": {}}, 5)
    assert cell.take_outbox() == []
    assert any(r.kind == "digest-ignored" for r in cell.audit)


def test_unroutable_envelope_kind_raises():
    cell = make_cell()
    with pytest.raises(UnknownCell):
        cell.handle_envelope("teleport", "p1", {}, 0)


# --- periodic work ---------------------------------------------------------


def test_tick_schedule():
    cell = make_cell(trust={"work": []}, advertise_interval=3,
                     anti_entropy_interval=2)
    cell.catalogue.upsert(peer_profile("p1"), 0)
    kinds_by_tick = {}
    for tick in range(5):
        cell.on_tick(tick)
        kinds_by_tick[tick] = [m.kind for m in cell.take_outbox()]
    assert kinds_by_tick[0] == ["advert", "digest"]  # both fire at zero
    assert kinds_by_tick[1] == []
    assert kinds_by_tick[2] == ["digest"]
    assert kinds_by_tick[3] == ["advert"]
    assert kinds_by_tick[4] == ["digest"]


def test_digest_skipped_without_trusted_partners():
    cell = make_cell(anti_entropy_interval=1)
    cell.on_tick(0)
    assert [m.kind for m in cell.take_outbox()] == ["advert"]


def test_digest_round_robin():
    cell = make_cell(trust={"work": []}, advertise_interval=100,
                     anti_entropy_interval=1)
    cell.catalogue.upsert(peer_profile("p1", ("work",)), 0)
    cell.catalogue.upsert(peer_profile("p2", ("work",)), 0)
    targets = []
    for tick in range(1, 5):
        cell.on_tick(tick)
        targets += [m.dst for m in cell.take_outbox() if m.kind == "digest"]
    assert targets == ["p1", "p2", "p1", "p2"]


def test_peer_expiry_audited():
    cell = make_cell()
    profile = replace(peer_profile("p1"), ttl_ticks=2)
    cell.catalogue.upsert(profile, 0)
    cell.on_tick(3)
    assert any(
        r.kind == "peer-expired" and r.detail["peer"] == "p1" for r in cell.audit
    )
    assert cell.catalogue.get("p1") is None


# --- request/response correlation -----------------------------------------


def test_lookup_response_feeds_catalogue():
    cell = make_cell()
    cell.resource.operations = ("echo", "lookup")  # let it issue lookups
    cell.request_operation("registry", [token()], "lookup", {"context": "work"}, "work")
    cell.take_outbox()
    learned = peer_profile("newpeer")
    own = peer_profile("cell")  # a registry may echo ourselves back
    body = {
        "status": "ok",
        "reason": "permit",
        "result": {"profiles": [learned.to_wire(), own.to_wire()]},
    }
    cell.handle_envelope("op-resp", "registry", body, 7)
    assert cell.catalogue.get("newpeer") is not None
    assert cell.catalogue.get("newpeer").last_seen_tick == 7
    assert cell.catalogue.get("cell") is None  # never registers itself


def test_non_lookup_response_only_audited():
    cell = make_cell()
    cell.request_operation("peer", [token()], "echo", {"msg": "x"}, "work")
    cell.take_outbox()
    cell.handle_envelope(
        "op-resp", "peer", {"status": "ok", "result": {"echo": {}}}, 3
    )
    assert cell.catalogue.entries == {}
    resp = [r for r in cell.audit if r.kind == "op-resp"]
    assert resp and resp[0].detail["action"] == "echo"


def test_op_request_and_response_round_trip_between_cells():
    a = make_cell("a")
    b = make_cell("b")
    a.request_operation("b", [token()], "echo", {"msg": "ping"}, "work")
    (msg,) = a.take_outbox()
    b.handle_envelope(msg.kind, "a", msg.body, 1)
    (reply,) = b.take_outbox()
    assert reply.kind == "op-resp" and reply.dst == "a"
    assert reply.body["status"] == "ok"
    a.handle_envelope(reply.kind, "b", reply.body, 2)
    assert any(r.kind == "op-resp" for r in a.audit)


def test_registration_round_trip_between_cells():
    a = make_cell("a", trust={"work": []})
    b = make_cell("b", trust={"work": []})
    a.register_with("b", 1)
    (msg,) = a.take_outbox()
    b.handle_envelope(msg.kind, "a", msg.body, 1)
    assert b.catalogue.get("a") is not None
    (reply,) = b.take_outbox()
    assert reply.kind == "register-reply"
    a.handle_envelope(reply.kind, "b", reply.body, 2)
    assert a.catalogue.get("b") is not None
    assert a.catalogue.get("b").trusted_in("work")
