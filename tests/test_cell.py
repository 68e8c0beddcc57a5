import copy
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from smsc.catalogue import MAX_TTL_TICKS, CellProfile
from smsc import cell as cell_module
from smsc.cell import (
    ENVELOPE_KINDS, MANAGEMENT_COMMANDS, PENDING_REQUEST_CAP, VERIFIED_CAP, Cell,
)
from smsc.errors import UnknownCell
from smsc.governance import (
    ApplyStatus, ConfigSetting, PolicyStore, UpdateKind, UpdatePackage, make_update,
)
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
    Token,
    Verdict,
    issue_token,
    sign_payload,
)
from smsc.resources import EchoResource

from .jsonfuzz import JSON_VALUES, field_at, field_paths, replaced
from .oracles import NaiveDiscovery


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
        contexts=frozenset(contexts),
        capabilities=frozenset(caps),
        resource_kind="echo",
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


@pytest.mark.parametrize("channel,reason", [
    ("op", "unknown-action"), ("mgmt", "unknown-command"),
])
def test_unknown_name_is_checked_before_the_tokens(channel, reason):
    cell = make_cell()
    if channel == "op":
        body = op_body(None, action="nope")
        handle = cell.handle_operation
    else:
        body = mgmt_body("nope", {})
        handle = cell.handle_management
    body["tokens"] = [{"bogus": 1}]
    decision, response = handle(body, "ext", 1)
    assert decision.verdict is Verdict.DENY
    assert decision.reason == reason
    assert response["status"] == "denied"


@pytest.mark.parametrize("kind,name,reason", [
    ("op-req", "mgmt:add-rule", "unknown-action"),
    ("op-req", "add-rule", "unknown-action"),
    ("mgmt-req", "deliver", "unknown-command"),
])
@pytest.mark.parametrize("path", ["direct", "wire"])
def test_a_channel_refuses_the_other_channels_names(kind, name, reason, path):
    """A management command sent as an operation, or an operation sent as
    a command, is denied by its name, even to a caller whose rules permit
    every action: nothing is invoked, stored or reconfigured."""
    cell = make_cell(trust={"work": []})
    if kind == "op-req":
        new_rule = rule("extra", Effect.PERMIT, {}, "echo").to_wire()
        body = op_body(admin_token(), action=name, args=new_rule)
    else:
        body = mgmt_body(name, {"work": ["x"]})
    if path == "direct":
        handle = cell.handle_operation if kind == "op-req" else cell.handle_management
        decision, response = handle(body, "ext", 1)
        assert decision.verdict is Verdict.DENY
    else:
        cell.handle_envelope(kind, "p1", {**body, "requestId": 9}, 1)
        (reply,) = cell.take_outbox()
        assert (reply.kind, reply.dst) == (kind.replace("req", "resp"), "p1")
        response = reply.body
    assert (response["status"], response["reason"]) == ("denied", reason)
    assert cell.resource.invocations == 0
    assert cell.store.version == 0 and set(cell.store.rules) == {r.id for r in BASE_RULES}
    assert cell.catalogue.trust_policy == {"work": []}


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
    # an arg whose string form is not on the blocklist passes
    decision, _ = cell.handle_operation(
        op_body(token(), args={"count": 3}), "ext", 1
    )
    assert decision.verdict is Verdict.PERMIT


@pytest.mark.parametrize("value,entry", [(7, "7"), (2.5, "2.5"), (True, "True"), (None, "None")])
def test_a_scalar_arg_is_screened_in_the_string_form_a_resource_reads(value, entry):
    """A resource reads an arg through ``str()``, so a blocklisted entry
    sent as a number, a boolean or null is denied like the string itself;
    a list or an object, which no resource reads as that string, passes."""
    cell = make_cell()
    cell.store.apply_update(make_update("org", 0, UpdateKind.BLOCKLIST_ADD, entry, ["work"], 0))
    decision, _ = cell.handle_operation(op_body(token(), args={"from": value}), "ext", 1)
    assert decision.verdict is Verdict.DENY and decision.reason == "blocklisted"
    assert cell.resource.invocations == 0
    for container in ([value], {"from": value}):
        decision, _ = cell.handle_operation(op_body(token(), args={"from": container}), "ext", 1)
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


# --- verified-token cache ------------------------------------------------

_DELEGATING = dict(
    roots=(RootGrant("alice", AttributePair("role", "admin"), 2),),
    delegations=(DelegationAssertion(
        "alice", "bob", AttributePair("role", "admin"), 1, frozenset({"work"})),),
)

_VALID = token("bob", "user", expiry=8)
CACHE_TOKENS = (
    _VALID,
    issue_token("bob", [AttributePair("dept", "eng")], "idp", 100),
    token("alice", "admin", expiry=4),
    token("carol", "guest", expiry=100),
    token("dave", "user", issuer="rogue"),
    replace(token("erin", "user"), signature="0" * 64),
    replace(_VALID, claims=frozenset({AttributePair("role", "admin")})),
    # two claims, so that a wire can carry them reordered or repeated
    issue_token("bob", [AttributePair("role", "user"), AttributePair("dept", "eng")], "idp", 9),
    # expiring at tick 1, so that an expiryTick of 1.0 or True equals its own
    token("frank", "user", expiry=1),
)


def _other_role(value):
    return "user" if value == "admin" else "admin"


def _claim_swapped(wire):
    first = wire["claims"][0]
    return {**wire, "claims": [{**first, "value": _other_role(first["value"])},
                               *wire["claims"][1:]]}


# forms a token's wire may arrive in; only the exact one may stand in for
# a token read before, and every other one is parsed like a first sight
WIRE_FORMS = {
    "exact": lambda wire: wire,
    "float-expiry": lambda wire: {**wire, "expiryTick": float(wire["expiryTick"])},
    "bool-expiry": lambda wire: {**wire, "expiryTick": True},
    "extra-key": lambda wire: {**wire, "note": "x"},
    "claims-reordered": lambda wire: {**wire, "claims": wire["claims"][::-1]},
    "claim-repeated": lambda wire: {**wire, "claims": wire["claims"] + wire["claims"][:1]},
    "claim-swapped": _claim_swapped,
    "list-sig": lambda wire: {**wire, "sig": [wire["sig"]]},
    "int-sig": lambda wire: {**wire, "sig": 7},
    "null-sig": lambda wire: {**wire, "sig": None},
    "not-an-object": lambda wire: [wire],
}

_FRANK = CACHE_TOKENS[-1]


@settings(max_examples=100)
@given(steps=st.lists(st.tuples(
    st.lists(st.tuples(st.sampled_from(CACHE_TOKENS), st.sampled_from(sorted(WIRE_FORMS))),
             max_size=2),
    st.sampled_from(("work", "home")),
    st.integers(0, 10),
    st.booleans(),
), min_size=8, max_size=30))
@example(steps=[([(_FRANK, "exact")], "work", 0, False),
                ([(_FRANK, "float-expiry")], "work", 0, False),
                ([(_FRANK, "bool-expiry")], "work", 0, False)])
@example(steps=[([(_VALID, "exact")], "work", 1, True)])
def test_a_long_lived_cell_decides_as_a_fresh_cell_per_request(steps):
    """Kept expansions and kept token reads change no decision: valid,
    expired, untrusted, forged and claim-swapped tokens, two tokens of one
    subject, each in any of the wire forms, in either context, with the
    clock moving forward and back, and with token objects the caller
    changes in place after the request and sends again."""
    policy = document(**_DELEGATING)
    long_lived = make_cell(policy=policy)
    for tokens, context, now, changed_after in steps:
        body = {"tokens": [WIRE_FORMS[form](t.to_wire()) for t, form in tokens],
                "action": "echo", "args": {}, "context": context}
        for _ in range(1 + changed_after):
            kept, _ = long_lived.handle_operation(body, "ext", now)
            fresh, _ = make_cell(policy=policy).handle_operation(body, "ext", now)
            assert kept == fresh
            # the caller swaps a claim inside its own objects, to send again
            for wire in body["tokens"]:
                if isinstance(wire, dict):
                    claim = wire["claims"][0]
                    claim["value"] = _other_role(claim["value"])


def test_a_verified_token_is_checked_again_only_once_it_expires(monkeypatch):
    calls = []
    verify = cell_module.verify_token
    monkeypatch.setattr(cell_module, "verify_token",
                        lambda *args: calls.append(args[0]) or verify(*args))
    cell = make_cell()
    body = op_body(token(expiry=5))
    for now in (1, 2, 4):
        decision, _ = cell.handle_operation(body, "ext", now)
        assert decision.verdict is Verdict.PERMIT
    assert len(calls) == 1
    cell.handle_operation(op_body(token(expiry=5), context="home"), "ext", 4)
    assert len(calls) == 2
    decision, _ = cell.handle_operation(body, "ext", 5)
    assert decision.reason == "indeterminate: expired"
    assert len(calls) == 3


def test_verified_tokens_are_capped_oldest_first():
    cell = make_cell()
    tokens = [token(expiry=100 + i) for i in range(VERIFIED_CAP + 5)]
    for tok in tokens:
        cell.decide_operation([tok], "echo", {}, "work", 1)
    assert len(cell._verified) == VERIFIED_CAP
    assert list(cell._verified) == [(tok, "work") for tok in tokens[5:]]


def test_a_token_wire_read_once_is_not_parsed_again(monkeypatch):
    calls = []
    parse = Token.from_wire
    monkeypatch.setattr(Token, "from_wire",
                        classmethod(lambda cls, data: calls.append(data) or parse(data)))
    cell = make_cell()
    tokens = [token("bob"), token("alice", "admin"), token("carol", "guest")]
    for index in range(20):
        cell.handle_operation(op_body(tokens[index % 3]), "ext", 1)
    assert calls == [tok.to_wire() for tok in tokens]


def test_read_tokens_are_capped_oldest_first():
    cell = make_cell()
    tokens = [token(expiry=100 + i) for i in range(VERIFIED_CAP + 5)]
    for tok in tokens:
        cell.handle_operation(op_body(tok), "ext", 1)
    assert list(cell._read_tokens) == [tok.signature for tok in tokens[5:]]
    assert [kept for kept, _ in cell._read_tokens.values()] == tokens[5:]


MANAGEMENT_PAYLOADS = {
    "add-rule": rule("extra", Effect.PERMIT, {"dept": ["ops"]}, "echo").to_wire(),
    "remove-rule": "deny-guest",
    "flag-spam": {"entry": "spam-host"},
    "set-config": {"key": "k", "value": 1},
    "set-trust": {"work": ["echo"]},
}


def test_no_management_command_changes_what_a_kept_token_rests_on():
    """The kept expansions stay exact because every command leaves the
    trusted issuers, delegations and roots as the cell was built with."""
    assert set(MANAGEMENT_PAYLOADS) == MANAGEMENT_COMMANDS
    cell = make_cell(policy=document(**_DELEGATING))
    basis = (cell.trusted_issuers, cell.delegations, cell.roots)
    for command, payload in MANAGEMENT_PAYLOADS.items():
        _, response = cell.handle_management(mgmt_body(command, payload), "ext", 1)
        assert response["status"] == "ok"
        assert all(now is then for now, then in zip(
            (cell.trusted_issuers, cell.delegations, cell.roots), basis))


def test_decision_is_published_on_the_bus_and_observed():
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    cell.handle_operation(op_body(token()), "ext", 3)
    decisions = [d for k, d in events if k == "decision"]
    assert len(decisions) == 1
    assert decisions[0]["verdict"] == "Permit"
    assert decisions[0]["caller"] == "ext"
    # the bus record is written as the decision is published
    assert [k for k, _ in events] == ["decision", "bus"]
    assert events[1][1] == {"topic": "cell.op", "publisher": "pep", "busSeq": 0}
    cell.on_tick(5)
    assert [k for k, _ in events] == ["decision", "bus"]


def test_each_decision_is_recorded_on_the_bus_without_ticks():
    """A cell driven without ``on_tick`` writes each decision's bus record
    right after the decision, and loses none of them."""
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    body = op_body(token())
    for _ in range(5000):
        cell.handle_operation(body, "ext", 1)
    assert [k for k, _ in events] == ["decision", "bus"] * 5000
    assert [d["busSeq"] for k, d in events if k == "bus"] == list(range(5000))


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
    assert cell.store.digest()[cell.cell_id] == 1


_GOOD_RULE = rule("extra", Effect.PERMIT, {}, "echo").to_wire()
# the rule without its subject, which a misspelled field would leave it
_TYPO_RULE = {k: v for k, v in _GOOD_RULE.items() if k != "subject"}


@pytest.mark.parametrize("command,payload", [
    ("add-rule", {**_GOOD_RULE, "id": "Bad Id"}),
    ("add-rule", {**_GOOD_RULE, "effect": "Maybe"}),
    ("add-rule", {**_GOOD_RULE, "contexts": []}),
    ("set-trust", {"work": 5}),
    ("set-trust", {"work": [7]}),
    ("set-config", {"key": 7, "value": 1}),
    ("add-rule", {**_TYPO_RULE, "subjet": {"role": ["admin"]}}),
    ("flag-spam", {"entry": ""}),
    ("flag-spam", {"entry": 5}),
], ids=["bad-id", "bad-effect", "no-contexts", "trust-not-a-list", "trust-capability-int",
        "config-key-int", "misspelled-subject", "flag-spam-empty", "flag-spam-int"])
@pytest.mark.parametrize("path", ["direct", "wire"])
def test_malformed_payload_of_a_permitted_command_is_contained(command, payload, path):
    """A permitted command whose payload fails validation is answered
    ``malformed-payload``, directly and over the wire, and changes nothing."""
    events = []
    b = make_cell("b", trust={"work": []},
                  observer=lambda kind, detail: events.append((kind, detail)))
    if path == "direct":
        decision, response = b.handle_management(mgmt_body(command, payload), "ext", 1)
        assert decision.verdict is Verdict.PERMIT
    else:
        a = make_cell("a")
        a.send_request("mgmt-req", "b", mgmt_body(command, payload))
        (msg,) = a.take_outbox()
        b.handle_envelope(msg.kind, "a", msg.body, 1)
        (reply,) = b.take_outbox()
        assert reply.kind == "mgmt-resp"
        assert reply.body["requestId"] == msg.body["requestId"]
        response = {k: v for k, v in reply.body.items() if k != "requestId"}
        assert [k for k, _ in events] == ["decision", "bus"]
    assert response["status"] == "denied"
    assert response["reason"].startswith("malformed-payload: ")
    assert b.store.version == 0 and b.store.digest() == {}
    assert b.catalogue.trust_policy == {"work": []}


def test_own_seq_follows_the_archive_past_a_peer_delivered_package():
    """A trusted peer may deliver a validly signed package under this
    cell's own origin; the cell's next own update takes the next seq
    instead of reusing one and being dropped as a duplicate."""
    cell = make_cell("c0", trust={"work": []})
    cell.catalogue.upsert(peer_profile("p1"), 0)
    relayed = make_update("c0", 0, UpdateKind.BLOCKLIST_ADD, "h0", ("work",), 0)
    assert cell.ingest_security_update(relayed.to_wire(), "p1") is ApplyStatus.APPLIED
    report = cell.emit_update(UpdateKind.BLOCKLIST_ADD, "h1", {"work"}, 1)
    assert report.status is ApplyStatus.APPLIED
    assert [(p.seq, reason) for p, reason in report.consumed] == [(1, None)]
    assert cell.store.digest() == {"c0": 1}
    assert ("work", "h1") in cell.store.blocklist


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


def test_set_config_reaches_the_store():
    cell = make_cell()
    _, response = cell.handle_management(
        mgmt_body("set-config", {"key": "mode", "value": "strict"}), "ext", 1
    )
    assert response["status"] == "ok"
    assert cell.store.config == {"mode": "strict"}


def test_set_trust_is_local_and_rederives():
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1", caps=("echo",)), 0)
    assert cell.catalogue.trusted_partners() == ["p1"]
    _, response = cell.handle_management(
        mgmt_body("set-trust", {"work": ["ring"]}), "ext", 1
    )
    assert response["status"] == "ok"
    assert cell.catalogue.trusted_partners() == []
    assert cell.store.version == 0  # no governance package involved
    assert [m for m in cell.take_outbox() if m.kind == "update"] == []
    assert [d for k, d in events if k == "trust"] == [{"policy": {"work": ["ring"]}}]


# --- federation flow -------------------------------------------------------


def signed_wire(origin="org", seq=0, contexts=("work",), payload="bad-host"):
    return make_update(
        origin, seq, UpdateKind.BLOCKLIST_ADD, payload, contexts, 0
    ).to_wire()


def test_set_trust_takes_effect_on_the_next_read():
    """A new trust policy governs the next update and digest from a known
    peer, with no fresh advert from it."""
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.handle_envelope("advert", "p1", {"profile": peer_profile("p1").to_wire(), "nonce": 0}, 0)
    cell.emit_update(UpdateKind.BLOCKLIST_ADD, "h0", {"work"}, 0)
    cell.take_outbox()

    cell.handle_management(mgmt_body("set-trust", {"work": ["ring"]}), "ext", 1)
    del events[:]
    assert cell.ingest_security_update(signed_wire(), "p1") is ApplyStatus.UNTRUSTED_SOURCE
    cell.handle_envelope("digest", "p1", {"applied": {}}, 1)
    assert events == [
        ("update", {"origin": "org", "seq": 0, "status": "untrusted-source", "from": "p1"}),
        ("digest-ignored", {"from": "p1"}),
    ]
    assert cell.take_outbox() == []

    cell.handle_management(mgmt_body("set-trust", {"work": []}), "ext", 2)
    assert cell.ingest_security_update(signed_wire(), "p1") is ApplyStatus.APPLIED
    cell.handle_envelope("digest", "p1", {"applied": {}}, 2)
    assert [(m.kind, m.dst) for m in cell.take_outbox()] == [("digest-reply", "p1")]


def test_ingest_requires_trust_in_every_package_context():
    cell = make_cell(trust={"work": [], "home": []})
    cell.catalogue.upsert(peer_profile("p1", contexts=("work",)), 0)
    # trusted for work only; a work+home package must be refused
    outcome = cell.ingest_security_update(
        signed_wire(contexts=("work", "home")), "p1"
    )
    assert outcome is ApplyStatus.UNTRUSTED_SOURCE
    assert cell.store.version == 0
    outcome = cell.ingest_security_update(signed_wire(contexts=("work",)), "p1")
    assert outcome is ApplyStatus.APPLIED
    assert ("work", "bad-host") in cell.store.blocklist


def test_ingest_from_unknown_sender_refused():
    cell = make_cell(trust={"work": []})
    outcome = cell.ingest_security_update(signed_wire(), "stranger")
    assert outcome is ApplyStatus.UNTRUSTED_SOURCE
    assert cell.store.version == 0


def test_ingest_forwards_except_via_origin_self():
    cell = make_cell(trust={"work": []})
    for cid in ("p1", "p2", "org"):
        cell.catalogue.upsert(peer_profile(cid), 0)
    outcome = cell.ingest_security_update(signed_wire(origin="org"), "p1")
    assert outcome is ApplyStatus.APPLIED
    pushes = [m for m in cell.take_outbox() if m.kind == "update"]
    assert [m.dst for m in pushes] == ["p2"]


def test_ingest_gap_buffers():
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    outcome = cell.ingest_security_update(signed_wire(seq=1), "p1")
    assert outcome is ApplyStatus.BUFFERED
    statuses = [d["status"] for k, d in events if k == "update"]
    assert statuses == ["buffered"]
    outcome = cell.ingest_security_update(signed_wire(seq=0, payload="other"), "p1")
    assert outcome is ApplyStatus.APPLIED
    assert cell.store.digest()["org"] == 1


def test_each_drained_package_logs_the_version_it_produced():
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    cell.ingest_security_update(signed_wire(seq=1), "p1")
    cell.ingest_security_update(signed_wire(seq=0, payload="other"), "p1")
    applied = [(d["seq"], d["version"]) for k, d in events
               if k == "update" and d["status"] == "applied"]
    assert applied == [(0, 1), (1, 2)]


def test_drained_rejection_is_logged_with_its_own_reason_in_order():
    """A buffered package that the impact check rejects once a gap fill
    drains it is logged with the protected case it would flip, after the
    package that drained it and before the one it unblocks."""
    pin = RegressionCase(
        DecisionRequest(frozenset({AttributePair("role", "user")}), "echo", "echo", "work", 0),
        Verdict.PERMIT,
        protected=True,
    )
    events = []
    cell = make_cell(policy=document(regression=(pin,)), trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    breaker = rule("break", Effect.DENY, {"role": ["user"]}, "echo")
    wires = [make_update("org", 1, UpdateKind.RULE_ADD, breaker, ("work",), 0).to_wire(),
             signed_wire(seq=2, payload="later")]
    for wire in wires:
        assert cell.ingest_security_update(wire, "p1") is ApplyStatus.BUFFERED
    assert cell.ingest_security_update(signed_wire(seq=0), "p1") is ApplyStatus.APPLIED
    consumed = [(d["seq"], d["status"], d.get("detail")) for k, d in events
                if k == "update" and d["status"] != "buffered"]
    assert consumed == [
        (0, "applied", None),
        (1, "rejected", "would flip protected case echo/echo@work"),
        (2, "applied", None),
    ]
    assert "break" not in cell.store.rules and cell.store.digest() == {"org": 2}


def forged_wire(**kwargs):
    wire = signed_wire(**kwargs)
    wire["sig"] = "0" * 64
    return wire


def resigned_wire(**fields):
    """A package wire with ``fields`` replaced and a valid signature over
    the result, so only the parse can reject it."""
    body = {**signed_wire(), **fields}
    del body["sig"]
    return {**body, "sig": sign_payload(body["origin"], body)}


def kindless_wire():
    wire = signed_wire()
    del wire["kind"]
    return wire


# each id is a fixed string, kept as it is when the error a case expects
# changes, so that the case keeps its name in the suite's listing
@pytest.mark.parametrize("wire,error", [
    pytest.param(forged_wire(), "BadSignature", id="wire0-BadSignature"),
    pytest.param(kindless_wire(), "ParseError", id="wire1-KeyError"),
    pytest.param({**signed_wire(), "kind": "Nonsense"}, "ParseError", id="wire2-ValueError"),
    pytest.param({**signed_wire(), "contexts": []}, "MalformedUpdate",
                 id="wire3-MalformedUpdate"),
    pytest.param(["not", "a", "package"], "ParseError", id="wire4-TypeError"),
    pytest.param(resigned_wire(seq=1.001), "ParseError", id="wire5-MalformedUpdate"),
    pytest.param(resigned_wire(seq=True), "ParseError", id="wire6-MalformedUpdate"),
    pytest.param(resigned_wire(issuedTick=1.5), "ParseError", id="wire7-MalformedUpdate"),
    pytest.param(resigned_wire(issuedTick=True), "ParseError", id="wire8-MalformedUpdate"),
    pytest.param(resigned_wire(kind="ConfigSet", payload={"key": ["k"], "value": 1}),
                 "ParseError", id="wire9-MalformedUpdate"),
    pytest.param(resigned_wire(contexts="work"), "ParseError", id="wire10-MalformedUpdate"),
    pytest.param(resigned_wire(contexts=["work", 7]), "ParseError",
                 id="wire11-MalformedUpdate"),
    pytest.param({**signed_wire(), "origin": 7}, "ParseError", id="wire12-MalformedUpdate"),
    pytest.param(resigned_wire(kind="RuleAdd", payload={**_TYPO_RULE, "subjet": {}}),
                 "ParseError", id="wire13-ParseError"),
])
def test_hostile_package_from_trusted_peer_is_contained(wire, error):
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    outcome = cell.ingest_security_update(wire, "p1")
    assert outcome is ApplyStatus.INVALID
    assert cell.store.version == 0 and cell.store.digest() == {}
    assert cell.take_outbox() == []
    updates = [d for k, d in events if k == "update"]
    assert updates == [{"status": "invalid", "from": "p1", "error": error}]


def config_wire(value):
    return make_update("org", 0, UpdateKind.CONFIG_SET, ConfigSetting("mode", value),
                       ("work",), 1).to_wire()


def counted_signatures(monkeypatch):
    """The keys that ``smsc.governance`` calls ``sign_payload`` with from now on."""
    keys = []

    def counting(key, payload):
        keys.append(key)
        return sign_payload(key, payload)

    monkeypatch.setattr("smsc.governance.sign_payload", counting)
    return keys


# each a copy of the seq-0 package with one change and the original sig
FORGED_DUPLICATES = {
    "sig-zeroed": (signed_wire(), forged_wire(), "BadSignature"),
    "payload-changed": (signed_wire(), {**signed_wire(), "payload": "other-host"},
                        "BadSignature"),
    "tick-float": (config_wire(1), {**config_wire(1), "issuedTick": 1.0}, "ParseError"),
    "tick-bool": (config_wire(1), {**config_wire(1), "issuedTick": True}, "ParseError"),
    "value-bool": (config_wire(1), {**config_wire(1), "payload": {"key": "mode", "value": True}},
                   "BadSignature"),
    "value-float": (config_wire(1), {**config_wire(1), "payload": {"key": "mode", "value": 1.0}},
                    "BadSignature"),
}


@pytest.mark.parametrize("name", sorted(FORGED_DUPLICATES))
def test_forged_duplicate_is_verified_and_logged_invalid(name, monkeypatch):
    """A package at an archived seq that is not an exact copy of the
    archived one, down to the JSON type of each number, is checked like
    any new package, so a forged one is logged ``invalid``."""
    original, copy, error = FORGED_DUPLICATES[name]
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    assert cell.ingest_security_update(original, "p1") is ApplyStatus.APPLIED
    content = cell.store.content_digest()
    signed = counted_signatures(monkeypatch)
    assert cell.ingest_security_update(copy, "p1") is ApplyStatus.INVALID
    assert events[-1] == ("update", {"status": "invalid", "from": "p1", "error": error})
    assert cell.store.content_digest() == content and cell.store.version == 1
    assert signed == ([] if error == "ParseError" else ["org"])


@pytest.mark.parametrize("original", [signed_wire(), config_wire(1)], ids=["blocklist", "config"])
def test_exact_duplicate_is_not_verified_again(original, monkeypatch):
    """An exact copy of an applied package, from another peer, is a
    duplicate without a second signature check."""
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    for peer in ("p1", "p2"):
        cell.catalogue.upsert(peer_profile(peer), 0)
    signed = counted_signatures(monkeypatch)
    assert cell.ingest_security_update(original, "p1") is ApplyStatus.APPLIED
    assert signed == ["org"]
    assert cell.ingest_security_update(dict(original), "p2") is ApplyStatus.DUPLICATE
    assert signed == ["org"]
    assert events[-1] == ("update", {"origin": "org", "seq": 0, "status": "duplicate",
                                     "from": "p2"})


def test_exact_copy_is_recognised_before_any_parse(monkeypatch):
    """An exact copy of an archived package is not parsed: the store is
    handed the archived package itself and logs it a duplicate, or the
    cell logs untrusted-source when its sender is not trusted."""
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    for peer in ("p1", "p2"):
        cell.catalogue.upsert(peer_profile(peer), 0)
    original = config_wire(1)
    assert cell.ingest_security_update(original, "p1") is ApplyStatus.APPLIED
    cell.take_outbox()
    archived = cell.store.archive["org"][0]
    calls = []
    parse, apply = UpdatePackage.from_wire, PolicyStore.apply_update
    monkeypatch.setattr(UpdatePackage, "from_wire",
                        classmethod(lambda cls, data: calls.append("parse") or parse(data)))
    monkeypatch.setattr(
        PolicyStore, "apply_update",
        lambda store, package: calls.append(("apply", package is archived))
        or apply(store, package))
    signed = counted_signatures(monkeypatch)
    assert cell.ingest_security_update(dict(original), "p2") is ApplyStatus.DUPLICATE
    assert cell.ingest_security_update(original, "stranger") is ApplyStatus.UNTRUSTED_SOURCE
    assert calls == [("apply", True)] and signed == [] and cell.take_outbox() == []
    assert [d for k, d in events[-2:]] == [
        {"origin": "org", "seq": 0, "status": "duplicate", "from": "p2"},
        {"origin": "org", "seq": 0, "status": "untrusted-source", "from": "stranger"},
    ]
    # a copy whose config value is another JSON number type takes the full path
    twin = {**original, "payload": {"key": "mode", "value": 1.0}}
    assert cell.ingest_security_update(twin, "p1") is ApplyStatus.INVALID
    assert calls[1:] == ["parse", ("apply", False)] and signed == ["org"]


def test_valid_copy_in_another_wire_form_is_verified_and_logged_duplicate(monkeypatch):
    """A copy of an archived package that the screen does not take, here
    its contexts in another order, is parsed and verified like any other
    package; its signature holds, so it is logged a duplicate."""
    events = []
    cell = make_cell(trust={"work": [], "home": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1", contexts=("work", "home")), 0)
    original = signed_wire(contexts=("work", "home"))
    assert original["contexts"] == ["home", "work"]
    assert cell.ingest_security_update(original, "p1") is ApplyStatus.APPLIED
    content = cell.store.content_digest()
    signed = counted_signatures(monkeypatch)
    reordered = {**original, "contexts": ["work", "home"]}
    assert cell.store.archived_copy(reordered) is None
    assert cell.ingest_security_update(reordered, "p1") is ApplyStatus.DUPLICATE
    assert signed == ["org"]
    assert events[-1] == ("update", {"origin": "org", "seq": 0, "status": "duplicate",
                                     "from": "p1"})
    assert cell.store.content_digest() == content and cell.store.version == 1


@pytest.mark.parametrize("sender,wire,logged,signed_by", [
    ("stranger", kindless_wire(),
     {"status": "invalid", "from": "stranger", "error": "ParseError"}, []),
    ("stranger", forged_wire(),
     {"origin": "org", "seq": 0, "status": "untrusted-source", "from": "stranger"}, []),
    ("p1", forged_wire(), {"status": "invalid", "from": "p1", "error": "BadSignature"}, ["org"]),
], ids=["unparsed-from-untrusted", "forged-from-untrusted", "forged-from-trusted"])
def test_an_ingest_parses_then_checks_trust_then_the_signature(
        sender, wire, logged, signed_by, monkeypatch):
    """One ingest runs its checks in a fixed order: a package that does
    not parse is ``invalid`` whoever sends it, a parsed one from an
    untrusted sender is ``untrusted-source`` before any signature check,
    and only then is the signature checked."""
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    signed = counted_signatures(monkeypatch)
    expected = ApplyStatus.INVALID if "error" in logged else ApplyStatus.UNTRUSTED_SOURCE
    assert cell.ingest_security_update(wire, sender) is expected
    assert events == [("update", logged)]
    assert signed == signed_by
    assert cell.store.version == 0 and cell.take_outbox() == []


def test_digest_reply_ingests_the_packages_around_a_bad_one():
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    packages = [forged_wire(seq=0), kindless_wire(), signed_wire(seq=0),
                signed_wire(seq=1, payload="other")]
    cell.handle_envelope("digest-reply", "p1", {"packages": packages}, 2)
    assert cell.store.digest() == {"org": 1}
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


@pytest.mark.parametrize("mark", ["0", None, 0.5, [0]])
def test_digest_mark_that_is_not_an_int_is_contained(mark):
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    cell.emit_update(UpdateKind.BLOCKLIST_ADD, "h0", {"work"}, 0)
    cell.take_outbox()
    cell.handle_envelope("digest", "p1", {"applied": {"cell": mark}}, 5)
    assert cell.take_outbox() == []
    assert events[-1][0] == "reject"
    assert events[-1][1]["kind"] == "digest"


def test_digest_from_untrusted_peer_ignored():
    events = []
    cell = make_cell(trust={"work": ["ring"]},  # echo peers never qualify
                     observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    cell.emit_update(UpdateKind.BLOCKLIST_ADD, "h0", {"work"}, 0)
    cell.take_outbox()
    cell.handle_envelope("digest", "p1", {"applied": {}}, 5)
    assert cell.take_outbox() == []
    assert ("digest-ignored", {"from": "p1"}) in events


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
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    profile = replace(peer_profile("p1"), ttl_ticks=2)
    cell.catalogue.upsert(profile, 0)
    cell.on_tick(2)
    assert events == []
    cell.on_tick(3)
    assert events == [("peer-expired", {"peer": "p1"})]
    assert cell.catalogue.get("p1") is None


def test_an_expired_peer_leaves_no_advert_nonce_behind():
    """A peer's advert nonce is kept in its catalogue entry, so a replay
    is refused while the peer is known, and goes with the entry: adverts
    under many fresh ids leave nothing once their TTL lapses, and the old
    nonce is then accepted again."""
    cell = make_cell(trust={"work": []})
    for i in range(1000):
        profile = replace(peer_profile(f"p{i}"), ttl_ticks=5)
        cell.handle_envelope("advert", "n", {"profile": profile.to_wire(), "nonce": 3}, 1)
    replay = {"profile": peer_profile("p0").to_wire(), "nonce": 3}
    cell.handle_envelope("advert", "n", replay, 2)
    assert cell.catalogue.get("p0").expires_at == 1 + 5 + 1
    cell.on_tick(7)
    assert cell.catalogue.entries == {}
    cell.handle_envelope("advert", "n", replay, 8)
    entry = cell.catalogue.get("p0")
    assert (entry.expires_at, entry.nonce) == (8 + 50 + 1, 3)


_PEER_PROFILES = st.builds(
    lambda cid, contexts, caps, ttl: replace(peer_profile(cid, contexts, caps), ttl_ticks=ttl),
    st.sampled_from(["p0", "p1", "p2"]),
    st.sampled_from([("work",), ("home",), ("work", "home")]),
    st.sampled_from([("echo",), ("ring",)]),
    st.integers(1, 4),
)
_DISCOVERY_STEPS = st.lists(st.one_of(
    st.tuples(st.just("advert"), st.one_of(_PEER_PROFILES, st.just(peer_profile("cell"))),
              st.integers(-2, 5)),
    st.tuples(st.sampled_from(["register", "register-reply", "lookup"]), _PEER_PROFILES),
    st.tuples(st.just("tick"), st.integers(0, 4)),
), max_size=40)


@given(_DISCOVERY_STEPS)
def test_advert_nonces_match_a_separate_nonce_table(steps):
    """Keeping each advert nonce in its catalogue entry behaves like a
    separate last-nonce table dropped on expiry: over adverts with any
    nonce, replays included, register, register-reply and lookup upserts,
    and ticks that expire peers, every advert outcome and the catalogue
    (profile, expiry tick, trust and nonce per peer) match."""
    trust = {"work": ["echo"], "home": []}
    events = []
    cell = make_cell(trust=trust, observer=lambda kind, detail: events.append(kind))
    naive = NaiveDiscovery("cell", trust)
    now = 0
    for step in steps:
        if step[0] == "advert":
            _, profile, nonce = step
            body = {"profile": profile.to_wire(), "nonce": nonce}
            outcome = cell.discovery.handle_advertisement(body, now)
            assert outcome.value == naive.advert(profile, nonce, now)
        elif step[0] == "tick":
            now += step[1]
            cell.on_tick(now)
            naive.expire(now)
        else:
            kind, profile = step
            peer, wire = profile.cell_id, profile.to_wire()
            if kind == "register":
                cell.handle_envelope(kind, peer, {"profile": wire, "wantReply": False}, now)
            elif kind == "register-reply":
                cell.handle_envelope(kind, peer, wire, now)
            else:
                request_id = cell._next_request_id
                cell.send_request("op-req", "registry", {"action": "lookup"})
                cell.handle_envelope("op-resp", "registry", {
                    "requestId": request_id, "status": "ok", "result": {"profiles": [wire]},
                }, now)
            naive.upsert(profile, now)
        cell.take_outbox()
        trusts = cell.catalogue.trusts
        assert {cid: (e.profile, e.expires_at,
                      {c: trusts(e.profile, c) for c in e.profile.contexts}, e.nonce)
                for cid, e in cell.catalogue.entries.items()} == naive.contents()
    assert "reject" not in events


# profile field -> a value of another type than the wire carries
BAD_PROFILE_FIELDS = {
    "cell-id-int": ("cellId", 7),
    "resource-kind-list": ("resourceKind", ["echo"]),
    "contexts-string": ("contexts", "work"),
    "contexts-int-item": ("contexts", ["work", 1]),
    "capabilities-string": ("capabilities", "echo"),
    "ttl-float": ("ttlTicks", 1.5),
    "ttl-bool": ("ttlTicks", True),
}


@pytest.mark.parametrize("name", sorted(BAD_PROFILE_FIELDS))
@pytest.mark.parametrize("kind", ["advert", "register", "register-reply"])
def test_profile_field_of_another_type_is_rejected(kind, name):
    """A peer profile whose field has another type than ``to_wire`` writes
    is one ``ParseError`` reject, and ticking past every TTL (which sorts
    the catalogue ids) raises nothing."""
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda record, detail: events.append((record, detail)))
    cell.catalogue.upsert(peer_profile("p1"), 0)
    field, value = BAD_PROFILE_FIELDS[name]
    profile = {**peer_profile("p2").to_wire(), field: value}
    body = {"advert": {"profile": profile, "nonce": 0},
            "register": {"profile": profile, "wantReply": False},
            "register-reply": profile}[kind]
    cell.handle_envelope(kind, "p2", body, 1)
    assert events == [("reject", {"kind": kind, "from": "p2", "error": "ParseError"})]
    assert sorted(cell.catalogue.entries) == ["p1"]
    for tick in (5, 100):
        cell.on_tick(tick)
    assert cell.catalogue.entries == {}


@pytest.mark.parametrize("kind,field,value", [
    ("advert", "nonce", 0.5),
    ("advert", "nonce", True),
    ("advert", "nonce", "1"),
    ("register", "wantReply", "no"),
    ("register", "wantReply", 0),
    ("register", "wantReply", None),
])
def test_nonce_or_want_reply_of_another_type_is_rejected(kind, field, value):
    """A float nonce would become the sender's last nonce, and a
    ``wantReply`` of ``"no"`` would read as yes; each is one
    ``ParseError`` reject that neither stores the peer nor replies."""
    events = []
    cell = make_cell(trust={"work": []},
                     observer=lambda record, detail: events.append((record, detail)))
    cell.handle_envelope(kind, "p2", {"profile": peer_profile("p2").to_wire(), field: value}, 1)
    assert events == [("reject", {"kind": kind, "from": "p2", "error": "ParseError"})]
    assert cell.catalogue.get("p2") is None
    assert cell.take_outbox() == []


# --- peer-input fuzz ------------------------------------------------------


def fuzz_target(events):
    """A cell that trusts p1 in work, holds p1's package org/0, and waits
    for p1's answers to a lookup (request 0) and a flag-spam (request 1)."""
    cell = make_cell(trust={"work": []},
                     observer=lambda record, detail: events.append((record, detail)))
    cell.resource.operations = ("echo", "lookup")
    cell.catalogue.upsert(peer_profile("p1"), 0)
    assert cell.ingest_security_update(signed_wire(), "p1") is ApplyStatus.APPLIED
    cell.send_request("op-req", "p1", op_body(token(), "lookup", {"context": "work"}))
    cell.send_request("mgmt-req", "p1", mgmt_body("flag-spam", {"entry": "x"}))
    cell.take_outbox()
    events.clear()
    return cell


# a valid body of every envelope kind, as p1 could send it to that cell
VALID_BODIES = {
    "advert": {"profile": peer_profile("p2").to_wire(), "nonce": 0},
    "register": {"profile": peer_profile("p2").to_wire(), "wantReply": True},
    "register-reply": peer_profile("p2").to_wire(),
    "update": signed_wire(seq=1, payload="other-host"),
    "digest": {"applied": {"org": 0, "p9": 2}},
    "digest-reply": {"packages": [signed_wire(seq=1, payload="other-host")]},
    "op-req": {**op_body(token()), "requestId": 4},
    "op-resp": {"status": "ok", "reason": "permit",
                "result": {"profiles": [peer_profile("p2").to_wire()]}, "requestId": 0},
    "mgmt-req": {**mgmt_body("add-rule", rule("r9", Effect.DENY, {"role": ["guest"]}, "echo")
                             .to_wire()), "requestId": 5},
    "mgmt-resp": {"status": "ok", "reason": "permit", "result": {"entry": "x", "version": 2},
                  "requestId": 1},
}

# kind, field path, value of another type: bodies that, read without the
# wire reader, raise a builtin error (an unhashable request id, ``values``
# of a list, a string plus an integer)
FIXED_MUTATIONS = {
    "op-resp-request-id-list": ("op-resp", ("requestId",), [1]),
    "op-req-args-list": ("op-req", ("args",), ["msg", "hi"]),
    "digest-mark-string": ("digest", ("applied", "org"), "0"),
}


def test_the_fuzz_starts_from_valid_bodies():
    assert sorted(VALID_BODIES) == sorted(ENVELOPE_KINDS)
    for kind, body in VALID_BODIES.items():
        events = []
        fuzz_target(events).handle_envelope(kind, "p1", copy.deepcopy(body), 1)
        assert [record for record, _ in events if record == "reject"] == [], kind


@pytest.mark.parametrize("name", sorted(FIXED_MUTATIONS))
def test_a_peer_field_of_another_type_is_one_parse_error_reject(name):
    kind, path, value = FIXED_MUTATIONS[name]
    events = []
    cell = fuzz_target(events)
    cell.handle_envelope(kind, "p1", replaced(copy.deepcopy(VALID_BODIES[kind]), path, value), 1)
    assert events == [("reject", {"kind": kind, "from": "p1", "error": "ParseError"})]
    assert cell.take_outbox() == []


# kind, field path, value: token fields a request is decided on, so that
# the body is not rejected but decided as a malformed token
DECIDED_MUTATIONS = {
    "op-req-token-sig-list": ("op-req", ("tokens", 0, "sig"), [1]),
    "mgmt-req-token-sig-object": ("mgmt-req", ("tokens", 0, "sig"), {}),
}


@pytest.mark.parametrize("name", sorted(DECIDED_MUTATIONS))
def test_an_unhashable_token_sig_is_one_malformed_token_decision(name):
    kind, path, value = DECIDED_MUTATIONS[name]
    events = []
    cell = fuzz_target(events)
    cell.handle_envelope(kind, "p1", replaced(copy.deepcopy(VALID_BODIES[kind]), path, value), 1)
    assert [record for record, _ in events if record == "reject"] == []
    assert [detail["reason"] for record, detail in events if record == "decision"] == [
        "indeterminate: malformed-token"]


@st.composite
def mutations(draw):
    """An envelope kind and its valid body with one field at any depth, or
    the whole body, replaced by a JSON value of another type."""
    kind = draw(st.sampled_from(sorted(VALID_BODIES)))
    body = VALID_BODIES[kind]
    path = draw(st.sampled_from(((),) + tuple(field_paths(body))))
    original = type(field_at(body, path))
    value = draw(JSON_VALUES.filter(lambda v: type(v) is not original))
    return kind, replaced(copy.deepcopy(body), path, value)


def _verifies(package):
    return package.signature == sign_payload(package.origin, package.body())


@settings(max_examples=400)
@given(case=mutations())
def test_a_peer_field_of_another_type_is_contained(case):
    """Nothing a peer sends escapes ``handle_envelope`` or a later
    ``on_tick`` past every TTL, and the store changes only by consuming
    packages whose signature verifies."""
    kind, body = case
    cell = fuzz_target([])
    before = (cell.store.version, cell.store.content_digest(), cell.store.digest())
    cell.handle_envelope(kind, "p1", body, 1)
    for tick in (2, 100, MAX_TTL_TICKS + 100):
        cell.on_tick(tick)
    archive = [package for packages in cell.store.archive.values() for package in packages]
    assert all(map(_verifies, archive))
    after = (cell.store.version, cell.store.content_digest(), cell.store.digest())
    assert after == before or after[2] != before[2]


# --- request/response correlation -----------------------------------------


def test_lookup_response_feeds_catalogue():
    cell = make_cell()
    cell.resource.operations = ("echo", "lookup")  # let it issue lookups
    cell.send_request("op-req", "registry", op_body(token(), "lookup", {"context": "work"}))
    (request,) = cell.take_outbox()
    learned = peer_profile("newpeer")
    own = peer_profile("cell")  # a registry may echo ourselves back
    body = {
        "status": "ok",
        "reason": "permit",
        "result": {"profiles": [learned.to_wire(), own.to_wire()]},
        "requestId": request.body["requestId"],
    }
    cell.handle_envelope("op-resp", "registry", body, 7)
    assert cell.catalogue.get("newpeer") is not None
    assert cell.catalogue.get("newpeer").expires_at == 7 + 50 + 1
    assert cell.catalogue.get("cell") is None  # never registers itself


def test_non_lookup_response_only_audited():
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    cell.send_request("op-req", "peer", op_body(token(), args={"msg": "x"}))
    (request,) = cell.take_outbox()
    body = {"status": "ok", "result": {"echo": {}},
            "requestId": request.body["requestId"]}
    cell.handle_envelope("op-resp", "peer", body, 3)
    assert cell.catalogue.entries == {}
    assert events == [("op-resp", {"from": "peer", "requestId": 0,
                                   "action": "echo", "status": "ok"})]


def test_response_pairs_by_request_id_after_a_lost_request():
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    cell.resource.operations = ("echo", "lookup")
    cell.send_request("op-req", "peer", op_body(token(), "lookup", {"context": "work"}))
    cell.send_request("op-req", "peer", op_body(token(), args={"msg": "x"}))
    lost, answered = cell.take_outbox()
    assert (lost.body["requestId"], answered.body["requestId"]) == (0, 1)
    # only the second op-req arrives; its reply must not pair with the first
    body = {"status": "ok", "result": {"profiles": [peer_profile("fake").to_wire()]},
            "requestId": answered.body["requestId"]}
    cell.handle_envelope("op-resp", "peer", body, 3)
    assert events == [("op-resp", {"from": "peer", "requestId": 1,
                                   "action": "echo", "status": "ok"})]
    assert cell.catalogue.get("fake") is None


@pytest.mark.parametrize("src,kind,request_id", [
    ("peer", "op-resp", 7),          # never issued
    ("peer", "op-resp", None),       # no id at all
    ("other", "op-resp", 0),         # issued, but to another peer
    ("peer", "mgmt-resp", 0),        # issued, but on the other channel
])
def test_unpaired_response_is_recorded_not_acted_on(src, kind, request_id):
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    cell.resource.operations = ("echo", "lookup")
    cell.send_request("op-req", "peer", op_body(token(), "lookup", {"context": "work"}))
    cell.take_outbox()
    body = {"status": "ok", "result": {"profiles": [peer_profile("fake").to_wire()]},
            "requestId": request_id}
    cell.handle_envelope(kind, src, body, 3)
    name = "action" if kind == "op-resp" else "command"
    assert events == [(kind, {"from": src, "requestId": request_id,
                              name: None, "status": "ok"})]
    assert cell.catalogue.get("fake") is None
    # the request is still pending: its own reply pairs afterwards
    cell.handle_envelope("op-resp", "peer", dict(body, requestId=0), 4)
    assert events[-1][1]["action"] == "lookup"
    assert cell.catalogue.get("fake") is not None


def test_pending_requests_are_capped_oldest_first():
    events = []
    cell = make_cell(observer=lambda kind, detail: events.append((kind, detail)))
    for _ in range(PENDING_REQUEST_CAP + 1):
        cell.send_request("op-req", "peer", op_body(token(), args={"msg": "x"}))
    cell.take_outbox()
    for request_id in (0, 1, PENDING_REQUEST_CAP):
        cell.handle_envelope("op-resp", "peer",
                             {"status": "ok", "requestId": request_id}, 3)
    assert [d["action"] for _, d in events] == [None, "echo", "echo"]


def test_op_request_and_response_round_trip_between_cells():
    events = []
    a = make_cell("a", observer=lambda kind, detail: events.append((kind, detail)))
    b = make_cell("b")
    a.send_request("op-req", "b", op_body(token(), args={"msg": "ping"}))
    (msg,) = a.take_outbox()
    b.handle_envelope(msg.kind, "a", msg.body, 1)
    (reply,) = b.take_outbox()
    assert reply.kind == "op-resp" and reply.dst == "a"
    assert reply.body["status"] == "ok"
    assert reply.body["requestId"] == msg.body["requestId"]
    a.handle_envelope(reply.kind, "b", reply.body, 2)
    assert events == [("op-resp", {"from": "b", "requestId": 0,
                                   "action": "echo", "status": "ok"})]


def test_mgmt_request_and_response_round_trip_between_cells():
    events = []
    a = make_cell("a", observer=lambda kind, detail: events.append((kind, detail)))
    b = make_cell("b")
    a.send_request("mgmt-req", "b", mgmt_body("flag-spam", {"entry": "x"}))
    (msg,) = a.take_outbox()
    b.handle_envelope(msg.kind, "a", msg.body, 1)
    (reply,) = [m for m in b.take_outbox() if m.kind == "mgmt-resp"]
    assert reply.body["requestId"] == msg.body["requestId"]
    a.handle_envelope(reply.kind, "b", reply.body, 2)
    assert events == [("mgmt-resp", {"from": "b", "requestId": 0,
                                     "command": "flag-spam", "status": "ok"})]


def test_registration_round_trip_between_cells():
    a = make_cell("a", trust={"work": []})
    b = make_cell("b", trust={"work": []})
    a.register_with("b")
    (msg,) = a.take_outbox()
    b.handle_envelope(msg.kind, "a", msg.body, 1)
    assert b.catalogue.get("a") is not None
    (reply,) = b.take_outbox()
    assert reply.kind == "register-reply"
    a.handle_envelope(reply.kind, "b", reply.body, 2)
    assert a.catalogue.get("b") is not None
    assert a.catalogue.trusts(a.catalogue.get("b").profile, "work")
