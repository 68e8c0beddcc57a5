import dataclasses
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from smsc.errors import (
    BadSignature,
    DuplicateRuleId,
    Expired,
    MalformedUpdate,
    ParseError,
    PolicyError,
    UntrustedIssuer,
)
from smsc.governance import DomainSpec, PolicyStore
from smsc.policy import (
    AttributePair,
    Condition,
    Decision,
    DecisionRequest,
    DelegationAssertion,
    Effect,
    PolicyDocument,
    PolicyRule,
    RegressionCase,
    RootGrant,
    Token,
    Verdict,
    attrs_from_wire,
    attrs_to_wire,
    evaluate_request,
    expand_delegations,
    issue_token,
    matching_rule_ids,
    verify_token,
)

from .oracles import (
    fixpoint_delegations,
    naive_cited_ids,
    naive_evaluate,
    naive_first_repeat,
    naive_rule_matches,
)

ADMIN = AttributePair("role", "admin")
USER = AttributePair("role", "user")
ENG = AttributePair("dept", "eng")


def rule(rid, effect, cond, action="read", resource="repo-*", contexts=("work",)):
    return PolicyRule(
        id=rid,
        effect=effect,
        subject=Condition.from_mapping(cond),
        action=action,
        resource=resource,
        contexts=frozenset(contexts),
    )


def request(attrs=(), action="read", resource="repo-a", context="work", tick=0):
    return DecisionRequest(frozenset(attrs), action, resource, context, tick)


# --- validation -----------------------------------------------------------


def test_attribute_pair_charset():
    AttributePair("dept", "eng")
    AttributePair("mgmt:cmd", "a_b-c:d")
    with pytest.raises(PolicyError):
        AttributePair("Dept", "eng")
    with pytest.raises(PolicyError):
        AttributePair("dept", "")
    with pytest.raises(PolicyError):
        AttributePair(name="dept", value="Eng")
    with pytest.raises(PolicyError):
        AttributePair.from_wire({"name": "dept eng", "value": "x"})


_PAIRS = st.lists(st.tuples(st.sampled_from(("dept", "role", "role:x", "*")),
                            st.sampled_from(("admin", "eng", "user", "*"))))


@given(pairs=_PAIRS)
def test_an_attribute_pair_is_its_plain_tuple(pairs):
    """A pair equals, hashes and sorts as the tuple ``(name, value)``, and
    its wire form round-trips."""
    attrs = [AttributePair(name, value) for name, value in pairs]
    assert attrs == pairs
    assert [hash(a) for a in attrs] == [hash(p) for p in pairs]
    assert sorted(attrs) == sorted(pairs)
    assert [AttributePair.from_wire(a.to_wire()) for a in attrs] == attrs
    assert all(type(AttributePair.from_wire(a.to_wire())) is AttributePair for a in attrs)
    assert attrs_from_wire(attrs_to_wire(frozenset(attrs))) == frozenset(pairs)


def test_condition_rejects_duplicates_and_empty_sets():
    with pytest.raises(PolicyError):
        Condition((("role", frozenset()),))
    with pytest.raises(PolicyError):
        Condition((("role", frozenset({"a"})), ("role", frozenset({"b"}))))


def test_rule_validation():
    with pytest.raises(PolicyError):
        rule("r1", Effect.PERMIT, {}, contexts=())
    with pytest.raises(PolicyError):
        rule("r1", Effect.PERMIT, {}, resource="re*po")
    rule("r1", Effect.PERMIT, {}, resource="*")
    rule("r1", Effect.PERMIT, {}, resource="repo-a")


def test_delegation_validation():
    with pytest.raises(PolicyError):
        DelegationAssertion("alice", "alice", ADMIN, 1, frozenset({"work"}))
    with pytest.raises(PolicyError):
        DelegationAssertion("alice", "bob", ADMIN, -1, frozenset({"work"}))
    with pytest.raises(PolicyError):
        DelegationAssertion("alice", "bob", ADMIN, 1, frozenset())


def test_decision_invariants():
    with pytest.raises(PolicyError):
        Decision(Verdict.INDETERMINATE, "")
    with pytest.raises(PolicyError):
        Decision(Verdict.NOT_APPLICABLE, "x", ("r1",))


# --- matching -------------------------------------------------------------


def rule_matches(rule, req):
    """Whether ``rule`` alone matches ``req``, as the evaluator reads it."""
    return any(matching_rule_ids((rule,), req))


def test_rule_matching_components():
    r = rule("r1", Effect.PERMIT, {"role": ["admin", "user"]})
    assert rule_matches(r, request([ADMIN]))
    assert rule_matches(r, request([USER, ENG]))
    # closed world: the constrained attribute must be present
    assert not rule_matches(r, request([ENG]))
    assert not rule_matches(r, request([]))
    # wrong context, action, resource
    assert not rule_matches(r, request([ADMIN], context="home"))
    assert not rule_matches(r, request([ADMIN], action="write"))
    assert not rule_matches(r, request([ADMIN], resource="log-x"))


def test_resource_prefix_semantics():
    r = rule("r1", Effect.PERMIT, {}, resource="repo-*")
    assert rule_matches(r, request(resource="repo-a"))
    assert rule_matches(r, request(resource="repo-"))
    assert not rule_matches(r, request(resource="repo"))
    star = rule("r2", Effect.PERMIT, {}, resource="*")
    assert rule_matches(star, request(resource="anything"))


def test_multivalued_request_attribute_matches_any():
    r = rule("r1", Effect.PERMIT, {"role": ["admin"]})
    assert rule_matches(r, request([USER, ADMIN]))


# --- evaluation -----------------------------------------------------------


def test_deny_overrides():
    rules = [
        rule("allow", Effect.PERMIT, {}),
        rule("block", Effect.DENY, {"role": ["user"]}),
    ]
    assert evaluate_request(rules, request([USER])).verdict is Verdict.DENY
    assert evaluate_request(rules, request([ADMIN])).verdict is Verdict.PERMIT
    assert evaluate_request(rules, request([], context="home")).verdict is (
        Verdict.NOT_APPLICABLE
    )


def test_decision_cites_only_winning_rules_sorted():
    rules = [
        rule("z-allow", Effect.PERMIT, {}),
        rule("a-allow", Effect.PERMIT, {}),
        rule("block", Effect.DENY, {"role": ["user"]}),
    ]
    d = evaluate_request(rules, request([ADMIN]))
    assert d.matched_rule_ids == ("a-allow", "z-allow")
    d = evaluate_request(rules, request([USER]))
    assert d.matched_rule_ids == ("block",)
    assert d.reason == "deny"


def test_duplicate_rule_ids_detected():
    """The evaluator and a store seeded with the rules both refuse them."""
    rules = [rule("r1", Effect.PERMIT, {}), rule("r1", Effect.DENY, {})]
    with pytest.raises(DuplicateRuleId):
        evaluate_request(rules, request())
    with pytest.raises(MalformedUpdate, match="duplicate seed rule id 'r1'"):
        PolicyStore("repo-a", rules)


def test_not_applicable_reason():
    d = evaluate_request([], request())
    assert d.verdict is Verdict.NOT_APPLICABLE
    assert d.reason == "not-applicable"
    assert d.matched_rule_ids == ()


_POOL_ACTIONS = ("read", "write", "*")
_POOL_RESOURCES = ("repo-a", "repo-b", "repo-*", "log-x", "*")
_POOL_CONTEXTS = ("work", "home")
_POOL_ATTRS = {
    "role": ("admin", "user"),
    "dept": ("eng", "ops", "hr"),
}


def _random_rule(rng, rid):
    cond = {}
    for name, values in _POOL_ATTRS.items():
        if rng.random() < 0.5:
            k = rng.randint(1, len(values))
            cond[name] = rng.sample(values, k)
    n_ctx = rng.randint(1, len(_POOL_CONTEXTS))
    return rule(
        rid,
        rng.choice((Effect.PERMIT, Effect.DENY)),
        cond,
        action=rng.choice(_POOL_ACTIONS),
        resource=rng.choice(_POOL_RESOURCES),
        contexts=rng.sample(_POOL_CONTEXTS, n_ctx),
    )


def _random_request(rng):
    attrs = []
    for name, values in _POOL_ATTRS.items():
        for value in values:
            if rng.random() < 0.3:
                attrs.append(AttributePair(name, value))
    return request(
        attrs,
        action=rng.choice(("read", "write", "list")),
        resource=rng.choice(("repo-a", "repo-b", "repo-", "log-x", "other")),
        context=rng.choice(_POOL_CONTEXTS + ("lab",)),
    )


_NAIVE_REASONS = {"Deny": "deny", "Permit": "permit", "NotApplicable": "not-applicable"}


def test_evaluator_agrees_with_naive_oracle_sample():
    rng = random.Random(71)
    for case in range(300):
        rules = [_random_rule(rng, f"r{i}") for i in range(rng.randint(0, 6))]
        req = _random_request(rng)
        decision = evaluate_request(rules, req)
        assert decision.verdict.value == naive_evaluate(rules, req)
        assert decision.reason == _NAIVE_REASONS[naive_evaluate(rules, req)]
        assert decision.matched_rule_ids == naive_cited_ids(rules, req)
    # a repeated id raises, naming the first repeat in input order, whether
    # or not the repeating rule matches the request
    repeat_matched = set()
    for case in range(300):
        rules = [_random_rule(rng, f"r{i}") for i in range(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 2)):
            twin = _random_rule(rng, rng.choice(rules).id)
            rules.insert(rng.randint(0, len(rules)), twin)
        req = _random_request(rng)
        first = naive_first_repeat(rules)
        repeat_matched.add(naive_rule_matches(rules[first], req))
        with pytest.raises(DuplicateRuleId, match=re.escape(repr(rules[first].id))):
            evaluate_request(rules, req)
    assert repeat_matched == {True, False}
    # a rule rebuilt through dataclasses.replace is matched on its new
    # resource, action or effect, never on the test built for the original
    flipped = set()
    for case in range(300):
        rules = [_random_rule(rng, f"r{i}") for i in range(rng.randint(1, 6))]
        req = _random_request(rng)
        before = evaluate_request(rules, req)
        rebuilt = [dataclasses.replace(r, **rng.choice((
            {"resource": "*"}, {"resource": "repo-*"}, {"resource": "repo-a"},
            {"action": rng.choice(_POOL_ACTIONS)},
            {"effect": Effect.DENY if r.effect is Effect.PERMIT else Effect.PERMIT},
        ))) for r in rules]
        decision = evaluate_request(rebuilt, req)
        assert decision.verdict.value == naive_evaluate(rebuilt, req)
        assert decision.matched_rule_ids == naive_cited_ids(rebuilt, req)
        flipped.add(decision != before)
    assert flipped == {True, False}


def test_any_iterable_of_rules_is_evaluated_as_its_list():
    rules = [
        rule("allow", Effect.PERMIT, {}),
        rule("block", Effect.DENY, {"role": ["user"]}),
    ]
    for attrs in ([ADMIN], [USER], []):
        want = evaluate_request(rules, request(attrs))
        assert evaluate_request((r for r in rules), request(attrs)) == want
        assert evaluate_request(iter(rules), request(attrs)) == want
    assert evaluate_request((r for r in rules[:1]), request()).verdict is Verdict.PERMIT
    with pytest.raises(DuplicateRuleId):
        evaluate_request((r for r in rules + rules[:1]), request())


# --- delegation -----------------------------------------------------------


def _assert_delegation(subject, base, assertions, roots, context):
    got = expand_delegations(subject, frozenset(base), assertions, roots, context)
    want = fixpoint_delegations(subject, base, assertions, roots, context)
    assert got == want
    return got


def test_delegation_chain_depth_budget():
    roots = [RootGrant("alice", ADMIN, 2)]
    chain = [
        DelegationAssertion("alice", "bob", ADMIN, 5, frozenset({"work"})),
        DelegationAssertion("bob", "carol", ADMIN, 5, frozenset({"work"})),
        DelegationAssertion("carol", "dave", ADMIN, 5, frozenset({"work"})),
    ]
    # alice holds at depth 2: bob gets min(5, 1) = 1, carol min(5, 0) = 0,
    # and carol cannot pass it on
    assert ADMIN in _assert_delegation("bob", [], chain, roots, "work")
    assert ADMIN in _assert_delegation("carol", [], chain, roots, "work")
    assert ADMIN not in _assert_delegation("dave", [], chain, roots, "work")


def test_delegation_assertion_depth_caps_the_chain():
    roots = [RootGrant("alice", ADMIN, 10)]
    chain = [
        DelegationAssertion("alice", "bob", ADMIN, 0, frozenset({"work"})),
        DelegationAssertion("bob", "carol", ADMIN, 5, frozenset({"work"})),
    ]
    # bob receives with zero hops left, so carol gets nothing
    assert ADMIN in _assert_delegation("bob", [], chain, roots, "work")
    assert ADMIN not in _assert_delegation("carol", [], chain, roots, "work")


def test_delegation_context_scoped():
    roots = [RootGrant("alice", ADMIN, 3)]
    assertion = [DelegationAssertion("alice", "bob", ADMIN, 1, frozenset({"work"}))]
    assert ADMIN in _assert_delegation("bob", [], assertion, roots, "work")
    assert ADMIN not in _assert_delegation("bob", [], assertion, roots, "home")


def test_delegation_cycle_terminates():
    roots = [RootGrant("alice", ADMIN, 3)]
    cycle = [
        DelegationAssertion("alice", "bob", ADMIN, 9, frozenset({"work"})),
        DelegationAssertion("bob", "alice", ADMIN, 9, frozenset({"work"})),
    ]
    got = _assert_delegation("bob", [], cycle, roots, "work")
    assert ADMIN in got


def test_delegation_keeps_base_attributes():
    got = _assert_delegation("bob", [ENG], [], [], "work")
    assert got == frozenset({ENG})


def test_delegation_two_paths_best_depth_wins():
    roots = [RootGrant("alice", ADMIN, 4)]
    assertions = [
        DelegationAssertion("alice", "bob", ADMIN, 0, frozenset({"work"})),
        DelegationAssertion("alice", "carol", ADMIN, 3, frozenset({"work"})),
        DelegationAssertion("carol", "bob", ADMIN, 2, frozenset({"work"})),
        DelegationAssertion("bob", "dave", ADMIN, 1, frozenset({"work"})),
    ]
    # via carol, bob holds at depth 2, so dave is reachable even though
    # alice's direct grant to bob had no hops left
    assert ADMIN in _assert_delegation("dave", [], assertions, roots, "work")


@given(st.data())
def test_delegation_matches_fixpoint_oracle_on_random_graphs(data):
    rng = random.Random(data.draw(st.integers(0, 2**20)))
    people = ["p0", "p1", "p2", "p3", "p4"]
    attrs = [ADMIN, ENG]
    roots = [
        RootGrant(rng.choice(people), rng.choice(attrs), rng.randint(0, 3))
        for _ in range(rng.randint(1, 2))
    ]
    assertions = []
    for _ in range(rng.randint(0, 8)):
        issuer, subject = rng.sample(people, 2)
        assertions.append(
            DelegationAssertion(
                issuer, subject, rng.choice(attrs), rng.randint(0, 3),
                frozenset({rng.choice(["work", "home"])}),
            )
        )
    for person in people:
        for context in ("work", "home"):
            _assert_delegation(person, [], assertions, roots, context)


def test_delegation_monotone_in_assertions():
    rng = random.Random(9)
    people = ["p0", "p1", "p2", "p3"]
    for _ in range(50):
        roots = [RootGrant("p0", ADMIN, rng.randint(1, 3))]
        assertions = []
        previous = frozenset()
        for _ in range(6):
            issuer, subject = rng.sample(people, 2)
            assertions.append(
                DelegationAssertion(
                    issuer, subject, ADMIN, rng.randint(0, 3), frozenset({"work"})
                )
            )
            now = expand_delegations("p3", frozenset(), assertions, roots, "work")
            assert previous <= now
            previous = now


# --- tokens ---------------------------------------------------------------


def test_token_verify_happy_path():
    token = issue_token("alice", [ADMIN], "idp", expiry_tick=10)
    assert verify_token(token, {"idp"}, now=9) == frozenset({ADMIN})


def test_token_check_order_trust_before_expiry_before_signature():
    token = issue_token("alice", [ADMIN], "idp", expiry_tick=5)
    # untrusted and expired: trust is reported
    with pytest.raises(UntrustedIssuer):
        verify_token(token, {"other"}, now=99)
    # trusted but expired and tampered: expiry is reported
    tampered = Token(token.subject, token.claims, token.issuer, token.expiry_tick, "0" * 64)
    with pytest.raises(Expired):
        verify_token(tampered, {"idp"}, now=99)
    with pytest.raises(BadSignature):
        verify_token(tampered, {"idp"}, now=0)


def test_token_expiry_is_strict():
    token = issue_token("alice", [ADMIN], "idp", expiry_tick=5)
    verify_token(token, {"idp"}, now=4)
    with pytest.raises(Expired):
        verify_token(token, {"idp"}, now=5)


def test_token_tamper_detection_covers_claims_and_subject():
    token = issue_token("alice", [ADMIN], "idp", expiry_tick=10)
    for mutated in (
        Token("mallory", token.claims, "idp", 10, token.signature),
        Token("alice", frozenset({USER}), "idp", 10, token.signature),
        Token("alice", token.claims, "idp", 11, token.signature),
    ):
        with pytest.raises(BadSignature):
            verify_token(mutated, {"idp"}, now=0)


def test_token_needs_claims():
    with pytest.raises(PolicyError):
        Token("alice", frozenset(), "idp", 10, "sig")
    with pytest.raises(PolicyError):
        issue_token("alice", [], "idp", 10)


def test_issued_signature_covers_the_wire_body():
    wire = issue_token("alice", [USER, ADMIN], "idp", expiry_tick=10).to_wire()
    body = {k: v for k, v in wire.items() if k != "sig"}
    material = "idp|" + json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert wire["sig"] == hashlib.sha256(material.encode("utf-8")).hexdigest()


# --- wire round-trips -----------------------------------------------------


def test_attrs_wire_round_trip():
    attrs = frozenset({ADMIN, USER, ENG})
    assert attrs_from_wire(attrs_to_wire(attrs)) == attrs
    assert attrs_to_wire(attrs) == {"dept": ["eng"], "role": ["admin", "user"]}


RULE_WIRE = rule("r1", Effect.PERMIT, {"role": ["user"]}).to_wire()
DELEGATION_WIRE = {"issuer": "alice", "subject": "bob", "attr": {"name": "role", "value": "admin"},
                   "depth": 1, "contexts": ["work"]}


def test_policy_document_is_read_from_its_wire_form():
    """A document holding one of each part reads to the objects built
    directly."""
    doc = PolicyDocument.from_wire({
        "rules": [{"id": "r1", "effect": "Permit", "subject": {"role": ["user"]},
                   "action": "read", "resource": "repo-*", "contexts": ["work"]}],
        "delegations": [DELEGATION_WIRE],
        "roots": [{"principal": "alice", "attr": {"name": "role", "value": "admin"}, "depth": 2}],
        "trustedIssuers": ["idp"],
        "regression": [{"request": {"subjectAttrs": {"role": ["admin"]}, "action": "read",
                                    "resourceId": "repo-a", "context": "work", "tick": 3},
                        "expected": "Deny", "protected": True}],
    })
    assert doc == PolicyDocument(
        rules=(rule("r1", Effect.PERMIT, {"role": ["user"]}),),
        delegations=(DelegationAssertion("alice", "bob", ADMIN, 1, frozenset({"work"})),),
        roots=(RootGrant("alice", ADMIN, 2),),
        trusted_issuers=frozenset({"idp"}),
        regression=(RegressionCase(request([ADMIN], tick=3), Verdict.DENY, protected=True),),
    )


@pytest.mark.parametrize("parse", [
    lambda: PolicyRule.from_wire({**RULE_WIRE, "contexts": "work"}),
    lambda: PolicyRule.from_wire({**RULE_WIRE, "contexts": ("work",)}),
    lambda: PolicyRule.from_wire({**RULE_WIRE, "subject": {"role": "user"}}),
    lambda: Condition.from_mapping({"role": ["user"], "dept": "eng"}),
    lambda: PolicyDocument.from_wire({"trustedIssuers": "idp"}),
    lambda: PolicyDocument.from_wire({"rules": [{**RULE_WIRE, "contexts": "work"}]}),
    lambda: DelegationAssertion.from_wire({**DELEGATION_WIRE, "contexts": "work"}),
    lambda: DelegationAssertion.from_wire({**DELEGATION_WIRE, "contexts": ["work", 7]}),
    lambda: PolicyDocument.from_wire(
        {"delegations": [{**DELEGATION_WIRE, "contexts": "work"}]}),
    lambda: DomainSpec.from_wire({"actions": "read"}),
], ids=["rule-contexts", "rule-contexts-tuple", "rule-subject-values", "condition-values",
        "trusted-issuers", "document-rule-contexts", "delegation-contexts",
        "delegation-context-int", "document-delegation-contexts", "domain-actions"])
def test_a_string_where_a_list_is_expected_is_refused(parse):
    """A string is never split into its characters: ``"work"`` would
    otherwise read as the contexts w, o, r and k, and the domain actions
    ``"read"`` as the universe r, e, a and d that conflicts are sought in."""
    with pytest.raises(ParseError, match="list"):
        parse()


CASE_WIRE = RegressionCase(request([ADMIN]), Verdict.PERMIT).to_wire()


@pytest.mark.parametrize("parse,field", [
    (lambda: PolicyRule.from_wire({**RULE_WIRE, "contexts": ["work", 7]}), "'contexts'"),
    (lambda: DelegationAssertion.from_wire({**DELEGATION_WIRE, "issuer": 7}), "'issuer'"),
    (lambda: RegressionCase.from_wire({**CASE_WIRE, "protected": "no"}), "'protected'"),
], ids=["rule-context-int", "delegation-issuer-int", "regression-protected-string"])
def test_a_scalar_of_another_type_is_a_parse_error(parse, field):
    """A token that is not a string fails the read, before the token
    grammar is matched against it; a ``protected`` flag of ``"no"``,
    which is truthy, would block updates as if the case were protected."""
    with pytest.raises(ParseError, match=field):
        parse()


def misspelled(wire, key, typo):
    """``wire`` with its field ``key`` renamed ``typo``."""
    wire = dict(wire)
    wire[typo] = wire.pop(key)
    return wire


@pytest.mark.parametrize("parse,typo", [
    (lambda: PolicyRule.from_wire(misspelled(RULE_WIRE, "subject", "subjet")), "subjet"),
    (lambda: PolicyDocument.from_wire({"trustedIsuers": ["idp"]}), "trustedIsuers"),
    (lambda: RegressionCase.from_wire(misspelled(CASE_WIRE, "protected", "protectd")),
     "protectd"),
    (lambda: DecisionRequest.from_wire(
        misspelled(request([ADMIN]).to_wire(), "subjectAttrs", "subjectAtrs")), "subjectAtrs"),
    (lambda: DomainSpec.from_wire({"actions": ["read"], "context": ["work"]}), "context"),
], ids=["rule-subject", "document-trusted-issuers", "case-protected", "request-subject-attrs",
        "domains-contexts"])
def test_an_undeclared_field_is_refused(parse, typo):
    """A misspelled optional field is refused, not dropped for its
    default: a rule read without its ``subject`` would match every
    subject, and a domains file without its ``contexts`` would find no
    conflict at all."""
    with pytest.raises(ParseError, match=re.escape(f"unknown field(s) [{typo!r}]")):
        parse()


def test_policy_document_duplicate_ids():
    with pytest.raises(DuplicateRuleId):
        PolicyDocument(rules=(rule("r1", Effect.PERMIT, {}), rule("r1", Effect.DENY, {})))
    rules = tuple(rule(rid, Effect.PERMIT, {}) for rid in ("r2", "r1", "r3", "r1", "r2", "r2"))
    with pytest.raises(DuplicateRuleId, match=re.escape("duplicate rule ids: ['r1', 'r2']")):
        PolicyDocument(rules=rules)


def test_request_round_trip():
    req = request([ADMIN, ENG], action="write", resource="log-x", context="home", tick=7)
    assert DecisionRequest.from_wire(req.to_wire()) == req
