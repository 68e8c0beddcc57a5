import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from smsc import governance, policy
from smsc.catalogue import CellProfile
from smsc.cell import Cell
from smsc.errors import BadSignature, MalformedUpdate, UnknownAttributeDomain
from smsc.governance import (
    PENDING_CAP,
    ApplyStatus,
    ConfigSetting,
    DomainSpec,
    PolicyStore,
    UpdateKind,
    UpdatePackage,
    assess_update_impact,
    detect_conflicts,
    make_update,
)
from smsc.policy import (
    AttributePair,
    Condition,
    DecisionRequest,
    Effect,
    PolicyDocument,
    PolicyRule,
    RegressionCase,
    Verdict,
    canonical_json,
    evaluate_request,
)

from .jsonfuzz import JSON_VALUES, field_at, field_paths, replaced
from .oracles import (
    enumerate_conflicts,
    naive_assess_impact,
    naive_cited_ids,
    naive_digest_reply,
    naive_evaluate,
    naive_resource_matches,
    naive_rule_matches,
)


def rule(rid, effect, cond, action="read", resource="repo-*", contexts=("work",)):
    return PolicyRule(
        id=rid,
        effect=effect,
        subject=Condition.from_mapping(cond),
        action=action,
        resource=resource,
        contexts=frozenset(contexts),
    )


def upd(seq, kind=UpdateKind.BLOCKLIST_ADD, payload="bad-host",
        origin="org", contexts=("work",), tick=0):
    return make_update(origin, seq, kind, payload, contexts, tick)


def pin(action="read", resource="repo-a", context="work",
        expected=Verdict.PERMIT, protected=True, attrs=()):
    return RegressionCase(
        DecisionRequest(frozenset(attrs), action, resource, context, 0),
        expected,
        protected,
    )


# --- update packages ------------------------------------------------------


def test_signature_round_trip_and_tamper():
    package = upd(0)
    store = PolicyStore("repo-a")
    assert store.apply_update(package).status is ApplyStatus.APPLIED
    from dataclasses import replace

    forged = replace(package, payload="other-host")
    with pytest.raises(BadSignature):
        PolicyStore("repo-a").apply_update(forged)


_A_RULE = rule("r1", Effect.DENY, {"role": ["x"]})


# every kind with two payloads of a wrong type, then the package-level
# checks: no contexts and a negative seq
@pytest.mark.parametrize("seq,kind,payload,contexts", [
    pytest.param(0, UpdateKind.RULE_ADD, "not-a-rule", ["work"], id="RuleAdd-string"),
    pytest.param(0, UpdateKind.RULE_ADD, ConfigSetting("k", 1), ["work"], id="RuleAdd-setting"),
    pytest.param(0, UpdateKind.RULE_REMOVE, ConfigSetting("k", 1), ["work"],
                 id="RuleRemove-setting"),
    pytest.param(0, UpdateKind.RULE_REMOVE, _A_RULE, ["work"], id="RuleRemove-rule"),
    pytest.param(0, UpdateKind.BLOCKLIST_ADD, 7, ["work"], id="BlocklistAdd-int"),
    pytest.param(0, UpdateKind.BLOCKLIST_ADD, _A_RULE, ["work"], id="BlocklistAdd-rule"),
    pytest.param(0, UpdateKind.CONFIG_SET, "k", ["work"], id="ConfigSet-string"),
    pytest.param(0, UpdateKind.CONFIG_SET, _A_RULE, ["work"], id="ConfigSet-rule"),
    pytest.param(0, UpdateKind.BLOCKLIST_ADD, "e", [], id="no-contexts"),
    pytest.param(-1, UpdateKind.BLOCKLIST_ADD, "e", ["work"], id="negative-seq"),
])
def test_payload_shape_enforced(seq, kind, payload, contexts):
    with pytest.raises(MalformedUpdate):
        make_update("o", seq, kind, payload, contexts, 0)


@pytest.mark.parametrize("seq", [1.5, 1.0, True, "1", None])
def test_non_integer_seq_is_malformed(seq):
    with pytest.raises(MalformedUpdate, match="not an integer"):
        upd(seq)


def test_fractional_seqs_cannot_fill_the_gap_buffer():
    """Packages at seqs 1.001, 1.002, ... could never drain: accepted,
    they would fill the origin's gap buffer for good and evict every
    real out-of-order package on arrival."""
    store = PolicyStore("repo-a")
    for i in range(1, PENDING_CAP + 1):
        with pytest.raises(MalformedUpdate):
            store.apply_update(upd(1 + i / 1000, payload=f"h{i}"))
    report = store.apply_update(upd(2))
    assert report.status is ApplyStatus.BUFFERED and report.evicted is None
    assert len(store._pending["org"]) == 1


def test_wire_round_trip():
    from smsc.governance import UpdatePackage

    for package in (
        upd(3),
        upd(1, UpdateKind.RULE_ADD, rule("r1", Effect.DENY, {"role": ["x"]})),
        upd(2, UpdateKind.RULE_REMOVE, "r1"),
        upd(4, UpdateKind.CONFIG_SET, ConfigSetting("threshold", 5)),
    ):
        assert UpdatePackage.from_wire(package.to_wire()) == package


# --- ordered, exactly-once application ------------------------------------


def test_in_order_apply_bumps_version():
    store = PolicyStore("repo-a")
    for seq in range(3):
        report = store.apply_update(upd(seq, payload=f"host-{seq}"))
        assert report.status is ApplyStatus.APPLIED
    assert store.version == 3
    assert store.digest() == {"org": 2}
    assert ("work", "host-1") in store.blocklist


def test_duplicate_is_inert():
    store = PolicyStore("repo-a")
    store.apply_update(upd(0))
    digest = store.content_digest()
    report = store.apply_update(upd(0))
    assert report.status is ApplyStatus.DUPLICATE
    assert report.consumed == ()
    assert store.version == 1
    assert store.content_digest() == digest


# one consumed package of each kind, each at seq 1 of its own origin and
# issued at tick 1, so that 1.0 and true are twins of its seq and tick
SCREENED = {
    UpdateKind.RULE_ADD: rule("r1", Effect.DENY, {"role": ["x", "y"]}),
    UpdateKind.RULE_REMOVE: "r1",
    UpdateKind.BLOCKLIST_ADD: "bad-host",
    UpdateKind.CONFIG_SET: ConfigSetting("mode", 1),
}


def _screened_store(kind):
    """A store that has consumed two packages of ``kind.value``; the
    second, returned with the store, is the package the screen is tried on."""
    store = PolicyStore("repo-a")
    for seq in (0, 1):
        package = upd(seq, kind, SCREENED[kind], origin=kind.value,
                      contexts=("work", "home"), tick=1)
        assert store.apply_update(package).status is ApplyStatus.APPLIED
    return store, package


def _assert_screened(store, wire):
    """The screen's answer on ``wire`` is None or a package that the full
    parse gives too, down to its JSON form."""
    hit = store.archived_copy(wire)
    if hit is not None:
        parsed = UpdatePackage.from_wire(wire)
        assert parsed == hit
        assert canonical_json(parsed.to_wire()) == canonical_json(hit.to_wire())
        assert hit is store.archive[hit.origin][hit.seq]


@settings(max_examples=400)
@given(st.sampled_from(sorted(SCREENED)), st.data())
def test_the_screen_admits_only_an_exact_copy(kind, data):
    """With any one field of a consumed package's wire replaced, at any
    depth, by any JSON value, or the whole wire replaced, the screen never
    raises and admits only a wire that parses to the archived package."""
    store, package = _screened_store(kind)
    wire = package.to_wire()
    assert store.archived_copy(wire) is package
    assert store.archived_copy(dict(wire)) is package
    path = data.draw(st.sampled_from([()] + list(field_paths(wire))))
    _assert_screened(store, replaced(wire, path, data.draw(JSON_VALUES)))


@pytest.mark.parametrize("kind", sorted(SCREENED))
@pytest.mark.parametrize("twin", [1.0, True])
def test_the_screen_refuses_a_number_twin(kind, twin):
    """``1.0`` and ``true`` equal ``1`` in Python but sign apart, so a
    wire that carries one for the seq, the issue tick or the config value
    is not taken as the archived package."""
    store, package = _screened_store(kind)
    wire = package.to_wire()
    paths = [("seq",), ("issuedTick",)]
    if kind is UpdateKind.CONFIG_SET:
        paths.append(("payload", "value"))
    for path in paths:
        assert field_at(wire, path) == 1
        assert store.archived_copy(replaced(wire, path, twin)) is None


def test_gap_buffers_until_filled():
    store = PolicyStore("repo-a")
    assert store.apply_update(upd(2, payload="h2")).status is ApplyStatus.BUFFERED
    assert store.apply_update(upd(1, payload="h1")).status is ApplyStatus.BUFFERED
    assert store.version == 0
    report = store.apply_update(upd(0, payload="h0"))
    assert report.status is ApplyStatus.APPLIED
    assert [(p.seq, reason) for p, reason in report.consumed] == [(0, None), (1, None), (2, None)]
    assert store.version == 3
    assert store._pending == {}


def test_independent_origins_have_independent_streams():
    store = PolicyStore("repo-a")
    store.apply_update(upd(0, origin="a"))
    assert store.apply_update(upd(1, origin="b")).status is ApplyStatus.BUFFERED
    store.apply_update(upd(0, origin="b", payload="x"))
    assert store.digest() == {"a": 0, "b": 1}


def test_filling_one_origins_gap_drains_only_that_origin():
    """Each origin has its own gap-buffer slot: filling one origin's gap
    drains that slot alone and leaves the other origin's packages pending."""
    store = PolicyStore("repo-a")
    for seq in (1, 2, 3):
        store.apply_update(upd(seq, origin="a", payload=f"a{seq}"))
    store.apply_update(upd(2, origin="b", payload="b2"))
    assert {origin: sorted(slot) for origin, slot in store._pending.items()} == {
        "a": [1, 2, 3], "b": [2]}
    report = store.apply_update(upd(0, origin="a", payload="a0"))
    assert [p.seq for p, _ in report.consumed] == [0, 1, 2, 3]
    assert {origin: sorted(slot) for origin, slot in store._pending.items()} == {"b": [2]}
    assert store.digest() == {"a": 3} and store.version == 4


def test_pending_buffer_capped():
    """A full gap buffer drops the package furthest ahead, which may be
    the one handed in, and the cell logs the drop as ``evicted``.  The
    lowest seqs stay, so a re-sent seq 0 drains the whole buffer."""
    events = []
    cell = Cell("keeper", ("work",), "echo", PolicyDocument(),
                trust_policy={"work": []},
                observer=lambda kind, detail: events.append((kind, detail)))
    cell.catalogue.upsert(CellProfile("org", frozenset({"work"}),
                                      frozenset({"echo"}), "echo", 50), 0)

    def ingest(seq):
        return cell.ingest_security_update(upd(seq, payload=f"h{seq}").to_wire(), "org")

    for seq in range(2, PENDING_CAP + 2):
        assert ingest(seq) is ApplyStatus.BUFFERED
    assert len(cell.store._pending["org"]) == PENDING_CAP
    assert ingest(PENDING_CAP + 2) is ApplyStatus.BUFFERED  # itself the furthest
    assert ingest(1) is ApplyStatus.BUFFERED
    evicted = [d for k, d in events if k == "update" and d["status"] == "evicted"]
    assert evicted == [
        {"origin": "org", "seq": PENDING_CAP + 2, "status": "evicted", "from": "org"},
        {"origin": "org", "seq": PENDING_CAP + 1, "status": "evicted", "from": "org"},
    ]
    assert len(cell.store._pending["org"]) == PENDING_CAP
    assert ingest(0) is ApplyStatus.APPLIED
    assert cell.store.digest()["org"] == PENDING_CAP
    assert cell.store._pending == {}


def test_blocklist_add_spans_all_package_contexts():
    store = PolicyStore("repo-a")
    store.apply_update(upd(0, contexts=("work", "home")))
    assert ("work", "bad-host") in store.blocklist
    assert ("home", "bad-host") in store.blocklist


def test_config_set_applied():
    store = PolicyStore("repo-a")
    store.apply_update(upd(0, UpdateKind.CONFIG_SET, ConfigSetting("mode", "strict")))
    assert store.config == {"mode": "strict"}


def test_rule_add_upserts_and_remove_discards():
    store = PolicyStore("repo-a")
    r1 = rule("r1", Effect.PERMIT, {})
    store.apply_update(upd(0, UpdateKind.RULE_ADD, r1))
    r1b = rule("r1", Effect.DENY, {})
    store.apply_update(upd(1, UpdateKind.RULE_ADD, r1b))
    assert store.rules["r1"].effect is Effect.DENY
    store.apply_update(upd(2, UpdateKind.RULE_REMOVE, "r1"))
    assert "r1" not in store.rules
    # removing a rule that is not there is still a consumed, applied package
    report = store.apply_update(upd(3, UpdateKind.RULE_REMOVE, "ghost"))
    assert report.status is ApplyStatus.APPLIED


# --- impact assessment ----------------------------------------------------


def _guarded_store():
    base = rule("allow-read", Effect.PERMIT, {}, action="read")
    return PolicyStore(
        "repo-a",
        rules=[base],
        regression=[pin(action="read", expected=Verdict.PERMIT, protected=True)],
    )


def test_protected_flip_rejected_and_seq_consumed():
    store = _guarded_store()
    digest = store.content_digest()
    breaker = rule("break", Effect.DENY, {}, action="read")
    report = store.apply_update(upd(0, UpdateKind.RULE_ADD, breaker))
    assert report.status is ApplyStatus.REJECTED
    ((package, reason),) = report.consumed
    assert package.seq == 0 and "protected" in reason
    assert store.content_digest() == digest
    assert store.version == 0
    assert store.digest() == {"org": 0}
    # the stream continues past the rejected seq
    ok = store.apply_update(upd(1))
    assert ok.status is ApplyStatus.APPLIED


def test_unprotected_flip_accepted_but_reported():
    base = rule("allow-read", Effect.PERMIT, {}, action="read")
    store = PolicyStore(
        "repo-a",
        rules=[base],
        regression=[pin(action="read", expected=Verdict.PERMIT, protected=False)],
    )
    breaker = rule("break", Effect.DENY, {}, action="read")
    assessment = assess_update_impact(
        store.rules, upd(0, UpdateKind.RULE_ADD, breaker), store.regression
    )
    assert assessment.blocking is None
    assert len(assessment.flipped) == 1
    report = store.apply_update(upd(0, UpdateKind.RULE_ADD, breaker))
    assert report.status is ApplyStatus.APPLIED


def test_non_rule_updates_skip_replay():
    store = _guarded_store()
    assessment = assess_update_impact(store.rules, upd(0), store.regression)
    assert assessment.blocking is None
    assert assessment.flipped == ()


def test_remove_that_flips_protected_case_rejected():
    store = _guarded_store()
    report = store.apply_update(upd(0, UpdateKind.RULE_REMOVE, "allow-read"))
    assert report.status is ApplyStatus.REJECTED
    assert "allow-read" in store.rules


def test_rejected_package_mid_drain_does_not_stop_the_drain():
    store = _guarded_store()
    breaker = rule("break", Effect.DENY, {}, action="read")
    store.apply_update(upd(1, UpdateKind.RULE_ADD, breaker))
    store.apply_update(upd(2, payload="after"))
    report = store.apply_update(upd(0, payload="before"))
    assert report.status is ApplyStatus.APPLIED
    assert [(p.seq, reason is None) for p, reason in report.consumed] == [
        (0, True), (1, False), (2, True)]
    assert "protected" in report.consumed[1][1]
    assert store.digest()["org"] == 2


# --- indexed evaluation and incremental impact against the oracles --------

_IDS = ("r0", "r1", "r2")
_CONTEXTS = ("work", "home")

_rules = st.builds(
    rule,
    rid=st.sampled_from(_IDS),
    effect=st.sampled_from(Effect),
    cond=st.fixed_dictionaries({}, optional={
        "role": st.lists(st.sampled_from(("admin", "user")), min_size=1, unique=True),
        "dept": st.lists(st.sampled_from(("eng", "ops")), min_size=1, unique=True),
    }),
    action=st.sampled_from(("read", "mgmt:x", "*")),
    resource=st.sampled_from(("repo-a", "repo-*", "*")),
    contexts=st.lists(st.sampled_from(_CONTEXTS), min_size=1, unique=True),
)

_RESOURCES = ("repo-a", "repo-b", "log")
_REQUESTS = tuple(
    DecisionRequest(frozenset(attrs), action, resource, context, 0)
    for attrs in (
        (),
        (AttributePair("role", "admin"),),
        (AttributePair("role", "user"), AttributePair("dept", "eng")),
        (AttributePair("role", "admin"), AttributePair("role", "user"),
         AttributePair("dept", "ops")),
        (AttributePair("dept", "eng"), AttributePair("dept", "ops")),
    )
    for action in ("read", "write", "mgmt:x", "*")
    for resource in _RESOURCES
    for context in _CONTEXTS + ("lab",)
)


def _rule_package(seq, change):
    """A RuleAdd for a rule, a RuleRemove for a rule id."""
    if isinstance(change, PolicyRule):
        return upd(seq, UpdateKind.RULE_ADD, change)
    return upd(seq, UpdateKind.RULE_REMOVE, change)


def _check_against_the_oracle(stores, model, requests):
    """Each request's pool, read from the store of its resource in
    ``stores``, holds, once each and current, exactly the rules of its
    context that match it under the oracle, on action, resource and
    subject, and evaluating the pool gives the oracle's decision over the
    context."""
    for request in requests:
        scoped = [r for r in model.values() if request.context in r.contexts]
        pool = stores[request.resource_id].candidates(request)
        expected = [r.id for r in scoped if naive_rule_matches(r, request)]
        assert sorted(r.id for r in pool) == sorted(expected), request
        assert all(model[r.id] == r for r in pool), request
        decision = evaluate_request(pool, request)
        assert decision.verdict.value == naive_evaluate(scoped, request), request
        assert decision.matched_rule_ids == naive_cited_ids(scoped, request), request


def _check_masks(store, model):
    """The store keeps every live rule, but a live rule whose pattern misses
    the store's resource has no flag in any bucket.  Each bucket holds
    exactly the live rules of its (context, action) on that resource, and
    each mask exactly the flags of those that belong there: ``_live`` all
    of them, ``_constrains[name]`` those with an atom on ``name`` and
    ``_allows[name][value]`` those whose atom admits ``value``.  No emptied
    bucket, name or value is left."""
    assert store.rules == model
    on_resource = {}
    for rid, r in model.items():
        if naive_resource_matches(r.resource, store.resource):
            on_resource[rid] = r
        else:
            assert all(rid not in bucket._flags for bucket in store._index.values()), rid
    assert set(store._index) == {(c, r.action) for r in on_resource.values() for c in r.contexts}
    for (context, action), bucket in store._index.items():
        rules = {r.id: r for r in on_resource.values()
                 if context in r.contexts and r.action == action}
        order = bucket._order
        assert {rid: order[flag] for rid, flag in bucket._flags.items()} == rules
        assert len(order) == len(rules) and not set(bucket._free) & set(order)

        def ids(mask):
            assert mask & ~sum(order) == 0  # no bit of a freed flag
            return {rule.id for flag, rule in order.items() if mask & flag}

        constrains, allows = {}, {}
        for r in rules.values():
            for name, values in r.subject.atoms:
                constrains.setdefault(name, set()).add(r.id)
                for value in values:
                    allows.setdefault(name, {}).setdefault(value, set()).add(r.id)
        assert ids(bucket._live) == set(rules)
        assert {name: ids(mask) for name, mask in bucket._constrains.items()} == constrains
        assert {name: {value: ids(mask) for value, mask in by.items()}
                for name, by in bucket._allows.items()} == allows


@given(steps=st.lists(st.one_of(_rules, st.sampled_from(_IDS)), max_size=8))
# a replace that moves a rule to another action and context
@example(steps=[
    rule("r0", Effect.DENY, {}, action="read", contexts=("work",)),
    rule("r0", Effect.PERMIT, {"role": ["admin"]}, action="*", contexts=("home",)),
])
# a replace that moves a rule to another action in the same context, then
# removes that empty the (work, read) and (work, *) buckets
@example(steps=[
    rule("r0", Effect.PERMIT, {"role": ["admin"]}, action="read"),
    rule("r1", Effect.DENY, {"dept": ["eng", "ops"]}, action="read"),
    rule("r2", Effect.PERMIT, {}, action="*"),
    rule("r0", Effect.PERMIT, {"role": ["admin"]}, action="mgmt:x"),
    "r1",
    "r2",
])
# a rule removed after a read frees its bit, and a new rule in the same
# bucket takes it
@example(steps=[
    rule("r0", Effect.PERMIT, {"role": ["admin"]}),
    rule("r1", Effect.DENY, {"dept": ["eng"]}, resource="*"),
    "r0",
    rule("r2", Effect.DENY, {"role": ["user"], "dept": ["ops"]}, resource="repo-a"),
])
# rules on one resource id, on a prefix and on every id, read from every
# resource's store after each write, so each write must set or clear its
# rule's bit in exactly the stores whose resource its pattern matches
@example(steps=[
    rule("r0", Effect.PERMIT, {}, resource="repo-a"),
    rule("r1", Effect.DENY, {"role": ["user"]}, resource="*"),
    rule("r2", Effect.PERMIT, {"role": ["user"]}, resource="repo-*"),
    "r1",
    rule("r0", Effect.DENY, {}, resource="*"),
])
# two rules removed free two flags of one bucket, which the next two rules
# there take in reverse order, so the store read only after the last step
# meets masks in which two flags were cleared and set again
@example(steps=[
    rule("r0", Effect.PERMIT, {"role": ["admin"]}),
    rule("r1", Effect.DENY, {"dept": ["eng"]}, resource="*", contexts=("work", "home")),
    rule("r2", Effect.PERMIT, {}, resource="repo-a"),
    "r0",
    "r1",
    rule("r0", Effect.DENY, {"role": ["user"]}, resource="*"),
    rule("r1", Effect.PERMIT, {"dept": ["ops"]}, resource="repo-a", contexts=("work", "home")),
])
def test_indexed_decisions_match_the_oracle(steps):
    """Each resource of the requests has one store that is read after every
    step and a second that takes the same writes and is read only after
    the last, so its buckets first meet a read with the masks that every
    put and drop before it left.  After each write, every store's masks
    hold exactly the flags of the live rules on its resource."""
    stores = {res: PolicyStore(res) for res in _RESOURCES}
    unread = {res: PolicyStore(res) for res in _RESOURCES}
    model = {}
    for seq, change in enumerate(steps):
        for target in (*stores.values(), *unread.values()):
            assert target.apply_update(_rule_package(seq, change)).status is ApplyStatus.APPLIED
        if isinstance(change, PolicyRule):
            model[change.id] = change
        else:
            model.pop(change, None)
        for target in (*stores.values(), *unread.values()):
            _check_masks(target, model)
        _check_against_the_oracle(stores, model, _REQUESTS)
    _check_against_the_oracle(unread, model, _REQUESTS)


def test_matcher_over_a_bucket_wider_than_two_machine_words():
    """140 rules on every resource in one (context, action) bucket, and 10
    more on ``log`` alone, which the ``repo-a`` store leaves out, so the
    selected bits of both stores run past 128; requests carry two values
    of one attribute, or none of an attribute the rules constrain."""
    roles, depts, levels = ("admin", "user", "ops"), ("eng", "ops", "hr", "sales"), ("l1", "l2")
    shapes = (
        lambda i: {},
        lambda i: {"role": [roles[i % 3]]},
        lambda i: {"role": [roles[i % 3]], "dept": [depts[i % 4]]},
        lambda i: {"dept": [depts[i % 4], depts[(i + 1) % 4]]},
        lambda i: {"level": [levels[i % 2]], "role": [roles[(i + 1) % 3]]},
    )
    model = {}
    for i in range(150):
        effect = Effect.DENY if i % 7 == 3 else Effect.PERMIT
        added = rule(f"r{i}", effect, shapes[i % 5](i), resource="*" if i < 140 else "log")
        model[added.id] = added
    stores = {res: PolicyStore(res, model.values()) for res in ("repo-a", "log")}
    requests = [
        DecisionRequest(frozenset(AttributePair(n, v) for n, v in attrs), "read", resource,
                        "work", 0)
        for resource in stores
        for attrs in (
            (),
            (("role", "admin"),),
            (("role", "admin"), ("role", "user")),
            (("role", "user"), ("role", "ops"), ("dept", "hr")),
            (("dept", "eng"), ("dept", "sales")),
            (("level", "l2"), ("role", "admin"), ("role", "ops")),
            (("role", "guest"), ("dept", "eng"), ("level", "l1")),
        )
    ]
    late = {f"r{i}" for i in range(128, 140)}
    for store in stores.values():
        _check_masks(store, model)
        assert any(late & {r.id for r in store.candidates(request)} for request in requests
                   if request.resource_id == store.resource)
    _check_against_the_oracle(stores, model, requests)
    for seq, gone in enumerate(sorted(model)[::3]):
        for store in stores.values():
            store.apply_update(upd(seq, UpdateKind.RULE_REMOVE, gone))
        del model[gone]
    for store in stores.values():
        _check_masks(store, model)
    _check_against_the_oracle(stores, model, requests)


def test_read_right_after_a_write_to_the_same_bucket_sees_it():
    """Each read equals the oracle's pool: the rules that match the request
    on action, resource and subject, among those the last write left."""
    model = {"r0": rule("r0", Effect.PERMIT, {"role": ["admin"]})}
    store = PolicyStore("repo-a", model.values())
    request = DecisionRequest(
        frozenset({AttributePair("role", "admin")}), "read", "repo-a", "work", 0
    )

    def pool_ids():
        pool = sorted(r.id for r in store.candidates(request))
        assert pool == sorted(r.id for r in model.values() if naive_rule_matches(r, request))
        return pool

    assert pool_ids() == ["r0"]
    writes = [
        rule("r1", Effect.DENY, {"role": ["admin"]}),
        rule("r2", Effect.DENY, {"role": ["admin"]}, resource="log"),
        rule("r0", Effect.PERMIT, {"role": ["user"]}),
        "r1",
    ]
    pools = []
    for seq, change in enumerate(writes):
        store.apply_update(_rule_package(seq, change))
        if isinstance(change, PolicyRule):
            model[change.id] = change
        else:
            del model[change]
        pools.append(pool_ids())
    assert pools == [["r0", "r1"], ["r0", "r1"], ["r1"], []]


def test_rule_churn_keeps_the_bucket_within_its_live_rules():
    """2,000 fresh rule ids come into one bucket and leave it again, with
    a read between writes; each rule names a fresh user and a shared one.
    Each of ``repo-a`` and ``log`` has a store that is read and one that
    takes the same writes and is never read.  Every read, from the store
    of the request's resource, equals the oracle; after each write, before
    the reads that follow it, a read store's bit space, free bits
    included, never exceeds the peak count of live rules on its resource,
    and every store's masks hold exactly the flags of those rules; and a
    read moves no rule's flag."""
    rng = random.Random(7)
    keep = rule("keep", Effect.PERMIT, {"dept": ["eng"]}, resource="*")
    model = {keep.id: keep}
    stores = {res: PolicyStore(res, model.values()) for res in ("repo-a", "log")}
    unread = {res: PolicyStore(res, model.values()) for res in stores}
    requests = [
        DecisionRequest(frozenset({AttributePair("user", user), AttributePair("dept", "eng")}),
                        "read", resource, "work", 0)
        for user in ("u1", "u2")
        for resource in stores
    ]
    resources = ("repo-a", "repo-*", "log", "*")
    fresh, seq, peak = iter(range(2000)), 0, dict.fromkeys(stores, 0)
    while True:
        live = [rid for rid in model if rid != keep.id]
        adding = len(live) < 2 or (len(live) < 16 and rng.random() < 0.5)
        i = next(fresh, None) if adding else None
        if i is None and not live:
            break
        if i is not None:
            change = rule(f"n{i}", rng.choice(list(Effect)),
                          {"user": [f"u{i}", f"u{i % 4}"], "dept": ["eng"]} if i % 3 else {},
                          resource=resources[i % 4])
            model[change.id] = change
        else:
            change = live[rng.randrange(len(live))]
            del model[change]
        for target in (*stores.values(), *unread.values()):
            target.apply_update(_rule_package(seq, change))
            _check_masks(target, model)
        seq += 1
        flags = {}
        for res, store in stores.items():
            peak[res] = max(peak[res], sum(naive_resource_matches(r.resource, res)
                                           for r in model.values()))
            bucket = store._index["work", "read"]
            flags[res] = dict(bucket._flags)
            bits = sorted(flag.bit_length() - 1
                          for flag in [*flags[res].values(), *bucket._free])
            assert bits == list(range(len(bits)))
            assert len(bits) <= peak[res]
        for request in requests:
            pool = sorted(r.id for r in stores[request.resource_id].candidates(request))
            assert pool == sorted(r.id for r in model.values() if naive_rule_matches(r, request))
        assert {res: store._index["work", "read"]._flags for res, store in stores.items()} == flags
    assert seq == 4000


# a pinned request, and a rule change per branch of the impact check, as
# (rules before, change, governance.evaluate_request calls for the case):
# (a) the case's only matching Deny rule goes while a Permit rule still
# matches, so the case is replayed again without it; (b) a matching Deny
# rule is added over a Permit; (c) the only matching Permit rule goes; (d)
# a matching rule is replaced under its id by one of the opposite effect
_ADMIN_READ = DecisionRequest(
    frozenset({AttributePair("role", "admin")}), "read", "repo-a", "work", 0)
_BRANCHES = {
    "a": ([rule("r0", Effect.DENY, {"role": ["admin"]}), rule("r1", Effect.PERMIT, {})],
          "r0", 2),
    "b": ([rule("r0", Effect.PERMIT, {})], rule("r1", Effect.DENY, {"role": ["admin"]}), 1),
    "c": ([rule("r0", Effect.PERMIT, {}), rule("r1", Effect.DENY, {"role": ["user"]})],
          "r0", 1),
    "d": ([rule("r0", Effect.DENY, {"role": ["admin"]})],
          rule("r0", Effect.PERMIT, {"role": ["admin"]}), 1),
}


def _branch_example(name):
    seeded, change, _ = _BRANCHES[name]
    return example(seeded=seeded, change=change,
                   regression=[RegressionCase(_ADMIN_READ, Verdict.PERMIT, protected=True)])


@given(
    seeded=st.lists(_rules, max_size=3, unique_by=lambda r: r.id),
    change=st.one_of(_rules, st.sampled_from(_IDS)),
    regression=st.lists(
        st.builds(
            RegressionCase,
            request=st.sampled_from(_REQUESTS),
            expected=st.sampled_from((Verdict.PERMIT, Verdict.DENY, Verdict.NOT_APPLICABLE)),
            protected=st.booleans(),
        ),
        max_size=6,
    ),
)
@_branch_example("a")
@_branch_example("b")
@_branch_example("c")
@_branch_example("d")
def test_incremental_impact_matches_a_full_replay(seeded, change, regression):
    rules = {r.id: r for r in seeded}
    package = _rule_package(0, change)
    assessment = assess_update_impact(rules, package, regression)
    flipped, blocking = naive_assess_impact(rules, package, regression)
    assert assessment.flipped == flipped
    assert assessment.blocking == blocking


@pytest.mark.parametrize("branch", sorted(_BRANCHES))
def test_impact_check_replays_a_matched_case_once_unless_its_one_deny_goes(
        monkeypatch, branch):
    """Each case the change matches is replayed once over the rules before
    it, and a second time only when its one cited Deny rule goes; a case
    the change does not match is not replayed at all."""
    seeded, change, replays = _BRANCHES[branch]
    replayed = []
    monkeypatch.setattr(governance, "evaluate_request",
                        lambda rules, request: replayed.append(request)
                        or evaluate_request(rules, request))
    elsewhere = DecisionRequest(_ADMIN_READ.subject_attrs, "read", "repo-a", "home", 0)
    cases = [RegressionCase(request, Verdict.PERMIT) for request in (elsewhere, _ADMIN_READ)]
    assessment = assess_update_impact({r.id: r for r in seeded}, _rule_package(0, change), cases)
    assert assessment.flipped == (cases[1],)
    assert replayed == [_ADMIN_READ] * replays


def test_impact_check_groups_each_case_attributes_once(monkeypatch):
    """A change that matches no pinned case replays none of them and
    groups each case's subject attributes once, not once per changed rule;
    a later assessment against the same cases groups none of them again."""
    grouped = []
    group_attrs = policy.group_attrs
    monkeypatch.setattr(
        policy, "group_attrs", lambda attrs: grouped.append(attrs) or group_attrs(attrs))
    old = rule("r0", Effect.PERMIT, {"role": ["admin"]})
    new = rule("r0", Effect.DENY, {"role": ["admin"]}, action="write")
    cases = [
        RegressionCase(
            DecisionRequest(frozenset({AttributePair("role", role)}), "read", "repo-a", "work", 0),
            Verdict.NOT_APPLICABLE,
        )
        for role in ("user", "guest", "ops")
    ]
    assessment = assess_update_impact({"r0": old}, _rule_package(0, new), cases)
    assert assessment.flipped == () and assessment.blocking is None
    assert len(grouped) == len(cases)
    assessment = assess_update_impact({"r0": old}, _rule_package(1, new), cases)
    assert assessment.flipped == () and assessment.blocking is None
    assert len(grouped) == len(cases)


# --- archive and digests --------------------------------------------------


def test_archive_keeps_rejected_packages():
    store = _guarded_store()
    breaker = rule("break", Effect.DENY, {}, action="read")
    store.apply_update(upd(0, UpdateKind.RULE_ADD, breaker))
    assert [p.payload for p in store.archive["org"]] == [breaker]


def test_digest_is_per_origin_high_water():
    store = PolicyStore("repo-a")
    store.apply_update(upd(0, origin="a"))
    store.apply_update(upd(0, origin="b", payload="x"))
    store.apply_update(upd(1, origin="b", payload="y"))
    assert store.digest() == {"a": 0, "b": 1}


@given(
    streams=st.dictionaries(
        st.sampled_from(("a", "b", "c")),
        st.lists(st.booleans(), min_size=1, max_size=5),
        max_size=3,
    ),
    marks=st.dictionaries(st.sampled_from(("a", "b", "c", "d")), st.integers(-3, 7)),
)
def test_digest_reply_matches_the_oracle(streams, marks):
    """Per origin a stream of packages, each one the pinned case either
    accepts (False) or rejects (True); the reply to any digest equals the
    oracle's filter over everything the store consumed."""
    guarded = _guarded_store()
    cell = Cell("keeper", ("work",), "echo",
                PolicyDocument(rules=tuple(guarded.rules.values()),
                               regression=guarded.regression),
                trust_policy={"work": []})
    cell.catalogue.upsert(CellProfile("p1", frozenset({"work"}),
                                      frozenset({"echo"}), "echo", 50), 0)
    breaker = rule("break", Effect.DENY, {}, action="read")
    fed = []
    for origin, rejects in sorted(streams.items()):
        for seq, reject in enumerate(rejects):
            package = (upd(seq, UpdateKind.RULE_ADD, breaker, origin=origin) if reject
                       else upd(seq, payload=f"h{seq}", origin=origin))
            status = cell.store.apply_update(package).status
            assert status is (ApplyStatus.REJECTED if reject else ApplyStatus.APPLIED)
            fed.append(package)
    cell.handle_envelope("digest", "p1", {"applied": marks}, 5)
    replies = [m.body["packages"] for m in cell.take_outbox() if m.kind == "digest-reply"]
    expected = naive_digest_reply(fed, marks)
    assert replies == ([expected] if expected else [])


# --- conflict detection ---------------------------------------------------

SPEC = DomainSpec(
    domains={"role": ("admin", "user"), "dept": ("eng", "ops")},
    actions=("read", "write"),
    resources=("repo-a", "repo-b", "log-x"),
    contexts=("work", "home"),
)


def test_conflict_found_with_valid_witness():
    rules = [
        rule("allow", Effect.PERMIT, {"role": ["admin", "user"]}),
        rule("block", Effect.DENY, {"role": ["user"]}, resource="repo-a"),
    ]
    reports = detect_conflicts(rules, SPEC)
    assert [(r.permit_rule_id, r.deny_rule_id) for r in reports] == [("allow", "block")]
    witness = reports[0].witness
    assert all(naive_rule_matches(r, witness) for r in rules)
    # smallest feasible values are picked, at tick 0
    assert witness == DecisionRequest(
        frozenset({AttributePair("role", "user")}), "read", "repo-a", "work", 0)


def test_no_conflict_when_any_component_is_disjoint():
    permit = rule("allow", Effect.PERMIT, {"role": ["admin"]})
    for deny in (
        rule("d1", Effect.DENY, {"role": ["user"]}),
        rule("d2", Effect.DENY, {}, contexts=("home",)),
        rule("d3", Effect.DENY, {}, action="write"),
        rule("d4", Effect.DENY, {}, resource="log-x"),
    ):
        assert detect_conflicts([permit, deny], SPEC) == []


def test_same_effect_pairs_never_conflict():
    rules = [rule("a", Effect.DENY, {}), rule("b", Effect.DENY, {})]
    assert detect_conflicts(rules, SPEC) == []


def test_unknown_attribute_domain_raises():
    rules = [rule("a", Effect.PERMIT, {"clearance": ["high"]})]
    with pytest.raises(UnknownAttributeDomain):
        detect_conflicts(rules, SPEC)


def test_value_outside_domain_cannot_witness():
    rules = [
        rule("allow", Effect.PERMIT, {"role": ["root"]}),
        rule("block", Effect.DENY, {"role": ["root"]}),
    ]
    # 'root' is a legal token but not in the declared universe
    assert detect_conflicts(rules, SPEC) == []


def test_conflicts_match_enumeration_on_small_pool():
    pool = [
        rule("t1", Effect.PERMIT, {}, action="read", resource="repo-*"),
        rule("t2", Effect.DENY, {"dept": ["eng"]}, resource="repo-a"),
        rule("t3", Effect.PERMIT, {"role": ["admin"]}, action="*", resource="*",
             contexts=("work", "home")),
        rule("t4", Effect.DENY, {}, action="write", resource="log-x",
             contexts=("home",)),
        rule("t5", Effect.PERMIT, {"dept": ["ops"]}, action="write",
             resource="repo-b"),
        rule("t6", Effect.DENY, {"role": ["user"]}, action="*", resource="repo-*",
             contexts=("home",)),
    ]
    for size in (2, 3):
        for combo in itertools.combinations(pool, size):
            got = {
                (r.permit_rule_id, r.deny_rule_id)
                for r in detect_conflicts(list(combo), SPEC)
            }
            assert got == enumerate_conflicts(list(combo), SPEC)
