"""Attribute-based policy evaluation with delegation.

A request carries a set of subject attributes; rules constrain attributes,
action, resource, and the context the request arrives in.  Evaluation is
closed-world (an attribute a rule asks about must be present on the
request) and reads the rules in one pass: each matching rule's id goes on
a Deny or a Permit list, the lists combine deny-overrides as in XACML 3.0,
and the decision cites the winning list sorted.  A repeated rule id raises
``DuplicateRuleId`` naming the first repeat.  A rule builds its match test
once, at construction, and a request groups its attributes once.

Delegation lets a principal that holds an attribute pass it on, budgeted
by a hop depth.  ``expand_delegations`` computes the transitive closure a
subject can claim inside one context.

Tokens are deliberately lightweight: the "signature" is a digest over the
claims keyed by the issuer id.  That gives tamper evidence inside the
simulator without dragging in real key management.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadSignature,
    DuplicateRuleId,
    Expired,
    ParseError,
    PolicyError,
    UntrustedIssuer,
)
from .wire import field, is_str_list, member, no_other_fields, objects, string_lists, strings

TOKEN_RE = re.compile(r"[a-z0-9_:-]+\Z")

WILDCARD = "*"

# the fields each policy-file object may hold; any other is refused
_RULE_FIELDS = frozenset({"id", "effect", "subject", "action", "resource", "contexts"})
_REQUEST_FIELDS = frozenset({"subjectAttrs", "action", "resourceId", "context", "tick"})
_CASE_FIELDS = frozenset({"request", "expected", "protected"})
_DOCUMENT_FIELDS = frozenset({"rules", "delegations", "roots", "trustedIssuers", "regression"})


def _check_token(value: str, what: str) -> str:
    if value != WILDCARD and not TOKEN_RE.match(value):
        raise PolicyError(f"bad {what}: {value!r}")
    return value


class Effect(str, Enum):
    PERMIT = "Permit"
    DENY = "Deny"


class Verdict(str, Enum):
    PERMIT = "Permit"
    DENY = "Deny"
    NOT_APPLICABLE = "NotApplicable"
    INDETERMINATE = "Indeterminate"


class AttributePair(NamedTuple("_Pair", [("name", str), ("value", str)])):
    """A validated ``(name, value)`` tuple: it equals, hashes and orders as
    the plain tuple ``(name, value)``."""

    __slots__ = ()

    def __new__(cls, name: str, value: str) -> "AttributePair":
        return tuple.__new__(cls, (_check_token(name, "attribute name"),
                                   _check_token(value, "attribute value")))

    def to_wire(self) -> dict[str, str]:
        return {"name": self.name, "value": self.value}

    @classmethod
    def from_wire(cls, data: Any) -> "AttributePair":
        return cls(name=field(data, "name", "attribute", str),
                   value=field(data, "value", "attribute", str))


@dataclass(frozen=True)
class Condition:
    """Conjunction of per-attribute value-set constraints.

    Empty condition matches every subject.
    """

    atoms: tuple[tuple[str, frozenset[str]], ...] = ()

    def __post_init__(self) -> None:
        names = [name for name, _ in self.atoms]
        if len(names) != len(set(names)):
            raise PolicyError(f"duplicate attribute in condition: {names}")
        for name, values in self.atoms:
            _check_token(name, "attribute name")
            if not values:
                raise PolicyError(f"empty value set for attribute {name!r}")
            for value in values:
                _check_token(value, "attribute value")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, list[str]]) -> "Condition":
        """A condition from its wire form, each name mapped to a list of
        string values; any other collection, a string above all, is refused."""
        if not all(map(is_str_list, mapping.values())):
            raise ParseError(f"condition values must be lists of strings: {mapping!r}")
        atoms = tuple(sorted((name, frozenset(vals)) for name, vals in mapping.items()))
        return cls(atoms)

    def to_wire(self) -> dict[str, list[str]]:
        return {name: sorted(values) for name, values in self.atoms}


def group_attrs(attrs: Iterable[AttributePair]) -> dict[str, set[str]]:
    """Attribute values by name, built once per evaluation."""
    grouped: dict[str, set[str]] = {}
    for pair in attrs:
        grouped.setdefault(pair.name, set()).add(pair.value)
    return grouped


def attrs_to_wire(attrs: frozenset[AttributePair]) -> dict[str, list[str]]:
    return {name: sorted(values) for name, values in sorted(group_attrs(attrs).items())}


def attrs_from_wire(data: Mapping[str, Iterable[str]]) -> frozenset[AttributePair]:
    return frozenset(AttributePair(name, v) for name, vals in data.items() for v in vals)


@dataclass(frozen=True)
class PolicyRule:
    id: str
    effect: Effect
    subject: Condition
    action: str
    resource: str
    contexts: frozenset[str]

    def __post_init__(self) -> None:
        _check_token(self.id, "rule id")
        _check_token(self.action, "action")
        if not self.contexts:
            raise PolicyError(f"rule {self.id!r} has no contexts")
        for ctx in self.contexts:
            _check_token(ctx, "context")
        # a resource is an exact id or a prefix ending in '*'; '*' alone is fine
        body = self.resource[:-1] if self.resource.endswith(WILDCARD) else self.resource
        if body and not TOKEN_RE.match(body):
            raise PolicyError(f"bad resource pattern: {self.resource!r}")
        # the match test, built once: the prefix is None for an exact resource
        object.__setattr__(self, "_match", (
            self.contexts, self.action, self.resource, None if body == self.resource else body,
            self.subject.atoms, self.effect is Effect.DENY, self.id))

    def resource_matches(self, resource_id: str) -> bool:
        prefix = self._match[3]
        return resource_id == self.resource if prefix is None else resource_id.startswith(prefix)

    def to_wire(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "effect": self.effect.value,
            "subject": self.subject.to_wire(),
            "action": self.action,
            "resource": self.resource,
            "contexts": sorted(self.contexts),
        }

    @classmethod
    def from_wire(cls, data: Any) -> "PolicyRule":
        no_other_fields(data, _RULE_FIELDS, "rule")
        return cls(
            id=field(data, "id", "rule", str),
            effect=member(Effect, data, "effect", "rule"),
            subject=Condition.from_mapping(field(data, "subject", "rule", dict, {})),
            action=field(data, "action", "rule", str),
            resource=field(data, "resource", "rule", str),
            contexts=frozenset(strings(data, "contexts", "rule")),
        )


@dataclass(frozen=True)
class DelegationAssertion:
    """issuer passes ``attr`` to subject with a remaining-hop budget."""

    issuer: str
    subject: str
    attr: AttributePair
    depth: int
    contexts: frozenset[str]

    def __post_init__(self) -> None:
        _check_token(self.issuer, "issuer")
        _check_token(self.subject, "subject")
        if self.issuer == self.subject:
            raise PolicyError(f"self-delegation by {self.issuer!r}")
        if self.depth < 0:
            raise PolicyError(f"negative delegation depth: {self.depth}")
        if not self.contexts:
            raise PolicyError("delegation with no contexts")
        for ctx in self.contexts:
            _check_token(ctx, "context")

    @classmethod
    def from_wire(cls, data: Any) -> "DelegationAssertion":
        return cls(
            issuer=field(data, "issuer", "delegation", str),
            subject=field(data, "subject", "delegation", str),
            attr=AttributePair.from_wire(field(data, "attr", "delegation", dict)),
            depth=field(data, "depth", "delegation", int),
            contexts=frozenset(strings(data, "contexts", "delegation")),
        )


@dataclass(frozen=True)
class RootGrant:
    """Axiomatic attribute holding: the start of a delegation chain."""

    principal: str
    attr: AttributePair
    depth: int

    def __post_init__(self) -> None:
        _check_token(self.principal, "principal")
        if self.depth < 0:
            raise PolicyError(f"negative root depth: {self.depth}")

    @classmethod
    def from_wire(cls, data: Any) -> "RootGrant":
        return cls(
            principal=field(data, "principal", "root", str),
            attr=AttributePair.from_wire(field(data, "attr", "root", dict)),
            depth=field(data, "depth", "root", int),
        )


def expand_delegations(
    subject: str,
    base_attrs: frozenset[AttributePair],
    assertions: Sequence[DelegationAssertion],
    roots: Sequence[RootGrant],
    context: str,
) -> frozenset[AttributePair]:
    """All attributes ``subject`` can claim in ``context``.

    Each (principal, attr) holding carries a remaining-hop depth; a root
    grant seeds it, and an assertion extends it to the assertion's subject
    with depth ``min(assertion.depth, issuer_depth - 1)`` provided the
    issuer has depth left.  The worklist keeps the max depth seen per
    holding, so termination is immediate (depths never grow past their
    seed) and the result is independent of iteration order.
    """
    in_ctx = [a for a in assertions if context in a.contexts]
    best: dict[tuple[str, AttributePair], int] = {}
    work: list[tuple[str, AttributePair]] = []
    for grant in roots:
        key = (grant.principal, grant.attr)
        if best.get(key, -1) < grant.depth:
            best[key] = grant.depth
            work.append(key)
    while work:
        principal, attr = work.pop()
        depth = best[(principal, attr)]
        if depth <= 0:
            continue
        for assertion in in_ctx:
            if assertion.issuer != principal or assertion.attr != attr:
                continue
            candidate = min(assertion.depth, depth - 1)
            key = (assertion.subject, attr)
            if best.get(key, -1) < candidate:
                best[key] = candidate
                work.append(key)
    gained = frozenset(attr for (who, attr), _ in best.items() if who == subject)
    return base_attrs | gained


# the encoder json.dumps would build on every call with these arguments,
# less the cycle check: what it encodes is parsed JSON or built from it,
# which cannot be cyclic
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(value: Any) -> str:
    return _CANONICAL.encode(value)


def sign_payload(key: str, payload: Any) -> str:
    """Deterministic digest standing in for a real signature."""
    material = key + "|" + canonical_json(payload)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Token:
    subject: str
    claims: frozenset[AttributePair]
    issuer: str
    expiry_tick: int
    signature: str

    def __post_init__(self) -> None:
        _check_token(self.subject, "subject")
        _check_token(self.issuer, "issuer")
        if not self.claims:
            raise PolicyError("token with no claims")

    def body(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "claims": [c.to_wire() for c in sorted(self.claims)],
            "issuer": self.issuer,
            "expiryTick": self.expiry_tick,
        }

    def to_wire(self) -> dict[str, Any]:
        wire = self.body()
        wire["sig"] = self.signature
        return wire

    @classmethod
    def from_wire(cls, data: Any) -> "Token":
        return cls(
            subject=field(data, "subject", "token", str),
            claims=frozenset(
                AttributePair.from_wire(c) for c in field(data, "claims", "token", list)),
            issuer=field(data, "issuer", "token", str),
            expiry_tick=field(data, "expiryTick", "token", int),
            signature=field(data, "sig", "token", str),
        )


def issue_token(
    subject: str,
    claims: Iterable[AttributePair],
    issuer: str,
    expiry_tick: int,
) -> Token:
    unsigned = Token(subject, frozenset(claims), issuer, expiry_tick, signature="")
    return replace(unsigned, signature=sign_payload(issuer, unsigned.body()))


def verify_token(token: Token, trusted_issuers: Iterable[str], now: int) -> frozenset[AttributePair]:
    """Checks issuer trust, expiry, then signature; returns the claims."""
    if token.issuer not in set(trusted_issuers):
        raise UntrustedIssuer(f"issuer {token.issuer!r} not trusted")
    if not token.expiry_tick > now:
        raise Expired(f"token expired at tick {token.expiry_tick}, now {now}")
    if token.signature != sign_payload(token.issuer, token.body()):
        raise BadSignature(f"token signature mismatch for subject {token.subject!r}")
    return token.claims


@dataclass(frozen=True)
class DecisionRequest:
    subject_attrs: frozenset[AttributePair]
    action: str
    resource_id: str
    context: str
    tick: int

    @cached_property
    def grouped(self) -> dict[str, set[str]]:
        """Subject attributes by name, grouped on first read; shared, so never changed."""
        return group_attrs(self.subject_attrs)

    def to_wire(self) -> dict[str, Any]:
        return {
            "subjectAttrs": attrs_to_wire(self.subject_attrs),
            "action": self.action,
            "resourceId": self.resource_id,
            "context": self.context,
            "tick": self.tick,
        }

    @classmethod
    def from_wire(cls, data: Any) -> "DecisionRequest":
        no_other_fields(data, _REQUEST_FIELDS, "request")
        return cls(
            subject_attrs=attrs_from_wire(string_lists(data, "subjectAttrs", "request", {})),
            action=field(data, "action", "request", str),
            resource_id=field(data, "resourceId", "request", str),
            context=field(data, "context", "request", str),
            tick=field(data, "tick", "request", int, 0),
        )


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    reason: str
    matched_rule_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict is Verdict.INDETERMINATE and not self.reason:
            raise PolicyError("indeterminate decision needs a reason")
        if self.verdict is Verdict.NOT_APPLICABLE and self.matched_rule_ids:
            raise PolicyError("not-applicable decision cannot cite rules")

    def to_wire(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict.value,
            "reason": self.reason,
            "matchedRuleIds": list(self.matched_rule_ids),
        }


def matching_rule_ids(rules: Iterable[PolicyRule],
                      request: DecisionRequest) -> tuple[list[str], list[str]]:
    """The ids of the rules matching ``request``, in input order, as (Deny
    ids, Permit ids).  A rule matches in one of its contexts, on its action
    or ``*``, on its resource or a ``*``-ended prefix of it, and when every
    attribute its condition names has an allowed value on the request."""
    context, action, resource = request.context, request.action, request.resource_id
    grouped = request.grouped
    deny: list[str] = []
    permit: list[str] = []
    for rule in rules:
        contexts, rule_action, pattern, prefix, atoms, is_deny, rule_id = rule._match
        if (context not in contexts
                or (rule_action != action and rule_action != WILDCARD)
                or (resource != pattern and (prefix is None or not resource.startswith(prefix)))):
            continue
        for name, allowed in atoms:
            if allowed.isdisjoint(grouped.get(name, ())):
                break
        else:
            (deny if is_deny else permit).append(rule_id)
    return deny, permit


def evaluate_request(rules: Iterable[PolicyRule], request: DecisionRequest) -> Decision:
    """Decide ``request`` over ``rules`` deny-overrides: a matching Deny
    rule gives Deny, else a matching Permit rule Permit, else
    NotApplicable, citing the winning rules' ids sorted.  A repeated id
    raises ``DuplicateRuleId`` naming the first repeat in input order,
    matching or not.  ``rules`` may be any iterable; it is read once."""
    if not isinstance(rules, (list, tuple)):
        rules = list(rules)
    if len({rule.id for rule in rules}) != len(rules):
        seen: set[str] = set()
        for rule in rules:
            if rule.id in seen:
                raise DuplicateRuleId(f"rule id {rule.id!r} appears twice")
            seen.add(rule.id)
    deny, permit = matching_rule_ids(rules, request)
    if deny:
        return Decision(Verdict.DENY, "deny", tuple(sorted(deny)))
    if permit:
        return Decision(Verdict.PERMIT, "permit", tuple(sorted(permit)))
    return Decision(Verdict.NOT_APPLICABLE, "not-applicable")


@dataclass(frozen=True)
class RegressionCase:
    """A pinned request/verdict pair guarding against policy drift."""

    request: DecisionRequest
    expected: Verdict
    protected: bool = False

    def __post_init__(self) -> None:
        if self.expected is Verdict.INDETERMINATE:
            raise PolicyError("regression cases cannot expect Indeterminate")

    def to_wire(self) -> dict[str, Any]:
        return {
            "request": self.request.to_wire(),
            "expected": self.expected.value,
            "protected": self.protected,
        }

    @classmethod
    def from_wire(cls, data: Any) -> "RegressionCase":
        no_other_fields(data, _CASE_FIELDS, "regression case")
        return cls(
            request=DecisionRequest.from_wire(field(data, "request", "regression case", dict)),
            expected=member(Verdict, data, "expected", "regression case"),
            protected=field(data, "protected", "regression case", bool, False),
        )


@dataclass(frozen=True)
class PolicyDocument:
    """Everything a cell loads at start: rules, trust, and pinned cases."""

    rules: tuple[PolicyRule, ...] = ()
    delegations: tuple[DelegationAssertion, ...] = ()
    roots: tuple[RootGrant, ...] = ()
    trusted_issuers: frozenset[str] = frozenset()
    regression: tuple[RegressionCase, ...] = ()

    def __post_init__(self) -> None:
        ids = [rule.id for rule in self.rules]
        if len(set(ids)) != len(ids):
            dup = sorted({rid for rid in ids if ids.count(rid) > 1})
            raise DuplicateRuleId(f"duplicate rule ids: {dup}")

    @classmethod
    def from_wire(cls, data: Any) -> "PolicyDocument":
        no_other_fields(data, _DOCUMENT_FIELDS, "policy")
        return cls(
            rules=tuple(PolicyRule.from_wire(r) for r in objects(data, "rules", "policy", [])),
            delegations=tuple(
                DelegationAssertion.from_wire(d) for d in objects(data, "delegations", "policy", [])
            ),
            roots=tuple(RootGrant.from_wire(g) for g in objects(data, "roots", "policy", [])),
            trusted_issuers=frozenset(strings(data, "trustedIssuers", "policy", [])),
            regression=tuple(
                RegressionCase.from_wire(c) for c in objects(data, "regression", "policy", [])),
        )


def load_policy_document(path: str) -> PolicyDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return PolicyDocument.from_wire(json.load(fh))
