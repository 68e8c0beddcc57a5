"""Attribute-based policy evaluation with delegation.

A request carries a set of subject attributes; rules constrain attributes,
action, resource, and the context the request arrives in.  Evaluation is
closed-world (an attribute a rule asks about must be present on the
request) and combines matched rules deny-overrides.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import (
    BadSignature,
    DuplicateRuleId,
    Expired,
    PolicyError,
    UntrustedIssuer,
)

TOKEN_RE = re.compile(r"[a-z0-9_:-]+\Z")

WILDCARD = "*"


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


@dataclass(frozen=True, order=True)
class AttributePair:
    name: str
    value: str

    def __post_init__(self) -> None:
        _check_token(self.name, "attribute name")
        _check_token(self.value, "attribute value")

    def to_wire(self) -> dict[str, str]:
        return {"name": self.name, "value": self.value}

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "AttributePair":
        return cls(name=data["name"], value=data["value"])


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
    def from_mapping(cls, mapping: Mapping[str, Iterable[str]]) -> "Condition":
        atoms = tuple(sorted((name, frozenset(vals)) for name, vals in mapping.items()))
        return cls(atoms)

    def matches(self, attrs: frozenset[AttributePair]) -> bool:
        for name, allowed in self.atoms:
            if not any(p.name == name and p.value in allowed for p in attrs):
                return False
        return True

    def to_wire(self) -> dict[str, list[str]]:
        return {name: sorted(values) for name, values in self.atoms}


def attrs_to_wire(attrs: frozenset[AttributePair]) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for pair in sorted(attrs):
        grouped.setdefault(pair.name, []).append(pair.value)
    return grouped


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

    def action_matches(self, action: str) -> bool:
        return self.action == WILDCARD or self.action == action

    def resource_matches(self, resource_id: str) -> bool:
        if self.resource.endswith(WILDCARD):
            return resource_id.startswith(self.resource[:-1])
        return resource_id == self.resource

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
    def from_wire(cls, data: Mapping[str, Any]) -> "PolicyRule":
        return cls(
            id=data["id"],
            effect=Effect(data["effect"]),
            subject=Condition.from_mapping(data.get("subject", {})),
            action=data["action"],
            resource=data["resource"],
            contexts=frozenset(data["contexts"]),
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

    def to_wire(self) -> dict[str, Any]:
        return {
            "issuer": self.issuer,
            "subject": self.subject,
            "attr": self.attr.to_wire(),
            "depth": self.depth,
            "contexts": sorted(self.contexts),
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "DelegationAssertion":
        return cls(
            issuer=data["issuer"],
            subject=data["subject"],
            attr=AttributePair.from_wire(data["attr"]),
            depth=data["depth"],
            contexts=frozenset(data["contexts"]),
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

    def to_wire(self) -> dict[str, Any]:
        return {"principal": self.principal, "attr": self.attr.to_wire(), "depth": self.depth}

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "RootGrant":
        return cls(
            principal=data["principal"],
            attr=AttributePair.from_wire(data["attr"]),
            depth=data["depth"],
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


# the encoder json.dumps would build on every call with these arguments
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
    def from_wire(cls, data: Mapping[str, Any]) -> "Token":
        return cls(
            subject=data["subject"],
            claims=frozenset(AttributePair.from_wire(c) for c in data["claims"]),
            issuer=data["issuer"],
            expiry_tick=data["expiryTick"],
            signature=data["sig"],
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

    def to_wire(self) -> dict[str, Any]:
        return {
            "subjectAttrs": attrs_to_wire(self.subject_attrs),
            "action": self.action,
            "resourceId": self.resource_id,
            "context": self.context,
            "tick": self.tick,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "DecisionRequest":
        return cls(
            subject_attrs=attrs_from_wire(data.get("subjectAttrs", {})),
            action=data["action"],
            resource_id=data["resourceId"],
            context=data["context"],
            tick=data.get("tick", 0),
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


def rule_matches(rule: PolicyRule, request: DecisionRequest) -> bool:
    return (
        request.context in rule.contexts
        and rule.action_matches(request.action)
        and rule.resource_matches(request.resource_id)
        and rule.subject.matches(request.subject_attrs)
    )


def combine_effects(effects: Iterable[Effect]) -> Verdict:
    """Deny-overrides: any Deny wins, else any Permit, else NotApplicable."""
    saw_permit = False
    for effect in effects:
        if effect is Effect.DENY:
            return Verdict.DENY
        saw_permit = True
    return Verdict.PERMIT if saw_permit else Verdict.NOT_APPLICABLE


def evaluate_request(rules: Sequence[PolicyRule], request: DecisionRequest) -> Decision:
    seen: set[str] = set()
    for rule in rules:
        if rule.id in seen:
            raise DuplicateRuleId(f"rule id {rule.id!r} appears twice")
        seen.add(rule.id)
    matched = [r for r in rules if rule_matches(r, request)]
    verdict = combine_effects(r.effect for r in matched)
    if verdict is Verdict.NOT_APPLICABLE:
        return Decision(verdict, "not-applicable")
    cited = sorted(
        r.id for r in matched
        if (r.effect is Effect.DENY) == (verdict is Verdict.DENY)
    )
    reason = "deny" if verdict is Verdict.DENY else "permit"
    return Decision(verdict, reason, tuple(cited))


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
    def from_wire(cls, data: Mapping[str, Any]) -> "RegressionCase":
        return cls(
            request=DecisionRequest.from_wire(data["request"]),
            expected=Verdict(data["expected"]),
            protected=data.get("protected", False),
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
        ids = [r.id for r in self.rules]
        dup = {i for i in ids if ids.count(i) > 1}
        if dup:
            raise DuplicateRuleId(f"duplicate rule ids: {sorted(dup)}")

    def to_wire(self) -> dict[str, Any]:
        return {
            "rules": [r.to_wire() for r in self.rules],
            "delegations": [d.to_wire() for d in self.delegations],
            "roots": [g.to_wire() for g in self.roots],
            "trustedIssuers": sorted(self.trusted_issuers),
            "regression": [c.to_wire() for c in self.regression],
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "PolicyDocument":
        return cls(
            rules=tuple(PolicyRule.from_wire(r) for r in data.get("rules", [])),
            delegations=tuple(
                DelegationAssertion.from_wire(d) for d in data.get("delegations", [])
            ),
            roots=tuple(RootGrant.from_wire(g) for g in data.get("roots", [])),
            trusted_issuers=frozenset(data.get("trustedIssuers", [])),
            regression=tuple(RegressionCase.from_wire(c) for c in data.get("regression", [])),
        )


def load_policy_document(path: str) -> PolicyDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return PolicyDocument.from_wire(json.load(fh))
