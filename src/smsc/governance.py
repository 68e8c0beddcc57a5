"""Policy store and update governance.

Cells change their security configuration only through signed
``UpdatePackage`` objects, sequence-numbered per origin.  The store
applies them exactly once and in order: stale sequence numbers are
duplicates, gaps are buffered until the missing package arrives.  A
package is verified once: ``archived_copy`` recognises an exact copy of
an archived package from its wire form, down to its signature and the
JSON type of each number, and hands back the archived package, which is
a duplicate without a second parse or signature check; anything else, a
forged copy included, is parsed and checked first.  The gap buffer
holds at most ``PENDING_CAP`` packages per origin; when it overflows,
the package furthest ahead is dropped and reported.

Before a rule change lands it is assessed against the cell's pinned
regression cases.  A package that would flip a protected case is
rejected outright; its sequence number is still consumed so the origin
stream keeps moving.  The archive of consumed packages is the one
sequence record: an origin's package with seq n sits at index n of its
list, so the list's length is the next seq the store expects.

``detect_conflicts`` is the static companion check: given finite value
domains it decides, exactly, whether two opposite-effect rules can fire
on the same request, and produces a concrete witness request when so.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from .errors import BadSignature, MalformedUpdate, ParseError, UnknownAttributeDomain
from .policy import (
    WILDCARD,
    AttributePair,
    DecisionRequest,
    Effect,
    PolicyRule,
    RegressionCase,
    Verdict,
    canonical_json,
    evaluate_request,
    matching_rule_ids,
    sign_payload,
)
from .wire import field, member, no_other_fields, string_lists, strings

PENDING_CAP = 64


class UpdateKind(str, Enum):
    RULE_ADD = "RuleAdd"
    RULE_REMOVE = "RuleRemove"
    BLOCKLIST_ADD = "BlocklistAdd"
    CONFIG_SET = "ConfigSet"


@dataclass(frozen=True)
class ConfigSetting:
    key: str
    value: Any

    def to_wire(self) -> dict[str, Any]:
        return {"key": self.key, "value": self.value}


Payload = Union[PolicyRule, ConfigSetting, str]

# the payload type each kind carries
_PAYLOAD_TYPES: dict[UpdateKind, type] = {
    UpdateKind.RULE_ADD: PolicyRule,
    UpdateKind.RULE_REMOVE: str,
    UpdateKind.BLOCKLIST_ADD: str,
    UpdateKind.CONFIG_SET: ConfigSetting,
}


def payload_from_wire(kind: UpdateKind, data: Any) -> Payload:
    if kind is UpdateKind.RULE_ADD:
        return PolicyRule.from_wire(data)
    if kind is UpdateKind.CONFIG_SET:
        return ConfigSetting(field(data, "key", "config", str), field(data, "value", "config"))
    if type(data) is not str:
        raise ParseError(f"{kind.value} payload must be a string, got {data!r}")
    return data


@dataclass(frozen=True)
class UpdatePackage:
    origin: str
    seq: int
    kind: UpdateKind
    payload: Payload
    contexts: frozenset[str]
    issued_tick: int
    signature: str

    def __post_init__(self) -> None:
        # a fractional seq would sit in the gap buffer for good
        if type(self.seq) is not int:
            raise MalformedUpdate(f"seq {self.seq!r} from {self.origin!r} is not an integer")
        if self.seq < 0:
            raise MalformedUpdate(f"negative seq {self.seq} from {self.origin!r}")
        if not self.contexts:
            raise MalformedUpdate(f"update {self.origin}/{self.seq} has no contexts")
        if not isinstance(self.payload, _PAYLOAD_TYPES[self.kind]):
            raise MalformedUpdate(
                f"{self.kind.value} payload must be a {_PAYLOAD_TYPES[self.kind].__name__}")

    def body(self) -> dict[str, Any]:
        return {
            "origin": self.origin,
            "seq": self.seq,
            "kind": self.kind.value,
            "payload": self.payload if isinstance(self.payload, str) else self.payload.to_wire(),
            "contexts": sorted(self.contexts),
            "issuedTick": self.issued_tick,
        }

    def to_wire(self) -> dict[str, Any]:
        wire = self.body()
        wire["sig"] = self.signature
        return wire

    @classmethod
    def from_wire(cls, data: Any) -> "UpdatePackage":
        kind = member(UpdateKind, data, "kind", "update")
        return cls(
            origin=field(data, "origin", "update", str),
            seq=field(data, "seq", "update", int),
            kind=kind,
            payload=payload_from_wire(kind, field(data, "payload", "update")),
            contexts=frozenset(strings(data, "contexts", "update")),
            issued_tick=field(data, "issuedTick", "update", int),
            signature=field(data, "sig", "update", str),
        )


def make_update(
    origin: str,
    seq: int,
    kind: UpdateKind,
    payload: Payload,
    contexts: Iterable[str],
    issued_tick: int,
) -> UpdatePackage:
    """Build and sign a package; the origin id keys the signature."""
    unsigned = UpdatePackage(
        origin=origin,
        seq=seq,
        kind=kind,
        payload=payload,
        contexts=frozenset(contexts),
        issued_tick=issued_tick,
        signature="",
    )
    return replace(unsigned, signature=sign_payload(origin, unsigned.body()))


@dataclass(frozen=True)
class ImpactAssessment:
    """Pinned cases an update flips; ``blocking``, the first protected one,
    is set exactly when the update must be rejected."""

    flipped: tuple[RegressionCase, ...] = ()
    blocking: Optional[RegressionCase] = None


def assess_update_impact(
    rules: Mapping[str, PolicyRule],
    package: UpdatePackage,
    regression: Sequence[RegressionCase],
) -> ImpactAssessment:
    """Find the pinned cases an update would flip.

    Only rule changes can move a decision; blocklist and config packages
    are accepted without replay.  A verdict depends only on the set of
    rules that match, so a case that neither the added rule nor the rule
    it replaces or removes matches keeps its verdict and is skipped.  The
    others are replayed once, over the rules in their context before the
    change, and the verdict after it follows from that decision and the
    added rule's match; only a Deny whose one cited rule goes is replayed
    again, since a Deny cites no Permit rule.  A flip on a protected case
    blocks the package; unprotected flips are reported but do not block.
    """
    if package.kind in (UpdateKind.BLOCKLIST_ADD, UpdateKind.CONFIG_SET):
        return ImpactAssessment()
    added = package.payload if package.kind is UpdateKind.RULE_ADD else None
    gone_id = package.payload if added is None else added.id
    replaced = rules.get(gone_id)
    changed = [r for r in (added, replaced) if r is not None]
    flipped: list[RegressionCase] = []
    for case in regression:
        request = case.request
        deny, permit = matching_rule_ids(changed, request)
        if not deny and not permit:
            continue
        if added is None:
            deny = permit = []
        elif replaced is not None:  # both carry gone_id: match the added rule alone
            deny, permit = matching_rule_ids((added,), request)
        before = [r for r in rules.values() if request.context in r.contexts]
        decision = evaluate_request(before, request)
        old, cited = decision.verdict, decision.matched_rule_ids
        if deny or (old is Verdict.DENY and cited != (gone_id,)):
            new = Verdict.DENY
        elif permit:
            new = Verdict.PERMIT
        elif old is Verdict.DENY:  # its one Deny rule goes: the Permit rules decide
            new = evaluate_request([r for r in before if r.id != gone_id], request).verdict
        else:
            new = Verdict.PERMIT if any(i != gone_id for i in cited) else Verdict.NOT_APPLICABLE
        if old != new:
            flipped.append(case)
    return ImpactAssessment(tuple(flipped), next((c for c in flipped if c.protected), None))


class ApplyStatus(str, Enum):
    APPLIED = "applied"
    DUPLICATE = "duplicate"
    BUFFERED = "buffered"
    REJECTED = "rejected"
    # set by the ingesting cell for packages that never reach the store
    INVALID = "invalid"
    UNTRUSTED_SOURCE = "untrusted-source"


@dataclass(frozen=True)
class ApplyReport:
    """Outcome of one ``apply_update`` call.

    ``consumed`` pairs every package consumed during the call, including
    any drained from the gap buffer, with its rejection reason, or None
    when it applied, in the order they were consumed; ``status``
    describes the package that was handed in.  ``evicted`` is the package
    a full gap buffer dropped, which may be the one handed in.
    """

    status: ApplyStatus
    consumed: tuple[tuple[UpdatePackage, Optional[str]], ...] = ()
    evicted: Optional[UpdatePackage] = None


# every duplicate's report: it is frozen and holds nothing of the package
_DUPLICATE = ApplyReport(ApplyStatus.DUPLICATE)


class _Bucket:
    """The rules of one (context, action) key and their matcher.

    ``_order`` maps each rule's flag, ``1 << bit``, to the rule and ``_flags``
    its id to the flag, the bucket's one record of its rules.  A put takes a
    flag at once, a freed one first, so the bit space never exceeds the peak
    count of live rules, and every put and drop sets or clears its rule's
    bit in the masks.  ``_live`` masks every rule of the bucket,
    ``_constrains[name]`` the rules with an atom on ``name`` and
    ``_allows[name][value]`` those whose atom admits ``value`` (an emptied
    mask leaves its map).  A request keeps the rules that, per constrained
    name, are in one of its values' masks or have no atom there: an OR,
    never a count, so two values of one name, or none, are exact.
    """

    __slots__ = ("_flags", "_order", "_free", "_live", "_constrains", "_allows")

    def __init__(self) -> None:
        self._flags: dict[str, int] = {}
        self._order: dict[int, PolicyRule] = {}
        self._free: list[int] = []
        self._live = 0
        self._constrains: dict[str, int] = {}
        self._allows: dict[str, dict[str, int]] = {}

    def put(self, rule: PolicyRule) -> None:
        flag = self._flags[rule.id] = self._free.pop() if self._free else 1 << len(self._order)
        self._order[flag] = rule
        self._flip(rule, flag)

    def drop(self, rule_id: str) -> None:
        flag = self._flags.pop(rule_id)
        self._free.append(flag)
        self._flip(self._order.pop(flag), flag)

    def _flip(self, rule: PolicyRule, flag: int) -> None:
        """Toggle ``flag`` in every mask that holds ``rule``."""
        self._live ^= flag
        for name, values in rule.subject.atoms:
            by_value = self._allows.setdefault(name, {})
            for value in values:
                by_value[value] = mask = by_value.get(value, 0) ^ flag
                if not mask:
                    del by_value[value]
            self._constrains[name] = mask = self._constrains.get(name, 0) ^ flag
            if not mask:
                del self._constrains[name], self._allows[name]

    def select(self, grouped: Mapping[str, set[str]]) -> list[PolicyRule]:
        """The rules whose condition admits ``grouped``."""
        keep = self._live
        for name, constrained in self._constrains.items():
            by_value = self._allows[name]
            hit = 0
            for value in grouped.get(name, ()):
                hit |= by_value.get(value, 0)
            keep &= hit | ~constrained
        order, pool = self._order, []
        while keep:
            low = keep & -keep
            pool.append(order[low])
            keep ^= low
        return pool


class PolicyStore:
    """Versioned security state of one cell.

    ``version`` counts applied packages; duplicates, buffered packages
    and rejections leave it unchanged.  ``archive`` maps each origin to
    its consumed packages, rejected ones included, in seq order with no
    holes: it serves gap-fill requests, and its lengths are the per-origin
    high-water marks.  ``rules`` holds every rule, but only those whose
    pattern matches ``resource``, the one resource the store's cell
    guards, are indexed, by (context, action); each bucket matches a
    request's subject attributes against bitmasks that every put and drop
    keeps current, so an evaluation reads only the rules that match it
    instead of every rule.
    """

    def __init__(self, resource: str, rules: Iterable[PolicyRule] = (),
                 regression: Sequence[RegressionCase] = ()):
        self.resource = resource
        self.rules: dict[str, PolicyRule] = {}
        # (context, action) -> bucket; wildcard-action rules under (context, "*")
        self._index: defaultdict[tuple[str, str], _Bucket] = defaultdict(_Bucket)
        for rule in rules:
            if rule.id in self.rules:
                raise MalformedUpdate(f"duplicate seed rule id {rule.id!r}")
            self._put_rule(rule)
        self.blocklist: set[tuple[str, str]] = set()
        self.config: dict[str, Any] = {}
        self.version = 0
        self.regression: tuple[RegressionCase, ...] = tuple(regression)
        self._pending: dict[str, dict[int, UpdatePackage]] = {}
        self.archive: dict[str, list[UpdatePackage]] = {}

    # ingestion

    def archived_copy(self, wire: Any) -> Optional[UpdatePackage]:
        """The archived package ``wire`` is an exact copy of, or None.

        A copy is the archived package's own wire form, down to the JSON
        type of each number: ``seq`` and ``issuedTick`` are exact integers,
        and a config value encodes as the archived one does.  Such a wire
        parses to the archived package, down to its JSON form, so a caller
        may take it as that duplicate without parsing it.  Any other input,
        whatever JSON value it is, gives None and never raises."""
        if not isinstance(wire, dict):
            return None
        origin, seq = wire.get("origin"), wire.get("seq")
        if type(origin) is not str or type(seq) is not int or seq < 0:
            return None
        archived = self.archive.get(origin, ())
        if seq >= len(archived):
            return None
        package = archived[seq]
        if wire.get("sig") != package.signature or type(wire.get("issuedTick")) is not int:
            return None
        own = package.to_wire()
        if wire != own or (package.kind is UpdateKind.CONFIG_SET
                           and canonical_json(wire["payload"]) != canonical_json(own["payload"])):
            return None
        return package

    def apply_update(self, package: UpdatePackage) -> ApplyReport:
        """Verify and apply one package.  The archived package itself, as
        ``archived_copy`` returns it, is a duplicate at once, since it was
        verified when it was consumed; any other package must carry a
        valid signature, or ``BadSignature`` is raised."""
        archived = self.archive.get(package.origin, ())
        expected = len(archived)
        if package.seq < expected and package is archived[package.seq]:
            return _DUPLICATE
        if package.signature != sign_payload(package.origin, package.body()):
            raise BadSignature(f"bad signature on {package.origin}/{package.seq}")
        if package.seq < expected:
            return _DUPLICATE
        if package.seq > expected:
            return ApplyReport(ApplyStatus.BUFFERED, evicted=self._buffer(package))
        consumed = [(package, self._consume(package))]
        # then every buffered package it makes next in order
        slot = self._pending.get(package.origin, {})
        while (nxt := slot.pop(len(self.archive[package.origin]), None)) is not None:
            consumed.append((nxt, self._consume(nxt)))
        if not slot:
            self._pending.pop(package.origin, None)
        status = ApplyStatus.APPLIED if consumed[0][1] is None else ApplyStatus.REJECTED
        return ApplyReport(status, tuple(consumed))

    def _buffer(self, package: UpdatePackage) -> Optional[UpdatePackage]:
        """Hold an out-of-order package.  Over the cap, drop the highest
        seq: the lowest ones are what the next in-order package drains."""
        slot = self._pending.setdefault(package.origin, {})
        slot[package.seq] = package
        if len(slot) <= PENDING_CAP:
            return None
        return slot.pop(max(slot))

    def _consume(self, package: UpdatePackage) -> Optional[str]:
        """Assess and apply the next-in-order package; the reason it was
        rejected, or None when it applied."""
        assessment = assess_update_impact(self.rules, package, self.regression)
        self.archive.setdefault(package.origin, []).append(package)
        case = assessment.blocking
        if case is not None:
            return (
                f"would flip protected case "
                f"{case.request.action}/{case.request.resource_id}@{case.request.context}"
            )
        self._mutate(package)
        self.version += 1
        return None

    def _mutate(self, package: UpdatePackage) -> None:
        if package.kind is UpdateKind.RULE_ADD:
            self._put_rule(package.payload)
        elif package.kind is UpdateKind.RULE_REMOVE:
            self._unindex(package.payload)
        elif package.kind is UpdateKind.BLOCKLIST_ADD:
            for context in package.contexts:
                self.blocklist.add((context, package.payload))
        elif package.kind is UpdateKind.CONFIG_SET:
            self.config[package.payload.key] = package.payload.value

    def _put_rule(self, rule: PolicyRule) -> None:
        """Add or replace a rule; a replaced rule leaves the index first."""
        self._unindex(rule.id)
        self.rules[rule.id] = rule
        for context in rule.contexts if rule.resource_matches(self.resource) else ():
            self._index[context, rule.action].put(rule)

    def _unindex(self, rule_id: str) -> None:
        rule = self.rules.pop(rule_id, None)
        indexed = rule is not None and rule.resource_matches(self.resource)
        for context in rule.contexts if indexed else ():
            key = (context, rule.action)
            self._index[key].drop(rule_id)
            if not self._index[key]._flags:
                del self._index[key]

    # queries

    def digest(self) -> dict[str, int]:
        """Per-origin high-water marks, the anti-entropy summary."""
        return {origin: len(self.archive[origin]) - 1 for origin in sorted(self.archive)}

    def _content(self) -> dict[str, Any]:
        """The effective security content: rules, blocklist and config."""
        return {
            "rules": [self.rules[rid].to_wire() for rid in sorted(self.rules)],
            "blocklist": sorted(list(pair) for pair in self.blocklist),
            "config": dict(sorted(self.config.items())),
        }

    def content_digest(self) -> str:
        """Hash of the effective security content.

        Sequence bookkeeping is deliberately excluded: a rejected package
        consumes its seq but must leave this digest untouched.
        """
        return hashlib.sha256(canonical_json(self._content()).encode("utf-8")).hexdigest()

    def candidates(self, request: DecisionRequest) -> list[PolicyRule]:
        """Exactly the rules that match ``request`` on the store's resource,
        each once, from its context's wildcard-action bucket and, unless the
        action is ``"*"``, its action's own bucket."""
        pool: list[PolicyRule] = []
        for action in (WILDCARD,) if request.action == WILDCARD else (WILDCARD, request.action):
            bucket = self._index.get((request.context, action))
            if bucket is not None:
                pool += bucket.select(request.grouped)
        return pool

    # snapshot

    def to_wire(self) -> dict[str, Any]:
        return {
            **self._content(),
            "version": self.version,
            "regression": [c.to_wire() for c in self.regression],
            "appliedSeq": self.digest(),
            "pending": [
                self._pending[origin][seq].to_wire()
                for origin in sorted(self._pending)
                for seq in sorted(self._pending[origin])
            ],
            "archive": [
                package.to_wire()
                for origin in sorted(self.archive)
                for package in self.archive[origin]
            ],
        }


# static conflict analysis


@dataclass(frozen=True)
class ConflictReport:
    permit_rule_id: str
    deny_rule_id: str
    witness: DecisionRequest

    def to_wire(self) -> dict[str, Any]:
        return {
            "permitRuleId": self.permit_rule_id,
            "denyRuleId": self.deny_rule_id,
            "witness": self.witness.to_wire(),
        }


# the fields a domains file may hold; any other is refused
_DOMAIN_FIELDS = frozenset({"domains", "actions", "resources", "contexts"})


@dataclass(frozen=True)
class DomainSpec:
    """Finite universes making conflict detection decidable."""

    domains: Mapping[str, tuple[str, ...]]
    actions: tuple[str, ...]
    resources: tuple[str, ...]
    contexts: tuple[str, ...]

    @classmethod
    def from_wire(cls, data: Any) -> "DomainSpec":
        no_other_fields(data, _DOMAIN_FIELDS, "domains")
        return cls(
            domains={k: tuple(v) for k, v in string_lists(data, "domains", "domains", {}).items()},
            actions=tuple(strings(data, "actions", "domains", [])),
            resources=tuple(strings(data, "resources", "domains", [])),
            contexts=tuple(strings(data, "contexts", "domains", [])),
        )


def _condition_overlap(
    a: PolicyRule, b: PolicyRule, spec: DomainSpec
) -> Optional[dict[str, str]]:
    """Smallest per-attribute witness values, or None if unsatisfiable."""
    atoms_a, atoms_b = dict(a.subject.atoms), dict(b.subject.atoms)
    witness: dict[str, str] = {}
    for name in atoms_a.keys() | atoms_b.keys():
        domain = frozenset(spec.domains[name])
        feasible = sorted(domain & atoms_a.get(name, domain) & atoms_b.get(name, domain))
        if not feasible:
            return None
        witness[name] = feasible[0]
    return witness


def detect_conflicts(rules: Sequence[PolicyRule], spec: DomainSpec) -> list[ConflictReport]:
    """Exact pairwise conflict check over the declared finite universes.

    A Permit rule and a Deny rule conflict when some request within the
    universes matches both.  Matching is per-component, so satisfiability
    factors: shared context, shared action, shared resource, and a
    feasible value for every constrained attribute, independently.
    """
    for rule in rules:
        for name, _ in rule.subject.atoms:
            if name not in spec.domains:
                raise UnknownAttributeDomain(
                    f"rule {rule.id!r} constrains {name!r}, not in declared domains"
                )
    reports: list[ConflictReport] = []
    ordered = sorted(rules, key=lambda r: r.id)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a.effect == b.effect:
                continue
            contexts = sorted(a.contexts & b.contexts & set(spec.contexts))
            if not contexts:
                continue
            actions = [act for act in sorted(spec.actions)
                       if {a.action, b.action} <= {act, WILDCARD}]
            if not actions:
                continue
            resources = [
                res for res in sorted(spec.resources)
                if a.resource_matches(res) and b.resource_matches(res)
            ]
            if not resources:
                continue
            values = _condition_overlap(a, b, spec)
            if values is None:
                continue
            witness = DecisionRequest(frozenset(AttributePair(n, v) for n, v in values.items()),
                                      actions[0], resources[0], contexts[0], 0)
            permit, deny = (a, b) if a.effect is Effect.PERMIT else (b, a)
            reports.append(ConflictReport(permit.id, deny.id, witness))
    return reports
