"""The cell: one self-managing security domain.

A cell bundles a managed resource with everything needed to run it
unattended: an internal message bus, a peer catalogue fed by discovery,
a versioned policy store, and an enforcement point that gates every
operational and management request.

Cells never share memory.  All interaction is via the message kinds in
``OutboundMessage``; the simulator (or any other transport) moves those
between cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Optional

from .bus import Envelope, MessageBus, Subscription
from .catalogue import Catalogue, CellProfile, TrustPolicy
from .discovery import Advertisement, DiscoveryService, RegistrationRequest
from .errors import (
    MalformedCommand,
    PolicyError,
    SmscError,
    TokenVerificationError,
    UnknownCell,
)
from .governance import (
    ApplyReport,
    ApplyStatus,
    ConfigSetting,
    PolicyStore,
    UpdateKind,
    UpdatePackage,
    make_update,
)
from .policy import (
    AttributePair,
    Decision,
    DecisionRequest,
    PolicyDocument,
    PolicyRule,
    Token,
    Verdict,
    evaluate_request,
    expand_delegations,
    verify_token,
)
from .resources import ManagedResource, build_resource

Observer = Callable[[str, dict[str, Any]], None]

EXTERNAL_CALLER = "external"

MANAGEMENT_COMMANDS = frozenset(
    {"add-rule", "remove-rule", "flag-spam", "set-config", "set-trust"}
)

ENVELOPE_KINDS = frozenset({
    "advert", "register", "register-reply", "update", "digest", "digest-reply",
    "op-req", "op-resp", "mgmt-req", "mgmt-resp",
})

_MALFORMED_TOKEN = "indeterminate: malformed-token"

_VERIFY_TAGS = {
    "UntrustedIssuer": "untrusted-issuer",
    "Expired": "expired",
    "BadSignature": "bad-signature",
}


class IngestOutcome(str, Enum):
    APPLIED = "applied"
    DUPLICATE = "duplicate"
    BUFFERED = "buffered"
    REJECTED = "rejected"
    UNTRUSTED_SOURCE = "untrusted-source"
    INVALID = "invalid"


@dataclass(frozen=True)
class OutboundMessage:
    kind: str
    dst: str
    body: dict[str, Any]


@dataclass(frozen=True)
class AuditRecord:
    tick: int
    kind: str
    detail: Mapping[str, Any]


def _ok(result: Any) -> dict[str, Any]:
    return {"status": "ok", "reason": "permit", "result": result}


def _denied(reason: str) -> dict[str, Any]:
    return {"status": "denied", "reason": reason, "result": None}


def _wire_tokens(body: Mapping[str, Any]) -> Optional[list[Token]]:
    """The request's tokens, or None when one of them does not parse."""
    try:
        return [Token.from_wire(t) for t in body.get("tokens", [])]
    except (KeyError, TypeError, PolicyError):
        return None


class Cell:
    def __init__(
        self,
        cell_id: str,
        contexts: Iterable[str],
        resource_kind: str,
        policy: PolicyDocument,
        trust_policy: Optional[TrustPolicy] = None,
        advertise_interval: int = 10,
        anti_entropy_interval: int = 5,
        ttl_ticks: int = 30,
        capabilities: Optional[Iterable[str]] = None,
        observer: Optional[Observer] = None,
    ):
        self.cell_id = cell_id
        self.contexts = frozenset(contexts)
        self.advertise_interval = advertise_interval
        self.anti_entropy_interval = anti_entropy_interval
        self._observer: Observer = observer or (lambda kind, detail: None)
        self._now = 0

        self.bus = MessageBus(on_publish=self._mirror_bus)
        self.catalogue = Catalogue(cell_id, trust_policy)
        self.store = PolicyStore(policy.rules, policy.regression)
        self.delegations = policy.delegations
        self.roots = policy.roots
        self.trusted_issuers = frozenset(policy.trusted_issuers)
        self.resource: ManagedResource = build_resource(resource_kind, self.catalogue)
        caps = (
            frozenset(capabilities)
            if capabilities is not None
            else frozenset(self.resource.operations) | {resource_kind}
        )
        self.discovery = DiscoveryService(
            self.catalogue, self.contexts, caps, resource_kind, ttl_ticks
        )

        self.outbox: list[OutboundMessage] = []
        self.audit: list[AuditRecord] = []
        self._next_own_seq = 0
        self._rr_index = 0
        self._pending_ops: dict[str, list[tuple[str, dict[str, Any]]]] = {}

        # the audit service is the one queued bus consumer; it drains once
        # per tick and turns envelopes into audit records
        self.bus.subscribe(Subscription("audit-log", "cell.*"))
        self.bus.subscribe(Subscription("audit-log", "policy.*"))

    # --- plumbing ---------------------------------------------------------

    def _mirror_bus(self, envelope: Envelope) -> None:
        self._observer(
            "bus",
            {
                "topic": envelope.topic,
                "publisher": envelope.publisher_id,
                "busSeq": envelope.bus_seq,
            },
        )

    def _audit(self, kind: str, detail: dict[str, Any]) -> None:
        self.audit.append(AuditRecord(self._now, kind, detail))

    def _send(self, kind: str, dst: str, body: dict[str, Any]) -> None:
        self.outbox.append(OutboundMessage(kind, dst, body))

    def take_outbox(self) -> list[OutboundMessage]:
        out = self.outbox
        self.outbox = []
        return out

    # --- decision pipeline ------------------------------------------------

    def _verified_attrs(
        self, tokens: Iterable[Token], context: str, now: int
    ) -> frozenset[AttributePair]:
        """Claims from all tokens, expanded through in-context delegation."""
        by_subject: dict[str, set[AttributePair]] = {}
        for token in tokens:
            claims = verify_token(token, self.trusted_issuers, now)
            by_subject.setdefault(token.subject, set()).update(claims)
        attrs: set[AttributePair] = set()
        for subject, base in by_subject.items():
            attrs |= expand_delegations(
                subject, frozenset(base), self.delegations, self.roots, context
            )
        return frozenset(attrs)

    def _blocklisted_value(self, args: Mapping[str, Any], context: str) -> Optional[str]:
        for value in args.values():
            if isinstance(value, str) and (context, value) in self.store.blocklist:
                return value
        return None

    def _record_decision(
        self, caller: str, action: str, context: str, decision: Decision
    ) -> None:
        detail = {
            "caller": caller,
            "action": action,
            "context": context,
            "verdict": decision.verdict.value,
            "reason": decision.reason,
            "matchedRuleIds": list(decision.matched_rule_ids),
        }
        self._observer("decision", detail)
        self.bus.publish("cell.op", detail, "pep", self._now)

    def decide_operation(
        self, tokens: Optional[Iterable[Token]], action: str,
        args: Mapping[str, Any], context: str, now: int,
        management: bool = False,
    ) -> Decision:
        """Everything before the resource call: the enforcement decision.

        ``tokens`` is None when the request's wire tokens did not parse.
        A management command is decided as action ``mgmt:<command>`` with
        ``management=True`` and no ``args``, so the blocklist, which
        screens the args, gates operations only.  The checks run in a
        fixed order: unknown command, malformed token, unknown action,
        token verification, blocklist, rules.
        """
        if management and action[len("mgmt:"):] not in MANAGEMENT_COMMANDS:
            return Decision(Verdict.DENY, "unknown-command")
        if tokens is None:
            return Decision(Verdict.INDETERMINATE, _MALFORMED_TOKEN)
        if not management and action not in self.resource.operations:
            return Decision(Verdict.DENY, "unknown-action")
        try:
            attrs = self._verified_attrs(tokens, context, now)
        except TokenVerificationError as exc:
            tag = _VERIFY_TAGS.get(type(exc).__name__, "token-invalid")
            return Decision(Verdict.INDETERMINATE, f"indeterminate: {tag}")
        except (KeyError, TypeError):
            # parsed, but a field has the wrong type (say, a string expiry)
            return Decision(Verdict.INDETERMINATE, _MALFORMED_TOKEN)
        if self._blocklisted_value(args, context) is not None:
            return Decision(Verdict.DENY, "blocklisted")
        request = DecisionRequest(attrs, action, self.resource.kind, context, now)
        return evaluate_request(self.store.context_rules(context), request)

    def handle_operation(
        self, body: Mapping[str, Any], caller: str, now: int
    ) -> tuple[Decision, dict[str, Any]]:
        self._now = now
        action = str(body.get("action", ""))
        args: Mapping[str, Any] = body.get("args", {}) or {}
        context = str(body.get("context", ""))
        decision = self.decide_operation(_wire_tokens(body), action, args, context, now)
        self._record_decision(caller, action, context, decision)
        self._audit("op", {"caller": caller, "action": action,
                           "verdict": decision.verdict.value})
        if decision.verdict is Verdict.PERMIT:
            result = self.resource.invoke(action, args, context)
            return decision, _ok(result)
        return decision, _denied(decision.reason)

    # --- management -------------------------------------------------------

    def handle_management(
        self, body: Mapping[str, Any], caller: str, now: int
    ) -> tuple[Decision, dict[str, Any]]:
        self._now = now
        command = str(body.get("command", ""))
        context = str(body.get("context", ""))
        decision = self.decide_operation(
            _wire_tokens(body), f"mgmt:{command}", {}, context, now, management=True
        )
        self._record_decision(caller, f"mgmt:{command}", context, decision)
        if command not in MANAGEMENT_COMMANDS:
            return decision, _denied(decision.reason)
        self._audit("mgmt", {"caller": caller, "command": command,
                             "verdict": decision.verdict.value})
        if decision.verdict is not Verdict.PERMIT:
            return decision, _denied(decision.reason)
        try:
            response = self._execute_management(command, body.get("payload"), context, now)
        except MalformedCommand as exc:
            response = _denied(f"malformed-payload: {exc}")
        return decision, response

    def _execute_management(
        self, command: str, payload: Any, context: str, now: int
    ) -> dict[str, Any]:
        if command == "add-rule":
            try:
                rule = PolicyRule.from_wire(payload)
            except (KeyError, TypeError) as exc:
                raise MalformedCommand(f"add-rule: {exc}") from None
            report = self.emit_update(UpdateKind.RULE_ADD, rule, {context}, now, push=False)
            if report.status is ApplyStatus.REJECTED:
                return _denied("impact-rejected")
            return _ok({"ruleId": rule.id, "version": self.store.version})
        if command == "remove-rule":
            if not isinstance(payload, str):
                raise MalformedCommand("remove-rule payload must be a rule id")
            report = self.emit_update(
                UpdateKind.RULE_REMOVE, payload, {context}, now, push=False
            )
            if report.status is ApplyStatus.REJECTED:
                return _denied("impact-rejected")
            return _ok({"ruleId": payload, "version": self.store.version})
        if command == "flag-spam":
            entry = payload.get("entry") if isinstance(payload, Mapping) else payload
            if not isinstance(entry, str) or not entry:
                raise MalformedCommand("flag-spam payload must name an entry")
            self.emit_update(UpdateKind.BLOCKLIST_ADD, entry, {context}, now)
            return _ok({"entry": entry, "version": self.store.version})
        if command == "set-config":
            if not isinstance(payload, Mapping) or "key" not in payload:
                raise MalformedCommand("set-config payload must carry key and value")
            setting = ConfigSetting(str(payload["key"]), payload.get("value"))
            self.emit_update(UpdateKind.CONFIG_SET, setting, {context}, now, push=False)
            return _ok({"key": setting.key, "version": self.store.version})
        if not isinstance(payload, Mapping):
            raise MalformedCommand("set-trust payload must map context to capabilities")
        self.catalogue.set_trust_policy(
            {str(c): [str(x) for x in caps] for c, caps in payload.items()}
        )
        self._audit("trust", {"policy": self.catalogue.trust_policy})
        return _ok({"trustPolicy": self.catalogue.trust_policy})

    # --- governance flow --------------------------------------------------

    def emit_update(
        self, kind: UpdateKind, payload: Any, contexts: set[str], now: int,
        push: bool = True,
    ) -> ApplyReport:
        """Own-origin package applied locally, then pushed to trusted peers.

        With ``push=False`` it stays local and only anti-entropy spreads
        it.  A package the local store itself rejects is not distributed.
        """
        package = make_update(
            self.cell_id, self._next_own_seq, kind, payload, contexts, now
        )
        self._next_own_seq += 1
        report = self.store.apply_update(package)
        self._after_apply(report, now, via=None, push=push)
        return report

    def ingest_security_update(
        self, package_wire: Mapping[str, Any], from_cell: str, now: int
    ) -> IngestOutcome:
        """Ingest one pushed or back-filled package.

        A package that does not parse or fails its signature check is
        contained: it is logged as ``invalid`` and never raises, so one
        hostile peer cannot abort the caller's loop.
        """
        self._now = now
        try:
            package = UpdatePackage.from_wire(package_wire)
        except (SmscError, KeyError, TypeError, ValueError) as exc:
            return self._invalid_update(from_cell, exc)
        sender = self.catalogue.get(from_cell)
        if sender is None or not all(sender.trusted_in(c) for c in package.contexts):
            self._observer(
                "update",
                {"origin": package.origin, "seq": package.seq,
                 "status": IngestOutcome.UNTRUSTED_SOURCE.value, "from": from_cell},
            )
            self._audit("update-in", {"from": from_cell, "origin": package.origin,
                                      "seq": package.seq, "outcome": "untrusted-source"})
            return IngestOutcome.UNTRUSTED_SOURCE
        try:
            report = self.store.apply_update(package)
        except (SmscError, KeyError, TypeError, ValueError) as exc:
            return self._invalid_update(from_cell, exc)
        self._after_apply(report, now, via=from_cell, push=True)
        if report.status in (ApplyStatus.DUPLICATE, ApplyStatus.BUFFERED):
            self._observer(
                "update",
                {"origin": package.origin, "seq": package.seq,
                 "status": report.status.value, "from": from_cell},
            )
        self._audit("update-in", {"from": from_cell, "origin": package.origin,
                                  "seq": package.seq, "outcome": report.status.value})
        return IngestOutcome(report.status.value)

    def _invalid_update(self, from_cell: str, exc: Exception) -> IngestOutcome:
        self._observer(
            "update",
            {"status": IngestOutcome.INVALID.value, "from": from_cell,
             "error": type(exc).__name__},
        )
        self._audit("update-in", {"from": from_cell, "outcome": "invalid"})
        return IngestOutcome.INVALID

    def _after_apply(
        self, report: ApplyReport, now: int, via: Optional[str], push: bool
    ) -> None:
        for package in report.applied:
            self.bus.publish(
                "policy.updated",
                {"origin": package.origin, "seq": package.seq, "kind": package.kind.value},
                "governance",
                now,
            )
            self._observer(
                "update",
                {"origin": package.origin, "seq": package.seq,
                 "kind": package.kind.value, "status": "applied",
                 "version": self.store.version},
            )
            if package.kind is UpdateKind.CONFIG_SET:
                assert isinstance(package.payload, ConfigSetting)
                self.resource.apply_config(package.payload.key, package.payload.value)
            if push:
                self._forward(package, via)
        for package in report.rejected:
            self._observer(
                "update",
                {"origin": package.origin, "seq": package.seq,
                 "kind": package.kind.value, "status": "rejected",
                 "detail": report.detail},
            )

    def _forward(self, package: UpdatePackage, via: Optional[str]) -> None:
        targets: set[str] = set()
        for context in package.contexts:
            for entry in self.catalogue.query(context=context, trusted_only=True):
                targets.add(entry.profile.cell_id)
        targets.discard(self.cell_id)
        targets.discard(package.origin)
        if via is not None:
            targets.discard(via)
        for target in sorted(targets):
            self._send("update", target, package.to_wire())
            self._audit("update-out", {"to": target, "origin": package.origin,
                                       "seq": package.seq})

    # --- periodic work ----------------------------------------------------

    def on_tick(self, now: int) -> None:
        self._now = now
        expired = self.catalogue.expire_stale(now)
        for cell_id in expired:
            self._audit("peer-expired", {"peer": cell_id})
        if now % self.advertise_interval == 0:
            self.advertise_now(now)
        if now % self.anti_entropy_interval == 0:
            self._send_digest(now)
        for envelope in self.bus.drain("audit-log"):
            self._audit("bus", {"topic": envelope.topic, "busSeq": envelope.bus_seq})

    def advertise_now(self, now: int) -> None:
        advert = self.discovery.make_advertisement(now)
        self._send("advert", "*", advert.to_wire())

    def _send_digest(self, now: int) -> None:
        partners = self.catalogue.trusted_partners()
        if not partners:
            return
        target = partners[self._rr_index % len(partners)]
        self._rr_index += 1
        self._send("digest", target, {"applied": self.store.digest()})

    # --- script entry points ---------------------------------------------

    def request_operation(
        self, dst: str, tokens: Iterable[Token], action: str,
        args: Mapping[str, Any], context: str,
    ) -> None:
        body = {
            "tokens": [t.to_wire() for t in tokens],
            "action": action,
            "args": dict(args),
            "context": context,
        }
        self._pending_ops.setdefault(dst, []).append((action, dict(args)))
        self._send("op-req", dst, body)

    def request_management(
        self, dst: str, tokens: Iterable[Token], command: str,
        payload: Any, context: str,
    ) -> None:
        body = {
            "tokens": [t.to_wire() for t in tokens],
            "command": command,
            "payload": payload,
            "context": context,
        }
        self._send("mgmt-req", dst, body)

    def register_with(self, dst: str, now: int, want_reply: bool = True) -> None:
        request = self.discovery.make_registration(dst, now, want_reply)
        self._send("register", dst, request.to_wire())

    # --- transport entry point -------------------------------------------

    def handle_envelope(
        self, kind: str, src: str, body: Mapping[str, Any], now: int
    ) -> None:
        """Route one envelope from a peer.

        An unknown kind raises ``UnknownCell``.  A body its handler cannot
        read is contained: it is logged as one ``reject`` record and never
        raises, so one hostile peer cannot abort the caller's loop.
        """
        self._now = now
        if kind not in ENVELOPE_KINDS:
            raise UnknownCell(f"unroutable envelope kind {kind!r}")
        try:
            self._route(kind, src, body, now)
        except (KeyError, TypeError, ValueError, AttributeError, SmscError) as exc:
            self._observer(
                "reject", {"kind": kind, "from": src, "error": type(exc).__name__}
            )

    def _route(self, kind: str, src: str, body: Mapping[str, Any], now: int) -> None:
        if kind == "advert":
            outcome = self.discovery.handle_advertisement(
                Advertisement.from_wire(body), now
            )
            self._audit("advert-in", {"from": src, "outcome": outcome.value})
        elif kind == "register":
            reply = self.discovery.handle_registration(
                RegistrationRequest.from_wire(body), now
            )
            self._audit("register-in", {"from": src})
            if reply is not None:
                self._send("register-reply", src, reply.to_wire())
        elif kind == "register-reply":
            self.discovery.handle_registration_reply(CellProfile.from_wire(body), now)
        elif kind == "update":
            self.ingest_security_update(body, src, now)
        elif kind == "digest":
            self._handle_digest(src, body)
        elif kind == "digest-reply":
            for package_wire in body.get("packages", []):
                self.ingest_security_update(package_wire, src, now)
        elif kind == "op-req":
            _, response = self.handle_operation(body, src, now)
            self._send("op-resp", src, response)
        elif kind == "op-resp":
            self._handle_op_response(src, body, now)
        elif kind == "mgmt-req":
            _, response = self.handle_management(body, src, now)
            self._send("mgmt-resp", src, response)
        else:  # mgmt-resp
            self._audit("mgmt-resp", {"from": src, "status": body.get("status")})

    def _handle_digest(self, src: str, body: Mapping[str, Any]) -> None:
        sender = self.catalogue.get(src)
        if sender is None or not sender.trusted_anywhere():
            self._audit("digest-ignored", {"from": src})
            return
        peer_applied: Mapping[str, int] = body.get("applied", {})
        packages = [
            self.store.archive[origin][seq].to_wire()
            for origin in sorted(self.store.archive)
            for seq in sorted(self.store.archive[origin])
            if seq > peer_applied.get(origin, -1)
        ]
        if packages:
            self._send("digest-reply", src, {"packages": packages})

    def _handle_op_response(
        self, src: str, body: Mapping[str, Any], now: int
    ) -> None:
        pending = self._pending_ops.get(src, [])
        action, _args = pending.pop(0) if pending else ("", {})
        self._audit("op-resp", {"from": src, "action": action,
                                "status": body.get("status")})
        if action == "lookup" and body.get("status") == "ok":
            result = body.get("result") or {}
            for profile_wire in result.get("profiles", []):
                profile = CellProfile.from_wire(profile_wire)
                if profile.cell_id != self.cell_id:
                    self.catalogue.upsert(profile, now)
