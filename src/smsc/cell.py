"""The cell: one self-managing security domain.

A cell bundles a managed resource with everything needed to run it
unattended: an internal message bus, a peer catalogue fed by discovery,
a versioned policy store, and an enforcement point that gates every
operational and management request.  Both kinds of request take one
path: ``send_request`` sends the body, ``handle_request`` gates it at the
receiver, and one prologue denies a name outside the channel's own set
before ``decide_operation`` decides the rest.  The enforcement point
verifies a token once per context and keeps its claims, expanded through
delegation, until it expires, at most ``VERIFIED_CAP`` of them.  A token
read once is recognised from its exact wire form and not parsed again.

Cells never share memory.  All interaction is via the message kinds in
``OutboundMessage``; the simulator (or any other transport) moves those
between cells.

The observer is the cell's one recording channel: every fact the cell
records goes to it as a ``(kind, detail)`` pair, and the simulator
writes each pair to the event log.  Decisions and applied updates are
also published on the bus, and the bus is drained at once: each
envelope's ``bus`` record follows the ``decision`` or applied ``update``
record it reports, so the bus holds nothing between calls.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional

from .bus import MessageBus
from .catalogue import Catalogue, CellProfile, TrustPolicy
from .discovery import DiscoveryService
from .errors import MalformedCommand, SmscError, TokenVerificationError, UnknownCell
from .governance import (
    ApplyReport,
    ApplyStatus,
    ConfigSetting,
    PolicyStore,
    UpdateKind,
    UpdatePackage,
    make_update,
    payload_from_wire,
)
from .policy import (
    AttributePair,
    Decision,
    DecisionRequest,
    PolicyDocument,
    Token,
    Verdict,
    evaluate_request,
    expand_delegations,
    verify_token,
)
from .resources import ManagedResource, build_resource
from .wire import field, integers, is_str_list

Observer = Callable[[str, dict[str, Any]], None]

EXTERNAL_CALLER = "external"

MANAGEMENT_COMMANDS = frozenset(
    {"add-rule", "remove-rule", "flag-spam", "set-config", "set-trust"}
)

# unanswered op-req/mgmt-req ids kept for pairing; the oldest goes first
PENDING_REQUEST_CAP = 256

# entries kept in _verified and in _read_tokens; the oldest goes first
VERIFIED_CAP = 1024

ENVELOPE_KINDS = frozenset({
    "advert", "register", "register-reply", "update", "digest", "digest-reply",
    "op-req", "op-resp", "mgmt-req", "mgmt-resp",
})


class OutboundMessage(NamedTuple):
    kind: str
    dst: str
    body: dict[str, Any]


def _ok(result: Any) -> dict[str, Any]:
    return {"status": "ok", "reason": "permit", "result": result}


def _denied(reason: str) -> dict[str, Any]:
    return {"status": "denied", "reason": reason, "result": None}


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
        self.advertise_interval = advertise_interval
        self.anti_entropy_interval = anti_entropy_interval
        self._observer: Observer = observer or (lambda kind, detail: None)

        self.bus = MessageBus()
        self.catalogue = Catalogue(cell_id, trust_policy)
        self.store = PolicyStore(resource_kind, policy.rules, policy.regression)
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
            self.catalogue, frozenset(contexts), caps, resource_kind, ttl_ticks
        )

        self.outbox: list[OutboundMessage] = []
        self._rr_index = 0
        self._next_request_id = 0
        # requestId -> (response kind, peer asked, action or command)
        self._requests: dict[int, tuple[str, str, str]] = {}
        self._verified: dict[tuple[Token, str], frozenset[AttributePair]] = {}
        self._read_tokens: dict[str, tuple[Token, dict[str, Any]]] = {}

    # --- plumbing ---------------------------------------------------------

    def _send(self, kind: str, dst: str, body: dict[str, Any]) -> None:
        self.outbox.append(OutboundMessage(kind, dst, body))

    def take_outbox(self) -> list[OutboundMessage]:
        out = self.outbox
        self.outbox = []
        return out

    def _publish(self, topic: str, publisher_id: str) -> None:
        """Publish one envelope and write its ``bus`` record at once."""
        self.bus.publish(topic, publisher_id)
        for envelope in self.bus.drain():
            self._observer(
                "bus",
                {"topic": envelope.topic, "publisher": envelope.publisher_id,
                 "busSeq": envelope.bus_seq},
            )

    # --- decision pipeline ------------------------------------------------

    def _wire_tokens(self, body: Mapping[str, Any], where: str) -> Optional[list[Token]]:
        """The request's tokens, or None when one does not parse.  A wire equal to
        a read token's own wire form, with an exact-int ``expiryTick``, is that token."""
        tokens = []
        try:
            for wire in field(body, "tokens", where, list, []):
                sig = wire.get("sig") if isinstance(wire, dict) else None
                kept = self._read_tokens.get(sig) if type(sig) is str else None
                if kept is None or wire != kept[1] or type(wire["expiryTick"]) is not int:
                    token = Token.from_wire(wire)
                    kept = self._read_tokens[token.signature] = (token, token.to_wire())
                    if len(self._read_tokens) > VERIFIED_CAP:
                        del self._read_tokens[next(iter(self._read_tokens))]
                tokens.append(kept[0])
        except SmscError:
            return None
        return tokens

    def _verified_attrs(
        self, tokens: Iterable[Token], context: str, now: int
    ) -> frozenset[AttributePair]:
        """Claims from all tokens, each expanded through in-context delegation."""
        attrs: frozenset[AttributePair] = frozenset()
        for token in tokens:
            expanded = self._verified.get((token, context))
            if expanded is None or now >= token.expiry_tick:
                expanded = self._verified[token, context] = expand_delegations(
                    token.subject, verify_token(token, self.trusted_issuers, now),
                    self.delegations, self.roots, context)
                if len(self._verified) > VERIFIED_CAP:
                    del self._verified[next(iter(self._verified))]
            attrs |= expanded
        return attrs

    def _blocklisted_value(self, args: Mapping[str, Any], context: str) -> Optional[str]:
        """The first arg value on the context's blocklist, in the string
        form the resources read it in: a scalar is screened as ``str(value)``."""
        blocklist = self.store.blocklist
        for value in args.values():
            if type(value) is not str:
                if isinstance(value, (dict, list)):
                    continue
                value = str(value)
            if (context, value) in blocklist:
                return value
        return None

    def decide_operation(
        self, tokens: Optional[Iterable[Token]], action: str,
        args: Mapping[str, Any], context: str, now: int,
    ) -> Decision:
        """The enforcement decision on a request its channel can serve.

        ``tokens`` is None when the request's wire tokens did not parse.
        A management command is decided as action ``mgmt:<command>`` with
        no ``args``, so the blocklist, which screens the args, gates
        operations only.  The checks run in one fixed order: malformed
        token, token verification, blocklist, rules.
        """
        if tokens is None:
            return Decision(Verdict.INDETERMINATE, "indeterminate: malformed-token")
        try:
            attrs = self._verified_attrs(tokens, context, now)
        except TokenVerificationError as exc:
            return Decision(Verdict.INDETERMINATE, f"indeterminate: {exc.tag}")
        if self._blocklisted_value(args, context) is not None:
            return Decision(Verdict.DENY, "blocklisted")
        request = DecisionRequest(attrs, action, self.resource.kind, context, now)
        return evaluate_request(self.store.candidates(request), request)

    def _decide_request(
        self, kind: str, body: Mapping[str, Any], caller: str, now: int
    ) -> tuple[Decision, str, Mapping[str, Any], str]:
        """Read an ``op-req`` or ``mgmt-req`` body, decide it and record
        the decision; returns the decision, name, args and context.  A name
        outside the channel's own set is denied before any token is read."""
        operation = kind == "op-req"
        name = field(body, "action" if operation else "command", kind, str, "")
        args: Mapping[str, Any] = field(body, "args", kind, dict, {}) if operation else {}
        context = field(body, "context", kind, str, "")
        action = name if operation else f"mgmt:{name}"
        if name not in (self.resource.operations if operation else MANAGEMENT_COMMANDS):
            decision = Decision(
                Verdict.DENY, "unknown-action" if operation else "unknown-command")
        else:
            decision = self.decide_operation(
                self._wire_tokens(body, kind), action, args, context, now)
        self._observer("decision", {
            "caller": caller, "action": action, "context": context, **decision.to_wire()})
        self._publish("cell.op", "pep")
        return decision, name, args, context

    def handle_request(
        self, kind: str, body: Mapping[str, Any], caller: str, now: int
    ) -> tuple[Decision, dict[str, Any]]:
        """Gate one ``op-req`` or ``mgmt-req`` body; returns the decision
        and the response body, without its request id."""
        handle = self.handle_operation if kind == "op-req" else self.handle_management
        return handle(body, caller, now)

    def handle_operation(
        self, body: Mapping[str, Any], caller: str, now: int
    ) -> tuple[Decision, dict[str, Any]]:
        decision, action, args, context = self._decide_request("op-req", body, caller, now)
        if decision.verdict is Verdict.PERMIT:
            return decision, _ok(self.resource.invoke(action, args, context))
        return decision, _denied(decision.reason)

    # --- management -------------------------------------------------------

    def handle_management(
        self, body: Mapping[str, Any], caller: str, now: int
    ) -> tuple[Decision, dict[str, Any]]:
        decision, command, _, context = self._decide_request("mgmt-req", body, caller, now)
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
        if command in ("add-rule", "remove-rule"):
            kind = UpdateKind.RULE_ADD if command == "add-rule" else UpdateKind.RULE_REMOVE
            try:
                value = payload_from_wire(kind, payload)
            except SmscError as exc:
                raise MalformedCommand(f"{command}: {exc}") from None
            report = self.emit_update(kind, value, {context}, now, push=False)
            if report.status is ApplyStatus.REJECTED:
                return _denied("impact-rejected")
            rule_id = payload if kind is UpdateKind.RULE_REMOVE else value.id
            return _ok({"ruleId": rule_id, "version": self.store.version})
        if command == "flag-spam":
            entry = payload.get("entry") if isinstance(payload, Mapping) else payload
            if not isinstance(entry, str) or not entry:
                raise MalformedCommand("flag-spam payload must name an entry")
            self.emit_update(UpdateKind.BLOCKLIST_ADD, entry, {context}, now)
            return _ok({"entry": entry, "version": self.store.version})
        if command == "set-config":
            if not isinstance(payload, Mapping) or type(payload.get("key")) is not str:
                raise MalformedCommand("set-config payload must carry a string key and a value")
            setting = ConfigSetting(payload["key"], payload.get("value"))
            self.emit_update(UpdateKind.CONFIG_SET, setting, {context}, now, push=False)
            return _ok({"key": setting.key, "version": self.store.version})
        if not isinstance(payload, Mapping) or not all(map(is_str_list, payload.values())):
            raise MalformedCommand("set-trust payload must map context to capabilities")
        self.catalogue.set_trust_policy(payload)
        self._observer("trust", {"policy": self.catalogue.trust_policy})
        return _ok({"trustPolicy": self.catalogue.trust_policy})

    # --- governance flow --------------------------------------------------

    def emit_update(
        self, kind: UpdateKind, payload: Any, contexts: Iterable[str], now: int,
        push: bool = True,
    ) -> ApplyReport:
        """Own-origin package applied locally, then pushed to trusted peers.

        With ``push=False`` it stays local and only anti-entropy spreads
        it.  A package the local store itself rejects is not distributed.
        The seq follows the own-origin archive, peer-delivered ones included.
        """
        seq = len(self.store.archive.get(self.cell_id, ()))
        package = make_update(self.cell_id, seq, kind, payload, contexts, now)
        report = self.store.apply_update(package)
        self._after_apply(report, via=None, push=push)
        return report

    def ingest_security_update(
        self, package_wire: Mapping[str, Any], from_cell: str
    ) -> ApplyStatus:
        """Ingest one pushed or back-filled package in one guarded step:
        screen or parse it, check its sender, then apply it.

        An exact copy of an archived package stands in as that package, so
        it is neither parsed nor verified again.  A sender not trusted in
        every context the package names makes it ``untrusted-source`` before
        its signature is checked.  A package that does not parse or fails
        its signature check is logged as ``invalid`` and never raises, so one
        hostile peer cannot abort the caller's loop.  A package the full gap
        buffer drops is logged as ``evicted``.
        """
        try:
            package = (self.store.archived_copy(package_wire)
                       or UpdatePackage.from_wire(package_wire))
            sender = self.catalogue.get(from_cell)
            trusts = self.catalogue.trusts
            if sender is None or not all(trusts(sender.profile, c) for c in package.contexts):
                report = ApplyReport(ApplyStatus.UNTRUSTED_SOURCE)
            else:
                report = self.store.apply_update(package)
        except SmscError as exc:
            self._observer("update", {"status": ApplyStatus.INVALID.value, "from": from_cell,
                                      "error": type(exc).__name__})
            return ApplyStatus.INVALID
        if report.consumed:
            self._after_apply(report, via=from_cell, push=True)
        else:  # duplicate, buffered or untrusted-source
            self._update_record(package, report.status.value, from_cell)
        if report.evicted is not None:
            self._update_record(report.evicted, "evicted", from_cell)
        return report.status

    def _update_record(self, package: UpdatePackage, status: str, from_cell: str) -> None:
        self._observer("update", {"origin": package.origin, "seq": package.seq,
                                  "status": status, "from": from_cell})

    def _after_apply(
        self, report: ApplyReport, via: Optional[str], push: bool
    ) -> None:
        """Record each consumed package; an applied one with the store
        version it produced, counted back from the version after the call."""
        version = self.store.version - sum(reason is None for _, reason in report.consumed)
        for package, reason in report.consumed:
            detail = {"origin": package.origin, "seq": package.seq,
                      "kind": package.kind.value}
            if reason is not None:
                self._observer("update", {**detail, "status": "rejected", "detail": reason})
                continue
            version += 1
            self._observer("update", {**detail, "status": "applied", "version": version})
            self._publish("policy.updated", "governance")
            if push:
                self._forward(package, via)

    def _forward(self, package: UpdatePackage, via: Optional[str]) -> None:
        targets = {entry.profile.cell_id for context in package.contexts
                   for entry in self.catalogue.query(context=context, trusted_only=True)}
        wire = package.to_wire()
        for target in sorted(targets - {package.origin, via}):
            self._send("update", target, wire)

    # --- periodic work ----------------------------------------------------

    def on_tick(self, now: int) -> None:
        """Periodic work: expire stale peers, then advertise and send a
        digest when they are due.

        It may be called every tick.  On a tick before ``due_tick`` it
        records and sends nothing, which is why the simulator calls it
        only for due cells."""
        for cell_id in self.catalogue.expire_stale(now):
            self._observer("peer-expired", {"peer": cell_id})
        if now % self.advertise_interval == 0:
            self.advertise_now()
        if now % self.anti_entropy_interval == 0:
            self._send_digest()

    def due_tick(self, now: int) -> int:
        """The first tick from ``now`` on whose ``on_tick`` may record or
        send: the next advert or digest tick, or the catalogue's expiry
        bound if that is sooner."""
        return max(now, min(now + -now % self.advertise_interval,
                            now + -now % self.anti_entropy_interval,
                            self.catalogue.earliest_expiry))

    def advertise_now(self) -> None:
        self._send("advert", "*", self.discovery.make_advertisement())

    def _send_digest(self) -> None:
        partners = self.catalogue.trusted_partners()
        if not partners:
            return
        target = partners[self._rr_index % len(partners)]
        self._rr_index += 1
        self._send("digest", target, {"applied": self.store.digest()})

    # --- script entry points ---------------------------------------------

    def send_request(self, kind: str, dst: str, body: Mapping[str, Any]) -> None:
        """Send an ``op-req`` or ``mgmt-req`` body to ``dst`` under a fresh
        request id, remembered with the body's action or command until
        its response arrives."""
        request_id = self._next_request_id
        self._next_request_id += 1
        name = body["action" if kind == "op-req" else "command"]
        self._requests[request_id] = (kind.replace("req", "resp"), dst, name)
        if len(self._requests) > PENDING_REQUEST_CAP:
            del self._requests[next(iter(self._requests))]
        self._send(kind, dst, {**body, "requestId": request_id})

    def register_with(self, dst: str, want_reply: bool = True) -> None:
        self._send("register", dst, self.discovery.make_registration(dst, want_reply))

    # --- transport entry point -------------------------------------------

    def handle_envelope(
        self, kind: str, src: str, body: Mapping[str, Any], now: int
    ) -> None:
        """Route one envelope from a peer.

        An unknown kind raises ``UnknownCell``.  A body its handler cannot
        read (one that ``wire`` refuses) or act on is contained: it is
        logged as one ``reject`` record naming the ``SmscError`` class and
        never raises, so one hostile peer cannot abort the caller's loop.
        """
        if kind not in ENVELOPE_KINDS:
            raise UnknownCell(f"unroutable envelope kind {kind!r}")
        try:
            self._route(kind, src, body, now)
        except SmscError as exc:
            self._observer(
                "reject", {"kind": kind, "from": src, "error": type(exc).__name__}
            )

    def _route(self, kind: str, src: str, body: Mapping[str, Any], now: int) -> None:
        if kind == "advert":
            self.discovery.handle_advertisement(body, now)
        elif kind == "register":
            reply = self.discovery.handle_registration(body, now)
            if reply is not None:
                self._send("register-reply", src, reply)
        elif kind == "register-reply":
            self.catalogue.upsert(CellProfile.from_wire(body), now)
        elif kind == "update":
            self.ingest_security_update(body, src)
        elif kind == "digest":
            self._handle_digest(src, body)
        elif kind == "digest-reply":
            for package_wire in field(body, "packages", kind, list, []):
                self.ingest_security_update(package_wire, src)
        elif kind in ("op-req", "mgmt-req"):
            request_id = field(body, "requestId", kind, int, None)
            _, response = self.handle_request(kind, body, src, now)
            self._send(kind.replace("req", "resp"), src, {**response, "requestId": request_id})
        else:  # op-resp, mgmt-resp
            self._handle_response(kind, src, body, now)

    def _handle_digest(self, src: str, body: Mapping[str, Any]) -> None:
        if src not in self.catalogue.trusted_partners():
            self._observer("digest-ignored", {"from": src})
            return
        archive, marks = self.store.archive, integers(body, "applied", "digest", {})
        packages = [
            package.to_wire()
            for origin in sorted(archive)
            for package in archive[origin][max(marks.get(origin, -1) + 1, 0):]
        ]
        if packages:
            self._send("digest-reply", src, {"packages": packages})

    def _handle_response(
        self, kind: str, src: str, body: Mapping[str, Any], now: int
    ) -> None:
        """Pair a response with its request by id.  A response whose id is
        unknown, or that comes from another peer or on the other channel,
        is recorded with a null action and not acted on."""
        request_id = field(body, "requestId", kind, int, None)
        status = field(body, "status", kind, str, None)
        request = self._requests.get(request_id)
        name = None
        if request is not None and request[:2] == (kind, src):
            del self._requests[request_id]
            name = request[2]
        self._observer(kind, {
            "from": src, "requestId": request_id, "status": status,
            "action" if kind == "op-resp" else "command": name,
        })
        if kind == "op-resp" and name == "lookup" and status == "ok":
            result = field(body, "result", kind, dict, None) or {}
            for profile_wire in field(result, "profiles", kind, list, []):
                profile = CellProfile.from_wire(profile_wire)
                if profile.cell_id != self.cell_id:
                    self.catalogue.upsert(profile, now)
