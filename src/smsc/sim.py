"""Deterministic discrete-event simulation of a cell federation.

Time is a logical tick counter.  Within one tick the order of work is
fixed: scripted actions, then network deliveries, then each cell's
periodic tick, then dispatch of everything the cells produced, then any
assertions scheduled for that tick.  All iteration is over sorted ids
and monotonic sequence numbers, and every random draw comes from a
per-link counter-free generator seeded from the scenario seed, so two
runs of the same scenario produce byte-identical event logs.

Message loss: every envelope due for delivery consumes exactly one draw
from its link's stream, whether or not a partition already doomed it.
Loss decisions therefore do not depend on partition timing, which keeps
fault-injection experiments comparable across configurations.

The per-tick structures are built once, in ``Simulator.__init__``, and
rely on three invariants:

* Links never change after construction, so the neighbour lists and
  the ``(src, dst)`` to link-key map stay valid for the whole run.
* In-flight envelopes are bucketed by delivery tick, and each bucket is
  in ``net_seq`` order, because ``net_seq`` is assigned in append order.
  Loss draws are therefore taken in ``net_seq`` order without a sort.
* Surviving envelopes are delivered in ``(dst, net_seq)`` order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Optional, TextIO

from .cell import EXTERNAL_CALLER, Cell
from .errors import (
    InvalidProbability,
    ParseError,
    SmscError,
    UnknownCellRef,
)
from .governance import UpdateKind, payload_from_wire
from .policy import (
    PolicyDocument,
    Token,
    attrs_from_wire,
    canonical_json,
    issue_token,
    load_policy_document,
)
from .prng import SplitMix64, stream_for_link

SIM = "-"  # the "cell" column for simulator-level log records


# --- scenario model -------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    cell_id: str
    contexts: tuple[str, ...]
    capabilities: Optional[tuple[str, ...]]
    ttl_ticks: int
    resource_kind: str
    policy: PolicyDocument
    trust_policy: dict[str, list[str]]
    advertise_interval: int
    anti_entropy_interval: int


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    latency: int = 1
    drop: float = 0.0


@dataclass(frozen=True)
class PartitionWindow:
    """Cuts traffic between the two groups for deliveries due in
    ``[from_tick, to_tick)``; ``to_tick`` None means still open."""

    group_a: frozenset[str]
    group_b: frozenset[str]
    from_tick: int
    to_tick: Optional[int] = None

    def cuts(self, src: str, dst: str, tick: int) -> bool:
        if tick < self.from_tick:
            return False
        if self.to_tick is not None and tick >= self.to_tick:
            return False
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


@dataclass(frozen=True)
class ScriptAction:
    tick: int
    op: str
    params: Mapping[str, Any]


@dataclass(frozen=True)
class AssertionSpec:
    id: str
    at_tick: Optional[int]  # None means: after the final tick
    check: str
    params: Mapping[str, Any]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    max_ticks: int
    cells: tuple[CellSpec, ...]
    links: tuple[LinkSpec, ...]
    partitions: tuple[PartitionWindow, ...]
    script: tuple[ScriptAction, ...]
    assertions: tuple[AssertionSpec, ...]


# --- scenario parsing -----------------------------------------------------

PolicyResolver = Callable[[str], PolicyDocument]

_SCRIPT_OPS = {
    "advertise": ("cell",),
    "register": ("cell", "with"),
    "send-op": ("to", "action", "context"),
    "send-mgmt": ("to", "command", "context"),
    "emit-update": ("cell", "kind", "payload", "contexts"),
    "partition": ("a", "b"),
    "heal": (),
}

_CHECKS = {
    "decision-equals": ("cell", "action", "expected"),
    "store-version": ("cell", "expected"),
    "catalogue-contains": ("cell", "peer"),
    "converged": (),
    "blocklist-contains": ("cell", "context", "entry"),
}


def _require(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise ParseError(f"{where}: missing field {key!r}")
    return data[key]


def _require_list(data: Mapping[str, Any], key: str, where: str) -> list[Any]:
    value = _require(data, key, where)
    if not isinstance(value, list):
        raise ParseError(f"{where}: {key!r} must be a list")
    return value


def _as_int(value: Any, key: str, where: str) -> int:
    if type(value) is not int:  # rejects bool too
        raise ParseError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value


def _require_int(data: Mapping[str, Any], key: str, where: str) -> int:
    return _as_int(_require(data, key, where), key, where)


def _optional_int(data: Mapping[str, Any], key: str, where: str) -> Optional[int]:
    """``data[key]`` checked as an integer, or None when absent or null."""
    value = data.get(key)
    return None if value is None else _as_int(value, key, where)


def _check_tokens(tokens: Any, where: str) -> None:
    """Each stanza must be one ``token_wire_from_spec`` can turn into a token."""
    if not isinstance(tokens, list):
        raise ParseError(f"{where}: 'tokens' must be a list")
    for index, data in enumerate(tokens):
        at = f"{where} tokens[{index}]"
        if not isinstance(data, Mapping):
            raise ParseError(f"{at}: token stanza must be an object")
        for key in ("issuer", "subject", "expiryTick"):
            _require(data, key, at)
        claims = data.get("claims", {})
        if not isinstance(claims, Mapping) or not all(isinstance(v, list) for v in claims.values()):
            raise ParseError(f"{at}: 'claims' must map names to lists of values")


def _check_cell_ref(ref: Any, known: set[str], where: str) -> str:
    if ref not in known:
        raise UnknownCellRef(f"{where}: unknown cell {ref!r}")
    return ref


def _parse_cell(data: Mapping[str, Any], resolver: Optional[PolicyResolver]) -> CellSpec:
    cell_id = _require(data, "cellId", "cell")
    where = f"cell {cell_id!r}"
    profile = _require(data, "profile", where)
    contexts = tuple(_require(profile, "contexts", f"{where} profile"))
    if not contexts:
        raise ParseError(f"{where}: profile.contexts is empty")
    capabilities = profile.get("capabilities")
    ttl = profile.get("ttlTicks", 30)
    if type(ttl) is not int or ttl < 1:
        raise ParseError(f"{where}: profile 'ttlTicks' must be an integer >= 1, got {ttl!r}")
    resource_kind = _require(data, "resourceKind", where)
    if "policy" in data:
        policy = PolicyDocument.from_wire(data["policy"])
    elif "policyFile" in data:
        if resolver is None:
            raise ParseError(f"{where}: policyFile given but no way to resolve it")
        policy = resolver(data["policyFile"])
    else:
        policy = PolicyDocument()
    trust_policy = data.get("trustPolicy")
    if trust_policy is None:
        # default: inside its own contexts, a cell trusts whoever shows up
        trust_policy = {c: [] for c in contexts}
    intervals = data.get("intervals", {})
    advertise = intervals.get("advertise", 10)
    anti_entropy = intervals.get("antiEntropy", 5)
    if (type(advertise) is not int or type(anti_entropy) is not int
            or advertise < 1 or anti_entropy < 1):
        raise ParseError(f"{where}: intervals must be integers >= 1, got {intervals!r}")
    return CellSpec(
        cell_id=cell_id,
        contexts=contexts,
        capabilities=tuple(capabilities) if capabilities is not None else None,
        ttl_ticks=ttl,
        resource_kind=resource_kind,
        policy=policy,
        trust_policy={str(c): [str(x) for x in caps] for c, caps in trust_policy.items()},
        advertise_interval=advertise,
        anti_entropy_interval=anti_entropy,
    )


def _parse_link(data: Mapping[str, Any], known: set[str]) -> LinkSpec:
    a = _check_cell_ref(_require(data, "a", "link"), known, "link")
    b = _check_cell_ref(_require(data, "b", "link"), known, "link")
    if a == b:
        raise ParseError(f"link: {a!r} linked to itself")
    latency = data.get("latency", 1)
    if type(latency) is not int or latency < 1:
        raise ParseError(f"link {a}-{b}: 'latency' must be an integer >= 1, got {latency!r}")
    drop = float(data.get("drop", 0.0))
    if not 0.0 <= drop <= 1.0:
        raise InvalidProbability(f"link {a}-{b}: drop {drop} outside [0, 1]")
    return LinkSpec(a, b, latency, drop)


def _parse_partition(data: Mapping[str, Any], known: set[str]) -> PartitionWindow:
    group_a, group_b = (
        frozenset(_check_cell_ref(c, known, "partition")
                  for c in _require_list(data, key, "partition"))
        for key in ("a", "b")
    )
    if group_a & group_b:
        raise ParseError("partition: groups overlap")
    return PartitionWindow(
        group_a, group_b,
        _require_int(data, "from", "partition"), _optional_int(data, "to", "partition"),
    )


def _parse_script(
    actions: Iterable[Mapping[str, Any]], known: set[str]
) -> tuple[ScriptAction, ...]:
    out: list[ScriptAction] = []
    last_tick = 0
    for index, data in enumerate(actions):
        where = f"script[{index}]"
        tick = _require_int(data, "tick", where)
        if tick < last_tick:
            raise ParseError(f"{where}: ticks must be non-decreasing")
        last_tick = tick
        op = _require(data, "op", where)
        if op not in _SCRIPT_OPS:
            raise ParseError(f"{where}: unknown op {op!r}")
        for key in _SCRIPT_OPS[op]:
            _require(data, key, f"{where} ({op})")
        for key in ("cell", "to", "from", "with"):
            if key in data:
                _check_cell_ref(data[key], known, where)
        if op == "partition":
            _optional_int(data, "until", where)
            for key in ("a", "b"):
                for ref in _require_list(data, key, where):
                    _check_cell_ref(ref, known, where)
        if op in ("send-op", "send-mgmt"):
            _check_tokens(data.get("tokens", []), where)
        if op == "send-op" and not isinstance(data.get("args", {}), Mapping):
            raise ParseError(f"{where}: 'args' must be an object")
        if op == "emit-update":
            if data["kind"] not in [kind.value for kind in UpdateKind]:
                raise ParseError(f"{where}: unknown update kind {data['kind']!r}")
            contexts = _require_list(data, "contexts", where)
            if not contexts or not all(isinstance(c, str) for c in contexts):
                raise ParseError(f"{where}: 'contexts' must list at least one context")
        params = {k: v for k, v in data.items() if k not in ("tick", "op")}
        out.append(ScriptAction(tick, op, params))
    return tuple(out)


def _parse_assertions(
    specs: Iterable[Mapping[str, Any]], known: set[str]
) -> tuple[AssertionSpec, ...]:
    out: list[AssertionSpec] = []
    for index, data in enumerate(specs):
        where = f"assertions[{index}]"
        check = _require(data, "check", where)
        if check not in _CHECKS:
            raise ParseError(f"{where}: unknown check {check!r}")
        for key in _CHECKS[check]:
            _require(data, key, f"{where} ({check})")
        if check == "decision-equals" and data["expected"] not in (
            "Permit", "Deny", "NotApplicable", "Indeterminate"
        ):
            raise ParseError(f"{where}: bad expected verdict {data['expected']!r}")
        for key in ("cell", "peer"):
            if key in data:
                _check_cell_ref(data[key], known, where)
        if check == "converged":
            for ref in data.get("cells", []):
                _check_cell_ref(ref, known, where)
        if "atTick" not in data and not data.get("atEnd"):
            raise ParseError(f"{where}: needs atTick or atEnd")
        params = {
            k: v for k, v in data.items()
            if k not in ("id", "check", "atTick", "atEnd")
        }
        out.append(
            AssertionSpec(
                id=data.get("id", f"a{index}"),
                at_tick=_optional_int(data, "atTick", where),
                check=check,
                params=params,
            )
        )
    return tuple(out)


def parse_scenario(
    data: Mapping[str, Any], resolver: Optional[PolicyResolver] = None
) -> ScenarioSpec:
    cells = tuple(_parse_cell(c, resolver) for c in _require(data, "cells", "scenario"))
    if not cells:
        raise ParseError("scenario: no cells")
    known = {c.cell_id for c in cells}
    if len(known) != len(cells):
        raise ParseError("scenario: duplicate cell ids")
    topology = data.get("topology", {})
    links = tuple(_parse_link(l, known) for l in topology.get("links", []))
    seen_links = set()
    for link in links:
        key = frozenset((link.a, link.b))
        if key in seen_links:
            raise ParseError(f"scenario: duplicate link {link.a}-{link.b}")
        seen_links.add(key)
    partitions = tuple(
        _parse_partition(p, known) for p in topology.get("partitions", [])
    )
    max_ticks = data.get("maxTicks", 10)
    if type(max_ticks) is not int or max_ticks < 0:
        raise ParseError(f"scenario: 'maxTicks' must be an integer >= 0, got {max_ticks!r}")
    return ScenarioSpec(
        name=data.get("name", "unnamed"),
        seed=int(data.get("seed", 1)),
        max_ticks=max_ticks,
        cells=cells,
        links=links,
        partitions=partitions,
        script=_parse_script(data.get("script", []), known),
        assertions=_parse_assertions(data.get("assertions", []), known),
    )


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))

    def resolver(name: str) -> PolicyDocument:
        return load_policy_document(os.path.join(base, name))

    return parse_scenario(data, resolver)


def token_wire_from_spec(data: Mapping[str, Any]) -> dict[str, Any]:
    """Scenario token stanzas carry claims as a name-to-values map and may
    omit the signature, in which case the named issuer signs."""
    claims = attrs_from_wire(data.get("claims", {}))
    if "sig" in data:
        token = Token(
            subject=data["subject"],
            claims=frozenset(claims),
            issuer=data["issuer"],
            expiry_tick=data["expiryTick"],
            signature=data["sig"],
        )
    else:
        token = issue_token(data["subject"], claims, data["issuer"], data["expiryTick"])
    return token.to_wire()


# --- the event log --------------------------------------------------------


class EventLog:
    """Append-only JSON-lines log, held in one place: a log with a sink
    writes every line to it and keeps nothing; one without keeps the
    encoded lines, and ``records`` decodes them on demand."""

    def __init__(self, sink: Optional[TextIO] = None):
        self._sink = sink
        self.lines: list[str] = []

    @property
    def records(self) -> list[dict[str, Any]]:
        return [json.loads(line) for line in self.lines]

    def record(self, tick: int, cell: str, kind: str, detail: Mapping[str, Any]) -> None:
        entry = {"tick": tick, "cell": cell, "kind": kind, "detail": dict(detail)}
        line = canonical_json(entry)
        if self._sink is None:
            self.lines.append(line)
        else:
            self._sink.write(line + "\n")


# --- the simulator --------------------------------------------------------


@dataclass(frozen=True)
class SimEnvelope:
    kind: str
    src: str
    dst: str
    net_seq: int
    body: Mapping[str, Any]


class Simulator:
    def __init__(self, spec: ScenarioSpec, log: Optional[EventLog] = None):
        self.spec = spec
        self.log = log or EventLog()
        self.tick = 0
        self.cells: dict[str, Cell] = {}
        # latest decision detail by (cell, action, context) and by
        # (cell, action, None), for ``decision-equals``
        self._latest: dict[tuple[str, str, Optional[str]], dict[str, Any]] = {}
        for cs in spec.cells:
            self.cells[cs.cell_id] = Cell(
                cell_id=cs.cell_id,
                contexts=cs.contexts,
                resource_kind=cs.resource_kind,
                policy=cs.policy,
                trust_policy=cs.trust_policy,
                advertise_interval=cs.advertise_interval,
                anti_entropy_interval=cs.anti_entropy_interval,
                ttl_ticks=cs.ttl_ticks,
                capabilities=cs.capabilities,
                observer=self._make_observer(cs.cell_id),
            )
        self._cell_order = sorted(self.cells)
        self.links: dict[frozenset[str], LinkSpec] = {}
        self._link_keys: dict[tuple[str, str], frozenset[str]] = {}
        self._adjacency: dict[str, list[str]] = {}
        for link in spec.links:
            a, b = link.a, link.b
            key = frozenset((a, b))
            if key not in self.links:
                self._adjacency.setdefault(a, []).append(b)
                self._adjacency.setdefault(b, []).append(a)
            self.links[key] = link
            self._link_keys[a, b] = self._link_keys[b, a] = key
        for peers in self._adjacency.values():
            peers.sort()
        self._streams: dict[frozenset[str], SplitMix64] = {}
        self.partitions: list[PartitionWindow] = list(spec.partitions)
        self._in_flight: dict[int, list[SimEnvelope]] = {}
        self._next_net_seq = 0
        self._script_by_tick: dict[int, list[ScriptAction]] = {}
        for action in spec.script:
            self._script_by_tick.setdefault(action.tick, []).append(action)
        self.results: list[dict[str, Any]] = []

    def _make_observer(self, cell_id: str):
        def observe(kind: str, detail: dict[str, Any]) -> None:
            self.log.record(self.tick, cell_id, kind, detail)
            if kind == "decision":
                action = detail.get("action")
                self._latest[cell_id, action, detail.get("context")] = detail
                self._latest[cell_id, action, None] = detail

        return observe

    # --- topology helpers -------------------------------------------------

    def _stream(self, key: frozenset[str]) -> SplitMix64:
        if key not in self._streams:
            a, b = sorted(key)
            self._streams[key] = stream_for_link(self.spec.seed, a, b)
        return self._streams[key]

    def _neighbors(self, cell_id: str) -> list[str]:
        return self._adjacency.get(cell_id, [])

    def _partitioned(self, src: str, dst: str, tick: int) -> bool:
        return any(w.cuts(src, dst, tick) for w in self.partitions)

    # --- fault injection --------------------------------------------------

    def inject_partition(
        self, a: Iterable[str], b: Iterable[str], to_tick: Optional[int] = None
    ) -> None:
        window = PartitionWindow(frozenset(a), frozenset(b), self.tick, to_tick)
        self.partitions.append(window)
        self.log.record(self.tick, SIM, "fault", {
            "fault": "partition",
            "a": sorted(window.group_a),
            "b": sorted(window.group_b),
            "to": to_tick,
        })

    def inject_heal(self) -> None:
        self.partitions = [
            replace(w, to_tick=self.tick)
            if w.to_tick is None or w.to_tick > self.tick else w
            for w in self.partitions
        ]
        self.log.record(self.tick, SIM, "fault", {"fault": "heal"})

    # --- per-tick machinery -----------------------------------------------

    def _run_script(self, tick: int) -> None:
        for action in self._script_by_tick.get(tick, []):
            self._apply_action(action, tick)

    def _apply_action(self, action: ScriptAction, tick: int) -> None:
        p = action.params
        if action.op == "advertise":
            self.cells[p["cell"]].advertise_now(tick)
        elif action.op == "register":
            self.cells[p["cell"]].register_with(
                p["with"], tick, p.get("wantReply", True)
            )
        elif action.op == "send-op":
            wires = [token_wire_from_spec(t) for t in p.get("tokens", [])]
            if "from" in p:
                self.cells[p["from"]].request_operation(
                    p["to"], [Token.from_wire(w) for w in wires],
                    p["action"], p.get("args", {}), p["context"],
                )
            else:
                body = {"tokens": wires, "action": p["action"],
                        "args": p.get("args", {}), "context": p["context"]}
                self.cells[p["to"]].handle_operation(body, EXTERNAL_CALLER, tick)
        elif action.op == "send-mgmt":
            wires = [token_wire_from_spec(t) for t in p.get("tokens", [])]
            if "from" in p:
                self.cells[p["from"]].request_management(
                    p["to"], [Token.from_wire(w) for w in wires],
                    p["command"], p.get("payload"), p["context"],
                )
            else:
                body = {"tokens": wires, "command": p["command"],
                        "payload": p.get("payload"), "context": p["context"]}
                self.cells[p["to"]].handle_management(body, EXTERNAL_CALLER, tick)
        elif action.op == "emit-update":
            kind = UpdateKind(p["kind"])
            payload = payload_from_wire(kind, p["payload"])
            self.cells[p["cell"]].emit_update(
                kind, payload, set(p["contexts"]), tick
            )
        elif action.op == "partition":
            self.inject_partition(p["a"], p["b"], p.get("until"))
        elif action.op == "heal":
            self.inject_heal()

    def _deliver_due(self, tick: int) -> None:
        survivors: list[SimEnvelope] = []
        for envelope in self._in_flight.pop(tick, ()):
            key = self._link_keys[envelope.src, envelope.dst]
            draw = self._stream(key).next_float()
            if self._partitioned(envelope.src, envelope.dst, tick):
                reason = "partition"
            elif draw < self.links[key].drop:
                reason = "loss"
            else:
                survivors.append(envelope)
                continue
            self.log.record(tick, envelope.dst, "drop", {
                "kind": envelope.kind, "src": envelope.src,
                "netSeq": envelope.net_seq, "reason": reason,
            })
        # survivors are in net_seq order; the stable sort keeps it per dst
        survivors.sort(key=lambda e: e.dst)
        for envelope in survivors:
            self.log.record(tick, envelope.dst, "deliver", {
                "kind": envelope.kind, "src": envelope.src,
                "netSeq": envelope.net_seq,
            })
            self.cells[envelope.dst].handle_envelope(
                envelope.kind, envelope.src, envelope.body, tick
            )

    def _dispatch_outboxes(self, tick: int) -> None:
        for cell_id in self._cell_order:
            for message in self.cells[cell_id].take_outbox():
                if message.dst == "*":
                    for neighbor in self._neighbors(cell_id):
                        self._enqueue(message.kind, cell_id, neighbor,
                                      message.body, tick)
                else:
                    self._enqueue(message.kind, cell_id, message.dst,
                                  message.body, tick)

    def _enqueue(
        self, kind: str, src: str, dst: str, body: Mapping[str, Any], tick: int
    ) -> None:
        key = self._link_keys.get((src, dst))
        if key is None or dst not in self.cells:
            self.log.record(tick, src, "drop", {
                "kind": kind, "dst": dst, "reason": "no-link",
            })
            return
        deliver_tick = tick + self.links[key].latency
        self._in_flight.setdefault(deliver_tick, []).append(SimEnvelope(
            kind=kind, src=src, dst=dst, net_seq=self._next_net_seq, body=body,
        ))
        self._next_net_seq += 1

    # --- assertions -------------------------------------------------------

    def _evaluate_assertion(self, spec: AssertionSpec) -> dict[str, Any]:
        p = spec.params
        if spec.check == "decision-equals":
            found = self._latest.get((p["cell"], p["action"], p.get("context")))
            got = found["verdict"] if found else "no-decision"
            ok = got == p["expected"]
            detail = f"{p['cell']}/{p['action']}: {got}, expected {p['expected']}"
        elif spec.check == "store-version":
            got = self.cells[p["cell"]].store.version
            ok = got == p["expected"]
            detail = f"{p['cell']} store version {got}, expected {p['expected']}"
        elif spec.check == "catalogue-contains":
            present = self.cells[p["cell"]].catalogue.get(p["peer"]) is not None
            expected = bool(p.get("expected", True))
            ok = present == expected
            detail = (f"{p['cell']} catalogue has {p['peer']}: {present}, "
                      f"expected {expected}")
        elif spec.check == "converged":
            ids = p.get("cells") or sorted(self.cells)
            digests = {cid: self.cells[cid].store.digest() for cid in ids}
            baseline = digests[ids[0]]
            ok = all(d == baseline for d in digests.values())
            detail = ("all stores converged" if ok
                      else f"divergent digests: {digests}")
        else:  # blocklist-contains
            present = (p["context"], p["entry"]) in self.cells[p["cell"]].store.blocklist
            expected = bool(p.get("expected", True))
            ok = present == expected
            detail = (f"{p['cell']} blocklist has {p['context']}/{p['entry']}: "
                      f"{present}, expected {expected}")
        entry = {"id": spec.id, "ok": ok, "detail": detail}
        self.log.record(self.tick, SIM, "assert", entry)
        self.results.append(entry)
        return entry

    def _run_assertions(self, tick: Optional[int]) -> None:
        for spec in self.spec.assertions:
            due = spec.at_tick is None if tick is None else spec.at_tick == tick
            if due:
                self._evaluate_assertion(spec)

    # --- main loop --------------------------------------------------------

    def _step_body(self, tick: int) -> None:
        self._run_script(tick)
        if tick > 0:
            self._deliver_due(tick)
        for cell_id in self._cell_order:
            self.cells[cell_id].on_tick(tick)
        self._dispatch_outboxes(tick)
        self._run_assertions(tick)

    def step(self) -> None:
        self.tick += 1
        self._step_body(self.tick)

    def run(self) -> dict[str, Any]:
        try:
            self._step_body(0)
            while self.tick < self.spec.max_ticks:
                self.step()
            self._run_assertions(None)
        except SmscError as exc:
            # the failed tick's on_tick calls may not have run
            for cell_id in self._cell_order:
                self.cells[cell_id].record_bus()
            entry = {
                "id": "run-error", "ok": False,
                "detail": f"{type(exc).__name__}: {exc}",
            }
            self.log.record(self.tick, SIM, "assert", entry)
            self.results.append(entry)
        failed = any(not r["ok"] for r in self.results)
        unfired = bool(self.spec.assertions) and not self.results
        passed = not failed and not unfired
        self.log.record(self.tick, SIM, "end", {"passed": passed})
        return {
            "passed": passed,
            "assertions": [dict(r) for r in self.results],
            "finalTick": self.tick,
        }


def run_scenario(
    spec: ScenarioSpec,
    log_path: Optional[str] = None,
    report_path: Optional[str] = None,
) -> dict[str, Any]:
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as sink:
            report = Simulator(spec, EventLog(sink)).run()
    else:
        report = Simulator(spec).run()
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
