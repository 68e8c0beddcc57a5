"""Deterministic discrete-event simulation of a cell federation.

Time is a logical tick counter.  Within one tick the order of work is
fixed: scripted actions, then network deliveries, then the periodic
tick of each cell that is due, in id order, then dispatch of everything
the cells produced, then any assertions scheduled for that tick.  All
iteration is over sorted ids and monotonic sequence numbers, and every
random draw comes from a per-link counter-free generator seeded from the
scenario seed, so two runs of the same scenario produce byte-identical
event logs.

Message loss: every envelope due for delivery consumes exactly one draw
from its link's stream, whether or not a partition already doomed it.
Loss decisions therefore do not depend on partition timing, which keeps
fault-injection experiments comparable across configurations.  It also
makes skipping the partition check exact while no partition window is
set: the draw is taken all the same.

The per-tick structures are built once, in ``Simulator.__init__``, and
rely on four invariants:

* Links never change after construction, so the neighbour lists and
  the route table stay valid for the whole run.  The route table maps
  each ``(src, dst)`` direction of a link to its link key, latency and
  drop probability, so that sending and delivering an envelope each
  look its link up once.  A link's stream is made on its first use.
* In-flight envelopes are bucketed by delivery tick, and each bucket is
  in ``net_seq`` order, because ``net_seq`` is assigned in append order.
  Loss draws are therefore taken in ``net_seq`` order without a sort.
* Surviving envelopes are delivered in ``(dst, net_seq)`` order.
* A cell's ``Cell.due_tick`` depends only on its own state and the
  tick, and cells share no memory.  Asking every cell once per tick,
  after that tick's script and deliveries, therefore sees every change
  they made, and ``on_tick`` runs only on the cells due then.  Before
  its due tick a cell's ``on_tick`` would record and send nothing.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import AbstractSet, Any, Callable, Mapping, NamedTuple, Optional, TextIO

from .cell import EXTERNAL_CALLER, Cell
from .errors import InvalidProbability, ParseError, SmscError, UnknownCellRef
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
from .resources import RESOURCE_KINDS
from .wire import field, member, objects, string_lists, strings

SIM = "-"  # the "cell" column for simulator-level log records


# --- scenario model -------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """A cell as loaded: its fields are the arguments of ``Cell``."""

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
    """Cuts traffic between the two groups from the tick of the
    ``partition`` op that opened it, up to ``to_tick`` (exclusive) or, when
    that is None, until a ``heal``.  The simulator drops a window at its
    ``to_tick``, so ``cuts`` tests only the groups."""

    group_a: frozenset[str]
    group_b: frozenset[str]
    to_tick: Optional[int] = None

    def cuts(self, src: str, dst: str) -> bool:
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


@dataclass(frozen=True)
class ScriptAction:
    """One scripted action, built at load: its params hold exactly the
    fields ``_SCRIPT_OPS`` declares for its op, plus what the run executes.
    A ``send-op`` or ``send-mgmt`` carries its request ``kind`` (``op-req``
    or ``mgmt-req``) and its wire ``body``, an ``emit-update`` its
    ``UpdateKind`` and parsed payload, a ``partition`` its groups as sets."""

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
    script: tuple[ScriptAction, ...]
    assertions: tuple[AssertionSpec, ...]


# --- scenario parsing -----------------------------------------------------

PolicyResolver = Callable[[str], PolicyDocument]

# Each field of an op or check, declared once: its type, or a (type,
# default) pair when it may be absent.  CELL is a known cell id, CELLS a
# non-empty list of them.  A field declared nowhere is refused.
CELL, CELLS = object(), object()

_ACTION = {"tick": int, "op": str}
_SCRIPT_OPS = {
    "advertise": {"cell": CELL},
    "register": {"cell": CELL, "with": CELL, "wantReply": (bool, True)},
    "send-op": {"to": CELL, "from": (CELL, None), "action": str, "context": str,
                "tokens": (list, []), "args": (dict, {})},
    "send-mgmt": {"to": CELL, "from": (CELL, None), "command": str, "context": str,
                  "tokens": (list, []), "payload": (object, None)},
    "emit-update": {"cell": CELL, "kind": str, "payload": object, "contexts": list},
    "partition": {"a": CELLS, "b": CELLS, "until": (int, None)},
    "heal": {},
}

_ASSERTION = {"check": str, "id": (str, None), "atTick": (int, None), "atEnd": (bool, False)}
_CHECKS = {
    "decision-equals": {"cell": CELL, "action": str, "context": (str, None), "expected": str},
    "store-version": {"cell": CELL, "expected": int},
    "catalogue-contains": {"cell": CELL, "peer": CELL, "expected": (bool, True)},
    "converged": {"cells": (CELLS, None)},
    "blocklist-contains": {"cell": CELL, "context": str, "entry": str, "expected": (bool, True)},
}

# the fields a cell, its profile and intervals, and a link may hold
_CELL_FIELDS = frozenset({"cellId", "profile", "resourceKind", "policy", "policyFile",
                          "trustPolicy", "intervals"})
_PROFILE_FIELDS = frozenset({"contexts", "capabilities", "ttlTicks"})
_INTERVAL_FIELDS = frozenset({"advertise", "antiEntropy"})
_LINK_FIELDS = frozenset({"a", "b", "latency", "drop"})

# shared by every cell that names no policy (a document is immutable),
# so that set-up builds none per cell
_NO_POLICY = PolicyDocument()


def _no_other_fields(data: Mapping[str, Any], allowed: AbstractSet[str], where: str) -> None:
    if not data.keys() <= allowed:
        raise ParseError(f"{where}: unknown field(s) {sorted(data.keys() - allowed)}")


def _check_cell_ref(ref: Any, known: set[str], where: str) -> str:
    if not isinstance(ref, str) or ref not in known:
        raise UnknownCellRef(f"{where}: unknown cell {ref!r}")
    return ref


def _read_declared(
    data: Mapping[str, Any], declared: Mapping[str, Any], known: set[str], where: str
) -> dict[str, Any]:
    """Exactly the declared fields of ``data``, each read and checked."""
    _no_other_fields(data, declared.keys(), where)
    params = {}
    for key, spec in declared.items():
        kind, *default = spec if type(spec) is tuple else (spec,)
        if kind is CELLS:
            value = strings(data, key, where, *default)
            if value == []:
                raise ParseError(f"{where}: {key!r} must name at least one cell")
            for ref in value or ():
                _check_cell_ref(ref, known, where)
        elif kind is CELL:
            value = field(data, key, where, str, *default)
            if value is not None:
                _check_cell_ref(value, known, where)
        else:
            value = field(data, key, where, kind, *default)
        params[key] = value
    return params


def token_from_spec(data: Any, where: str) -> Token:
    """A scenario token stanza as a token.  Its claims map names to lists
    of values, and a stanza without a signature is signed by its issuer."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: token stanza must be an object")
    _no_other_fields(data, {"subject", "issuer", "claims", "expiryTick", "sig"}, where)
    claims = string_lists(data, "claims", where, {})
    subject, issuer = field(data, "subject", where, str), field(data, "issuer", where, str)
    expiry = field(data, "expiryTick", where, int)
    sig = field(data, "sig", where, str, None)
    try:
        if sig is None:
            return issue_token(subject, attrs_from_wire(claims), issuer, expiry)
        return Token(subject, attrs_from_wire(claims), issuer, expiry, sig)
    except SmscError as exc:
        raise ParseError(f"{where}: bad token: {exc}") from None


def _parse_cell(data: Mapping[str, Any], resolver: Optional[PolicyResolver]) -> CellSpec:
    cell_id = field(data, "cellId", "cell", str)
    where = f"cell {cell_id!r}"
    _no_other_fields(data, _CELL_FIELDS, where)
    profile = field(data, "profile", where, dict)
    at = f"{where} profile"
    _no_other_fields(profile, _PROFILE_FIELDS, at)
    contexts = tuple(strings(profile, "contexts", at))
    if not contexts:
        raise ParseError(f"{at}: 'contexts' is empty")
    capabilities = strings(profile, "capabilities", at, None)
    resource_kind = field(data, "resourceKind", where, str)
    if resource_kind not in RESOURCE_KINDS:
        raise ParseError(f"{where}: unknown resource kind {resource_kind!r}")
    try:
        if "policyFile" in data:
            if "policy" in data:
                raise ParseError("give 'policy' or 'policyFile', not both")
            if resolver is None:
                raise ParseError("policyFile given but no way to resolve it")
            policy = resolver(field(data, "policyFile", where, str))
        elif "policy" in data:
            policy = PolicyDocument.from_wire(data["policy"])
        else:
            policy = _NO_POLICY
    except SmscError as exc:
        raise ParseError(f"{where}: bad policy: {type(exc).__name__}: {exc}") from None
    trust_policy = string_lists(data, "trustPolicy", where, None)
    if trust_policy is None:
        # default: inside its own contexts, a cell trusts whoever shows up
        trust_policy = {c: [] for c in contexts}
    intervals = field(data, "intervals", where, dict, {})
    at_intervals = f"{where} intervals"
    _no_other_fields(intervals, _INTERVAL_FIELDS, at_intervals)
    return CellSpec(
        cell_id=cell_id,
        contexts=contexts,
        capabilities=tuple(capabilities) if capabilities is not None else None,
        ttl_ticks=field(profile, "ttlTicks", at, int, 30, 1),
        resource_kind=resource_kind,
        policy=policy,
        trust_policy=trust_policy,
        advertise_interval=field(intervals, "advertise", at_intervals, int, 10, 1),
        anti_entropy_interval=field(intervals, "antiEntropy", at_intervals, int, 5, 1),
    )


def _parse_link(data: Mapping[str, Any], known: set[str]) -> LinkSpec:
    a = _check_cell_ref(data.get("a"), known, "link")
    b = _check_cell_ref(data.get("b"), known, "link")
    if a == b:
        raise ParseError(f"link: {a!r} linked to itself")
    where = f"link {a}-{b}"
    _no_other_fields(data, _LINK_FIELDS, where)
    drop = data.get("drop", 0.0)
    if type(drop) not in (int, float) or not 0.0 <= drop <= 1.0:
        raise InvalidProbability(f"{where}: 'drop' must be a number in [0, 1], got {drop!r}")
    return LinkSpec(a, b, field(data, "latency", where, int, 1, 1), float(drop))


def _parse_script(actions: list, known: set[str]) -> tuple[ScriptAction, ...]:
    out: list[ScriptAction] = []
    last_tick = 0
    for index, data in enumerate(actions):
        where = f"script[{index}]"
        op = field(data, "op", where, str)
        if op not in _SCRIPT_OPS:
            raise ParseError(f"{where}: unknown op {op!r}")
        params = _read_declared(data, {**_ACTION, **_SCRIPT_OPS[op]}, known, f"{where} ({op})")
        tick = params.pop("tick")
        del params["op"]
        if tick < last_tick:
            raise ParseError(f"{where}: ticks must be non-decreasing")
        last_tick = tick
        if op == "register" and params["with"] == params["cell"]:
            raise ParseError(f"{where}: {params['cell']!r} cannot register with itself")
        # each field built into what the run executes
        if op == "partition":
            params["a"], params["b"] = frozenset(params["a"]), frozenset(params["b"])
            if params["a"] & params["b"]:
                raise ParseError(f"{where}: partition groups overlap")
            if params["until"] is not None and params["until"] <= tick:
                raise ParseError(f"{where}: 'until' must be after the op's tick")
        elif op in ("send-op", "send-mgmt"):
            tokens = [token_from_spec(stanza, f"{where} tokens[{j}]").to_wire()
                      for j, stanza in enumerate(params["tokens"])]
            if op == "send-op":
                params["kind"], request = "op-req", {
                    "action": params["action"], "args": params["args"]}
            else:
                params["kind"], request = "mgmt-req", {
                    "command": params["command"], "payload": params["payload"]}
            params["body"] = {"tokens": tokens, **request, "context": params["context"]}
        elif op == "emit-update":
            contexts = strings(data, "contexts", where)
            if not contexts:
                raise ParseError(f"{where}: 'contexts' must list at least one context")
            params["contexts"] = frozenset(contexts)
            params["kind"] = member(UpdateKind, data, "kind", where)
            try:
                params["payload"] = payload_from_wire(params["kind"], params["payload"])
            except SmscError as exc:
                raise ParseError(f"{where}: bad update: {exc}") from None
        out.append(ScriptAction(tick, op, params))
    return tuple(out)


def _parse_assertions(specs: list, known: set[str], max_ticks: int) -> tuple[AssertionSpec, ...]:
    out: list[AssertionSpec] = []
    for index, data in enumerate(specs):
        where = f"assertions[{index}]"
        check = field(data, "check", where, str)
        if check not in _CHECKS:
            raise ParseError(f"{where}: unknown check {check!r}")
        params = _read_declared(data, {**_ASSERTION, **_CHECKS[check]}, known,
                                f"{where} ({check})")
        head = {key: params.pop(key) for key in _ASSERTION}
        if check == "decision-equals" and params["expected"] not in (
                "Permit", "Deny", "NotApplicable", "Indeterminate"):
            raise ParseError(f"{where}: bad expected verdict {params['expected']!r}")
        at_tick = head["atTick"]
        if (at_tick is None) != head["atEnd"] or not 0 <= (at_tick or 0) <= max_ticks:
            raise ParseError(f"{where}: needs 'atTick' (0-{max_ticks}) or 'atEnd': true, not both")
        out.append(AssertionSpec(head["id"] or f"a{index}", at_tick, check, params))
    return tuple(out)


def parse_scenario(
    data: Mapping[str, Any], resolver: Optional[PolicyResolver] = None
) -> ScenarioSpec:
    cells = tuple(_parse_cell(c, resolver) for c in objects(data, "cells", "scenario"))
    if not cells:
        raise ParseError("scenario: no cells")
    _no_other_fields(data, {"name", "seed", "maxTicks", "cells", "topology", "script",
                            "assertions"}, "scenario")
    known = {c.cell_id for c in cells}
    if len(known) != len(cells):
        raise ParseError("scenario: duplicate cell ids")
    topology = field(data, "topology", "scenario", dict, {})
    _no_other_fields(topology, {"links"}, "topology")
    links = tuple(_parse_link(l, known) for l in objects(topology, "links", "topology", []))
    seen_links = set()
    for link in links:
        key = frozenset((link.a, link.b))
        if key in seen_links:
            raise ParseError(f"scenario: duplicate link {link.a}-{link.b}")
        seen_links.add(key)
    max_ticks = field(data, "maxTicks", "scenario", int, 10, 0)
    return ScenarioSpec(
        name=field(data, "name", "scenario", str, "unnamed"),
        seed=field(data, "seed", "scenario", int, 1),
        max_ticks=max_ticks,
        cells=cells,
        links=links,
        script=_parse_script(objects(data, "script", "scenario", []), known),
        assertions=_parse_assertions(objects(data, "assertions", "scenario", []), known, max_ticks),
    )


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))

    def resolver(name: str) -> PolicyDocument:
        try:
            return load_policy_document(os.path.join(base, name))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"policyFile {name!r}: {exc}") from None

    return parse_scenario(data, resolver)


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

    def _write(self, line: str) -> None:
        if self._sink is None:
            self.lines.append(line)
        else:
            self._sink.write(line + "\n")

    def record(self, tick: int, cell: str, kind: str, detail: Mapping[str, Any]) -> None:
        entry = {"tick": tick, "cell": cell, "kind": kind, "detail": dict(detail)}
        self._write(canonical_json(entry))

    def record_envelope(
        self, tick: int, kind: str, envelope: SimEnvelope, reason: Optional[str] = None
    ) -> None:
        """The ``deliver`` or ``drop`` record of an envelope at its receiver,
        the line ``record`` would write, built without the encoder: keys in
        sorted order, each string quoted as ``canonical_json`` quotes it."""
        cause = "" if reason is None else f',"reason":{_quote(reason)}'
        self._write(
            f'{{"cell":{_quote(envelope.dst)},"detail":{{"kind":{_quote(envelope.kind)},'
            f'"netSeq":{envelope.net_seq}{cause},"src":{_quote(envelope.src)}}},'
            f'"kind":{_quote(kind)},"tick":{tick}}}'
        )


# --- the simulator --------------------------------------------------------


class SimEnvelope(NamedTuple):
    kind: str
    src: str
    dst: str
    net_seq: int
    body: Mapping[str, Any]


_DST = attrgetter("dst")  # the survivors' sort key


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
            self.cells[cs.cell_id] = Cell(**vars(cs), observer=self._make_observer(cs.cell_id))
        self._cell_order = sorted(self.cells)
        # (src, dst) -> (link key, latency, drop), both directions of a link
        self._routes: dict[tuple[str, str], tuple[frozenset[str], int, float]] = {}
        self._adjacency: dict[str, list[str]] = {}
        for link in spec.links:
            a, b = link.a, link.b
            if (a, b) not in self._routes:
                self._adjacency.setdefault(a, []).append(b)
                self._adjacency.setdefault(b, []).append(a)
            self._routes[a, b] = self._routes[b, a] = (
                frozenset((a, b)), link.latency, link.drop)
        for peers in self._adjacency.values():
            peers.sort()
        self._streams: dict[frozenset[str], SplitMix64] = {}
        self.partitions: list[PartitionWindow] = []
        self._in_flight: dict[int, list[SimEnvelope]] = {}
        self._next_net_seq = 0
        self._script_by_tick: dict[int, list[ScriptAction]] = {}
        for action in spec.script:
            self._script_by_tick.setdefault(action.tick, []).append(action)
        self.results: list[dict[str, Any]] = []

    def _make_observer(self, cell_id: str):
        sim = weakref.proxy(self)  # so that the cells hold the simulator in no cycle

        def observe(kind: str, detail: dict[str, Any]) -> None:
            sim.log.record(sim.tick, cell_id, kind, detail)
            if kind == "decision":
                action = detail.get("action")
                sim._latest[cell_id, action, detail.get("context")] = detail
                sim._latest[cell_id, action, None] = detail

        return observe

    # --- topology helpers -------------------------------------------------

    def _stream(self, key: frozenset[str]) -> SplitMix64:
        if key not in self._streams:
            a, b = sorted(key)
            self._streams[key] = stream_for_link(self.spec.seed, a, b)
        return self._streams[key]

    # --- per-tick machinery -----------------------------------------------

    def _tick_due_cells(self, tick: int) -> None:
        for cell_id in self._cell_order:
            cell = self.cells[cell_id]
            if cell.due_tick(tick) == tick:
                cell.on_tick(tick)

    def _apply_action(self, action: ScriptAction, tick: int) -> None:
        p = action.params
        if action.op == "advertise":
            self.cells[p["cell"]].advertise_now()
        elif action.op == "register":
            self.cells[p["cell"]].register_with(p["with"], p["wantReply"])
        elif action.op in ("send-op", "send-mgmt"):
            if p["from"] is not None:
                self.cells[p["from"]].send_request(p["kind"], p["to"], p["body"])
            else:
                self.cells[p["to"]].handle_request(p["kind"], p["body"], EXTERNAL_CALLER, tick)
        elif action.op == "emit-update":
            self.cells[p["cell"]].emit_update(p["kind"], p["payload"], p["contexts"], tick)
        elif action.op == "partition":
            self.partitions.append(PartitionWindow(p["a"], p["b"], p["until"]))
            self.log.record(tick, SIM, "fault", {
                "fault": "partition", "a": sorted(p["a"]), "b": sorted(p["b"]), "to": p["until"],
            })
        else:  # heal: no window cuts a delivery from now on
            self.partitions = []
            self.log.record(tick, SIM, "fault", {"fault": "heal"})

    def _deliver_due(self, tick: int) -> None:
        # a window closed by its until never cuts again
        partitions = self.partitions = [
            w for w in self.partitions if w.to_tick is None or tick < w.to_tick]
        record, routes, streams = self.log.record_envelope, self._routes, self._streams
        survivors: list[SimEnvelope] = []
        for envelope in self._in_flight.pop(tick, ()):
            src, dst = envelope.src, envelope.dst
            key, _, drop = routes[src, dst]
            stream = streams.get(key) or self._stream(key)
            draw = stream.next_float()
            if partitions and any(w.cuts(src, dst) for w in partitions):
                reason = "partition"
            elif draw < drop:
                reason = "loss"
            else:
                survivors.append(envelope)
                continue
            record(tick, "drop", envelope, reason)
        # survivors are in net_seq order; the stable sort keeps it per dst
        survivors.sort(key=_DST)
        cells = self.cells
        for envelope in survivors:
            record(tick, "deliver", envelope)
            kind, src, dst, _, body = envelope
            cells[dst].handle_envelope(kind, src, body, tick)

    def _dispatch_outboxes(self, tick: int) -> None:
        for cell_id in self._cell_order:
            cell = self.cells[cell_id]
            if not cell.outbox:
                continue
            for kind, dst, body in cell.take_outbox():
                if dst == "*":
                    for neighbor in self._adjacency.get(cell_id, []):
                        self._enqueue(kind, cell_id, neighbor, body, tick)
                else:
                    self._enqueue(kind, cell_id, dst, body, tick)

    def _enqueue(
        self, kind: str, src: str, dst: str, body: Mapping[str, Any], tick: int
    ) -> None:
        route = self._routes.get((src, dst))
        if route is None or dst not in self.cells:
            self.log.record(tick, src, "drop", {
                "kind": kind, "dst": dst, "reason": "no-link",
            })
            return
        net_seq = self._next_net_seq
        self._next_net_seq = net_seq + 1
        self._in_flight.setdefault(tick + route[1], []).append(
            SimEnvelope(kind, src, dst, net_seq, body))

    # --- assertions -------------------------------------------------------

    def _evaluate_assertion(self, spec: AssertionSpec) -> dict[str, Any]:
        p = spec.params
        if spec.check == "decision-equals":
            found = self._latest.get((p["cell"], p["action"], p["context"]))
            got = found["verdict"] if found else "no-decision"
            ok = got == p["expected"]
            detail = f"{p['cell']}/{p['action']}: {got}, expected {p['expected']}"
        elif spec.check == "store-version":
            got = self.cells[p["cell"]].store.version
            ok = got == p["expected"]
            detail = f"{p['cell']} store version {got}, expected {p['expected']}"
        elif spec.check == "catalogue-contains":
            present = self.cells[p["cell"]].catalogue.get(p["peer"]) is not None
            ok = present == p["expected"]
            detail = (f"{p['cell']} catalogue has {p['peer']}: {present}, "
                      f"expected {p['expected']}")
        elif spec.check == "converged":
            ids = p["cells"] or sorted(self.cells)
            digests = {cid: self.cells[cid].store.digest() for cid in ids}
            baseline = digests[ids[0]]
            ok = all(d == baseline for d in digests.values())
            detail = ("all stores converged" if ok
                      else f"divergent digests: {digests}")
        else:  # blocklist-contains
            present = (p["context"], p["entry"]) in self.cells[p["cell"]].store.blocklist
            ok = present == p["expected"]
            detail = (f"{p['cell']} blocklist has {p['context']}/{p['entry']}: "
                      f"{present}, expected {p['expected']}")
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

    def _step(self, tick: int) -> None:
        for action in self._script_by_tick.get(tick, ()):
            self._apply_action(action, tick)
        if tick > 0:
            self._deliver_due(tick)
        self._tick_due_cells(tick)
        self._dispatch_outboxes(tick)
        self._run_assertions(tick)

    def run(self) -> dict[str, Any]:
        try:
            self._step(0)
            while self.tick < self.spec.max_ticks:
                self.tick += 1
                self._step(self.tick)
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
        # every assertion fired once and passed, and the run raised nothing
        passed = (len(self.results) == len(self.spec.assertions)
                  and all(r["ok"] for r in self.results))
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
