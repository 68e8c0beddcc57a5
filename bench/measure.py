"""Timed drivers for the workloads, plus their correctness checks.

The simulator workloads build and run one scenario again and again; the
enforcement workload replays one request sequence against a fresh cell
again and again.  Every repetition starts from freshly parsed inputs, so
memory does not grow with run length and every repetition must give the
same log or the same decisions as the first.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from smsc import Cell, EventLog, PolicyDocument, Simulator, Token, parse_scenario
from smsc.policy import DecisionRequest, PolicyRule
from tests.oracles import fixpoint_delegations, naive_cited_ids, naive_evaluate

from workloads import ENFORCE_CONTEXTS, ENFORCE_TICK_EVERY

MIN_REPS = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(sorted_values: list, q: float):
    """The q-quantile by nearest rank; exact for integer counters."""
    if not sorted_values:
        return 0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def repeat_for(seconds: float, once: Callable[[int], Any]) -> list[Any]:
    """Call ``once(index)`` at least MIN_REPS times, then while another
    call, at the mean duration so far, would still end within ``seconds``."""
    results: list[Any] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        results.append(once(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_REPS and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# --- simulator workloads ---------------------------------------------------


class _LogSink:
    """Text sink for ``EventLog``: keeps the JSON lines for hashing and
    closes a clock block every SCALE_LINES lines."""

    def __init__(self, clock: ScaledClock) -> None:
        self.chunks: list[str] = []
        self._clock = clock

    def write(self, line: str) -> None:
        self.chunks.append(line)
        if len(self.chunks) % SCALE_LINES == 0:
            self._clock.close_block()


@dataclass
class SimRun:
    setup_s: float
    clock: ScaledClock
    cell_ticks: int
    passed: bool
    failed_checks: list[str]
    log_sha256: str
    log_text: Optional[str]

    @property
    def run_s(self) -> float:
        return self.clock.scaled_s


def run_sim_once(scenario: dict[str, Any], keep_log: bool = False) -> SimRun:
    """Parse, build and run one scenario; set-up and run timed apart.

    The log text is kept only when ``keep_log`` is set; its hash always.
    """
    clock = ScaledClock()
    t0 = time.perf_counter()
    spec = parse_scenario(scenario)
    sink = _LogSink(clock)
    sim = Simulator(spec, EventLog(sink))
    setup_s = (time.perf_counter() - t0) * clock.scale_now()
    clock.start()
    report = sim.run()
    clock.close_block()
    text = "".join(sink.chunks)
    return SimRun(
        setup_s=setup_s,
        clock=clock,
        cell_ticks=len(spec.cells) * (report["finalTick"] + 1),
        passed=report["passed"],
        failed_checks=[a["id"] for a in report["assertions"] if not a["ok"]],
        log_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        log_text=text if keep_log else None,
    )


def sim_counters(log_text: str) -> dict[str, Any]:
    """Deterministic counters read back from a JSON-lines event log.

    Propagation is measured per (update, cell) pair: ticks from the
    update's apply at its origin to its apply at another cell.  Updates
    their origin did not apply (rejected there) have no start and are
    left out.  ``envelopes_per_update`` divides every delivered or
    dropped envelope by every applied (update, cell) pair, origin
    included.
    """
    delivered: Counter = Counter()
    dropped: Counter = Counter()
    outcomes: Counter = Counter()
    origin_tick: dict[tuple[str, int], int] = {}
    remote: list[tuple[tuple[str, int], int]] = []
    for line in log_text.splitlines():
        record = json.loads(line)
        kind, detail = record["kind"], record["detail"]
        if kind == "deliver":
            delivered[detail["kind"]] += 1
        elif kind == "drop":
            dropped[detail["kind"]] += 1
        elif kind == "update":
            outcomes[detail["status"]] += 1
            if detail["status"] == "applied":
                key = (detail["origin"], detail["seq"])
                if record["cell"] == detail["origin"]:
                    origin_tick[key] = record["tick"]
                else:
                    remote.append((key, record["tick"]))
    lags = sorted(tick - origin_tick[key] for key, tick in remote if key in origin_tick)
    envelopes = sum(delivered.values()) + sum(dropped.values())
    adverts = delivered["advert"] + dropped["advert"]
    return {
        "delivered": dict(sorted(delivered.items())),
        "dropped": dict(sorted(dropped.items())),
        "update_outcomes": dict(sorted(outcomes.items())),
        "envelopes_delivered": sum(delivered.values()),
        "envelopes_dropped": sum(dropped.values()),
        "advert_share": adverts / envelopes if envelopes else 0.0,
        "propagation_pairs": len(lags),
        "propagation_ticks_p50": nearest_rank(lags, 0.5),
        "propagation_ticks_p99": nearest_rank(lags, 0.99),
        "envelopes_per_update": envelopes / outcomes["applied"] if outcomes["applied"] else 0.0,
        "log_bytes": len(log_text.encode("utf-8")),
        "log_sha256": hashlib.sha256(log_text.encode("utf-8")).hexdigest(),
    }


def sim_failures(runs: list[SimRun]) -> list[str]:
    """A run fails when an assertion fails (``run-error`` included) or
    when its log differs from the first run's log."""
    reference = runs[0].log_sha256
    problems = []
    for index, run in enumerate(runs):
        if not run.passed:
            problems.append(f"run {index}: failed checks {run.failed_checks}")
        elif run.log_sha256 != reference:
            problems.append(f"run {index}: log hash differs from run 0")
    return problems


# --- enforcement workload --------------------------------------------------

CELL_ID = "enforce-cell"
CLIENT = "client"


# The host's speed drifts by up to 2x within minutes, and in a slow spell
# every sample is slow.  So measured time is scaled to a nominal host
# speed block by block: a fixed scan shaped like rule matching, which
# calls no program code, is timed before and after each block, and the
# block's wall time is multiplied by REFERENCE_S over the faster of the
# two scans (interference only ever slows a scan).  A block is
# SCALE_BLOCK requests of the enforcement loop, or SCALE_LINES event-log
# lines of a simulator run (the log sink is where a run can be sampled
# without touching the program).  REFERENCE_S only sets the scale; it is
# about the scan's duration on the 2-vCPU x86-64 host, Python 3.11, where
# this was tuned.  Scan time is left out of the scaled and raw times.
REFERENCE_S = 0.001
SCALE_BLOCK = 100
SCALE_LINES = 1000


@dataclass(frozen=True)
class _RefItem:
    id: str
    action: str
    contexts: frozenset
    attrs: frozenset

    def hit(self, context: str, action: str, wanted: tuple[str, str]) -> bool:
        return (context in self.contexts and self.action in ("*", action)
                and any(attr == wanted for attr in self.attrs))


_REF_ITEMS = tuple(
    _RefItem(f"r{i:04d}", ("deliver", "flag", "*")[i % 3], frozenset({f"c{i % 4}"}),
             frozenset({("role", f"x{i % 5}"), ("dept", f"d{i % 7}")}))
    for i in range(400)
)


def reference_seconds() -> float:
    """Time the fixed reference scan once."""
    start = time.perf_counter()
    for k in range(4):
        wanted = ("role", f"x{k}")
        [item.id for item in _REF_ITEMS if item.hit(f"c{k}", "deliver", wanted)]
    return time.perf_counter() - start


class ScaledClock:
    """Wall time since ``start()``, raw and scaled block by block."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.scales: list[float] = []
        self._before = reference_seconds()
        self._block_start = time.perf_counter()

    def start(self) -> None:
        self._block_start = time.perf_counter()

    def scale_now(self) -> float:
        """The scale from the last scan alone, for a span just timed."""
        return REFERENCE_S / self._before

    def close_block(self) -> float:
        """End the current block, add it to the totals and return its scale."""
        wall = time.perf_counter() - self._block_start
        after = reference_seconds()
        scale = REFERENCE_S / min(self._before, after)
        self.scales.append(scale)
        self.raw_s += wall
        self.scaled_s += wall * scale
        self._before = after
        self._block_start = time.perf_counter()
        return scale


@dataclass
class EnforcePass:
    """Scaled timings of one pass and its mismatches as ``(index, outcome)``.

    Outcomes are checked as the pass runs and only mismatches are kept,
    so memory does not depend on how many passes a run makes."""

    setup_s: float = 0.0
    clock: Optional[ScaledClock] = None
    op_us: array = field(default_factory=lambda: array("d"))
    mgmt_us: array = field(default_factory=lambda: array("d"))
    wrong: list[tuple[int, tuple]] = field(default_factory=list)


def _outcome(decision, response) -> tuple:
    return (decision.verdict.value, decision.reason, tuple(decision.matched_rule_ids),
            response["status"], response["reason"])


def run_enforce_once(policy: dict[str, Any], requests: list[dict[str, Any]],
                     expected: list[tuple]) -> EnforcePass:
    """One closed-loop client against a fresh cell.

    The client sends each request when the previous one has returned.
    The cell's clock advances by one tick, with ``on_tick``, every
    ENFORCE_TICK_EVERY requests.  Each outcome is compared, outside the
    timed call, with ``expected``; a request that raises has the
    outcome ``("error", ...)``.
    """
    clock = ScaledClock()
    t0 = time.perf_counter()
    cell = Cell(CELL_ID, ENFORCE_CONTEXTS, "email-filter", PolicyDocument.from_wire(policy))
    result = EnforcePass(setup_s=(time.perf_counter() - t0) * clock.scale_now(), clock=clock)
    timer = time.perf_counter_ns
    now = 1
    op_ns: list[int] = []
    mgmt_ns: list[int] = []

    def close_block() -> None:
        scale = clock.close_block()
        result.op_us.extend(ns * scale / 1000 for ns in op_ns)
        result.mgmt_us.extend(ns * scale / 1000 for ns in mgmt_ns)
        op_ns.clear()
        mgmt_ns.clear()

    clock.start()
    for index, item in enumerate(requests):
        if index and index % SCALE_BLOCK == 0:
            close_block()
        if index and index % ENFORCE_TICK_EVERY == 0:
            now += 1
            cell.on_tick(now)
            cell.take_outbox()
        is_op = item["kind"] == "op"
        handle = cell.handle_operation if is_op else cell.handle_management
        start = timer()
        try:
            decision, response = handle(item["body"], CLIENT, now)
        except Exception as exc:  # a request must never abort the loop
            traceback.print_exc()
            got = ("error", type(exc).__name__)
        else:
            (op_ns if is_op else mgmt_ns).append(timer() - start)
            got = _outcome(decision, response)
        if got != expected[index]:
            result.wrong.append((index, got))
    close_block()
    return result


def _reference_signature(wire: dict[str, Any]) -> str:
    """The documented token signature, recomputed independently."""
    body = {k: v for k, v in wire.items() if k != "sig"}
    material = wire["issuer"] + "|" + json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def expected_outcomes(policy: dict[str, Any], requests: list[dict[str, Any]]) -> list[tuple]:
    """Replay the request sequence against naive references.

    Token checks follow the documented order (issuer trust, expiry,
    signature); attributes come from ``fixpoint_delegations``, verdicts
    from ``naive_evaluate``, and a rule write is rejected when it would
    flip a protected pinned case under ``naive_evaluate``.
    """
    doc = PolicyDocument.from_wire(policy)
    rules = {r.id: r for r in doc.rules}
    blocklist: set[tuple[str, str]] = set()
    out = []
    now = 1
    for index, item in enumerate(requests):
        if index and index % ENFORCE_TICK_EVERY == 0:
            now += 1
        body = item["body"]
        context = body["context"]
        action = body["action"] if item["kind"] == "op" else f"mgmt:{body['command']}"
        failure = None
        for wire in body["tokens"]:
            if wire["issuer"] not in doc.trusted_issuers:
                failure = "untrusted-issuer"
            elif wire["expiryTick"] <= now:
                failure = "expired"
            elif wire["sig"] != _reference_signature(wire):
                failure = "bad-signature"
            if failure:
                break
        if failure:
            reason = f"indeterminate: {failure}"
            out.append(("Indeterminate", reason, (), "denied", reason))
            continue
        by_subject: dict[str, set] = {}
        for wire in body["tokens"]:
            token = Token.from_wire(wire)
            by_subject.setdefault(token.subject, set()).update(token.claims)
        attrs = frozenset().union(*(
            fixpoint_delegations(s, frozenset(base), doc.delegations, doc.roots, context)
            for s, base in by_subject.items()
        ))
        if item["kind"] == "op" and any(
            isinstance(v, str) and (context, v) in blocklist for v in body["args"].values()
        ):
            out.append(("Deny", "blocklisted", (), "denied", "blocklisted"))
            continue
        request = DecisionRequest(attrs, action, "email-filter", context, now)
        scoped = [r for r in rules.values() if context in r.contexts]
        verdict = naive_evaluate(scoped, request)
        cited = naive_cited_ids(scoped, request)
        reason = {"Permit": "permit", "Deny": "deny"}.get(verdict, "not-applicable")
        status, response_reason = ("ok", "permit") if verdict == "Permit" else ("denied", reason)
        if verdict == "Permit" and body.get("command") in ("add-rule", "remove-rule"):
            after = dict(rules)
            if body["command"] == "add-rule":
                rule = PolicyRule.from_wire(body["payload"])
                after[rule.id] = rule
            else:
                after.pop(body["payload"], None)
            flips = any(
                case.protected
                and naive_evaluate(list(rules.values()), case.request)
                != naive_evaluate(list(after.values()), case.request)
                for case in doc.regression
            )
            if flips:
                status, response_reason = "denied", "impact-rejected"
            else:
                rules = after
        elif verdict == "Permit" and body.get("command") == "flag-spam":
            blocklist.add((context, body["payload"]["entry"]))
        out.append((verdict, reason, cited, status, response_reason))
    return out


def enforce_failures(passes: list[EnforcePass], expected: list[tuple]) -> tuple[int, list[str]]:
    """Count requests whose outcome differed from the naive replay."""
    problems = [
        f"pass {index}: {len(one.wrong)} wrong, first #{one.wrong[0][0]}: "
        f"got {one.wrong[0][1]}, expected {expected[one.wrong[0][0]]}"
        for index, one in enumerate(passes) if one.wrong
    ]
    return sum(len(one.wrong) for one in passes), problems
