"""Spans around calls into the program's layers, for the traced run.

Each wrapped call records one span: its layer name, start, end and the
span that was open when it began.  A layer's self time is its spans'
duration minus the part covered by their child spans.  Spans are kept in
flat arrays in memory and summarised when the run ends.

Module-level functions are patched in every ``smsc`` module that binds
them, because callers look them up in their own namespace:
``evaluate_request`` is called through ``smsc.cell`` and
``smsc.governance``, ``sign_payload`` through ``smsc.governance`` and
``smsc.policy``.  Patching only the defining module would miss those
calls silently.  Methods are patched on their class.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterator, Optional

from smsc import governance, policy
from smsc.bus import MessageBus
from smsc.catalogue import Catalogue
from smsc.cell import Cell
from smsc.discovery import AdvertOutcome, DiscoveryService
from smsc.governance import PolicyStore
from smsc.sim import EventLog, Simulator


def _count_digest_reply(tracer: "Tracer"):
    def before(cell, kind, src, body, now):
        return cell.store.version if kind == "digest-reply" else None

    def after(state, result, cell, kind, src, body, now):
        if state is not None:
            tracer.counts["digest_reply.packages"] += len(body.get("packages", []))
            tracer.counts["digest_reply.applied"] += cell.store.version - state

    return before, after


def _count_advert(tracer: "Tracer"):
    def after(state, result, *args):
        tracer.counts["advert.accepted"] += result is AdvertOutcome.ACCEPTED

    return None, after


def _count_apply(tracer: "Tracer"):
    def after(state, result, *args):
        tracer.counts[f"apply.{result.status.value}"] += 1

    return None, after


def _count_rules(tracer: "Tracer"):
    def after(state, result, rules, request):
        tracer.counts["evaluate.rules"] += len(rules)

    return None, after


# (owner class, method, layer name, counting hooks)
METHODS = (
    (Simulator, "run", "sim", None),
    (EventLog, "record", "eventlog.record", None),
    (Cell, "handle_envelope", "cell.handle_envelope", _count_digest_reply),
    (Cell, "on_tick", "cell.on_tick", None),
    (Cell, "handle_operation", "cell.handle_operation", None),
    (Cell, "handle_management", "cell.handle_management", None),
    (DiscoveryService, "handle_advertisement", "discovery.handle_advertisement", _count_advert),
    (Catalogue, "query", "catalogue.query", None),
    (Catalogue, "expire_stale", "catalogue.expire_stale", None),
    (Catalogue, "upsert", "catalogue.upsert", None),
    (PolicyStore, "apply_update", "governance.apply_update", _count_apply),
    (MessageBus, "publish", "bus.publish", None),
    (MessageBus, "drain", "bus.drain", None),
)

# (defining module, function, layer name, counting hooks)
FUNCTIONS = (
    (governance, "assess_update_impact", "governance.assess_update_impact", None),
    (policy, "evaluate_request", "policy.evaluate_request", _count_rules),
    (policy, "verify_token", "policy.verify_token", None),
    (policy, "expand_delegations", "policy.expand_delegations", None),
    (policy, "sign_payload", "policy.sign_payload", None),
)


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()
        self.bindings: Counter = Counter()

    def wrap(self, layer: str, binding: str, fn: Callable,
             hooks: Optional[tuple]) -> Callable:
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        before, after = hooks if hooks else (None, None)
        spans, parents, starts, ends = self.layer, self.parent, self.start, self.end
        open_spans, bindings, clock = self._open, self.bindings, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before(*args, **kwargs) if before else None
            index = len(spans)
            spans.append(layer_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            bindings[binding] += 1
            if after:
                after(state, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds)."""
        covered = [0.0] * len(self.layer)
        for index in range(len(self.layer)):
            parent = self.parent[index]
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for index, layer_id in enumerate(self.layer):
            calls[layer_id] += 1
            self_s[layer_id] += self.end[index] - self.start[index] - covered[index]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.layers)}


def _bindings_of(fn: Callable) -> Iterator[tuple[Any, str]]:
    """Every ``smsc`` module attribute bound to ``fn``."""
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "smsc" or name.startswith("smsc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every boundary for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, layer, hooks in METHODS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            wrapped = tracer.wrap(layer, f"{owner.__name__}.{attr}", original,
                                  hooks(tracer) if hooks else None)
            setattr(owner, attr, wrapped)
        for module, attr, layer, hooks in FUNCTIONS:
            original = getattr(module, attr)
            for where, name in list(_bindings_of(original)):
                saved.append((where, name, original))
                wrapped = tracer.wrap(layer, f"{where.__name__}.{name}", original,
                                      hooks(tracer) if hooks else None)
                setattr(where, name, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
