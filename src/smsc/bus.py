"""In-cell publish/subscribe bus.

Each cell owns exactly one bus; it connects the cell's internal services.
Delivery is queued: ``publish`` appends the envelope to the queue of every
subscriber with a matching filter, and the subscriber fetches its queue
later with ``drain``.

Guarantees:

* every envelope gets a strictly increasing ``bus_seq``, and publish ticks
  never go backwards (``ClockRegression`` otherwise);
* the ``on_publish`` hook sees every envelope, in ``bus_seq`` order, before
  any subscriber queues it;
* a subscriber queues each envelope at most once, even when several of its
  filters match, so ``drain`` returns its envelopes in ``bus_seq`` order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import (
    ClockRegression,
    DuplicateSubscription,
    MalformedFilter,
    MalformedTopic,
    UnknownSubscriber,
)

_SEGMENT_RE = re.compile(r"[a-z0-9-]+\Z")


def validate_topic(name: str) -> str:
    """Check a dot-separated topic name; returns it unchanged."""
    if not name:
        raise MalformedTopic("empty topic")
    for segment in name.split("."):
        if not _SEGMENT_RE.match(segment):
            raise MalformedTopic(f"bad topic segment {segment!r} in {name!r}")
    return name


def validate_filter(pattern: str) -> str:
    """Check a subscription filter: a topic, optionally ending in '.*'."""
    base = pattern[:-2] if pattern.endswith(".*") else pattern
    try:
        validate_topic(base)
    except MalformedTopic as exc:
        raise MalformedFilter(str(exc)) from None
    return pattern


def filter_matches(pattern: str, topic: str) -> bool:
    """Exact match, or prefix match when the filter ends in '.*'.

    ``a.b.*`` matches any topic with at least one segment below ``a.b``;
    it does not match ``a.b`` itself.
    """
    if pattern.endswith(".*"):
        return topic.startswith(pattern[:-2] + ".")
    return topic == pattern


@dataclass(frozen=True)
class Envelope:
    topic: str
    payload: Any
    publisher_id: str
    tick: int
    bus_seq: int


@dataclass(frozen=True)
class Subscription:
    subscriber_id: str
    filter: str


class MessageBus:
    """Single-threaded bus, mutated only from the owning cell's loop."""

    def __init__(self, on_publish: Optional[Callable[[Envelope], None]] = None):
        self._filters: dict[str, list[str]] = {}
        self._queues: dict[str, list[Envelope]] = {}
        self._next_seq = 0
        self._last_tick = 0
        self._on_publish = on_publish

    def subscribe(self, sub: Subscription) -> None:
        validate_filter(sub.filter)
        filters = self._filters.setdefault(sub.subscriber_id, [])
        if sub.filter in filters:
            raise DuplicateSubscription(f"already registered: {sub}")
        filters.append(sub.filter)
        self._queues.setdefault(sub.subscriber_id, [])

    def publish(self, topic: str, payload: Any, publisher_id: str, tick: int) -> None:
        """Publish one envelope; each subscriber with a matching filter
        queues it once, however many of its filters match."""
        validate_topic(topic)
        if tick < self._last_tick:
            raise ClockRegression(f"tick {tick} below last publish tick {self._last_tick}")
        self._last_tick = tick
        envelope = Envelope(topic, payload, publisher_id, tick, self._next_seq)
        self._next_seq += 1
        if self._on_publish is not None:
            self._on_publish(envelope)
        for subscriber_id, filters in self._filters.items():
            if any(filter_matches(pattern, topic) for pattern in filters):
                self._queues[subscriber_id].append(envelope)

    def drain(self, subscriber_id: str) -> list[Envelope]:
        """Return and clear the subscriber's queued envelopes, bus_seq order."""
        queue = self._queues.get(subscriber_id)
        if queue is None:
            raise UnknownSubscriber(f"no subscription for {subscriber_id!r}")
        self._queues[subscriber_id] = []
        return queue
