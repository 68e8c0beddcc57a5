"""In-cell message bus: a numbered queue with one consumer.

Each cell owns one bus and drains it after each publish, writing one
``bus`` record per envelope.  There are no subscriptions and no topic
filters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Envelope:
    topic: str
    publisher_id: str
    bus_seq: int


class MessageBus:
    """Single-threaded bus, mutated only from the owning cell's loop."""

    def __init__(self) -> None:
        self._queue: list[Envelope] = []
        self._next_seq = 0

    def publish(self, topic: str, publisher_id: str) -> None:
        """Number and queue one envelope."""
        self._queue.append(Envelope(topic, publisher_id, self._next_seq))
        self._next_seq += 1

    def drain(self) -> list[Envelope]:
        """Return and clear the queued envelopes, bus_seq order."""
        queue = self._queue
        self._queue = []
        return queue
