from hypothesis import given, strategies as st

from smsc.bus import MessageBus


def test_publish_numbers_envelopes_from_zero():
    bus = MessageBus()
    for _ in range(3):
        bus.publish("cell.op", "pep")
    envelopes = bus.drain()
    assert [(e.topic, e.publisher_id, e.bus_seq) for e in envelopes] == [
        ("cell.op", "pep", 0), ("cell.op", "pep", 1), ("cell.op", "pep", 2),
    ]
    # numbering runs on across drains
    bus.publish("policy.updated", "governance")
    assert [e.bus_seq for e in bus.drain()] == [3]


def test_drain_returns_bus_seq_order():
    bus = MessageBus()
    for topic in ("policy.updated", "cell.op", "policy.updated", "cell.op"):
        bus.publish(topic, "p")
    seqs = [e.bus_seq for e in bus.drain()]
    assert seqs == sorted(seqs) == [0, 1, 2, 3]


def test_queued_subscriber_gets_one_copy_despite_two_matching_filters():
    """The queue's one consumer gets one copy of each publish, and draining
    clears it. The bus has no filters any more, so no topic can match twice."""
    bus = MessageBus()
    bus.publish("cell.op", "pep")
    assert len(bus.drain()) == 1
    assert bus.drain() == []


def test_drain_unknown_subscriber():
    """drain takes no subscriber id, so none can be unknown; draining a queue
    nothing was published to returns an empty list."""
    bus = MessageBus()
    assert bus.drain() == []


@given(st.lists(st.booleans(), max_size=40))
def test_drains_return_every_envelope_once_in_order(steps):
    """Any interleaving of publishes (True) and drains (False): the drains,
    joined, are exactly the published envelopes, busSeq 0, 1, 2, ..."""
    bus = MessageBus()
    drained = []
    for publish in steps:
        if publish:
            bus.publish("cell.op", "pep")
        else:
            drained.extend(bus.drain())
    drained.extend(bus.drain())
    assert [e.bus_seq for e in drained] == list(range(sum(steps)))
