import pytest
from hypothesis import given, strategies as st

from smsc.bus import (
    MessageBus,
    Subscription,
    filter_matches,
    validate_filter,
    validate_topic,
)
from smsc.errors import (
    ClockRegression,
    DuplicateSubscription,
    MalformedFilter,
    MalformedTopic,
    UnknownSubscriber,
)

from .oracles import segment_filter_matches

def test_topic_validation():
    assert validate_topic("cell.op") == "cell.op"
    assert validate_topic("a.b-c.d0") == "a.b-c.d0"
    for bad in ("", "A.b", "a..b", "a.", ".a", "a b", "a.*"):
        with pytest.raises(MalformedTopic):
            validate_topic(bad)


def test_filter_validation():
    validate_filter("cell.op")
    validate_filter("cell.*")
    for bad in ("", "cell..*", "*.op", "Cell.*"):
        with pytest.raises(MalformedFilter):
            validate_filter(bad)


def test_prefix_filter_does_not_match_the_prefix_itself():
    assert filter_matches("cell.*", "cell.op")
    assert filter_matches("cell.*", "cell.op.done")
    assert not filter_matches("cell.*", "cell")
    assert not filter_matches("cell.*", "cellular.op")


@given(
    topic=st.lists(
        st.text(alphabet="ab1-", min_size=1, max_size=3).filter(
            lambda s: validate_is_ok(s)
        ),
        min_size=1,
        max_size=4,
    ).map(".".join),
    pattern=st.lists(
        st.text(alphabet="ab1-", min_size=1, max_size=3).filter(
            lambda s: validate_is_ok(s)
        ),
        min_size=1,
        max_size=4,
    ).map(".".join),
    star=st.booleans(),
)
def test_filter_matches_agrees_with_segment_oracle(topic, pattern, star):
    if star:
        pattern = pattern + ".*"
    assert filter_matches(pattern, topic) == segment_filter_matches(pattern, topic)


def validate_is_ok(segment: str) -> bool:
    try:
        validate_topic(segment)
        return True
    except MalformedTopic:
        return False


def test_queued_subscriber_gets_one_copy_despite_two_matching_filters():
    bus = MessageBus()
    bus.subscribe(Subscription("log", "cell.*"))
    bus.subscribe(Subscription("log", "cell.op"))
    bus.publish("cell.op", {"n": 1}, "p", 1)
    envelopes = bus.drain("log")
    assert len(envelopes) == 1
    assert bus.drain("log") == []


def test_drain_returns_bus_seq_order():
    bus = MessageBus()
    bus.subscribe(Subscription("log", "cell.*"))
    for n in range(4):
        bus.publish("cell.op", {"n": n}, "p", 1)
    seqs = [e.bus_seq for e in bus.drain("log")]
    assert seqs == sorted(seqs) == [0, 1, 2, 3]


def test_drain_unknown_subscriber():
    bus = MessageBus()
    bus.subscribe(Subscription("log", "cell.*"))
    assert bus.drain("log") == []
    with pytest.raises(UnknownSubscriber):
        bus.drain("nobody")


def test_duplicate_subscription_rejected():
    bus = MessageBus()
    bus.subscribe(Subscription("a", "cell.*"))
    with pytest.raises(DuplicateSubscription):
        bus.subscribe(Subscription("a", "cell.*"))
    # the same filter for another subscriber is a different subscription
    bus.subscribe(Subscription("b", "cell.*"))


def test_clock_regression():
    bus = MessageBus()
    bus.publish("a.b", {}, "p", 5)
    bus.publish("a.b", {}, "p", 5)
    with pytest.raises(ClockRegression):
        bus.publish("a.b", {}, "p", 4)


def test_on_publish_hook_sees_every_envelope():
    mirrored = []
    bus = MessageBus(on_publish=lambda e: mirrored.append((e.topic, e.bus_seq)))
    bus.subscribe(Subscription("h", "cell.*"))
    assert bus.publish("cell.op", {}, "p", 1) is None
    bus.publish("other.topic", {}, "p", 1)
    # the hook sees envelopes no subscriber matches, too
    assert mirrored == [("cell.op", 0), ("other.topic", 1)]
    assert [e.bus_seq for e in bus.drain("h")] == [0]
