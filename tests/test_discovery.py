import pytest

from smsc.catalogue import Catalogue
from smsc.discovery import (
    Advertisement,
    AdvertOutcome,
    DiscoveryService,
    RegistrationRequest,
)
from smsc.errors import SelfRegistration


def service(cid, contexts=("work",), caps=("ring",), trust=None):
    return DiscoveryService(
        Catalogue(cid, trust),
        contexts=frozenset(contexts),
        capabilities=frozenset(caps),
        resource_kind="call-filter",
        ttl_ticks=10,
    )


def test_adverts_carry_increasing_nonces():
    svc = service("a")
    assert [svc.make_advertisement(t).nonce for t in range(3)] == [0, 1, 2]
    assert svc.make_advertisement(9).profile.advertised_at_tick == 9


def test_accept_then_reject_stale_and_duplicate():
    a, b = service("a"), service("b")
    first = a.make_advertisement(0)
    second = a.make_advertisement(1)
    assert b.handle_advertisement(second, 1) is AdvertOutcome.ACCEPTED
    assert b.handle_advertisement(first, 2) is AdvertOutcome.STALE_NONCE
    assert b.handle_advertisement(second, 2) is AdvertOutcome.STALE_NONCE
    # the stale copy must not touch the catalogue
    assert b.catalogue.get("a").last_seen_tick == 1
    third = a.make_advertisement(5)
    assert b.handle_advertisement(third, 5) is AdvertOutcome.ACCEPTED


def test_nonce_tracking_is_per_sender():
    a, b, c = service("a"), service("b"), service("c")
    a.make_advertisement(0)  # burn nonce 0
    assert c.handle_advertisement(a.make_advertisement(1), 1) is AdvertOutcome.ACCEPTED
    assert c.handle_advertisement(b.make_advertisement(1), 1) is AdvertOutcome.ACCEPTED


def test_own_advert_is_ignored():
    svc = service("a")
    advert = svc.make_advertisement(0)
    assert svc.handle_advertisement(advert, 0) is AdvertOutcome.SELF_IGNORED
    assert svc.catalogue.entries == {}


def test_registration_handshake():
    a, b = service("a"), service("b", caps=("text",))
    request = a.make_registration("b", now=2)
    reply = b.handle_registration(request, 2)
    assert b.catalogue.get("a").profile.capabilities == frozenset({"ring"})
    assert reply is not None and reply.cell_id == "b"
    a.catalogue.upsert(reply, 3)
    assert a.catalogue.get("b").profile.capabilities == frozenset({"text"})


def test_registration_without_reply():
    a, b = service("a"), service("b")
    request = a.make_registration("b", now=0, want_reply=False)
    assert b.handle_registration(request, 0) is None
    assert b.catalogue.get("a") is not None


def test_cannot_register_with_self():
    svc = service("a")
    with pytest.raises(SelfRegistration):
        svc.make_registration("a", now=0)


def test_wire_round_trips():
    svc = service("a")
    advert = svc.make_advertisement(4)
    assert Advertisement.from_wire(advert.to_wire()) == advert
    request = svc.make_registration("b", now=4, want_reply=True)
    assert RegistrationRequest.from_wire(request.to_wire()) == request


def test_advert_trust_flows_from_catalogue_policy():
    receiver = service("r", trust={"work": ["ring", "text"]})
    weak = service("weak", caps=("ring",))
    strong = service("strong", caps=("ring", "text"))
    receiver.handle_advertisement(weak.make_advertisement(0), 0)
    receiver.handle_advertisement(strong.make_advertisement(0), 0)
    assert receiver.catalogue.trusted_partners() == ["strong"]
