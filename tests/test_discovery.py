import json

import pytest

from smsc.catalogue import Catalogue, CellProfile
from smsc.cell import Cell
from smsc.discovery import (
    Advertisement,
    AdvertOutcome,
    DiscoveryService,
    RegistrationRequest,
)
from smsc.errors import SelfRegistration
from smsc.sim import EventLog, Simulator

from .corpus import build_scenario


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
    assert [svc.make_advertisement().nonce for _ in range(3)] == [0, 1, 2]


def test_accept_then_reject_stale_and_duplicate():
    a, b = service("a"), service("b")
    first = a.make_advertisement()
    second = a.make_advertisement()
    assert b.handle_advertisement(second, 1) is AdvertOutcome.ACCEPTED
    assert b.handle_advertisement(first, 2) is AdvertOutcome.STALE_NONCE
    assert b.handle_advertisement(second, 2) is AdvertOutcome.STALE_NONCE
    # the stale copy must not touch the catalogue
    assert b.catalogue.get("a").last_seen_tick == 1
    third = a.make_advertisement()
    assert b.handle_advertisement(third, 5) is AdvertOutcome.ACCEPTED


def test_nonce_tracking_is_per_sender():
    a, b, c = service("a"), service("b"), service("c")
    a.make_advertisement()  # burn nonce 0
    assert c.handle_advertisement(a.make_advertisement(), 1) is AdvertOutcome.ACCEPTED
    assert c.handle_advertisement(b.make_advertisement(), 1) is AdvertOutcome.ACCEPTED


def test_own_advert_is_ignored():
    svc = service("a")
    advert = svc.make_advertisement()
    assert svc.handle_advertisement(advert, 0) is AdvertOutcome.SELF_IGNORED
    assert svc.catalogue.entries == {}


def test_registration_handshake():
    a, b = service("a"), service("b", caps=("text",))
    request = a.make_registration("b")
    reply = b.handle_registration(request, 2)
    assert b.catalogue.get("a").profile.capabilities == frozenset({"ring"})
    assert reply is not None and reply.cell_id == "b"
    a.catalogue.upsert(reply, 3)
    assert a.catalogue.get("b").profile.capabilities == frozenset({"text"})


def test_registration_without_reply():
    a, b = service("a"), service("b")
    request = a.make_registration("b", want_reply=False)
    assert b.handle_registration(request, 0) is None
    assert b.catalogue.get("a") is not None


def test_cannot_register_with_self():
    svc = service("a")
    with pytest.raises(SelfRegistration):
        svc.make_registration("a")


def test_wire_round_trips():
    svc = service("a")
    advert = svc.make_advertisement()
    assert Advertisement.from_wire(advert.to_wire()) == advert
    request = svc.make_registration("b", want_reply=True)
    assert RegistrationRequest.from_wire(request.to_wire()) == request


def test_advert_trust_flows_from_catalogue_policy():
    receiver = service("r", trust={"work": ["ring", "text"]})
    weak = service("weak", caps=("ring",))
    strong = service("strong", caps=("ring", "text"))
    receiver.handle_advertisement(weak.make_advertisement(), 0)
    receiver.handle_advertisement(strong.make_advertisement(), 0)
    assert receiver.catalogue.trusted_partners() == ["strong"]


def test_own_profile_is_built_once():
    svc = service("a")
    request = svc.make_registration("b")
    reply = svc.handle_registration(RegistrationRequest(service("b").profile, True), 0)
    assert svc.make_advertisement().profile is request.profile is reply is svc.profile


def test_no_profile_on_the_wire_carries_an_advert_tick(monkeypatch):
    """Adverts, registrations, register-replies and registry lookup results
    carry no ``advertisedAtTick``; a profile that still carries one, from a
    peer on the old wire format, parses to the same profile."""
    seen = []
    handle = Cell.handle_envelope

    def recording(cell, kind, src, body, now):
        seen.append((kind, body))
        return handle(cell, kind, src, body, now)

    monkeypatch.setattr(Cell, "handle_envelope", recording)
    Simulator(build_scenario("registry-discovery"), EventLog()).run()
    profiles = {
        "advert": lambda body: [body["profile"]],
        "register": lambda body: [body["profile"]],
        "register-reply": lambda body: [body],
        "op-resp": lambda body: body["result"]["profiles"],
    }
    wires = {kind: [w for k, body in seen if k == kind for w in read(body)]
             for kind, read in profiles.items()}
    assert all(wires.values()), {kind: len(w) for kind, w in wires.items()}
    for kind, body in seen:
        assert "advertisedAtTick" not in json.dumps(body), kind
    for wire in (w for found in wires.values() for w in found):
        old = {**wire, "advertisedAtTick": 7}
        assert CellProfile.from_wire(old) == CellProfile.from_wire(wire)
        assert (Advertisement.from_wire({"profile": old, "nonce": 2})
                == Advertisement.from_wire({"profile": wire, "nonce": 2}))
