import json

import pytest
from hypothesis import given, settings, strategies as st

from smsc.catalogue import Catalogue, CellProfile
from smsc.cell import Cell
from smsc.discovery import AdvertOutcome, DiscoveryService
from smsc.errors import ParseError, SelfRegistration, SmscError
from smsc.sim import EventLog, Simulator

from .corpus import build_scenario
from .jsonfuzz import JSON_VALUES, field_at, field_paths, replaced


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
    assert [svc.make_advertisement()["nonce"] for _ in range(3)] == [0, 1, 2]


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
    assert reply == b.profile.to_wire()
    a.catalogue.upsert(CellProfile.from_wire(reply), 3)
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
    """Each body carries the own profile's wire, and reading it back at a
    peer stores that same profile."""
    svc, peer = service("a"), service("b")
    advert = svc.make_advertisement()
    assert advert == {"profile": svc.profile.to_wire(), "nonce": 0}
    assert peer.handle_advertisement(advert, 1) is AdvertOutcome.ACCEPTED
    entry = peer.catalogue.get("a")
    assert (entry.profile, entry.nonce) == (svc.profile, 0)
    for want_reply in (True, False):
        request = svc.make_registration("b", want_reply)
        assert request == {"profile": svc.profile.to_wire(), "wantReply": want_reply}
        reply = peer.handle_registration(request, 2)
        assert reply == (peer.profile.to_wire() if want_reply else None)
        assert peer.catalogue.get("a").profile == svc.profile


def test_advert_trust_flows_from_catalogue_policy():
    receiver = service("r", trust={"work": ["ring", "text"]})
    weak = service("weak", caps=("ring",))
    strong = service("strong", caps=("ring", "text"))
    receiver.handle_advertisement(weak.make_advertisement(), 0)
    receiver.handle_advertisement(strong.make_advertisement(), 0)
    assert receiver.catalogue.trusted_partners() == ["strong"]


def test_own_profile_is_built_once(monkeypatch):
    """The service builds its own profile once; every advert, registration
    and reply body carries that one profile's wire."""
    built = []
    check = CellProfile.__post_init__

    def counting(profile):
        built.append(profile.cell_id)
        check(profile)

    monkeypatch.setattr(CellProfile, "__post_init__", counting)
    svc = service("a")
    own = svc.profile
    bodies = [svc.make_advertisement()["profile"], svc.make_registration("b")["profile"],
              svc.handle_registration(service("b").make_registration("a"), 0)]
    assert bodies == [own.to_wire()] * 3
    assert svc.profile is own
    assert built.count("a") == 1


def test_no_profile_on_the_wire_carries_an_advert_tick(monkeypatch):
    """Adverts, registrations, register-replies and registry lookup results
    carry no ``advertisedAtTick`` and no ``endpoint``; a profile that still
    carries them, from a peer on the old wire format, parses to the same
    profile and gives the same catalogue entry."""
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
        assert "endpoint" not in json.dumps(body), kind
    for wire in (w for found in wires.values() for w in found):
        old = {**wire, "advertisedAtTick": 7, "endpoint": wire["cellId"]}
        assert CellProfile.from_wire(old) == CellProfile.from_wire(wire)
        entries = []
        for profile in (old, wire):
            receiver = service("receiver")
            receiver.handle_advertisement({"profile": profile, "nonce": 2}, 3)
            entries.append(receiver.catalogue.get(wire["cellId"]))
        assert entries[0] is not None and entries[0] == entries[1]


# a valid advert and register body from peer "p" to receiver "r"
_PEER = service("p", contexts=("work", "home"))
VALID_BODIES = {"advert": _PEER.make_advertisement(), "register": _PEER.make_registration("r")}


@st.composite
def raw_bodies(draw):
    """A valid body with one field, nested ones included, or the whole
    body replaced by any small JSON value."""
    kind = draw(st.sampled_from(sorted(VALID_BODIES)))
    body = VALID_BODIES[kind]
    path = draw(st.sampled_from(((),) + tuple(field_paths(body))))
    value = draw(JSON_VALUES)
    return kind, type(field_at(body, path)) is not type(value), replaced(body, path, value)


@settings(max_examples=200)
@given(raw_bodies())
def test_discovery_readers_take_any_body(case):
    """``handle_advertisement`` and ``handle_registration`` read peer input:
    on any body each returns its outcome or raises an ``SmscError``, never
    a builtin error.  A non-object body or a field of another type is a
    ``ParseError``, and a refused body leaves the catalogue as it was."""
    kind, retyped, body = case
    svc = service("r", trust={"work": []})
    svc.catalogue.upsert(service("q").profile, 0)
    before = (dict(svc.catalogue.entries), svc.catalogue.earliest_expiry)
    handle = svc.handle_advertisement if kind == "advert" else svc.handle_registration
    try:
        outcome = handle(body, 1)
    except SmscError as exc:
        assert isinstance(exc, ParseError) or not retyped, exc
        assert (svc.catalogue.entries, svc.catalogue.earliest_expiry) == before
        return
    assert not retyped
    if kind == "advert":
        assert isinstance(outcome, AdvertOutcome)
    else:
        assert outcome in (None, svc.profile.to_wire())
