import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from smsc.catalogue import Catalogue, CellProfile
from smsc.cell import Cell
from smsc.discovery import AdvertOutcome, DiscoveryService
from smsc.errors import ParseError, SelfRegistration, SmscError
from smsc.sim import EventLog, Simulator, parse_scenario

from .corpus import build_scenario
from .jsonfuzz import JSON_VALUES, field_at, field_paths, replaced
from .oracles import parse_every_advert
from .test_log_hashes import generated_mesh


def service(cid, contexts=("work",), caps=("ring",), trust=None, ttl=10):
    return DiscoveryService(
        Catalogue(cid, trust),
        contexts=frozenset(contexts),
        capabilities=frozenset(caps),
        resource_kind="call-filter",
        ttl_ticks=ttl,
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
    assert b.catalogue.get("a").expires_at == 1 + 10 + 1
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


PROFILE_FIELDS = ("cellId", "contexts", "capabilities", "resourceKind", "ttlTicks")


def check_screen(body, known, trust, now=1):
    """Hand ``body`` to a receiver ``r`` that holds ``known`` (no advert
    nonce yet) and to the parse-every-advert reference holding the same entry:
    the outcome or error class, the catalogue and the trusted partners
    must agree, and an accepted advert from ``known``'s sender keeps the
    stored profile object exactly when the profile fields are exactly the
    stored ones."""
    svc, reference = service("r", trust=trust), Catalogue("r", trust)
    for catalogue in (svc.catalogue, reference):
        catalogue.upsert(known, 0)
    outcomes = []
    for handle in (lambda: svc.handle_advertisement(body, now).value,
                   lambda: parse_every_advert(reference, "r", body, now)):
        try:
            outcomes.append(handle())
        except SmscError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    assert svc.catalogue.entries == reference.entries
    assert svc.catalogue.earliest_expiry == reference.earliest_expiry
    assert svc.catalogue.trusted_partners() == reference.trusted_partners()
    wire = body.get("profile") if type(body) is dict else None
    if outcomes[0] == "accepted" and type(wire) is dict and wire.get("cellId") == known.cell_id:
        exact = (json.dumps({name: wire.get(name) for name in PROFILE_FIELDS}, sort_keys=True)
                 == json.dumps(known.to_wire(), sort_keys=True))
        assert (svc.catalogue.get(known.cell_id).profile is known) == exact
    return outcomes[0]


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
    ``ParseError``, and a refused body leaves the catalogue as it was.  The
    receiver knows the sender, so each advert also goes through the
    refresh screen, which must agree with parsing every advert."""
    kind, retyped, body = case
    if kind == "advert":
        check_screen(body, _PEER.profile, {"work": []})
    svc = service("r", trust={"work": []})
    svc.catalogue.upsert(service("q").profile, 0)
    svc.catalogue.upsert(_PEER.profile, 0)
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


# a known peer with TTL 1, so that ``True`` is a twin of its TTL
_KNOWN = service("p", contexts=("work", "home"), caps=("ring", "text"), ttl=1).profile
# one change at a time to the known peer's profile wire
SCREEN_VARIANTS = {
    "same": {},
    "ttl-float": {"ttlTicks": 1.0},
    "ttl-bool": {"ttlTicks": True},
    "ttl-other": {"ttlTicks": 30},
    "ttl-zero": {"ttlTicks": 0},
    "contexts-reordered": {"contexts": ["work", "home"]},
    "contexts-duplicated": {"contexts": ["home", "work", "work"]},
    "contexts-one-twice": {"contexts": ["home", "home"]},
    "capabilities-reordered": {"capabilities": ["text", "ring"]},
    "capabilities-one-twice": {"capabilities": ["ring", "ring"]},
    "old-format": {"endpoint": "p", "advertisedAtTick": 7},
    "cell-id-int": {"cellId": 7},
    "cell-id-list": {"cellId": ["p"]},
    "cell-id-object": {"cellId": {"p": "p"}},
    "cell-id-unknown": {"cellId": "s"},
    "cell-id-own": {"cellId": "r"},
    "kind-changed": {"resourceKind": "email-filter"},
    "context-dropped": {"contexts": ["work"]},
    "context-added": {"contexts": ["home", "lab", "work"]},
    "contexts-empty": {"contexts": []},
    "capability-changed": {"capabilities": ["ring", "video"]},
    "capability-dropped": {"capabilities": ["ring"]},
}


@pytest.mark.parametrize("nonce", [0, 7, -1, 0.0, True])
@pytest.mark.parametrize("name", sorted(SCREEN_VARIANTS))
def test_refresh_screen_matches_parsing_every_advert(name, nonce):
    """An advert from a known peer, with one change to its profile or
    nonce, gives the outcome (or error class), catalogue and trusted
    partners that parsing every advert gives, and only a profile whose
    fields are exactly the stored ones is a refresh that keeps the stored
    object."""
    body = {"profile": {**_KNOWN.to_wire(), **SCREEN_VARIANTS[name]}, "nonce": nonce}
    outcome = check_screen(body, _KNOWN, {"work": ["ring"], "home": ["text"]})
    if name == "same" and type(nonce) is int:
        assert outcome == ("accepted" if nonce >= 0 else "stale-nonce")


@pytest.mark.parametrize("ttl", [None, 8])
def test_adverts_from_known_peers_build_no_profile(monkeypatch, ttl):
    """On the generated mesh an advert builds a profile only when its
    sender has no catalogue entry, and the trusted-partner list is derived
    again at most once per catalogue change: a new entry or profile, an
    expiry that drops entries, or a trust policy.  With its own TTL of 30
    no entry lapses in the 40 ticks; with a TTL of 8 the partitions and
    dropped adverts expire peers that later adverts re-admit."""
    counts = Counter()
    check = CellProfile.__post_init__
    handle = DiscoveryService.handle_advertisement
    upsert, expire = Catalogue.upsert, Catalogue.expire_stale
    set_policy, partners = Catalogue.set_trust_policy, Catalogue.trusted_partners

    def building(profile):
        counts["profiles"] += 1
        check(profile)

    def advert(svc, body, now):
        counts["adverts"] += 1
        counts["unknown-sender"] += svc.catalogue.get(body["profile"]["cellId"]) is None
        before = counts["profiles"]
        outcome = handle(svc, body, now)
        counts["advert-profiles"] += counts["profiles"] - before
        return outcome

    def changing_upsert(cat, profile, now, nonce=None):
        old = cat.get(profile.cell_id)
        counts["changes"] += old is None or old.profile != profile
        return upsert(cat, profile, now, nonce)

    def changing_expire(cat, now):
        stale = expire(cat, now)
        counts["changes"] += bool(stale)
        return stale

    def changing_policy(cat, policy):
        counts["changes"] += 1
        set_policy(cat, policy)

    def deriving(cat):
        counts["derivations"] += cat._partners is None
        return partners(cat)

    for owner, name, patched in (
        (CellProfile, "__post_init__", building),
        (DiscoveryService, "handle_advertisement", advert),
        (Catalogue, "upsert", changing_upsert),
        (Catalogue, "expire_stale", changing_expire),
        (Catalogue, "set_trust_policy", changing_policy),
        (Catalogue, "trusted_partners", deriving),
    ):
        monkeypatch.setattr(owner, name, patched)
    scenario = generated_mesh()
    if ttl is not None:
        for cell in scenario["cells"]:
            cell["profile"]["ttlTicks"] = ttl
    sim = Simulator(parse_scenario(scenario))
    assert sim.run()["passed"]
    expired = sum(record["kind"] == "peer-expired" for record in sim.log.records)
    assert (expired > 0) == (ttl is not None)
    assert 0 < counts["unknown-sender"] < counts["adverts"] // 4
    assert counts["advert-profiles"] == counts["unknown-sender"]
    assert 0 < counts["derivations"] <= counts["changes"]
