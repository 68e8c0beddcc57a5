import math

import pytest
from hypothesis import given, strategies as st

from smsc.catalogue import MAX_TTL_TICKS, Catalogue, CellProfile
from smsc.errors import PolicyError, SelfRegistration

from .oracles import naive_trust


def profile(cid, contexts=("work",), caps=("ring",), kind="call-filter", ttl=10):
    return CellProfile(
        cell_id=cid,
        contexts=frozenset(contexts),
        capabilities=frozenset(caps),
        resource_kind=kind,
        ttl_ticks=ttl,
    )


def test_profile_validation_and_wire():
    with pytest.raises(PolicyError):
        profile("a", contexts=())
    with pytest.raises(PolicyError):
        profile("a", ttl=0)
    p = profile("a", contexts=("b", "a"), caps=("y", "x"))
    assert CellProfile.from_wire(p.to_wire()) == p
    assert p.to_wire()["contexts"] == ["a", "b"]


def test_owner_cannot_register_itself():
    cat = Catalogue("me")
    with pytest.raises(SelfRegistration):
        cat.upsert(profile("me"), 0)


def test_trust_derivation():
    cat = Catalogue("me", {"work": ["ring", "text"], "home": []})
    a = profile("a", contexts=("work", "home", "lab"), caps=("ring", "text", "extra"))
    assert {c: cat.trusts(a, c) for c in ("work", "home", "lab", "away")} == {
        "work": True, "home": True, "lab": False, "away": False}
    # missing a required capability
    b = profile("b", caps=("ring",))
    assert not cat.trusts(b, "work")
    # a context the policy names but the profile does not advertise
    assert not cat.trusts(b, "home")
    cat.upsert(a, 0)
    cat.upsert(b, 0)
    assert cat.trusted_partners() == ["a"]


def test_ttl_is_strict():
    cat = Catalogue("me")
    cat.upsert(profile("a", ttl=5), now=10)
    assert cat.expire_stale(15) == []          # 10 + 5 == 15, still alive
    assert cat.get("a") is not None
    assert cat.expire_stale(16) == ["a"]       # 10 + 5 < 16
    assert cat.get("a") is None


# (peer, ttl, ticks since the last step): upsert; (None, _, gap): expire_stale
CATALOGUE_STEPS = st.lists(st.tuples(
    st.one_of(st.none(), st.sampled_from("abcd")),
    st.integers(1, 6),
    st.integers(0, 4),
), max_size=30)


@given(CATALOGUE_STEPS)
def test_expire_stale_matches_a_full_scan(steps):
    """``expire_stale`` drops exactly the entries a full scan over each
    peer's last upsert tick finds lapsed and leaves the expiry bound at the
    exact first expiry, and the bound never passes an entry's expiry."""
    cat = Catalogue("me")
    now = 0
    seen = {}  # peer -> (tick of its last upsert, its ttl)
    for peer, ttl, gap in steps:
        now += gap
        if peer is not None:
            cat.upsert(profile(peer, ttl=ttl), now)
            seen[peer] = (now, ttl)
        else:
            lapsed = sorted(cid for cid, (tick, life) in seen.items() if tick + life < now)
            assert cat.expire_stale(now) == lapsed
            for cid in lapsed:
                del seen[cid]
            expiries = [tick + life + 1 for tick, life in seen.values()]
            assert cat.earliest_expiry == min(expiries, default=math.inf)
        assert sorted(cat.entries) == sorted(seen)
        for cid, (tick, life) in seen.items():
            assert cat.get(cid).expires_at == tick + life + 1
            assert cat.earliest_expiry <= tick + life + 1


def test_advertised_ttl_is_capped_at_the_receiver():
    """A peer cannot pin its entry with a huge TTL: it lapses by
    ``MAX_TTL_TICKS + 1`` ticks after it was last seen, while the stored
    profile keeps the TTL the peer advertised."""
    cat = Catalogue("me")
    cat.upsert(profile("a", ttl=10**9), now=5)
    assert cat.earliest_expiry == 5 + MAX_TTL_TICKS + 1
    assert cat.expire_stale(5 + MAX_TTL_TICKS) == []
    assert cat.get("a").profile.ttl_ticks == 10**9
    assert cat.expire_stale(5 + MAX_TTL_TICKS + 1) == ["a"]


CONTEXTS = ("work", "home")
CAPABILITIES = ("ring", "text")
TRUST_POLICIES = st.dictionaries(st.sampled_from(CONTEXTS),
                                 st.lists(st.sampled_from(CAPABILITIES), max_size=2))
# (peer, contexts, capabilities, whether to refresh, new trust policy or
# None, ticks to the next step)
TRUST_STEPS = st.lists(st.tuples(
    st.sampled_from("ab"),
    st.frozensets(st.sampled_from(CONTEXTS), min_size=1),
    st.frozensets(st.sampled_from(CAPABILITIES)),
    st.booleans(),
    st.one_of(st.none(), TRUST_POLICIES),
    st.integers(0, 4),
), max_size=30)


@given(TRUST_POLICIES, TRUST_STEPS)
def test_trust_matches_a_derivation_from_scratch(policy, steps):
    """Each step upserts a profile, or refreshes a known peer by upserting
    its stored profile object again, may replace the trust policy, then
    expires what lapsed.  After every step, trust in each peer in every
    context, those its profile lacks included, is what the policy in force
    gives its profile, and the trusted partners (kept between reads) and
    every trusted query are the entries a filter on that trust picks."""
    cat = Catalogue("me", policy)
    now = 0
    for peer, contexts, caps, refresh, new_policy, gap in steps:
        known = cat.get(peer)
        if refresh and known is not None:
            cat.upsert(known.profile, now)
        else:
            cat.upsert(profile(peer, contexts=contexts, caps=caps, ttl=3), now)
        if new_policy is not None:
            policy = new_policy
            cat.set_trust_policy(policy)
        now += gap
        cat.expire_stale(now)
        trust = {cid: naive_trust(e.profile, policy) for cid, e in sorted(cat.entries.items())}
        for cid, entry in cat.entries.items():
            for context in CONTEXTS:
                assert cat.trusts(entry.profile, context) == trust[cid].get(context, False)
        assert cat.trusted_partners() == [cid for cid in trust if any(trust[cid].values())]
        for context in CONTEXTS:
            assert [e.profile.cell_id for e in cat.query(context, trusted_only=True)] == [
                cid for cid in trust if trust[cid].get(context, False)]


def test_fresh_advert_readmits_after_eviction():
    cat = Catalogue("me")
    cat.upsert(profile("a", ttl=2), now=0)
    cat.expire_stale(5)
    assert cat.get("a") is None
    cat.upsert(profile("a", ttl=2), now=5)
    assert cat.get("a").expires_at == 5 + 2 + 1


def test_query_filters_and_order():
    cat = Catalogue("me", {"work": ["ring"]})
    cat.upsert(profile("zeta", caps=("ring",)), 0)
    cat.upsert(profile("alpha", caps=("ring", "text")), 0)
    cat.upsert(profile("mid", contexts=("home",), caps=("ring",)), 0)
    ids = [e.profile.cell_id for e in cat.query(context="work")]
    assert ids == ["alpha", "zeta"]
    ids = [e.profile.cell_id for e in cat.query(context="work", capability="text")]
    assert ids == ["alpha"]
    ids = [e.profile.cell_id for e in cat.query(context="home")]
    assert ids == ["mid"]
    ids = [e.profile.cell_id for e in cat.query(context="work", trusted_only=True)]
    assert ids == ["alpha", "zeta"]
    ids = [e.profile.cell_id for e in cat.query(context="home", trusted_only=True)]
    assert ids == []


def test_kept_partner_list_is_not_the_callers():
    """Changing the list ``trusted_partners`` returns leaves the next read
    as it was."""
    cat = Catalogue("me", {"work": []})
    cat.upsert(profile("a"), 0)
    cat.upsert(profile("b"), 0)
    partners = cat.trusted_partners()
    partners.remove("a")
    partners.append("z")
    assert cat.trusted_partners() == ["a", "b"]
    cat.trusted_partners().clear()
    assert cat.trusted_partners() == ["a", "b"]


def test_set_trust_policy_rederives_existing_entries():
    cat = Catalogue("me", {"work": ["ring"]})
    cat.upsert(profile("a", caps=("ring",)), 0)
    assert cat.trusted_partners() == ["a"]
    cat.set_trust_policy({"work": ["ring", "text"]})
    assert cat.trusted_partners() == []
    cat.set_trust_policy({"work": []})
    assert cat.trusted_partners() == ["a"]
