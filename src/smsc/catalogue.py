"""Per-cell catalogue of known peers.

Every cell keeps its own view of the federation: which peers it has
heard from, when, the nonce of each one's last accepted advert, and
whether it trusts them per context; an entry is the one record of a
peer.  Trust is derived locally from a trust policy mapping each context
to the capabilities a peer must advertise; a peer in a context the
policy does not mention is untrusted there.

Trust is derived when an entry is made and again for every entry when
the trust policy changes.  A fresh profile whose contexts and
capabilities equal those of the entry it replaces keeps that entry's
trust map, which the policy in force already derived; so a peer that
re-advertises an unchanged profile costs no derivation.

Entries age out: one whose last-seen tick plus its TTL is strictly
below the current tick is expired.  The TTL is the one the peer
advertised, capped at ``MAX_TTL_TICKS`` so that a peer cannot pin an
entry for good; the stored profile, and anything that reports it, keeps
the advertised value.  Each entry holds its expiry tick, computed once
when it is made.  A fresh advert re-admits the peer with no memory of
the eviction.  The catalogue also keeps a lower bound on the first tick
at which any entry expires, so that its owner knows when it next has to
look.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from .errors import ParseError, PolicyError, SelfRegistration, TrustedQueryWithoutContext
from .wire import is_str_list

TrustPolicy = Mapping[str, Iterable[str]]

# the longest a receiver keeps a peer it has not heard from again,
# whatever TTL the peer advertised
MAX_TTL_TICKS = 1000


@dataclass(frozen=True)
class CellProfile:
    """What a cell advertises about itself."""

    cell_id: str
    endpoint: str
    contexts: frozenset[str]
    capabilities: frozenset[str]
    resource_kind: str
    ttl_ticks: int

    def __post_init__(self) -> None:
        if not self.contexts:
            raise PolicyError(f"profile {self.cell_id!r} has no contexts")
        if self.ttl_ticks < 1:
            raise PolicyError(f"profile {self.cell_id!r} ttl must be >= 1")

    def to_wire(self) -> dict[str, Any]:
        return {
            "cellId": self.cell_id,
            "endpoint": self.endpoint,
            "contexts": sorted(self.contexts),
            "capabilities": sorted(self.capabilities),
            "resourceKind": self.resource_kind,
            "ttlTicks": self.ttl_ticks,
        }

    @classmethod
    def from_wire(cls, data: Any) -> "CellProfile":
        """A peer's profile.  Each field must be present with the exact type
        ``to_wire`` writes, as ``wire.field`` reads it, or ``ParseError`` is
        raised; the test is one expression, since every advert is read here.
        A field ``to_wire`` does not write is ignored."""
        if type(data) is not dict:
            raise ParseError(f"profile: must be an object, got {data!r}")
        get = data.get
        cell_id, endpoint, kind = get("cellId"), get("endpoint"), get("resourceKind")
        ttl, contexts, capabilities = get("ttlTicks"), get("contexts"), get("capabilities")
        if not (type(cell_id) is type(endpoint) is type(kind) is str
                and type(ttl) is int
                and type(contexts) is type(capabilities) is list
                and is_str_list(contexts + capabilities)):
            raise ParseError(f"profile {cell_id!r}: a field is absent or of another type")
        return cls(cell_id, endpoint, frozenset(contexts), frozenset(capabilities),
                   kind, ttl)


class CatalogueEntry(NamedTuple):
    profile: CellProfile
    last_seen_tick: int
    trusted: Mapping[str, bool]
    # the first tick at which the entry is stale
    expires_at: int
    # the nonce of the last advert accepted from the peer; -1 before any
    nonce: int

    def trusted_in(self, context: str) -> bool:
        return bool(self.trusted.get(context, False))

    def trusted_anywhere(self) -> bool:
        return any(self.trusted.values())


def _derive_trust(profile: CellProfile, policy: TrustPolicy) -> dict[str, bool]:
    trusted = {}
    for context in profile.contexts:
        if context in policy:
            required = set(policy[context])
            trusted[context] = required <= set(profile.capabilities)
        else:
            trusted[context] = False
    return trusted


class Catalogue:
    """One cell's registry of peers, keyed by cell id."""

    def __init__(self, owner_id: str, trust_policy: Optional[TrustPolicy] = None):
        self.owner_id = owner_id
        self.trust_policy: dict[str, list[str]] = {
            c: sorted(caps) for c, caps in (trust_policy or {}).items()
        }
        self.entries: dict[str, CatalogueEntry] = {}
        # no entry expires before this tick: upsert lowers it, and
        # expire_stale sets it to the exact first expiry
        self.earliest_expiry: float = math.inf

    def upsert(self, profile: CellProfile, now: int,
               nonce: Optional[int] = None) -> CatalogueEntry:
        """Store ``profile`` as seen at ``now``.  An accepted advert passes
        its nonce; any other upsert keeps the nonce the entry holds."""
        cell_id = profile.cell_id
        if cell_id == self.owner_id:
            raise SelfRegistration(f"{self.owner_id!r} cannot register itself")
        old = self.entries.get(cell_id)
        if (old is not None and old.profile.contexts == profile.contexts
                and old.profile.capabilities == profile.capabilities):
            trusted = old.trusted
        else:
            trusted = _derive_trust(profile, self.trust_policy)
        if nonce is None:
            nonce = -1 if old is None else old.nonce
        expiry = now + min(profile.ttl_ticks, MAX_TTL_TICKS) + 1
        entry = self.entries[cell_id] = CatalogueEntry(profile, now, trusted, expiry, nonce)
        if expiry < self.earliest_expiry:
            self.earliest_expiry = expiry
        return entry

    def expire_stale(self, now: int) -> list[str]:
        """Drop entries whose TTL has lapsed; returns their ids sorted.
        One pass, which also sets the expiry bound to the exact first
        expiry of the entries left."""
        stale = []
        first = math.inf
        for cid, entry in self.entries.items():
            expiry = entry.expires_at
            if expiry <= now:
                stale.append(cid)
            elif expiry < first:
                first = expiry
        self.earliest_expiry = first
        stale.sort()
        for cid in stale:
            del self.entries[cid]
        return stale

    def get(self, cell_id: str) -> Optional[CatalogueEntry]:
        return self.entries.get(cell_id)

    def query(
        self,
        context: Optional[str] = None,
        capability: Optional[str] = None,
        trusted_only: bool = False,
    ) -> list[CatalogueEntry]:
        if trusted_only and context is None:
            raise TrustedQueryWithoutContext("trusted lookup needs a context")
        out = []
        for cid in sorted(self.entries):
            entry = self.entries[cid]
            if context is not None and context not in entry.profile.contexts:
                continue
            if capability is not None and capability not in entry.profile.capabilities:
                continue
            if trusted_only and not entry.trusted_in(context):
                continue
            out.append(entry)
        return out

    def trusted_partners(self) -> list[str]:
        """Ids trusted in at least one context, sorted."""
        return sorted(
            cid for cid, e in self.entries.items() if e.trusted_anywhere()
        )

    def set_trust_policy(self, policy: TrustPolicy) -> None:
        """Replace the trust policy and re-derive trust for every entry."""
        self.trust_policy = {c: sorted(caps) for c, caps in policy.items()}
        for cid, entry in self.entries.items():
            self.entries[cid] = entry._replace(
                trusted=_derive_trust(entry.profile, self.trust_policy)
            )
