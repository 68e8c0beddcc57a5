"""Per-cell catalogue of known peers.

Every cell keeps its own view of the federation: which peers it has
heard from, when, and the nonce of each one's last accepted advert; an
entry is the one record of a peer.  Trust is derived from the peer's
profile and the trust policy in force, which maps each context to the
capabilities a peer must advertise there; a peer in a context the policy
does not mention is untrusted there.  The sorted list of trusted
partners is kept until an upsert brings a new entry or another profile
object, an entry expires or the policy is replaced.

Entries age out: one whose last-seen tick plus its TTL is strictly
below the current tick is expired.  The TTL is the one the peer
advertised, capped at ``MAX_TTL_TICKS`` so that a peer cannot pin an
entry for good; the stored profile, and anything that reports it, keeps
the advertised value.  Each entry holds its expiry tick, computed once
when it is made, as its one record of when the peer was last seen.  A
fresh advert re-admits the peer with no memory of the eviction.  The
catalogue also keeps a lower bound on the first tick at which any entry
expires, so that its owner knows when it next has to look.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from .errors import ParseError, PolicyError, SelfRegistration
from .wire import is_str_list

TrustPolicy = Mapping[str, Iterable[str]]

# the longest a receiver keeps a peer it has not heard from again,
# whatever TTL the peer advertised
MAX_TTL_TICKS = 1000


@dataclass(frozen=True)
class CellProfile:
    """What a cell advertises about itself."""

    cell_id: str
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
            "contexts": sorted(self.contexts),
            "capabilities": sorted(self.capabilities),
            "resourceKind": self.resource_kind,
            "ttlTicks": self.ttl_ticks,
        }

    @classmethod
    def from_wire(cls, data: Any, known: Optional["CellProfile"] = None) -> "CellProfile":
        """A peer's profile.  Each field must be present with the exact type
        ``to_wire`` writes, or ``ParseError`` is raised; the test is one
        expression, since every advert is read here.  Other fields are
        ignored.  The fields of ``known``, lists sorted, give ``known`` itself."""
        if type(data) is not dict:
            raise ParseError(f"profile: must be an object, got {data!r}")
        get = data.get
        cell_id, kind, ttl = get("cellId"), get("resourceKind"), get("ttlTicks")
        contexts, capabilities = get("contexts"), get("capabilities")
        if not (type(cell_id) is type(kind) is str
                and type(ttl) is int
                and type(contexts) is type(capabilities) is list
                and is_str_list(contexts + capabilities)):
            raise ParseError(f"profile {cell_id!r}: a field is absent or of another type")
        if (known is not None and cell_id == known.cell_id and kind == known.resource_kind
                and ttl == known.ttl_ticks and contexts == sorted(known.contexts)
                and capabilities == sorted(known.capabilities)):
            return known
        return cls(cell_id, frozenset(contexts), frozenset(capabilities), kind, ttl)


class CatalogueEntry(NamedTuple):
    profile: CellProfile
    # the first tick at which the entry is stale
    expires_at: int
    # the nonce of the last advert accepted from the peer; -1 before any
    nonce: int


class Catalogue:
    """One cell's registry of peers, keyed by cell id."""

    def __init__(self, owner_id: str, trust_policy: Optional[TrustPolicy] = None):
        self.owner_id = owner_id
        self.set_trust_policy(trust_policy or {})
        self.entries: dict[str, CatalogueEntry] = {}
        # no entry expires before this tick: upsert lowers it, and
        # expire_stale sets it to the exact first expiry
        self.earliest_expiry: float = math.inf

    def upsert(self, profile: CellProfile, now: int, nonce: Optional[int] = None) -> None:
        """Store ``profile`` as seen at ``now``.  An accepted advert passes
        its nonce; any other upsert keeps the nonce the entry holds."""
        cell_id = profile.cell_id
        if cell_id == self.owner_id:
            raise SelfRegistration(f"{self.owner_id!r} cannot register itself")
        old = self.entries.get(cell_id)
        if old is None or old.profile is not profile:
            self._partners = None
        if nonce is None:
            nonce = -1 if old is None else old.nonce
        expiry = now + min(profile.ttl_ticks, MAX_TTL_TICKS) + 1
        self.entries[cell_id] = CatalogueEntry(profile, expiry, nonce)
        if expiry < self.earliest_expiry:
            self.earliest_expiry = expiry

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
        if stale:
            self._partners = None
        stale.sort()
        for cid in stale:
            del self.entries[cid]
        return stale

    def get(self, cell_id: str) -> Optional[CatalogueEntry]:
        return self.entries.get(cell_id)

    def trusts(self, profile: CellProfile, context: str) -> bool:
        """Whether the policy in force trusts ``profile`` in ``context``."""
        required = self.trust_policy.get(context)
        return (required is not None and context in profile.contexts
                and profile.capabilities.issuperset(required))

    def query(
        self, context: str, capability: Optional[str] = None, trusted_only: bool = False,
    ) -> list[CatalogueEntry]:
        out = []
        for cid in sorted(self.entries):
            entry = self.entries[cid]
            if context not in entry.profile.contexts:
                continue
            if capability is not None and capability not in entry.profile.capabilities:
                continue
            if trusted_only and not self.trusts(entry.profile, context):
                continue
            out.append(entry)
        return out

    def trusted_partners(self) -> list[str]:
        """Ids trusted in at least one context, sorted; a copy of the kept list."""
        if self._partners is None:
            self._partners = sorted(cid for cid, e in self.entries.items() if any(
                self.trusts(e.profile, c) for c in e.profile.contexts))
        return self._partners[:]

    def set_trust_policy(self, policy: TrustPolicy) -> None:
        """Replace the trust policy; every later read of trust uses it."""
        self.trust_policy: dict[str, list[str]] = {c: sorted(caps) for c, caps in policy.items()}
        self._partners: Optional[list[str]] = None
