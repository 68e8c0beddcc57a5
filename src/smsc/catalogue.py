"""Per-cell catalogue of known peers.

Every cell keeps its own view of the federation: which peers it has
heard from, when, and whether it trusts them per context.  Trust is
derived locally from a trust policy mapping each context to the
capabilities a peer must advertise; a peer in a context the policy does
not mention is untrusted there.

Entries age out: one whose last-seen tick plus its advertised TTL is
strictly below the current tick is expired.  A fresh advert re-admits
the peer with no memory of the eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Optional

from .errors import PolicyError, SelfRegistration, TrustedQueryWithoutContext

TrustPolicy = Mapping[str, Iterable[str]]


@dataclass(frozen=True)
class CellProfile:
    """What a cell advertises about itself."""

    cell_id: str
    endpoint: str
    contexts: frozenset[str]
    capabilities: frozenset[str]
    resource_kind: str
    advertised_at_tick: int
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
            "advertisedAtTick": self.advertised_at_tick,
            "ttlTicks": self.ttl_ticks,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "CellProfile":
        return cls(
            cell_id=data["cellId"],
            endpoint=data["endpoint"],
            contexts=frozenset(data["contexts"]),
            capabilities=frozenset(data["capabilities"]),
            resource_kind=data["resourceKind"],
            advertised_at_tick=data["advertisedAtTick"],
            ttl_ticks=data["ttlTicks"],
        )


@dataclass(frozen=True)
class CatalogueEntry:
    profile: CellProfile
    last_seen_tick: int
    trusted: Mapping[str, bool]

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

    def upsert(self, profile: CellProfile, now: int) -> CatalogueEntry:
        if profile.cell_id == self.owner_id:
            raise SelfRegistration(f"{self.owner_id!r} cannot register itself")
        entry = CatalogueEntry(
            profile=profile,
            last_seen_tick=now,
            trusted=_derive_trust(profile, self.trust_policy),
        )
        self.entries[profile.cell_id] = entry
        return entry

    def expire_stale(self, now: int) -> list[str]:
        """Drop entries whose TTL has lapsed; returns their ids sorted."""
        stale = sorted(
            cid for cid, e in self.entries.items()
            if e.last_seen_tick + e.profile.ttl_ticks < now
        )
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
            self.entries[cid] = replace(
                entry, trusted=_derive_trust(entry.profile, self.trust_policy)
            )
