"""Peer discovery: broadcast adverts and directed registration.

Adverts carry a per-sender monotonic nonce so a receiver can discard
replays and reordered copies while the sender is in its catalogue; the
nonce is dropped when the entry expires, so that what a cell keeps per
peer is bounded by its catalogue.  Registration is the directed handshake
used when a cell wants a specific peer (often a registry cell) to know
about it; the receiver may return its own profile in reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple, Optional

from .catalogue import Catalogue, CellProfile
from .errors import SelfRegistration
from .wire import field


class Advertisement(NamedTuple):
    profile: CellProfile
    nonce: int

    def to_wire(self) -> dict[str, Any]:
        return {"profile": self.profile.to_wire(), "nonce": self.nonce}

    @classmethod
    def from_wire(cls, data: Any) -> "Advertisement":
        nonce = field(data, "nonce", "advert", int)
        return cls(CellProfile.from_wire(data.get("profile")), nonce)


@dataclass(frozen=True)
class RegistrationRequest:
    profile: CellProfile
    want_reply: bool

    def to_wire(self) -> dict[str, Any]:
        return {"profile": self.profile.to_wire(), "wantReply": self.want_reply}

    @classmethod
    def from_wire(cls, data: Any) -> "RegistrationRequest":
        want_reply = field(data, "wantReply", "register", bool)
        return cls(CellProfile.from_wire(data.get("profile")), want_reply)


class AdvertOutcome(str, Enum):
    ACCEPTED = "accepted"
    STALE_NONCE = "stale-nonce"
    SELF_IGNORED = "self-ignored"


class DiscoveryService:
    """Advert/registration logic for one cell, feeding its catalogue."""

    def __init__(
        self,
        catalogue: Catalogue,
        contexts: frozenset[str],
        capabilities: frozenset[str],
        resource_kind: str,
        ttl_ticks: int,
    ):
        self.catalogue = catalogue
        self.contexts = contexts
        self.capabilities = capabilities
        self.resource_kind = resource_kind
        self.ttl_ticks = ttl_ticks
        self._next_nonce = 0
        self._last_nonce: dict[str, int] = {}

    @property
    def cell_id(self) -> str:
        return self.catalogue.owner_id

    def current_profile(self, now: int) -> CellProfile:
        return CellProfile(
            cell_id=self.cell_id,
            endpoint=self.cell_id,
            contexts=self.contexts,
            capabilities=self.capabilities,
            resource_kind=self.resource_kind,
            advertised_at_tick=now,
            ttl_ticks=self.ttl_ticks,
        )

    def make_advertisement(self, now: int) -> Advertisement:
        advert = Advertisement(self.current_profile(now), self._next_nonce)
        self._next_nonce += 1
        return advert

    def handle_advertisement(self, advert: Advertisement, now: int) -> AdvertOutcome:
        peer = advert.profile.cell_id
        if peer == self.cell_id:
            return AdvertOutcome.SELF_IGNORED
        if advert.nonce <= self._last_nonce.get(peer, -1):
            return AdvertOutcome.STALE_NONCE
        self._last_nonce[peer] = advert.nonce
        self.catalogue.upsert(advert.profile, now)
        return AdvertOutcome.ACCEPTED

    def forget(self, peer: str) -> None:
        """Drop the nonce of a peer whose catalogue entry expired."""
        self._last_nonce.pop(peer, None)

    def make_registration(self, target: str, now: int, want_reply: bool = True) -> RegistrationRequest:
        if target == self.cell_id:
            raise SelfRegistration(f"{target!r} cannot register with itself")
        return RegistrationRequest(self.current_profile(now), want_reply)

    def handle_registration(
        self, request: RegistrationRequest, now: int
    ) -> Optional[CellProfile]:
        """Record the registrant; returns our profile when a reply is wanted."""
        self.catalogue.upsert(request.profile, now)
        if request.want_reply:
            return self.current_profile(now)
        return None
