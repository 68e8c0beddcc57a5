"""Peer discovery: broadcast adverts and directed registration.

A cell builds its own profile once and sends that same profile in every
advert, registration and register-reply.  Adverts carry a per-sender
monotonic nonce so a receiver can discard replays and reordered copies
while the sender is in its catalogue; the nonce is kept in the sender's
catalogue entry and goes when that entry expires, so what a cell keeps
per peer is its catalogue.  Registration is the directed handshake used
when a cell wants a specific peer (often a registry cell) to know about
it; the receiver may return its own profile in reply.
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
        owner = catalogue.owner_id
        self.profile = CellProfile(owner, owner, contexts, capabilities, resource_kind, ttl_ticks)
        self._next_nonce = 0

    def make_advertisement(self) -> Advertisement:
        advert = Advertisement(self.profile, self._next_nonce)
        self._next_nonce += 1
        return advert

    def handle_advertisement(self, advert: Advertisement, now: int) -> AdvertOutcome:
        peer = advert.profile.cell_id
        if peer == self.profile.cell_id:
            return AdvertOutcome.SELF_IGNORED
        entry = self.catalogue.get(peer)
        if advert.nonce <= (-1 if entry is None else entry.nonce):
            return AdvertOutcome.STALE_NONCE
        self.catalogue.upsert(advert.profile, now, advert.nonce)
        return AdvertOutcome.ACCEPTED

    def make_registration(self, target: str, want_reply: bool = True) -> RegistrationRequest:
        if target == self.profile.cell_id:
            raise SelfRegistration(f"{target!r} cannot register with itself")
        return RegistrationRequest(self.profile, want_reply)

    def handle_registration(
        self, request: RegistrationRequest, now: int
    ) -> Optional[CellProfile]:
        """Record the registrant; returns our profile when a reply is wanted."""
        self.catalogue.upsert(request.profile, now)
        return self.profile if request.want_reply else None
