"""Peer discovery: broadcast adverts and directed registration.

This module owns the advert and registration wire: a cell hands it each
``advert`` body (``{"profile", "nonce"}``) and ``register`` body
(``{"profile", "wantReply"}``) as it arrived, and sends the bodies it
returns.  A cell builds its own profile once and sends it in every
advert, registration and register-reply.  Adverts carry a per-sender
monotonic nonce, kept in the sender's catalogue entry until it expires,
so a receiver discards replays and reordered copies while it knows the
sender.  An advert whose profile fields are exactly the stored ones is a
refresh: the stored profile object is upserted with the new tick and
nonce, and no profile is built.  Registration is the directed handshake
by which a cell makes a specific peer (often a registry cell) know it;
the receiver may return its own profile in reply.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional

from .catalogue import Catalogue, CellProfile
from .errors import SelfRegistration
from .wire import field


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
        self.profile = CellProfile(catalogue.owner_id, contexts, capabilities,
                                   resource_kind, ttl_ticks)
        self._next_nonce = 0

    def make_advertisement(self) -> dict[str, Any]:
        body = {"profile": self.profile.to_wire(), "nonce": self._next_nonce}
        self._next_nonce += 1
        return body

    def handle_advertisement(self, body: Any, now: int) -> AdvertOutcome:
        nonce = field(body, "nonce", "advert", int)
        wire = body.get("profile")
        peer = wire.get("cellId") if type(wire) is dict else None
        entry = self.catalogue.get(peer) if type(peer) is str else None
        profile = CellProfile.from_wire(wire, None if entry is None else entry.profile)
        if profile.cell_id == self.profile.cell_id:
            return AdvertOutcome.SELF_IGNORED
        if nonce <= (-1 if entry is None else entry.nonce):
            return AdvertOutcome.STALE_NONCE
        self.catalogue.upsert(profile, now, nonce)
        return AdvertOutcome.ACCEPTED

    def make_registration(self, target: str, want_reply: bool = True) -> dict[str, Any]:
        if target == self.profile.cell_id:
            raise SelfRegistration(f"{target!r} cannot register with itself")
        return {"profile": self.profile.to_wire(), "wantReply": want_reply}

    def handle_registration(self, body: Any, now: int) -> Optional[dict[str, Any]]:
        """Record the registrant; returns our profile's wire, the reply
        body, when a reply is wanted."""
        want_reply = field(body, "wantReply", "register", bool)
        self.catalogue.upsert(CellProfile.from_wire(body.get("profile")), now)
        return self.profile.to_wire() if want_reply else None
