"""Managed resources: the things a cell actually protects.

A resource does no access control of its own.  The cell's enforcement
point decides first and only then calls ``invoke``; a resource that gets
invoked may assume the request was permitted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Optional

from .catalogue import Catalogue
from .errors import UnknownResourceKind


class ManagedResource(ABC):
    kind: str = ""
    operations: tuple[str, ...] = ()

    @abstractmethod
    def invoke(self, action: str, args: Mapping[str, Any], context: str) -> Any:
        ...


class EmailFilterResource(ManagedResource):
    """Inbound mail screen.  ``flag`` is the local mark a user leaves on a
    message; turning that mark into a federation-wide block is the
    management layer's job, not this resource's."""

    kind = "email-filter"
    operations = ("deliver", "flag")

    def __init__(self) -> None:
        self.delivered: list[tuple[str, str, str]] = []
        self.flagged: set[tuple[str, str]] = set()

    def invoke(self, action: str, args: Mapping[str, Any], context: str) -> Any:
        sender = str(args.get("from", ""))
        if action == "deliver":
            self.delivered.append((context, sender, str(args.get("subject", ""))))
            return {"delivered": True, "from": sender}
        self.flagged.add((context, sender))
        return {"flagged": sender}


class CallFilterResource(ManagedResource):
    """Telephony screen: incoming calls ring, incoming texts land."""

    kind = "call-filter"
    operations = ("ring", "text")

    def __init__(self) -> None:
        self.calls: list[tuple[str, str]] = []
        self.texts: list[tuple[str, str, str]] = []

    def invoke(self, action: str, args: Mapping[str, Any], context: str) -> Any:
        caller = str(args.get("from", ""))
        if action == "ring":
            self.calls.append((context, caller))
            return {"rang": True, "from": caller}
        self.texts.append((context, caller, str(args.get("body", ""))))
        return {"sent": True, "from": caller}


class RegistryResource(ManagedResource):
    """Exposes the hosting cell's catalogue as a queryable directory.

    Lookup args: ``context`` (defaults to the request's own context) and
    an optional required ``capability``.
    """

    kind = "registry"
    operations = ("lookup",)

    def __init__(self, catalogue: Catalogue):
        self._catalogue = catalogue

    def invoke(self, action: str, args: Mapping[str, Any], context: str) -> Any:
        wanted = str(args.get("context") or context)
        capability = args.get("capability")
        entries = self._catalogue.query(
            context=wanted,
            capability=str(capability) if capability is not None else None,
        )
        return {"profiles": [e.profile.to_wire() for e in entries]}


class EchoResource(ManagedResource):
    """Returns its arguments; handy in tests and demos."""

    kind = "echo"
    operations = ("echo",)

    def invoke(self, action: str, args: Mapping[str, Any], context: str) -> Any:
        return {"echo": dict(args), "context": context}


def build_resource(kind: str, catalogue: Optional[Catalogue] = None) -> ManagedResource:
    if kind == EmailFilterResource.kind:
        return EmailFilterResource()
    if kind == CallFilterResource.kind:
        return CallFilterResource()
    if kind == RegistryResource.kind:
        if catalogue is None:
            raise UnknownResourceKind("registry resource needs a catalogue")
        return RegistryResource(catalogue)
    if kind == EchoResource.kind:
        return EchoResource()
    raise UnknownResourceKind(f"no resource implementation for kind {kind!r}")
