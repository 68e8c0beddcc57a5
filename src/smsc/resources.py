"""Managed resources: the things a cell actually protects.

A resource does no access control of its own.  The cell's enforcement
point decides first and only then calls ``invoke``; a resource that gets
invoked may assume the request was permitted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping

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

    def invoke(self, action: str, args: Mapping[str, Any], context: str) -> Any:
        sender = str(args.get("from", ""))
        if action == "deliver":
            return {"delivered": True, "from": sender}
        return {"flagged": sender}


class CallFilterResource(ManagedResource):
    """Telephony screen: incoming calls ring, incoming texts land."""

    kind = "call-filter"
    operations = ("ring", "text")

    def invoke(self, action: str, args: Mapping[str, Any], context: str) -> Any:
        caller = str(args.get("from", ""))
        if action == "ring":
            return {"rang": True, "from": caller}
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


RESOURCES = (EmailFilterResource, CallFilterResource, RegistryResource, EchoResource)

RESOURCE_KINDS = frozenset(cls.kind for cls in RESOURCES)


def build_resource(kind: str, catalogue: Catalogue) -> ManagedResource:
    """The resource of ``kind``; a registry serves ``catalogue``."""
    for cls in RESOURCES:
        if cls.kind == kind:
            return RegistryResource(catalogue) if cls is RegistryResource else cls()
    raise UnknownResourceKind(f"no resource implementation for kind {kind!r}")
