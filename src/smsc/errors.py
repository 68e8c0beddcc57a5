"""Exception types shared across the cell runtime and simulator."""

from __future__ import annotations


class SmscError(Exception):
    """Base class for all errors raised by this package."""


# --- policy engine and tokens -------------------------------------------

class PolicyError(SmscError):
    pass


class DuplicateRuleId(PolicyError):
    pass


class TokenVerificationError(PolicyError):
    """Base for the three token checks; a subclass's ``tag`` names which failed."""
    tag = "token-invalid"


class UntrustedIssuer(TokenVerificationError):
    tag = "untrusted-issuer"


class Expired(TokenVerificationError):
    tag = "expired"


class BadSignature(TokenVerificationError):
    """Digest mismatch on a token or an update package."""
    tag = "bad-signature"


# --- governance ----------------------------------------------------------

class UnknownAttributeDomain(SmscError):
    pass


class MalformedUpdate(SmscError):
    pass


# --- catalogue and discovery ---------------------------------------------

class SelfRegistration(SmscError):
    pass


# --- cell ----------------------------------------------------------------

class MalformedCommand(SmscError):
    pass


class UnknownResourceKind(SmscError):
    pass


# --- input reading, scenario loading and simulation -----------------------

class ParseError(SmscError):
    """A peer envelope or a scenario, policy, request or domain document
    failed validation: a field is absent or of another type than
    ``to_wire`` writes, or a scenario value is out of range.

    The message names the offending field.
    """


class UnknownCellRef(ParseError):
    pass


class InvalidProbability(ParseError):
    pass


class UnknownCell(SmscError):
    pass
