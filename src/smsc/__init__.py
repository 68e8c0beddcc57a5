"""Self-managed security cells.

A cell wraps one resource (a mail filter, a phone filter, a registry)
with its own policy store, peer catalogue, and enforcement point, and
cooperates with other cells by exchanging signed, sequence-numbered
security updates.  The ``sim`` module runs whole federations of cells
under a deterministic discrete-event clock with scriptable faults.
"""

from .bus import MessageBus
from .catalogue import Catalogue, CatalogueEntry, CellProfile
from .cell import Cell, OutboundMessage
from .discovery import AdvertOutcome, DiscoveryService
from .errors import SmscError
from .governance import (
    ApplyReport,
    ApplyStatus,
    ConfigSetting,
    ConflictReport,
    DomainSpec,
    ImpactAssessment,
    PolicyStore,
    UpdateKind,
    UpdatePackage,
    assess_update_impact,
    detect_conflicts,
    make_update,
)
from .policy import (
    AttributePair,
    Condition,
    Decision,
    DecisionRequest,
    DelegationAssertion,
    Effect,
    PolicyDocument,
    PolicyRule,
    RegressionCase,
    RootGrant,
    Token,
    Verdict,
    evaluate_request,
    expand_delegations,
    issue_token,
    load_policy_document,
    verify_token,
)
from .resources import (
    CallFilterResource,
    EchoResource,
    EmailFilterResource,
    ManagedResource,
    RegistryResource,
    build_resource,
)
from .sim import (
    EventLog,
    ScenarioSpec,
    Simulator,
    load_scenario,
    parse_scenario,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdvertOutcome",
    "ApplyReport",
    "ApplyStatus",
    "AttributePair",
    "CallFilterResource",
    "Catalogue",
    "CatalogueEntry",
    "Cell",
    "CellProfile",
    "Condition",
    "ConfigSetting",
    "ConflictReport",
    "Decision",
    "DecisionRequest",
    "DelegationAssertion",
    "DiscoveryService",
    "DomainSpec",
    "EchoResource",
    "Effect",
    "EmailFilterResource",
    "EventLog",
    "ImpactAssessment",
    "ManagedResource",
    "MessageBus",
    "OutboundMessage",
    "PolicyDocument",
    "PolicyRule",
    "PolicyStore",
    "RegistryResource",
    "RegressionCase",
    "RootGrant",
    "ScenarioSpec",
    "Simulator",
    "SmscError",
    "Token",
    "UpdateKind",
    "UpdatePackage",
    "Verdict",
    "assess_update_impact",
    "build_resource",
    "detect_conflicts",
    "evaluate_request",
    "expand_delegations",
    "issue_token",
    "load_policy_document",
    "load_scenario",
    "make_update",
    "parse_scenario",
    "run_scenario",
    "verify_token",
]
