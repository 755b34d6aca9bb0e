"""INDISS core: the paper's contribution (S5 in DESIGN.md).

Event model (Table 1), DFA engine with the AddTuple/guard specification
language, parser/composer framework, units, monitor component, translation
bridge, service cache, configuration DSL and the adaptation manager.
"""

from .adaptation import AdaptationEvent, AdaptationManager, segment_utilization
from .cache import CacheEntry, ServiceCache
from .composer import ComposeError, OutboundMessage, SdpComposer
from .dispatch import (
    AdvertisementPipeline,
    ClassifiedStream,
    DISPATCH_POLICIES,
    DispatchPolicy,
    FanOutAllPolicy,
    GatewayForwardPolicy,
    ShardRingPolicy,
    StreamClassifier,
    make_policy,
)
from .config import (
    ConfigError,
    FsmSpec,
    PAPER_SPEC,
    SystemSpec,
    UnitSpec,
    build_indiss_config,
    parse_spec,
)
from .events import (
    Event,
    EventCategory,
    EventType,
    EventTypeRegistry,
    MANDATORY_EVENTS,
    REGISTRY,
    bracket,
    is_bracketed,
    payload_events,
)
from .fsm import (
    FsmError,
    StateMachine,
    StateMachineDefinition,
    Transition,
    TransitionRecord,
    WILDCARD,
)
from .guardlang import ALWAYS, Guard, GuardError, compile_guard
from .indiss import Indiss, IndissConfig, SessionStats
from .monitor import MonitorComponent, SdpSighting
from .parser import NetworkMeta, ParseError, SdpParser
from .registry import IanaRegistry, SdpEntry, default_registry
from .session import TranslationSession, stream_has_result
from .sessions import RequestDeduper, SessionManager
from .unit import IndissTimings, Unit, UnitRuntime

__all__ = [
    "ALWAYS",
    "AdaptationEvent",
    "AdaptationManager",
    "AdvertisementPipeline",
    "CacheEntry",
    "ClassifiedStream",
    "ComposeError",
    "ConfigError",
    "DISPATCH_POLICIES",
    "DispatchPolicy",
    "Event",
    "FanOutAllPolicy",
    "GatewayForwardPolicy",
    "EventCategory",
    "EventType",
    "EventTypeRegistry",
    "FsmError",
    "FsmSpec",
    "Guard",
    "GuardError",
    "IanaRegistry",
    "Indiss",
    "IndissConfig",
    "IndissTimings",
    "MANDATORY_EVENTS",
    "MonitorComponent",
    "NetworkMeta",
    "OutboundMessage",
    "PAPER_SPEC",
    "ParseError",
    "REGISTRY",
    "SdpComposer",
    "SdpEntry",
    "RequestDeduper",
    "SdpParser",
    "SdpSighting",
    "ServiceCache",
    "SessionManager",
    "SessionStats",
    "ShardRingPolicy",
    "StateMachine",
    "StreamClassifier",
    "StateMachineDefinition",
    "SystemSpec",
    "Transition",
    "TransitionRecord",
    "TranslationSession",
    "Unit",
    "UnitRuntime",
    "UnitSpec",
    "WILDCARD",
    "bracket",
    "build_indiss_config",
    "compile_guard",
    "default_registry",
    "is_bracketed",
    "make_policy",
    "parse_spec",
    "payload_events",
    "segment_utilization",
    "stream_has_result",
]
