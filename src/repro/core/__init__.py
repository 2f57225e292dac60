"""VirtualWire itself: the paper's primary contribution.

FSL (the Fault Specification Language), the six-table compiler, the
per-node Fault Injection and Analysis Engine, the raw-Ethernet control
plane, the programming front-end, and the :class:`Testbed` facade.
"""

from .audit import AuditEvent, AuditLog
from .autogen import MessageFlow, ProtocolSpec, ScriptGenerator, rether_spec
from .chaos import ControlLossLayer
from .classify import Classifier, ClassifierBase, FilterIndex, VarStore
from .control import FLAG_RELIABLE, ControlMessage, ControlType
from .reliable import INITIAL_RTO_NS, MAX_RETRIES, MAX_RTO_NS, ReliableControlPlane
from .lint import Finding, Severity, lint_program, lint_text
from .engine import EngineStats, VirtualWireEngine
from .frontend import DEFAULT_INACTIVITY_NS, Frontend
from .fsl import compile_script, compile_text, parse_script
from .report import EndReason, ErrorRecord, ScenarioReport
from .runtime import EventStats, NodeRuntime
from .tables import (
    ActionKind,
    ActionSpec,
    CompiledProgram,
    ConditionExpr,
    ConditionSpec,
    CounterKind,
    CounterSpec,
    Direction,
    FilterEntry,
    FilterTable,
    FilterTuple,
    NodeEntry,
    NodeTable,
    Operand,
    RelOp,
    TermMode,
    TermSpec,
    VarRef,
)
from .testbed import Testbed

__all__ = [
    "ActionKind",
    "AuditEvent",
    "AuditLog",
    "ActionSpec",
    "Classifier",
    "ClassifierBase",
    "CompiledProgram",
    "FilterIndex",
    "ConditionExpr",
    "ConditionSpec",
    "ControlLossLayer",
    "ControlMessage",
    "ControlType",
    "FLAG_RELIABLE",
    "INITIAL_RTO_NS",
    "MAX_RETRIES",
    "MAX_RTO_NS",
    "ReliableControlPlane",
    "CounterKind",
    "CounterSpec",
    "DEFAULT_INACTIVITY_NS",
    "Direction",
    "EndReason",
    "EngineStats",
    "ErrorRecord",
    "EventStats",
    "Finding",
    "MessageFlow",
    "ProtocolSpec",
    "ScriptGenerator",
    "Severity",
    "lint_program",
    "lint_text",
    "rether_spec",
    "FilterEntry",
    "FilterTable",
    "FilterTuple",
    "Frontend",
    "NodeEntry",
    "NodeRuntime",
    "NodeTable",
    "Operand",
    "RelOp",
    "ScenarioReport",
    "TermMode",
    "TermSpec",
    "Testbed",
    "VarRef",
    "VarStore",
    "VirtualWireEngine",
    "compile_script",
    "compile_text",
    "parse_script",
]
