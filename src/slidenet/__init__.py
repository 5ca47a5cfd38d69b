"""slidenet: a deterministic synchronous-network simulator for Slide-style
adversarial routing, with signed transfer ledgers and sender-side fault
localization."""

from .adversary import (Corruption, EdgeSchedule, generate_schedule,
                        validate_conforming)
from .auth import classify_failure
from .codec import CodingParams, Message, Packet, decode, derive_params, encode
from .crypto import KeyRing, Signed, keygen
from .engine import Engine, InvariantError, Scenario, run_scenario
from .localize import (StatusReportSet, Verdict, audit_consistency,
                       localize_f2, localize_f3, localize_f4, run_localization)

__all__ = [
    "CodingParams", "Message", "Packet", "derive_params", "encode", "decode",
    "KeyRing", "Signed", "keygen",
    "EdgeSchedule", "Corruption", "generate_schedule", "validate_conforming",
    "Engine", "Scenario", "run_scenario", "InvariantError",
    "StatusReportSet", "Verdict", "classify_failure", "audit_consistency",
    "localize_f2", "localize_f3", "localize_f4", "run_localization",
]
