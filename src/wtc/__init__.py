"""Exact measures on the real line and the weighted-theory condition zoo."""

from .errors import (
    AtomPresentError,
    CapExceededError,
    FamilyTooLargeError,
    NegativeMassError,
    NonIntegrableError,
    OverlappingStepsError,
    ParamDomainError,
    ParseError,
    ScaleDomainError,
    SingularSampleError,
    StageOverflowError,
    UnknownClaimError,
    WtcError,
    ZeroMassError,
)
from .claims import MANIFEST, REGISTRY, ClaimReport, run_claim, sweep
from .measure import Atom, Interval, Measure, StepPiece, rat

__all__ = [
    "MANIFEST",
    "REGISTRY",
    "ClaimReport",
    "run_claim",
    "sweep",
    "Atom",
    "Interval",
    "Measure",
    "StepPiece",
    "rat",
    "WtcError",
    "ZeroMassError",
    "AtomPresentError",
    "SingularSampleError",
    "NonIntegrableError",
    "ParamDomainError",
    "StageOverflowError",
    "FamilyTooLargeError",
    "CapExceededError",
    "ScaleDomainError",
    "UnknownClaimError",
    "ParseError",
    "NegativeMassError",
    "OverlappingStepsError",
]

__version__ = "0.1.0"
