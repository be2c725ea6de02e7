"""Exact measures on the real line and the weighted-theory condition zoo.

The claim names (`MANIFEST`, `REGISTRY`, `ClaimReport`, `run_claim`,
`sweep`) are exported on first use, so `import wtc` does not import
`wtc.claims` and the constructions and report it pulls in.
"""

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
from .measure import Atom, Interval, Measure, StepPiece, rat

_CLAIM_NAMES = ("MANIFEST", "REGISTRY", "ClaimReport", "run_claim", "sweep")

__all__ = [
    *_CLAIM_NAMES,
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


def __getattr__(name: str):
    if name in _CLAIM_NAMES:
        from . import claims

        return getattr(claims, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
