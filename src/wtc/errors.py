"""Exception types shared across the package."""


class WtcError(Exception):
    """Base class for all library errors."""


class ZeroMassError(WtcError):
    """A functional needed positive mass on an interval but found none."""


class AtomPresentError(WtcError):
    """An operation defined only for atom-free weights received atoms."""


class SingularSampleError(WtcError):
    """A potential was sampled exactly at an atom location."""


class NonIntegrableError(WtcError):
    """Requested density is not locally integrable."""


class ParamDomainError(WtcError, ValueError):
    """A parameter lies outside its domain: a construction's or a
    functional's parameter, or the data of an interval, an atom, a step
    piece or a measure (a degenerate interval, a negative mass).  It is a
    ValueError too, so callers that catch that still do."""


class StageOverflowError(WtcError):
    """A construction stage needs a size beyond the construction's bound."""


class FamilyTooLargeError(WtcError):
    """A candidate family would exceed its enumeration cap."""


class CapExceededError(WtcError):
    """A requested claim size exceeds the claim's cap."""


class ScaleDomainError(WtcError):
    """A claim size lies outside the claim's domain, or its two sizes cannot
    be compared (the second equals the first)."""


class UnknownClaimError(WtcError):
    """Claim id is not registered."""


class ParseError(WtcError):
    """Measure/CSV file syntax error; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NegativeMassError(ParseError):
    """A mass or density in a measure file was negative."""


class DigitLimitError(ParseError):
    """A number in a measure file, read or written, has more decimal digits
    than Python converts between int and str (sys.get_int_max_str_digits(),
    4,300 by default)."""


class OverlappingStepsError(WtcError):
    """Step piece supports overlap on a set of positive length."""
