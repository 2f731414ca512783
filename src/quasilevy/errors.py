"""Exception hierarchy shared by all modules.

Every error a caller can branch on has its own class; the CLI maps the
whole hierarchy onto its exit-code taxonomy.
"""

from __future__ import annotations


class QuasiLevyError(Exception):
    """Base class for all library errors."""


class InvalidArgument(QuasiLevyError, ValueError):
    """An argument outside its documented range; also a ValueError for library callers."""


# --- measure construction / arithmetic -------------------------------------

class NegativeMass(QuasiLevyError):
    pass


class MassSumNotOne(QuasiLevyError):
    pass


class DuplicateAtom(QuasiLevyError):
    pass


class BasisMismatch(QuasiLevyError):
    pass


class IrrationalSupport(QuasiLevyError):
    """Exact lattice/module arithmetic was requested on non-rational data."""


# --- distinguished logarithm / paths ----------------------------------------

class ZeroOnPath(QuasiLevyError):
    pass


class StepTooCoarse(QuasiLevyError):
    """Adjacent phase increment too large to unwrap safely; refine the grid."""


# --- spectral extraction -----------------------------------------------------

class NotSeparated(QuasiLevyError):
    """Separation from zero could not be certified (zero found or undecided)."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NonConvergent(QuasiLevyError):
    """Grid doubling exhausted before the requested tolerance was reached."""


# --- measure calculus ----------------------------------------------------------

class Diverged(QuasiLevyError):
    """The exponential series needs more terms or grid points than allowed, or a bound leaves the float range."""


class NegativeMassBeyondTolerance(QuasiLevyError):
    """Reconstruction produced a genuinely signed measure."""


class NonpositiveTau(QuasiLevyError):
    pass


# --- limits checkers ----------------------------------------------------------

class LimitNotSeparated(QuasiLevyError):
    pass


class TripletFailed(QuasiLevyError):
    """Triplet extraction failed for one member of a law sequence."""

    def __init__(self, index, cause):
        super().__init__(f"triplet extraction failed for member {index}: {cause}")
        self.index = index
        self.cause = cause


# --- file formats ----------------------------------------------------------------

class ParseError(QuasiLevyError):
    pass
