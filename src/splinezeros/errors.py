"""Exception types. Every failure mode the library promises to distinguish
gets its own class; everything derives from SplineZerosError so callers can
catch the whole family at once."""


class SplineZerosError(Exception):
    """Base class for all library errors."""


class DimensionError(SplineZerosError):
    """Matrix/vector shapes do not match the operation."""


class SingularMatrixError(SplineZerosError):
    """Exact linear solve hit a singular matrix."""


class RankDeficiencyError(SplineZerosError):
    """Integer vectors do not span the ambient space."""


class IntervalError(SplineZerosError):
    """Interval endpoints are not in strictly increasing order."""


class InfiniteRootsError(SplineZerosError):
    """Root count requested for the zero polynomial (infinitely many roots).

    Callers must branch on identically-zero pieces first."""


class KnotOrderError(SplineZerosError):
    """Knot sequence is not strictly increasing."""


class KnotRangeError(SplineZerosError):
    """Point outside the allowed knot window, or clashes with an existing
    knot."""


class SmoothnessError(SplineZerosError):
    """Piecewise data does not meet the required smoothness at a knot."""


class DegreeError(SplineZerosError):
    """Operation undefined for this spline degree."""


class CapabilityError(SplineZerosError):
    """Configuration outside the supported evaluation range."""


class ConsistencyError(SplineZerosError):
    """Internal invariant violated; indicates a bug, not bad input."""


class FormatError(SplineZerosError):
    """Malformed textual or JSON input."""


class Validated:
    """Base of the namedtuple value types whose ``__post_init__`` checks the
    fields: every instance is checked, including those that ``_make``,
    ``_replace`` and unpickling build."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)
