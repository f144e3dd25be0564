"""Exception types shared across the package."""

__all__ = [
    "GoodSgpError",
    "DimensionMismatch",
    "UnsupportedDimension",
    "NonLocalError",
    "NotGoodSemigroup",
    "NotGoodIdeal",
    "NotAGeneratingSystem",
    "ConstructionError",
]


class GoodSgpError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GoodSgpError, ValueError):
    """Two points have different dimensions."""


class UnsupportedDimension(GoodSgpError):
    """Operation is only implemented for a restricted dimension (usually n = 2)."""


class NonLocalError(GoodSgpError):
    """Operation requires a local semigroup (no nonzero element on a coordinate axis)."""


class _Rejected(GoodSgpError):
    """A candidate point set failed validation.

    Attributes:
        report: ValidationReport describing every violated axiom.
        small: the SmallSet that was validated (after conductor normalization),
            useful for inspecting partial results such as truncated closures.
    """

    def __init__(self, report, small=None):
        self.report = report
        self.small = small
        super().__init__(str(report))


class NotGoodSemigroup(_Rejected):
    """A candidate point set failed the good semigroup axioms."""


class NotGoodIdeal(_Rejected):
    """A candidate point set failed the relative ideal axioms."""


class NotAGeneratingSystem(GoodSgpError):
    """The given set does not regenerate the target semigroup or ideal."""


class ConstructionError(GoodSgpError):
    """Inputs to a construction violate its preconditions (e.g. E not contained in S)."""
