"""Exception types shared across the package."""


class GoodSgpError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GoodSgpError, ValueError):
    """Two points have different dimensions."""


class UnsupportedDimension(GoodSgpError):
    """Operation is only implemented for a restricted dimension (usually n = 2)."""


class NonLocalError(GoodSgpError):
    """Operation requires a local semigroup (no nonzero element on a coordinate axis)."""


class NotGoodSemigroup(GoodSgpError):
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


class NotGoodIdeal(GoodSgpError):
    """A candidate point set failed the relative ideal axioms."""

    def __init__(self, report, small=None):
        self.report = report
        self.small = small
        super().__init__(str(report))


class NotAGeneratingSystem(GoodSgpError):
    """The given set does not regenerate the target semigroup or ideal."""


class ConstructionError(GoodSgpError):
    """Inputs to a construction violate its preconditions (e.g. E not contained in S)."""
