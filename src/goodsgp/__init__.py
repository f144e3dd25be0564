"""Good semigroups of N^n: construction, validation, and invariants.

A good semigroup is a submonoid of N^n closed under componentwise minima,
with a conductor, and satisfying the shared coordinate witness property.
It is stored by its finite set of small elements (members below the
conductor); everything else is rays from the border and the cone above the
conductor.  The package builds them from generators, from numerical
semigroup constructions (duplication, amalgamation, products), validates
the axioms with witness reports, and computes minimal generating systems,
good relative ideals, canonical ideals, symmetry, the Arf property, and
Arf closures.  A small command line tool wraps the main operations.
"""

from .arf import (
    arf_closure,
    arf_saturation,
    is_arf,
)
from .constructions import amalgamation, cartesian, duplication, from_maximal_elements
from .errors import (
    ConstructionError,
    DimensionMismatch,
    GoodSgpError,
    NonLocalError,
    NotAGeneratingSystem,
    NotGoodIdeal,
    NotGoodSemigroup,
    UnsupportedDimension,
)
from .gensys import (
    is_minimal_system,
    minimal_generating_system,
    minimal_ideal_generating_system,
)
from .ideals import (
    GoodRelativeIdeal,
    canonical_generators,
    canonical_ideal,
    gi_contains,
    gi_from_generators,
    good_ideal,
    is_stable,
    is_symmetric,
    sum_ideals,
    tail_ideal,
    validate_ideal_small_set,
)
from .lattice import Point, join, ones
from .numerical import (
    NumericalIdeal,
    NumericalSemigroup,
    ideal_contains,
    ideal_from_generators,
    ideal_preimage_scale,
    ns_arf_closure,
    ns_contains,
    ns_element_at,
    ns_from_generators,
    ns_from_small,
    ns_multiplicity,
)
from .oracle import brute_arf_check, brute_canonical, brute_closure, brute_member
from .plot import render_plot
from .semigroup import (
    GoodSemigroup,
    SmallSet,
    ValidationReport,
    Violation,
    closure_small,
    good_semigroup,
    gs_contains,
    gs_from_generators,
    is_local,
    maximal_elements,
    normalize_conductor,
    projection,
    small_set,
    validate_small_set,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "Point",
    "join",
    "ones",
    # errors
    "GoodSgpError",
    "DimensionMismatch",
    "UnsupportedDimension",
    "NonLocalError",
    "NotGoodSemigroup",
    "NotGoodIdeal",
    "NotAGeneratingSystem",
    "ConstructionError",
    # numerical
    "NumericalSemigroup",
    "NumericalIdeal",
    "ns_from_generators",
    "ns_from_small",
    "ns_contains",
    "ns_element_at",
    "ns_multiplicity",
    "ns_arf_closure",
    "ideal_from_generators",
    "ideal_contains",
    "ideal_preimage_scale",
    # semigroup
    "SmallSet",
    "small_set",
    "Violation",
    "ValidationReport",
    "GoodSemigroup",
    "good_semigroup",
    "validate_small_set",
    "closure_small",
    "normalize_conductor",
    "gs_from_generators",
    "gs_contains",
    "is_local",
    "maximal_elements",
    "projection",
    # constructions
    "duplication",
    "amalgamation",
    "cartesian",
    "from_maximal_elements",
    # generating systems
    "is_minimal_system",
    "minimal_generating_system",
    "minimal_ideal_generating_system",
    # ideals
    "GoodRelativeIdeal",
    "validate_ideal_small_set",
    "good_ideal",
    "gi_contains",
    "gi_from_generators",
    "tail_ideal",
    "is_stable",
    "canonical_generators",
    "canonical_ideal",
    "is_symmetric",
    "sum_ideals",
    # arf
    "is_arf",
    "arf_closure",
    "arf_saturation",
    # oracle
    "brute_member",
    "brute_closure",
    "brute_canonical",
    "brute_arf_check",
    # plot
    "render_plot",
]
