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

Each public name is listed once, in the __all__ of the module that defines
it; the package re-exports every module's list but the command line's.
"""

from . import arf, constructions, errors, gensys, ideals, lattice, numerical, oracle, plot, semigroup
from .arf import *
from .constructions import *
from .errors import *
from .gensys import *
from .ideals import *
from .lattice import *
from .numerical import *
from .oracle import *
from .plot import *
from .semigroup import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (lattice, errors, numerical, semigroup, constructions, gensys, ideals, arf, oracle, plot)
    for name in module.__all__
]
