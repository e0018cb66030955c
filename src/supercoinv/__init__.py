"""supercoinv: exact computation with super coinvariant algebras of G(m, p, n).

Sparse exact-rational arithmetic in Q[x_1..x_n, theta_1..theta_n], the
differential-operator calculus on it, explicit group data for the reflection
groups G(m, p, n), Artin and Groebner bases of their coinvariant ideals,
bidegree-resolved super harmonic spaces, and a verification suite for the
structural theorems and enumerative conjectures about them.
"""

__version__ = "0.1.0"

# Bumping this invalidates every on-disk cache entry.
ENGINE_VERSION = 1

from .qseries import QPoly, QZPoly, Rational, q_integer, q_factorial  # noqa: F401
from .qseries import q_stirling_a, q_stirling_b, zabrocki_hilbert  # noqa: F401
from .qseries import alternating_sum  # noqa: F401
from .superpoly import Operator, SuperPoly, pairing, partial_operator  # noqa: F401
from .groups import GroupSpec, GroupData, build_group  # noqa: F401
from .harmonics import (  # noqa: F401
    DEFAULT_CELL_BUDGET,
    DimTable,
    FeasibilityError,
    IntegrityError,
    Subspace,
    derivative_closure,
    det_isotypic_basis,
    harmonic_cells,
    kernel_intersection,
    sh_dim_table,
)
from .checks import (  # noqa: F401
    exactness_check,
    fitting_structures,
    laplacian_spectrum_check,
    support_check,
)
from .verify import CheckReport, run_suite  # noqa: F401
