"""torsionfree: certified torsion-free congruence levels, torsion lower
bounds, and finite-subgroup bounds for arithmetic lattices.

Everything number-theoretic is exact (Python ints, fractions, interval
certificates). The analytic estimates are computed with the standard
library's decimal at a fixed working precision (report.PRECISION digits).
Double values also guide the isolating cells of cosine roots and the window
of the T search, and exact checks decide both.
"""

__version__ = "0.1.0"

from . import polyalg  # noqa: F401
from .errors import (  # noqa: F401
    NotSquarefreeError,
    PreconditionError,
    ResourceCapError,
    TorsionfreeError,
)
