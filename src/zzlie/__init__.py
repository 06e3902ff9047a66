"""Exact-arithmetic toolkit for a family of ZxZ-graded Lie algebras.

Structure constants and brackets for seven algebra families, windowed and
symbolic verification of the Lie and cocycle identities, intermediate-series
modules over the rank-1 centerless Virasoro algebra, and the coefficient
recurrence machinery behind their classification.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import algebras, classify, linsolve, poly, verify, virmodules
from .algebras import *  # noqa: F401,F403
from .classify import *  # noqa: F401,F403
from .linsolve import *  # noqa: F401,F403
from .poly import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .virmodules import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *algebras.__all__,
    *classify.__all__,
    *linsolve.__all__,
    *poly.__all__,
    *verify.__all__,
    *virmodules.__all__,
]
