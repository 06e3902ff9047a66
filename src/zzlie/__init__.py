"""Exact-arithmetic toolkit for a family of ZxZ-graded Lie algebras.

Structure constants and brackets for seven algebra families, windowed and
symbolic verification of the Lie and cocycle identities, intermediate-series
modules over the rank-1 centerless Virasoro algebra, and the coefficient
recurrence machinery behind their classification.
"""

from .algebras import (
    FAMILIES,
    AlgebraSpec,
    BasisElement,
    DomainError,
    Element,
    factorial_ratio,
    structure_table,
)
from .classify import (
    ClassificationParams,
    check_impossibility,
    derive_constraint_polys,
    enumerate_case_split,
    recurrence_equation,
    solve_c_window,
)
from .poly import (
    MultiPoly,
    UsageError,
    format_rational,
    parse_rational,
    rational_root_scan,
    symbol,
)
from .verify import (
    QuotientC,
    ViolationReport,
    check_antisymmetry,
    check_grading,
    check_jacobi,
    find_diagonal_isomorphism,
    symbolic_jacobi_D,
    symbolic_jacobi_block,
    symbolic_jacobi_vir,
)
from .virmodules import (
    ModuleSpec,
    ModVector,
    act,
    check_module_axiom,
    find_intertwiner,
    irreducible_subquotient,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "AlgebraSpec",
    "BasisElement",
    "DomainError",
    "Element",
    "factorial_ratio",
    "structure_table",
    "ClassificationParams",
    "check_impossibility",
    "derive_constraint_polys",
    "enumerate_case_split",
    "recurrence_equation",
    "solve_c_window",
    "MultiPoly",
    "UsageError",
    "format_rational",
    "parse_rational",
    "rational_root_scan",
    "symbol",
    "QuotientC",
    "ViolationReport",
    "check_antisymmetry",
    "check_grading",
    "check_jacobi",
    "find_diagonal_isomorphism",
    "symbolic_jacobi_D",
    "symbolic_jacobi_block",
    "symbolic_jacobi_vir",
    "ModuleSpec",
    "ModVector",
    "act",
    "check_module_axiom",
    "find_intertwiner",
    "irreducible_subquotient",
]
