import importlib
import pkgutil

import pytest

import zzlie
from zzlie import algebras, classify, linsolve, poly, verify, virmodules

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(zzlie.__path__))

# The names the package exported when it listed them by hand; none may be lost.
EXPORTED = [
    "FAMILIES", "AlgebraSpec", "BasisElement", "DomainError", "Element",
    "factorial_ratio", "structure_table",
    "ClassificationParams", "check_impossibility", "derive_constraint_polys",
    "enumerate_case_split", "recurrence_equation", "solve_c_window",
    "MultiPoly", "UsageError", "format_rational", "parse_rational",
    "rational_root_scan", "symbol",
    "QuotientC", "ViolationReport", "check_antisymmetry", "check_grading",
    "check_jacobi", "find_diagonal_isomorphism", "symbolic_jacobi_D",
    "symbolic_jacobi_block", "symbolic_jacobi_vir",
    "ModuleSpec", "ModVector", "act", "check_module_axiom", "find_intertwiner",
    "irreducible_subquotient",
]


def test_package_names_resolve():
    for name in zzlie.__all__:
        assert hasattr(zzlie, name), name


def test_package_names_are_unique():
    assert len(set(zzlie.__all__)) == len(zzlie.__all__)


def test_package_reexports_each_module_list():
    assert zzlie.__all__ == [
        *algebras.__all__,
        *classify.__all__,
        *linsolve.__all__,
        *poly.__all__,
        *verify.__all__,
        *virmodules.__all__,
    ]


def test_hand_listed_exports_are_kept():
    assert len(EXPORTED) == 34
    for name in EXPORTED:
        assert name in zzlie.__all__ and hasattr(zzlie, name), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve(name):
    module = importlib.import_module(f"zzlie.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"zzlie.{name}.{attr}"
