import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import zzlie
from zzlie import algebras, classify, linsolve, poly, verify, virmodules

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(zzlie.__path__))

# The names the package exported when it listed them by hand; none may be lost
# except by a recorded removal below.
EXPORTED = [
    "FAMILIES", "AlgebraSpec", "BasisElement", "DomainError", "Element",
    "structure_table",
    "ClassificationParams", "check_impossibility", "derive_constraint_polys",
    "enumerate_case_split", "recurrence_equation", "solve_c_window",
    "MultiPoly", "UsageError", "format_rational", "parse_rational",
    "rational_root_scan", "symbol",
    "QuotientC", "ViolationReport", "check_antisymmetry", "check_grading",
    "check_jacobi", "find_diagonal_isomorphism", "symbolic_jacobi_D",
    "symbolic_jacobi_block",
    "ModuleSpec", "ModVector", "act", "check_module_axiom", "find_intertwiner",
    "irreducible_subquotient",
]

# Names removed from the API; none may come back unnoticed.
REMOVED_FUNCTIONS = [
    (algebras, "factorial_ratio"),
    (classify, "k_coefficient_comparison"),
    (verify, "symbolic_jacobi_vir"),
]
REMOVED_METHODS = [
    (poly.SparseVector, "scale"),
    (poly.SparseVector, "is_zero"),
    (poly.MultiPoly, "degree_in"),
    (algebras.BasisElement, "index"),
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
    assert len(EXPORTED) == 32
    for name in EXPORTED:
        assert name in zzlie.__all__ and hasattr(zzlie, name), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve(name):
    module = importlib.import_module(f"zzlie.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"zzlie.{name}.{attr}"


def test_removed_names_stay_removed():
    for module, name in REMOVED_FUNCTIONS:
        assert name not in zzlie.__all__ and not hasattr(zzlie, name), name
        assert name not in module.__all__ and not hasattr(module, name), name
    for cls, name in REMOVED_METHODS:
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    # an Element is mutable through its terms, so, like a ModVector, it is unhashable
    assert algebras.Element.__hash__ is None


def test_traced_names_exist():
    # the benchmark's traced mode wraps each (owner, attr) in place, so no
    # clean-up may remove one of them from its owner
    path = Path(__file__).resolve().parent.parent / "zzbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("zzbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _, _ in tracing.targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
