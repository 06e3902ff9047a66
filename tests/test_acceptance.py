"""Acceptance gate: one test and one printed pass/fail line per criterion.

All comparisons are exact (rational arithmetic); no tolerances apply.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from zzlie.algebras import AlgebraSpec, BasisElement
from zzlie.classify import (
    ClassificationParams,
    check_impossibility,
    closed_form_equal_params,
    closed_form_uniform,
    derive_constraint_polys,
    enumerate_case_split,
    solve_c_window,
)
from zzlie.poly import proportionality, symbol
from zzlie.verify import (
    QuotientC,
    check_antisymmetry,
    check_grading,
    check_jacobi,
    find_diagonal_isomorphism,
    symbolic_jacobi_D,
)
from zzlie.virmodules import (
    ModuleSpec,
    check_module_axiom,
    find_intertwiner,
    irreducible_subquotient,
)

from reference import PrintedIndexC


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS")


def test_criterion_1_symbolic_jacobi():
    with criterion(1, "symbolic Jacobi, uniform two-parameter family"):
        start = time.monotonic()
        assert symbolic_jacobi_D()
        assert time.monotonic() - start < 5.0


def test_criterion_2_windowed_sweeps():
    specs = [
        AlgebraSpec("vir", Fraction(1, 2)),
        AlgebraSpec("d", 1, 3),
        AlgebraSpec("block", 1, 2, a1=symbol("a1"), a2=symbol("a2"), a2p=symbol("a2p")),
        AlgebraSpec("bplus-", 1, a1=1, a2=1, a2p=1),
        AlgebraSpec("bplus+", 1, a1=1, a2=1, a2p=1),
        AlgebraSpec("c", Fraction(2, 3)),
        AlgebraSpec("cbar", Fraction(2, 3)),
        AlgebraSpec("c", 2),
        AlgebraSpec("block", 1, 2, a1=1, a2=0, a2p=0),
    ]
    with criterion(2, "windowed Jacobi/antisymmetry/grading at W=4"):
        for spec in specs:
            assert check_antisymmetry(spec, 4).ok, spec
            assert check_jacobi(spec, 4).ok, spec
            assert check_grading(spec, 4).ok, spec


def test_criterion_3_literal_index_regression():
    with criterion(3, "literal vs corrected target index"):
        assert not check_grading(PrintedIndexC(AlgebraSpec("c", 1)), 2).ok
        assert check_grading(AlgebraSpec("c", 1), 2).ok


def test_criterion_4_module_axiom_sweeps():
    modules = [
        ModuleSpec("a_ab", Fraction(1, 2), 0),
        ModuleSpec("a_ab", 0, 0),
        ModuleSpec("a_ab", 0, 1),
        ModuleSpec("a_paren", 1),
        ModuleSpec("b_paren", 1),
        ModuleSpec("b_paren", -2),
        irreducible_subquotient(ModuleSpec("a_ab", 0, 0)),
        irreducible_subquotient(ModuleSpec("a_ab", 0, 1)),
    ]
    with criterion(4, "module axiom sweeps at W=5"):
        for m in modules:
            assert check_module_axiom(m, 5).ok, m


def test_criterion_5_intertwiners():
    with criterion(5, "diagonal intertwiner existence and absence"):
        w = find_intertwiner(
            ModuleSpec("a_ab", Fraction(1, 2), 0),
            ModuleSpec("a_ab", Fraction(1, 2), 1),
            6,
        )
        assert w is not None
        ratios = {w[k] / (Fraction(1, 2) + k) for k in w}
        assert len(ratios) == 1 and Fraction(0) not in ratios
        assert (
            find_intertwiner(ModuleSpec("a_ab", 0, 0), ModuleSpec("a_ab", 0, 1), 6)
            is None
        )
        assert (
            find_intertwiner(
                irreducible_subquotient(ModuleSpec("a_ab", 0, 0)),
                irreducible_subquotient(ModuleSpec("a_ab", 0, 1)),
                6,
            )
            is not None
        )


def test_criterion_6_recurrence_oracle():
    with criterion(6, "recurrence window solves at W=5"):
        # linear closed form at (alpha, beta1, betam1) = (1, 2, -4)
        s = solve_c_window(ClassificationParams(1, 2, -4), 5)
        assert not s.infeasible
        cf = closed_form_uniform(1, 3)
        assert len(s.values) == 121
        for (i, j), v in s.values.items():
            assert v == cf(i, j)
        # rational closed form at (1, 2), including c_{0,2} = -4/23
        s = solve_c_window(ClassificationParams(1, 2, 2), 5)
        assert s.values[(0, 2)] == Fraction(-4, 23)
        for k in (1, 2):
            c0, c2 = closed_form_equal_params(1, 2, k)
            assert s.values[(0, 2 * k)] == c0
            assert s.values[(2 * k, 0)] == c2
        # contradiction at beta1 = betam1 = 1
        s = solve_c_window(ClassificationParams(1, 1, 1), 5)
        assert s.infeasible and s.certificate
        # the homogeneous auxiliary system only has the zero solution
        for alpha in (Fraction(1), Fraction(2, 5)):
            assert check_impossibility(alpha, 3)["only_zero"]


def test_criterion_7_constraint_pipeline():
    with criterion(7, "constraint polynomials and case split"):
        polys = derive_constraint_polys()
        b1, bm1, alpha = symbol("beta1"), symbol("betam1"), symbol("alpha")
        p4_ref = b1**2 * (b1 + 1) * (b1 + 2) * (b1 - 1) * (b1 + 3) * alpha**2
        assert proportionality(polys["p4"], p4_ref) is not None
        p6_ref = (
            -4 * (b1 - bm1) * (b1 + bm1) * (b1 + bm1 + 1) * (b1 + bm1 + 2)
            * b1**2 * bm1**2
        )
        assert proportionality(polys["p6"], p6_ref) is not None
        split = enumerate_case_split()
        assert split["relations"] == [
            "beta1 = betam1",
            "beta1 = -betam1",
            "beta1 = -1 - betam1",
            "beta1 = -2 - betam1",
        ]
        assert split["exceptional_pairs"] == [
            (Fraction(-3), Fraction(0)),
            (Fraction(0), Fraction(-3)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]


def test_criterion_8_loop_closure():
    with criterion(8, "bracket coefficients equal solved recurrence values"):
        d = AlgebraSpec("d", 1, 3)
        s = solve_c_window(ClassificationParams(1, 2, -4), 5)
        assert not s.infeasible
        for (i, j), v in s.values.items():
            result = d.basis_bracket((i, -1), (j, 1))
            coeff = result.terms.get(BasisElement("L", i + j, 0), Fraction(0))
            assert coeff == v, (i, j)


def test_criterion_9_quotient_isomorphism():
    with criterion(9, "quotient isomorphic to half-plane algebra with center"):
        quotient = QuotientC(1)
        target = AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0)
        lam = find_diagonal_isomorphism(quotient, target, lambda t: t, 4)
        assert lam is not None
        # the class of L_{1,-1} lands on the central line
        image = target.basis_bracket((0, -1), (1, 0))
        assert list(image.terms) == [BasisElement("C1")]
        upstairs = quotient.basis_bracket((0, -1), (1, 0))
        assert list(upstairs.terms) == [BasisElement("L", 1, -1)]
