import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zzlie.algebras import (
    AlgebraSpec,
    BasisElement,
    DomainError,
    Element,
    factorial_ratio,
    structure_table,
    window_indices,
)
from zzlie.poly import MultiPoly, symbol
from zzlie.virmodules import ModVector


def L(i, j):
    return BasisElement("L", i, j)


def single(i, j, coeff):
    return Element.single(L(i, j), Fraction(coeff))


# -- domains ------------------------------------------------------------------


def test_block_excludes_punctured_points():
    spec = AlgebraSpec("block", 1, 2)
    assert not spec.in_domain(-1, 2)
    assert not spec.in_domain(-2, 4)
    assert spec.in_domain(0, 0)


def test_block_half_integral_alpha_excludes_only_integral_point():
    spec = AlgebraSpec("block", Fraction(1, 2), 2)
    assert not spec.in_domain(-1, 4)
    assert spec.in_domain(0, 0)
    # (-alpha, beta) = (-1/2, 2) is not a lattice point, nothing else excluded
    assert spec.excluded_points() == frozenset({(-1, 4)})


def test_half_plane_domains():
    assert not AlgebraSpec("bplus-", 1).in_domain(0, -2)
    assert AlgebraSpec("bplus-", 1).in_domain(0, -1)
    assert not AlgebraSpec("bplus+", 1).in_domain(0, 2)


def test_full_plane_families():
    for family in ("vir", "c", "cbar"):
        assert AlgebraSpec(family, 1).in_domain(-1, 1)
    assert AlgebraSpec("d", 1, 3).in_domain(-1, 3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        AlgebraSpec("vir", 0)
    with pytest.raises(ValueError):
        AlgebraSpec("block", 1, 0)
    with pytest.raises(ValueError):
        AlgebraSpec("bplus-", 1, beta=1)
    with pytest.raises(ValueError):
        AlgebraSpec("vir", 1, a1=1)
    with pytest.raises(ValueError):
        AlgebraSpec("nope", 1)


# -- brackets -----------------------------------------------------------------


def test_vir_bracket_vanishing_example():
    spec = AlgebraSpec("vir", 1)
    assert spec.basis_bracket((1, 0), (0, 1)).is_zero()


def test_vir_bracket_general():
    spec = AlgebraSpec("vir", Fraction(1, 2))
    # (k - i) + (l - j) * alpha
    assert spec.basis_bracket((1, 0), (3, 2)) == single(4, 2, 2 + 2 * Fraction(1, 2))


def test_block_central_term_example():
    spec = AlgebraSpec("block", 1, 2, a1=1)
    result = spec.basis_bracket((0, 1), (-1, 1))
    assert result.terms == {BasisElement("C1"): Fraction(1)}


def test_block_second_center():
    spec = AlgebraSpec("block", 1, 2, a1=0, a2=1, a2p=1)
    result = spec.basis_bracket((0, 1), (-2, 3))
    # lands at (-2, 4) = (-2 alpha, 2 beta): a2*(alpha*j+beta*i) + a2p*(alpha+i)
    assert result.terms.get(BasisElement("C2")) == Fraction(1 * 1 + 1 * 1)


def test_block_coefficient_expansion_matches_determinant_form():
    i, j, k, ell = (symbol(n) for n in ("i", "j", "k", "ell"))
    alpha, beta = symbol("alpha"), symbol("beta")
    determinant = (i + alpha) * (ell - beta) - (j - beta) * (k + alpha)
    expansion = (i * ell - j * k) + alpha * (ell - j) + beta * (k - i)
    assert isinstance(expansion, MultiPoly)
    assert expansion == determinant
    spec = AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2))
    for a in window_indices(spec, 2):
        for b in window_indices(spec, 2):
            (ia, ja), (ib, jb) = a, b
            coeff = (ia + spec.alpha) * (jb - spec.beta) - (ja - spec.beta) * (ib + spec.alpha)
            assert spec.basis_bracket(a, b) == single(ia + ib, ja + jb, coeff)


def test_c_diagonal_case():
    spec = AlgebraSpec("c", Fraction(5, 7))
    assert spec.basis_bracket((0, -1), (1, -1)) == single(1, -2, 1)


def test_c_factorial_ratio_row():
    spec = AlgebraSpec("c", 1)
    for m in range(-3, 4):
        expected = single(m, -3, 2 * (2 * m - 5))
        assert spec.basis_bracket((0, 1), (m, -4)) == expected


def test_c_dead_zone():
    spec = AlgebraSpec("c", Fraction(2, 3))
    assert spec.basis_bracket((2, -2), (5, -3)).is_zero()


def test_c_middle_row():
    spec = AlgebraSpec("c", 2)
    # j = -1, l <= -2 row: coefficient -alpha + i
    assert spec.basis_bracket((3, -1), (0, -2)) == single(3, -3, 1)


def test_cbar_duality():
    c = AlgebraSpec("c", Fraction(2, 3))
    cbar = AlgebraSpec("cbar", Fraction(2, 3))
    for a in [(1, 2), (0, -1), (2, 0), (-1, 3)]:
        for b in [(1, -2), (3, 1), (0, 0), (-2, -1)]:
            dual = c.basis_bracket((a[0], -a[1]), (b[0], -b[1]))
            got = cbar.basis_bracket(a, b)
            expected = Element()
            for basis, coeff in dual.terms.items():
                expected.terms[L(basis.i, -basis.j)] = coeff
            assert got == expected


def test_out_of_domain_raises():
    spec = AlgebraSpec("block", 1, 2)
    with pytest.raises(DomainError):
        spec.basis_bracket((-1, 2), (0, 0))


def test_bracket_bilinear():
    spec = AlgebraSpec("vir", 2)
    x = single(1, 0, 1) + single(0, 1, 1)
    y = single(2, 0, 1)
    assert spec.bracket(x, y) == single(3, 0, 1)
    assert spec.bracket(Element(), y).is_zero()
    assert spec.bracket(y, y).is_zero()


def test_central_generators_are_central():
    spec = AlgebraSpec("block", 1, 2, a1=1)
    x = Element.single(BasisElement("C1"), Fraction(1))
    y = single(1, 1, 1)
    assert spec.bracket(x, y).is_zero()


# -- central degrees ----------------------------------------------------------


def test_central_degrees():
    assert AlgebraSpec("block", 1, 2).central_degrees() == {
        "C1": (-1, 2),
        "C2": (-2, 4),
    }
    assert AlgebraSpec("block", Fraction(1, 2), 2).central_degrees() == {
        "C2": (-1, 4)
    }
    assert AlgebraSpec("block", Fraction(1, 3), 2).central_degrees() == {}
    assert AlgebraSpec("vir", 1).central_degrees() == {}


_ALPHAS = (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3))
_BETAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


def _domain_grid():
    """Every family over the parameter grid, central ones with a centre."""
    for alpha in _ALPHAS:
        for family in ("vir", "c", "cbar"):
            yield AlgebraSpec(family, alpha)
        for family in ("bplus-", "bplus+"):
            yield AlgebraSpec(family, alpha, a1=1, a2=2, a2p=-1)
        for beta in _BETAS:
            yield AlgebraSpec("d", alpha, beta)
            yield AlgebraSpec("block", alpha, beta, a1=1, a2=2, a2p=-1)


def _expected_domain(spec):
    """Punctures, central degrees and membership from the definition."""
    central = {}
    if spec.family in ("block", "bplus-", "bplus+"):
        for kind, m in (("C1", 1), ("C2", 2)):
            pi, pj = -m * spec.alpha, m * spec.beta
            if pi.denominator == 1 and pj.denominator == 1:
                central[kind] = (int(pi), int(pj))
        if "C2" not in central:
            central = {}
    excluded = frozenset(central.values())

    def member(i, j):
        if spec.family == "bplus-" and j < -1:
            return False
        if spec.family == "bplus+" and j > 1:
            return False
        return (i, j) not in excluded

    return excluded, central, member


def test_domain_data_matches_definition():
    for spec in _domain_grid():
        excluded, central, member = _expected_domain(spec)
        assert spec.excluded_points() == excluded, spec
        assert spec.central_degrees() == central, spec
        for i in range(-4, 5):
            for j in range(-4, 5):
                assert spec.in_domain(i, j) == member(i, j), (spec, i, j)


def test_central_degrees_copy_is_private():
    for spec in _domain_grid():
        central = spec.central_degrees()
        pairs = [
            (a, (deg[0] - a[0], deg[1] - a[1]))
            for deg in central.values()
            for a in [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        ] + [((1, 0), (0, 1)), ((-1, 1), (2, 0))]
        pairs = [(a, b) for a, b in pairs if spec.in_domain(*a) and spec.in_domain(*b)]
        before = [spec.basis_bracket(a, b) for a, b in pairs]
        central.clear()
        central["C1"] = (0, 0)
        assert spec.central_degrees() == _expected_domain(spec)[1]
        assert [spec.basis_bracket(a, b) for a, b in pairs] == before


def test_equal_parameters_give_equal_specs():
    for spec in _domain_grid():
        twin = AlgebraSpec(
            spec.family, spec.alpha, spec.beta, spec.a1, spec.a2, spec.a2p
        )
        assert twin == spec and hash(twin) == hash(spec)
        assert dataclasses.replace(spec) == spec
        assert repr(twin) == (
            f"AlgebraSpec(family={spec.family!r}, alpha={spec.alpha!r}, "
            f"beta={spec.beta!r}, a1={spec.a1!r}, a2={spec.a2!r}, "
            f"a2p={spec.a2p!r}, literal_c_index=False)"
        )
    assert repr(AlgebraSpec("block", 1, 2, a1=1)) == (
        "AlgebraSpec(family='block', alpha=Fraction(1, 1), beta=Fraction(2, 1), "
        "a1=Fraction(1, 1), a2=None, a2p=None, literal_c_index=False)"
    )
    assert AlgebraSpec("block", 1, 2) != AlgebraSpec("block", 1, 2, a1=1)


# -- tables -------------------------------------------------------------------


def test_structure_table_window_one():
    table = structure_table(AlgebraSpec("vir", 1), 1)
    assert len(table) == 81
    row = next(
        r for r in table if r["left"] == (1, 0) and r["right"] == (0, 1)
    )
    assert row["result"].is_zero()


def test_structure_table_window_zero():
    table = structure_table(AlgebraSpec("d", 1, 1), 0)
    assert len(table) == 1
    assert table[0]["result"].is_zero()


def test_structure_table_c_dead_rows():
    table = structure_table(AlgebraSpec("c", Fraction(2, 3)), 2)
    for row in table:
        if row["left"][1] <= -2 and row["right"][1] <= -2:
            assert row["result"].is_zero()


def test_vir_is_beta_zero_member():
    vir = structure_table(AlgebraSpec("vir", Fraction(3, 4)), 2)
    d = structure_table(AlgebraSpec("d", Fraction(3, 4), 0), 2)
    assert len(vir) == len(d)
    for rv, rd in zip(vir, d):
        assert rv["left"] == rd["left"] and rv["right"] == rd["right"]
        assert rv["result"] == rd["result"]


# -- misc ---------------------------------------------------------------------


def test_factorial_ratio():
    assert factorial_ratio(3, 1) == 6
    assert factorial_ratio(0, 0) == 1
    assert factorial_ratio(2, 5) == 0
    assert factorial_ratio(5, -1) == 0


def test_element_json_schema():
    spec = AlgebraSpec("block", 1, 2, a1=1)
    result = spec.basis_bracket((0, 1), (-1, 1))
    assert result.to_json() == {"terms": [{"basis": {"kind": "C1"}, "coeff": "1/1"}]}
    elem = single(1, -2, Fraction(3, 4))
    assert elem.to_json() == {
        "terms": [{"basis": {"kind": "L", "i": 1, "j": -2}, "coeff": "3/4"}]
    }


@pytest.mark.parametrize(
    "make",
    [lambda terms: Element({L(*k): c for k, c in terms.items()}), ModVector],
    ids=["Element", "ModVector"],
)
def test_sparse_vector_semantics(make):
    x = make({(0, 0): 2, (1, 0): 0})
    y = make({(0, 0): Fraction(1, 3), (2, 0): -1})
    assert len(x.terms) == 1
    for result in (x + y, x - y, -x, x.scale(Fraction(3))):
        assert type(result) is type(x)
    assert (x + y).terms == make({(0, 0): Fraction(7, 3), (2, 0): -1}).terms
    assert x.scale(0).is_zero() and not x.scale(0)
    assert (x - x).is_zero() and (x - x).terms == {}
    assert x == make({(0, 0): 2}) and x != y


def test_sparse_vector_coefficients_and_types():
    v = ModVector({0: 2, 1: 0})
    assert v.terms == {0: Fraction(2)}
    assert type(v.terms[0]) is Fraction
    p = symbol("a1") + 1
    e = Element({L(0, 0): p, L(1, 0): 0})
    assert e.terms == {L(0, 0): p} and e.terms[L(0, 0)] is p
    same = Element({0: Fraction(2)})
    assert same.terms == v.terms
    assert same != v and v != same
    assert hash(e) == hash(Element({L(0, 0): p}))
    with pytest.raises(TypeError):
        hash(v)


indices = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(indices, indices, st.fractions(min_value=-20, max_value=20, max_denominator=5))
def test_d_family_antisymmetry_random(a, b, beta):
    spec = AlgebraSpec("d", Fraction(5, 3), beta)
    assert spec.basis_bracket(a, b) == -spec.basis_bracket(b, a)
