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
    table_to_json,
    terms_json,
    window_indices,
)
from zzlie.poly import MultiPoly, UsageError, symbol
from zzlie.verify import (
    QuotientC,
    check_antisymmetry,
    check_grading,
    check_jacobi,
    find_diagonal_isomorphism,
)
from zzlie.virmodules import ModuleSpec, ModVector, check_module_axiom, find_intertwiner


def L(i, j):
    return BasisElement("L", i, j)


def single(i, j, coeff):
    return Element({L(i, j): Fraction(coeff)})


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


@pytest.mark.parametrize(
    "family, side, message",
    [("bplus-", -1, "bplus- fixes beta = -1"), ("bplus+", 1, "bplus+ fixes beta = +1")],
)
def test_half_plane_families_fix_beta(family, side, message):
    assert AlgebraSpec(family, 1).beta == side
    assert AlgebraSpec(family, 1, side) == AlgebraSpec(family, 1)
    with pytest.raises(ValueError) as exc:
        AlgebraSpec(family, 1, -side)
    assert str(exc.value) == message


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
    for family, beta in (("vir", None), ("d", 1), ("block", 2), ("bplus+", None)):
        with pytest.raises(ValueError, match="literal_c_index"):
            AlgebraSpec(family, 1, beta, literal_c_index=True)


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


def _raw_key(basis):
    return basis.index if basis.kind == "L" else basis.kind


def test_bracket_terms_match_basis_bracket():
    specs = [
        AlgebraSpec("vir", 1),
        AlgebraSpec("d", 1, 3),
        AlgebraSpec("block", 1, 2, a1=1, a2=1, a2p=1),
        AlgebraSpec("bplus-", 1, a1=1, a2=2, a2p=Fraction(1, 3)),
        AlgebraSpec("bplus+", 1, a1=-2, a2=1, a2p=1),
        AlgebraSpec("c", Fraction(2, 3)),
        AlgebraSpec("cbar", Fraction(2, 3)),
    ]
    grid = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    central_seen, empty, refused = set(), 0, set()
    for spec in specs:
        for a in grid:
            for b in grid:
                if not (spec.in_domain(*a) and spec.in_domain(*b)):
                    with pytest.raises(DomainError):
                        spec.bracket_terms(a, b)
                    with pytest.raises(DomainError):
                        spec.basis_bracket(a, b)
                    refused.update(p for p in (a, b) if p in spec.excluded_points())
                    continue
                terms = spec.bracket_terms(a, b)
                assert isinstance(terms, tuple)
                keys = [key for key, _ in terms]
                assert len(set(keys)) == len(keys)
                assert all(key in ("C1", "C2") or len(key) == 2 for key in keys)
                assert all(c for _, c in terms), (spec, a, b, terms)
                element = spec.basis_bracket(a, b)
                assert dict(terms) == {_raw_key(x): c for x, c in element.terms.items()}
                central_seen.update(key for key in keys if isinstance(key, str))
                empty += not terms
    assert central_seen == {"C1", "C2"}
    assert empty > 0
    # every puncture in the grid: block's (-1, 2), and both of each half-plane algebra
    assert refused == {(-1, 2), (-1, -1), (-2, -2), (-1, 1), (-2, 2)}


# -- kernel cross-check: the int-numerator kernel against Fraction formulas ---


def _reference_c_coeff(alpha, i, j, k, ell):
    """The c-family structure constant by (j, ell) region, in Fraction arithmetic."""
    if j >= -1 and ell >= -1:
        if j == -1 and ell == -1:
            return Fraction(k - i)
        return Fraction(k * (j + 1) - (ell + 1) * i) + (ell - j) * alpha
    if j >= 0 and ell <= -2:
        core = Fraction(k * (j + 1) - (ell + 1) * i) + (ell - j) * alpha
        return factorial_ratio(-ell - 2, -ell - j - 2) * core
    if j == -1 and ell <= -2:
        return -alpha + i
    if j <= -2 and ell <= -2:
        return Fraction(0)
    return -_reference_c_coeff(alpha, k, ell, i, j)


def _reference_bracket_terms(spec, a, b):
    """[L_a, L_b] as raw terms from the Fraction formulas of each family."""
    (i, j), (k, ell) = a, b
    alpha, beta = spec.alpha, spec.beta
    terms = []
    if spec.family == "vir":
        terms.append(((i + k, j + ell), Fraction(k - i) + (ell - j) * alpha))
    elif spec.family == "d":
        coeff = beta * (i * ell - j * k) + (k - i) + (ell - j) * alpha
        terms.append(((i + k, j + ell), coeff))
    elif spec.family in ("block", "bplus-", "bplus+"):
        target = (i + k, j + ell)
        if spec.in_domain(*target):
            terms.append((target, (i * ell - j * k) + alpha * (ell - j) + beta * (k - i)))
        central = spec.central_degrees()
        if target == central.get("C1") and spec.a1 is not None:
            terms.append(("C1", (alpha * j + beta * i) * spec.a1))
        if target == central.get("C2"):
            c = 0
            if spec.a2 is not None:
                c = spec.a2 * (alpha * j + beta * i)
            if spec.a2p is not None:
                c = c + spec.a2p * (alpha + i)
            terms.append(("C2", c))
    else:
        sign = -1 if spec.family == "cbar" else 1
        jj, ll = sign * j, sign * ell
        coeff = _reference_c_coeff(alpha, i, jj, k, ll)
        ti, tj = (i + ll, k + jj) if spec.literal_c_index else (i + k, jj + ll)
        terms.append(((ti, sign * tj), coeff))
    return tuple((key, c) for key, c in terms if c)


def _assert_kernel_matches_reference(spec, pairs):
    for a, b in pairs:
        if not (spec.in_domain(*a) and spec.in_domain(*b)):
            with pytest.raises(DomainError):
                spec.bracket_terms(a, b)
            continue
        got, expected = spec.bracket_terms(a, b), _reference_bracket_terms(spec, a, b)
        assert got == expected, (spec, a, b)
        assert [type(c) for _, c in got] == [type(c) for _, c in expected]


_SYM_CENTRE = {"a1": symbol("a1"), "a2": symbol("a2"), "a2p": symbol("a2p")}
_NUM_CENTRE = {"a1": Fraction(-2, 3), "a2": Fraction(5, 4), "a2p": Fraction(3, 7)}


def test_bracket_terms_match_fraction_reference():
    specs = [
        AlgebraSpec("vir", Fraction(-5, 6)),
        AlgebraSpec("d", Fraction(2, 3), Fraction(-7, 4)),
        AlgebraSpec("block", 1, 2, **_NUM_CENTRE),
        AlgebraSpec("block", Fraction(1, 2), Fraction(-3, 2), **_NUM_CENTRE),
        AlgebraSpec("block", Fraction(-1, 2), Fraction(5, 2), **_SYM_CENTRE),
        AlgebraSpec("bplus-", Fraction(1, 2), **_NUM_CENTRE),
        AlgebraSpec("bplus-", 2, **_SYM_CENTRE),
        AlgebraSpec("bplus+", Fraction(-3, 2), **_NUM_CENTRE),
        AlgebraSpec("bplus+", 1, **_SYM_CENTRE),
        AlgebraSpec("c", Fraction(2, 3)),
        AlgebraSpec("c", Fraction(-3, 4), literal_c_index=True),
        AlgebraSpec("cbar", Fraction(5, 3)),
        AlgebraSpec("cbar", Fraction(1, 5), literal_c_index=True),
    ]
    grid = [(i, j) for i in range(-5, 6) for j in range(-5, 6)]
    for spec in specs:
        _assert_kernel_matches_reference(spec, [(a, b) for a in grid for b in grid])


# integral values often enough that the punctures and centres occur
_nonzero = (
    st.fractions(min_value=-4, max_value=4, max_denominator=12)
    | st.integers(-3, 3).map(Fraction)
).filter(bool)
_centre = st.none() | st.fractions(min_value=-3, max_value=3, max_denominator=12) | st.just("sym")


@st.composite
def _specs(draw):
    family = draw(st.sampled_from(["vir", "d", "block", "bplus-", "bplus+", "c", "cbar"]))
    alpha = draw(_nonzero)
    kwargs = {}
    if family in ("d", "block"):
        kwargs["beta"] = draw(_nonzero)
    if family in ("block", "bplus-", "bplus+"):
        for name in ("a1", "a2", "a2p"):
            value = draw(_centre)
            kwargs[name] = symbol(name) if value == "sym" else value
    if family in ("c", "cbar"):
        kwargs["literal_c_index"] = draw(st.booleans())
    return AlgebraSpec(family, alpha, **kwargs)


_index = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


@settings(max_examples=300, deadline=None)
@given(_specs(), st.lists(st.tuples(_index, _index), min_size=1, max_size=10))
def test_bracket_terms_fraction_reference_property(spec, pairs):
    # also aim every left index at each central degree, where C1/C2 appear
    targets = spec.central_degrees().values()
    aimed = [(a, (t[0] - a[0], t[1] - a[1])) for a, _ in pairs for t in targets]
    _assert_kernel_matches_reference(spec, pairs + aimed)


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


_VIR = AlgebraSpec("vir", 1)
_A_AB = ModuleSpec("a_ab", 1, 2)


@pytest.mark.parametrize(
    "entry",
    [
        lambda w: window_indices(_VIR, w),
        lambda w: structure_table(_VIR, w),
        lambda w: table_to_json(_VIR, w),
        lambda w: check_antisymmetry(_VIR, w),
        lambda w: check_jacobi(_VIR, w),
        lambda w: check_grading(_VIR, w),
        lambda w: find_diagonal_isomorphism(
            QuotientC(1), AlgebraSpec("bplus-", 1), lambda t: t, w
        ),
        lambda w: check_module_axiom(_A_AB, w),
        lambda w: find_intertwiner(_A_AB, _A_AB, w),
    ],
    ids=[
        "window_indices", "structure_table", "table_to_json", "antisymmetry",
        "jacobi", "grading", "isomorphism", "module_axiom", "intertwiner",
    ],
)
def test_negative_window_is_refused(entry):
    with pytest.raises(UsageError, match="window must be >= 0"):
        entry(-1)


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
    assert terms_json(spec.bracket_terms((0, 1), (-1, 1))) == [
        {"basis": {"kind": "C1"}, "coeff": "1/1"}
    ]
    assert terms_json([((1, -2), Fraction(3, 4))]) == [
        {"basis": {"kind": "L", "i": 1, "j": -2}, "coeff": "3/4"}
    ]
    # raw-term order (L, C1, C2) is kept; a polynomial coefficient gives records
    a2 = symbol("a2")
    assert terms_json([((0, 0), Fraction(1)), ("C1", Fraction(-2)), ("C2", a2)]) == [
        {"basis": {"kind": "L", "i": 0, "j": 0}, "coeff": "1/1"},
        {"basis": {"kind": "C1"}, "coeff": "-2/1"},
        {"basis": {"kind": "C2"}, "coeff": [{"coeff": "1/1", "exponents": {"a2": 1}}]},
    ]
    assert terms_json(()) == []


def _monomial(i, j):
    # a positive monomial per key, so each key gives a distinct polynomial term
    return (("x", i + 1), ("y", j + 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda terms: Element({L(*k): c for k, c in terms.items()}),
        ModVector,
        lambda terms: MultiPoly({_monomial(*k): c for k, c in terms.items()}),
    ],
    ids=["Element", "ModVector", "MultiPoly"],
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
