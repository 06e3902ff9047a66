import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zzlie.algebras import (
    FAMILIES,
    AlgebraSpec,
    BasisElement,
    DomainError,
    Element,
    Window,
    structure_table,
    table_to_json,
    terms_json,
    window_grid,
)
from zzlie.classify import ClassificationParams, check_impossibility, solve_c_window
from zzlie.poly import MultiPoly, UsageError, symbol, unscaled
from zzlie.verify import (
    QuotientC,
    check_antisymmetry,
    check_grading,
    check_jacobi,
    find_diagonal_isomorphism,
)
from zzlie.virmodules import ModuleSpec, ModVector, check_module_axiom, find_intertwiner

from reference import (
    algebra_specs, factorial_ratio, fraction_terms, reference_bracket_terms, reference_table,
    table_lines,
)


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
    assert spec.central_degrees() == {"C2": (-1, 4)}


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


def test_basis_kind_refusals():
    with pytest.raises(ValueError, match="unknown basis kind 'X'"):
        BasisElement("X")
    with pytest.raises(ValueError, match="L basis elements need an index"):
        BasisElement("L")


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
    with pytest.raises(ValueError, match="family 'd' needs beta"):
        AlgebraSpec("d", 1)
    with pytest.raises(ValueError, match="family 'vir' takes no beta"):
        AlgebraSpec("vir", 1, 2)


# -- brackets -----------------------------------------------------------------


def test_vir_bracket_vanishing_example():
    spec = AlgebraSpec("vir", 1)
    assert not spec.basis_bracket((1, 0), (0, 1))


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


def test_half_plane_a2p_duplicates_a2():
    # On bplus± (beta = s) both indices of a bracket landing at C2's degree
    # (-2 alpha, 2s) have j = s, so alpha*j + beta*i = s*(alpha + i) and a2,
    # a2p enter only through a2 + s*a2p.
    for family, s in (("bplus-", -1), ("bplus+", 1)):
        for alpha in (1, 2, Fraction(1, 2), 3):
            a = AlgebraSpec(family, alpha, a1=1, a2=1, a2p=0)
            b = AlgebraSpec(family, alpha, a1=1, a2=0, a2p=s)
            other = AlgebraSpec(family, alpha, a1=1, a2=0, a2p=1)
            idxs = window_grid(a, 4)
            at_c2 = 0
            for x in idxs:
                for y in idxs:
                    terms = fraction_terms(a, x, y)
                    assert fraction_terms(b, x, y) == terms
                    has_c2 = any(key == "C2" for key, _ in terms)
                    at_c2 += has_c2
                    # on bplus- (s = -1), a2p = 1 is -a2 wherever C2 appears
                    assert (fraction_terms(other, x, y) != terms) == (has_c2 and s == -1)
            assert at_c2 > 0


def test_block_coefficient_expansion_matches_determinant_form():
    i, j, k, ell = (symbol(n) for n in ("i", "j", "k", "ell"))
    alpha, beta = symbol("alpha"), symbol("beta")
    determinant = (i + alpha) * (ell - beta) - (j - beta) * (k + alpha)
    expansion = (i * ell - j * k) + alpha * (ell - j) + beta * (k - i)
    assert isinstance(expansion, MultiPoly)
    assert expansion == determinant
    spec = AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2))
    for a in window_grid(spec, 2):
        for b in window_grid(spec, 2):
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
    assert not spec.basis_bracket((2, -2), (5, -3))


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


def test_numerators_refuse_an_out_of_domain_index():
    # a puncture, and an index off each half-plane, as the left or the right
    # input: the error raw_terms gives names the index as a pair
    for spec, a in [
        (AlgebraSpec("block", 1, 2, a1=1), (-1, 2)),
        (AlgebraSpec("bplus-", 1), (0, -2)),
        (AlgebraSpec("bplus+", 2), (1, 2)),
    ]:
        message = f"{a} not in domain of {spec.family}"
        for left, right in ((a, (0, 0)), ((0, 0), a), (list(a), [0, 0]), ([0, 0], list(a))):
            for bracket in (spec.raw_terms, spec.basis_bracket):
                with pytest.raises(DomainError) as raw:
                    bracket(left, right)
                assert str(raw.value) == message
        for row_of in (spec.numerators, spec.raw_row):
            with pytest.raises(DomainError) as row:
                row_of(a, [(0, 0), (1, 1)])
            assert str(row.value) == message
    # an index may be any pair-shaped sequence, at a puncture sum too
    spec = AlgebraSpec("block", 1, 2, a1=1)
    for a, b in (((0, 1), (1, 1)), ((0, 1), (-1, 1))):
        assert spec.raw_terms(list(a), list(b)) == spec.raw_terms(a, b)
    assert spec.raw_terms([0, 1], [-1, 1])[0][0] == "C1"


def test_row_forms_refuse_a_repeated_pair():
    # (-1, 1) is the partner of (0, 1) at the puncture (-1, 2): a row form
    # writes the central term at its first position only, so a repeat would
    # get an L term at the puncture
    spec, q = AlgebraSpec("block", 1, 2, a1=1, a2=1, a2p=1), QuotientC(Fraction(2, 3))
    assert spec.raw_row((0, 1), [(-1, 1), (0, 0)]) == [(("C1", 1),), (((0, 1), -1),)]
    assert spec.numerators((0, 1), [(-1, 1), (0, 0)]) == [1, -1]
    for row_of, a, idxs in [
        (spec.raw_row, (0, 1), [(-1, 1), (-1, 1)]),
        (spec.numerators, (0, 1), [(-1, 1), (-1, 1)]),
        (spec.numerators, (0, 1), [[-1, 1], (0, 0), (-1, 1)]),
        (q.numerators, (1, 0), [(0, 2), (1, 1), [0, 2]]),
    ]:
        with pytest.raises(UsageError) as refused:
            row_of(a, idxs)
        assert str(refused.value) == "the right indices must be distinct pairs"


@pytest.mark.parametrize("alg", [
    AlgebraSpec("d", 1, 3),
    AlgebraSpec("block", 1, 2, a1=1, a2=1, a2p=1),
    AlgebraSpec("c", Fraction(2, 3)),
    QuotientC(1),
], ids=["d", "block", "c", "quotient"])
def test_index_components_must_be_ints(alg):
    # in_domain decides: a component equal to an int, but a float, a
    # Fraction or a bool, is outside the domain at every entry point
    name = "the quotient of c" if isinstance(alg, QuotientC) else alg.family
    assert alg.in_domain(1, 1) and alg.in_domain(0, 2)
    for bad in ((1.0, 1), (1, Fraction(1)), (True, 1), (0, 2.0), (Fraction(0), 2), (0, True)):
        assert not alg.in_domain(*bad)
        calls = [(alg.raw_terms, bad, (0, 2)), (alg.raw_terms, (0, 2), bad),
                 (alg.basis_bracket, bad, (0, 2)), (alg.basis_bracket, (0, 2), bad),
                 (alg.numerators, bad, [(0, 2)])]
        if hasattr(alg, "raw_row"):
            calls.append((alg.raw_row, bad, [(0, 2)]))
        for call, *args in calls:
            with pytest.raises(DomainError) as refused:
                call(*args)
            assert str(refused.value) == f"{bad} not in domain of {name}"


def _raw_key(basis):
    return (basis.i, basis.j) if basis.kind == "L" else basis.kind


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
                        spec.raw_terms(a, b)
                    with pytest.raises(DomainError):
                        spec.basis_bracket(a, b)
                    refused.update(p for p in (a, b) if p in spec.central_degrees().values())
                    continue
                terms = fraction_terms(spec, a, b)
                assert isinstance(spec.raw_terms(a, b), tuple)
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


def _assert_kernel_matches_reference(spec, pairs):
    for a, b in pairs:
        if not (spec.in_domain(*a) and spec.in_domain(*b)):
            with pytest.raises(DomainError):
                spec.raw_terms(a, b)
            continue
        got, expected = fraction_terms(spec, a, b), reference_bracket_terms(spec, a, b)
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
        AlgebraSpec("cbar", Fraction(5, 3)),
    ]
    grid = [(i, j) for i in range(-5, 6) for j in range(-5, 6)]
    for spec in specs:
        _assert_kernel_matches_reference(spec, [(a, b) for a in grid for b in grid])


_index = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


@settings(max_examples=300, deadline=None)
@given(algebra_specs(), st.lists(st.tuples(_index, _index), min_size=1, max_size=10))
def test_bracket_terms_fraction_reference_property(spec, pairs):
    # also aim every left index at each central degree, where C1/C2 appear
    targets = spec.central_degrees().values()
    aimed = [(a, (t[0] - a[0], t[1] - a[1])) for a, _ in pairs for t in targets]
    _assert_kernel_matches_reference(spec, pairs + aimed)


@settings(max_examples=100, deadline=None)
@given(algebra_specs(), st.integers(0, 2))
def test_raw_row_matches_reference_property(spec, window):
    # every row of the window, the punctures' partners included: entry by
    # entry the Fraction formulas' terms, L before C1 before C2
    idxs = window_grid(spec, window)
    for a in idxs:
        row = spec.raw_row(a, idxs)
        assert [tuple((key, unscaled(n, spec.den)) for key, n in terms) for terms in row] == [
            reference_bracket_terms(spec, a, w) for w in idxs], (spec, a)


def _row_windows(alg, window, rnd):
    """Sequences of distinct domain pairs that a row form is held to, by name.

    The window's own grid (a block spec's has its punctures as holes), a
    half-plane of the box, the grid with random holes, the pairs whose
    image under (i, j) -> (-j, i) is in the domain and those images, as the
    diagonal-isomorphism search passes them, and the grid shuffled.
    """
    grid = list(window_grid(alg, window))
    box = [(i, j) for i in range(-window, window + 1) for j in range(-window, window + 1)]
    side = rnd.choice((-1, 1))
    rotated = [(-j, i) for i, j in grid]
    return {
        "grid": grid,
        "half-plane": [w for w in box if side * w[1] <= 1 and alg.in_domain(*w)],
        "holes": [w for w in grid if rnd.random() < 0.8],
        "sources": [w for w, m in zip(grid, rotated) if alg.in_domain(*m)],
        "images": [m for m in rotated if alg.in_domain(*m)],
        "shuffled": rnd.sample(grid, len(grid)),
    }


@settings(max_examples=80, deadline=None)
@given(algebra_specs() | st.sampled_from([Fraction(2, 3), -1, Fraction(5, 2)]).map(QuotientC),
       st.integers(0, 3), st.randoms(use_true_random=False))
# both punctures in the window with a symbolic centre, a half-plane's
# puncture at its edge, the factorial regions of c, and the quotient of c
@example(AlgebraSpec("block", -1, -1, **_SYM_CENTRE), 3, random.Random(1))
@example(AlgebraSpec("bplus-", 2, a1=1, a2=-2, a2p=3), 3, random.Random(2))
@example(AlgebraSpec("cbar", Fraction(2, 3)), 3, random.Random(3))
@example(QuotientC(Fraction(2, 3)), 3, random.Random(4))
def test_row_forms_match_reference_on_every_window_property(alg, window, rnd):
    # numerators, written run by run, and raw_row, entry by entry, on a
    # Window and on the same plain list (of tuples, and of lists for
    # numerators): each entry is the Fraction
    # formulas' term, on windows whose runs break at holes, change their
    # stride or step backwards; left indices include the punctures' partners
    den, grid = alg.den, window_grid(alg, window)
    partners = {(d[0] - w[0], d[1] - w[1]) for d in alg.central_degrees().values() for w in grid}
    partners = sorted(partners.intersection(grid))
    lefts = rnd.sample(grid, min(len(grid), 5)) + rnd.sample(partners, min(len(partners), 5))
    for name, pairs in _row_windows(alg, window, rnd).items():
        win = Window(pairs)
        for a in lefts:
            expected = [_raw_reference(alg, a, w) for w in pairs]
            nums = alg.numerators(a, win)
            assert nums == alg.numerators(a, pairs) == alg.numerators(a, [[*w] for w in pairs])
            assert [unscaled(n, den) if n else None for n in nums] == [
                terms[0][1] if terms else None for terms in expected], (alg, name, a)
            if hasattr(alg, "raw_row"):
                row = alg.raw_row(a, win)
                assert row == alg.raw_row(a, pairs), (alg, name, a)
                assert [tuple((key, unscaled(n, den)) for key, n in terms) for terms in row] == [
                    tuple(terms) for terms in expected], (alg, name, a)


# -- raw primitive: int numerators over one denominator ------------------------


def _is_integral(n):
    if isinstance(n, MultiPoly):
        return all(Fraction(c).denominator == 1 for c in n.terms.values())
    return type(n) is int


_RAW_SPECS = [
    AlgebraSpec("vir", Fraction(-5, 6)),
    AlgebraSpec("d", Fraction(2, 3), Fraction(-7, 4)),
    AlgebraSpec("block", 1, 2, a1=Fraction(2, 3), a2=Fraction(5, 4), a2p=Fraction(-3, 7)),
    AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2), a1=2, a2=Fraction(1, 6), a2p=-1),
    AlgebraSpec("block", 1, 2, **_SYM_CENTRE),
    AlgebraSpec("block", Fraction(1, 2), Fraction(-3, 2),
                a1=symbol("a1") * Fraction(1, 3), a2=Fraction(2, 5), a2p=symbol("a2p")),
    AlgebraSpec("bplus-", 1, a1=Fraction(-1, 2), a2=3, a2p=Fraction(5, 4)),
    AlgebraSpec("bplus-", 2, **_SYM_CENTRE),
    AlgebraSpec("bplus+", Fraction(1, 2), a2=Fraction(2, 7), a2p=-1),
    AlgebraSpec("bplus+", 1, **_SYM_CENTRE),
    AlgebraSpec("c", Fraction(2, 3)),
    AlgebraSpec("cbar", Fraction(5, 3)),
]


def _raw_reference(alg, a, b):
    """Fraction terms from the family formulas; QuotientC drops its terms at j <= -2."""
    if isinstance(alg, QuotientC):
        return tuple(t for t in reference_bracket_terms(alg.upstairs, a, b) if t[0][1] >= -1)
    return reference_bracket_terms(alg, a, b)


def test_raw_terms_are_integral_over_den():
    # raw/den, term for term and in key order, is the Fraction formulas of
    # reference_bracket_terms; every numerator is an
    # int, or an int-coefficient polynomial for a symbolic centre.
    q = QuotientC(Fraction(2, 3))
    kinds = set()
    for alg in [*_RAW_SPECS, q]:
        den = alg.den
        assert type(den) is int and den > 0
        spec = getattr(alg, "upstairs", alg)
        numeric = [spec.alpha, spec.beta or 0]
        numeric += [p for p in (spec.a1, spec.a2, spec.a2p) if isinstance(p, Fraction)]
        assert all(den % p.denominator == 0 for p in numeric), spec
        idxs = window_grid(alg, 3)
        for a in idxs:
            for b in idxs:
                raw = alg.raw_terms(a, b)
                assert isinstance(raw, tuple)
                assert all(_is_integral(n) and n for _, n in raw), (alg, a, b, raw)
                expected = _raw_reference(alg, a, b)
                divided = [(key, unscaled(n, den)) for key, n in raw]
                assert divided == list(expected)
                assert [type(c) for _, c in divided] == [type(c) for _, c in expected]
                kinds.update((key if isinstance(key, str) else "L", type(n)) for key, n in raw)
    assert kinds == {(kind, t) for kind in ("L", "C1", "C2") for t in (int, MultiPoly)} - {
        ("L", MultiPoly)
    }
    # the centre's denominators are cleared too: lcm(3, 4, 7) over alpha = 1,
    # beta = 2, and 6 times the 2 of alpha = 1/2, beta = 3/2
    assert _RAW_SPECS[2].den == 84 and _RAW_SPECS[3].den == 12
    # the quotient really drops terms the c family keeps
    assert any(len(q.raw_terms(a, b)) < len(q.upstairs.raw_terms(a, b))
               for a in window_grid(q, 3) for b in window_grid(q, 3))


def test_table_cells_match_json_encoding():
    # the table's text, each left index's lines one join of pieces filled
    # from one numerators row, is the bytes json writes for terms_json of
    # every bracket, in json and in csv and text: every family, with int
    # and polynomial central cells.  With a2 = t + 1 and a2p = -t the C2
    # numerator t(X + Y) + X is the constant X where Y = -X, a MultiPoly
    # equal to an int, which is still written as polynomial records
    t = symbol("t")
    seen = set()
    for spec in [*_RAW_SPECS, AlgebraSpec("block", 1, 1, a1=t, a2=t + 1, a2p=-t)]:
        for sep in (None, ",", " "):
            lines = table_lines(table_to_json(spec, 3, sep))
            assert lines == reference_table(spec, 3, sep), (spec, sep)
        idxs = window_grid(spec, 3)
        for a in idxs:
            for b in idxs:
                terms = spec.raw_terms(a, b)
                seen.update(
                    ("int" if not isinstance(c, MultiPoly)
                     else "constant poly" if c.terms.keys() <= {()} else "poly",
                     key if isinstance(key, str) else "L")
                    for key, c in terms
                )
                if not terms:
                    seen.add("empty")
    assert {spec.family for spec in _RAW_SPECS} == set(FAMILIES)
    assert seen == {("int", "L"), ("int", "C1"), ("int", "C2"), ("poly", "C1"), ("poly", "C2"),
                    ("constant poly", "C2"), "empty"}


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
        assert frozenset(spec.central_degrees().values()) == excluded, spec
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
            f"a2p={spec.a2p!r})"
        )
    assert repr(AlgebraSpec("block", 1, 2, a1=1)) == (
        "AlgebraSpec(family='block', alpha=Fraction(1, 1), beta=Fraction(2, 1), "
        "a1=Fraction(1, 1), a2=None, a2p=None)"
    )
    assert AlgebraSpec("block", 1, 2) != AlgebraSpec("block", 1, 2, a1=1)


def test_constant_polynomial_parameters_are_numbers():
    # a constant MultiPoly is kept as the Fraction it equals, so the specs
    # print the same brackets
    by_poly = AlgebraSpec("block", 1, 2, a1=MultiPoly.const(1), a2=MultiPoly(), a2p=symbol("a2p"))
    by_number = AlgebraSpec("block", 1, 2, a1=1, a2=0, a2p=symbol("a2p"))
    assert repr(by_poly) == repr(by_number)
    assert type(by_poly.a1) is Fraction and type(by_poly.a2) is Fraction
    assert table_to_json(by_poly, 2) == table_to_json(by_number, 2)


@pytest.mark.parametrize("family, name", [("d", "alpha"), ("d", "beta"), ("bplus-", "beta")])
def test_constant_polynomial_alpha_and_beta_are_numbers(family, name):
    # alpha and beta go through exact_value like the central parameters; a
    # symbol left in one is refused by name
    numbers = {"alpha": Fraction(2, 3), "beta": 2 if family == "d" else -1}
    by_poly = AlgebraSpec(family, **dict(numbers, **{name: MultiPoly.const(numbers[name])}))
    assert by_poly == AlgebraSpec(family, **numbers)
    assert type(getattr(by_poly, name)) is Fraction
    with pytest.raises(UsageError, match=f"^{name} must be a number"):
        AlgebraSpec(family, **dict(numbers, **{name: symbol("t") + 1}))


# -- tables -------------------------------------------------------------------


def test_structure_table_window_one():
    table = structure_table(AlgebraSpec("vir", 1), 1)
    assert len(table) == 81
    row = next(
        r for r in table if r["left"] == (1, 0) and r["right"] == (0, 1)
    )
    assert not row["result"]


def test_structure_table_window_zero():
    table = structure_table(AlgebraSpec("d", 1, 1), 0)
    assert len(table) == 1
    assert not table[0]["result"]


_VIR = AlgebraSpec("vir", 1)
_A_AB = ModuleSpec("a_ab", 1, 2)


@pytest.mark.parametrize(
    "entry, least",
    [
        (lambda w: window_grid(_VIR, w), 0),
        (lambda w: structure_table(_VIR, w), 0),
        (lambda w: table_to_json(_VIR, w), 0),
        (lambda w: check_antisymmetry(_VIR, w), 0),
        (lambda w: check_jacobi(_VIR, w), 0),
        (lambda w: check_grading(_VIR, w), 0),
        (lambda w: find_diagonal_isomorphism(
            QuotientC(1), AlgebraSpec("bplus-", 1), lambda t: t, w
        ), 0),
        (lambda w: check_module_axiom(_A_AB, w), 0),
        (lambda w: find_intertwiner(_A_AB, _A_AB, w), 0),
        (lambda w: solve_c_window(ClassificationParams(1, 2, -4), w), 2),
        (lambda w: check_impossibility(1, w), 2),
    ],
    ids=[
        "window_grid", "structure_table", "table_to_json", "antisymmetry",
        "jacobi", "grading", "isomorphism", "module_axiom", "intertwiner",
        "solve_c_window", "impossibility",
    ],
)
def test_negative_window_is_refused(entry, least):
    # a window is an int of at least the entry's minimum: a float, a bool
    # and a Fraction are refused even where their value would pass
    for window in (least - 1, 1.5, True, Fraction(2)):
        with pytest.raises(UsageError, match=f"window must be >= {least}"):
            entry(window)


def test_structure_table_c_dead_rows():
    table = structure_table(AlgebraSpec("c", Fraction(2, 3)), 2)
    for row in table:
        if row["left"][1] <= -2 and row["right"][1] <= -2:
            assert not row["result"]


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
    assert terms_json(spec.raw_terms((0, 1), (-1, 1)), spec.den) == [
        {"basis": {"kind": "C1"}, "coeff": "1/1"}
    ]
    # numerators over den, written in lowest terms
    assert terms_json([((1, -2), 6)], 8) == [
        {"basis": {"kind": "L", "i": 1, "j": -2}, "coeff": "3/4"}
    ]
    # raw-term order (L, C1, C2) is kept; a polynomial numerator gives records
    a2 = symbol("a2")
    assert terms_json([((0, 0), 2), ("C1", -4), ("C2", 2 * a2)], 2) == [
        {"basis": {"kind": "L", "i": 0, "j": 0}, "coeff": "1/1"},
        {"basis": {"kind": "C1"}, "coeff": "-2/1"},
        {"basis": {"kind": "C2"}, "coeff": [{"coeff": "1/1", "exponents": {"a2": 1}}]},
    ]
    assert terms_json((), 3) == []


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
    for result in (x + y, x - y, -x):
        assert type(result) is type(x)
    assert (x + y).terms == make({(0, 0): Fraction(7, 3), (2, 0): -1}).terms
    assert x and not (x - x) and (x - x).terms == {} and repr(x - x) == "0"
    assert x == make({(0, 0): 2}) and x != y
    assert (x == "x") is False


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
    for vector in (e, v):
        with pytest.raises(TypeError):
            hash(vector)


indices = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(indices, indices, st.fractions(min_value=-20, max_value=20, max_denominator=5))
def test_d_family_antisymmetry_random(a, b, beta):
    spec = AlgebraSpec("d", Fraction(5, 3), beta)
    assert spec.basis_bracket(a, b) == -spec.basis_bracket(b, a)
