from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zzlie.poly import (
    MultiPoly,
    UsageError,
    format_rational,
    integer_scaled,
    parse_rational,
    proportionality,
    rational_root_scan,
    symbol,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)
    assert parse_rational("+5/10") == Fraction(1, 2)


def test_parse_rational_rejects_garbage():
    with pytest.raises(UsageError):
        parse_rational("x")
    with pytest.raises(UsageError):
        parse_rational("1/0")


@pytest.mark.parametrize("text", ["1e10000000", "2.5", "1_0", "1 /2", "0x10", ""])
def test_parse_rational_refuses_other_forms(text):
    # exponent, decimal and underscore forms are refused before Fraction
    # sees them, so "1e10000000" fails at once instead of taking seconds
    with pytest.raises(UsageError):
        parse_rational(text)


def test_format_rational_canonical():
    assert format_rational(Fraction(-2, 4)) == "-1/2"
    assert format_rational(3) == "3/1"
    assert format_rational(Fraction(0)) == "0/1"


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 3) * Fraction(0) == 0
    assert Fraction(1) / Fraction(3) == Fraction(1, 3)


@given(rationals, rationals, rationals)
def test_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_poly_additive_inverse():
    x = symbol("x")
    assert (x + (-x)).is_zero()


def test_poly_product_expansion():
    x = symbol("x")
    assert (x + 1) * (x - 1) == x * x - 1


def test_poly_scalar_scale():
    x = symbol("x")
    assert (2 * x) * Fraction(1, 2) == x


def test_coefficient_of_extraction():
    i, alpha, beta = symbol("i"), symbol("alpha"), symbol("beta")
    p = 3 * i * i * alpha + i * beta
    assert p.coefficient_of("i", 2) == 3 * alpha
    assert p.coefficient_of("i", 1) == beta
    x = symbol("x")
    assert (x + 1).coefficient_of("x", 5).is_zero()


def test_poly_eval():
    x = symbol("x")
    assert (x * x - 1).eval({"x": Fraction(2)}) == 3
    assert MultiPoly().eval({}) == 0
    with pytest.raises(UsageError):
        x.eval({})


def test_substitute_many_terms_matches_termwise_sum():
    x, y, z = symbol("x"), symbol("y"), symbol("z")
    p = (x + 2 * y - z + Fraction(1, 3)) ** 7
    assert len(p.terms) >= 100
    assignment = {"x": Fraction(-2, 3), "z": Fraction(5)}
    expected = MultiPoly()
    for mono, c in p.terms.items():
        term = MultiPoly.const(c)
        for name, e in mono:
            base = MultiPoly.const(assignment[name]) if name in assignment else symbol(name)
            term = term * base**e
        expected = expected + term
    got = p.substitute(assignment)
    assert got == expected
    assert got.symbols() == {"y"}
    with pytest.raises(UsageError):
        p.eval(assignment)


def test_eval_constraint_root():
    # root of the quintic factor list, confirmed by direct substitution
    b = symbol("beta1")
    a = symbol("alpha")
    p = b * b * (b + 1) * (b + 2) * (b - 1) * (b + 3) * a * a
    assert p.eval({"beta1": Fraction(-3), "alpha": Fraction(1)}) == 0


def test_rational_root_scan():
    b = symbol("beta1")
    p = b * b * (b + 1) * (b + 2) * (b - 1) * (b + 3)
    found = rational_root_scan(p, [Fraction(n) for n in range(-3, 3)])
    assert found == {Fraction(-3), Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)}
    x = symbol("x")
    assert rational_root_scan(x - 1, [Fraction(0)]) == set()
    assert rational_root_scan(x, [Fraction(0), Fraction(1)]) == {Fraction(0)}


def test_rational_root_scan_rejects_multivariate():
    with pytest.raises(UsageError):
        rational_root_scan(symbol("x") + symbol("y"), [Fraction(0)])


small_polys = st.builds(
    lambda terms: sum(
        (c * symbol("x") ** e * symbol("y") ** f for (e, f), c in terms.items()),
        MultiPoly.const(0),
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-100, max_value=100, max_denominator=10),
        max_size=5,
    ),
)


@given(small_polys)
def test_poly_self_difference_is_zero(p):
    assert (p - p).is_zero()


@given(small_polys, rationals, rationals)
def test_eval_decomposes_over_coefficients(p, xv, yv):
    sigma = {"x": xv, "y": yv}
    total = sum(
        p.coefficient_of("x", d).eval({"y": yv}) * xv**d
        for d in range(p.degree_in("x") + 1)
    )
    assert p.eval(sigma) == total


def test_proportionality():
    x = symbol("x")
    assert proportionality(3 * (x + 1), x + 1) == 3
    assert proportionality(x * x, x + 1) is None
    assert proportionality(MultiPoly(), x) is None


def test_serialization_records_sorted():
    x, y = symbol("x"), symbol("y")
    records = (x * y + 2 * x).to_records()
    assert records == [
        {"exponents": {"x": 1}, "coeff": "2/1"},
        {"exponents": {"x": 1, "y": 1}, "coeff": "1/1"},
    ]


def test_integer_scaled_mixed_coefficients():
    a = symbol("a")
    d, scaled = integer_scaled([Fraction(1, 6), 3, Fraction(-5, 4), a * Fraction(1, 3), 0])
    # D is taken over the rational coefficients only; the polynomial is multiplied by it
    assert d == 12
    assert scaled == [2, 36, -15, a * 4, 0]
    assert [type(n) for n in scaled] == [int, int, int, MultiPoly, int]
    assert integer_scaled([]) == (1, [])
    assert integer_scaled([a]) == (1, [a])


@given(st.lists(rationals | st.integers(-10**6, 10**6), max_size=12))
def test_integer_scaled_is_exact(coeffs):
    d, scaled = integer_scaled(coeffs)
    assert d >= 1 and len(scaled) == len(coeffs)
    for c, n in zip(coeffs, scaled):
        assert type(n) is int and n == c * d
