"""MultiPoly arithmetic and the constraint polynomials against sympy.

sympy is an independent implementation of the same exact polynomial algebra,
used here only as a test oracle.
"""

import random
from fractions import Fraction

import pytest

from zzlie.classify import derive_constraint_polys
from zzlie.poly import MultiPoly, symbol

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")


def to_sympy(p):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[sympy.Symbol(name) ** e for name, e in mono])
        for mono, c in p.terms.items()
    ])


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


def random_poly(rng):
    p = MultiPoly()
    for _ in range(rng.randint(0, 4)):
        term = MultiPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        for name in NAMES:
            term = term * symbol(name) ** rng.randint(0, 2)
        p = p + term
    return p


def test_multipoly_arithmetic_matches_sympy():
    rng = random.Random(5)
    x = sympy.Symbol("x")
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        sp, sq = to_sympy(p), to_sympy(q)
        assert same(p + q, sp + sq)
        assert same(p - q, sp - sq)
        assert same(p * q, sp * sq)
        n = rng.randint(0, 3)
        assert same(p**n, sp**n)
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert same(
            p.substitute({"x": value}),
            sp.subs(x, sympy.Rational(value.numerator, value.denominator)),
        )
        d = rng.randint(0, 3)
        assert same(p.coefficient_of("x", d), sympy.expand(sp).coeff(x, d))


def _determinant(alpha, b1, bm1, k):
    a11 = (-alpha + bm1 * k) * (-alpha + (1 + bm1) * k)
    a12 = -(alpha + b1 * k) * (alpha + (1 + b1) * k)
    a21 = -alpha + 2 * bm1 * k
    a22 = alpha + 2 * b1 * k
    return a11 * a22 - a12 * a21


def test_constraint_polys_match_sympy_expansion():
    alpha, b1, bm1, i = sympy.symbols("alpha beta1 betam1 i")
    d_pos = _determinant(alpha, b1, bm1, i)
    d_neg = _determinant(alpha, b1, bm1, -i)
    master = sympy.expand(
        2 * (-alpha + bm1 * i) * (-alpha + (1 + bm1) * i) * (alpha + 2 * b1 * i) * d_neg
        + 2 * (alpha + bm1 * i) * (alpha + (1 + bm1) * i) * (alpha - 2 * b1 * i) * d_pos
        + ((bm1 - b1) * (bm1 + b1 - 1) - 2) * d_pos * d_neg
    )
    polys = derive_constraint_polys()
    assert same(polys["master"], master)
    assert same(polys["p4"], master.subs(bm1, 0).coeff(i, 4))
    assert same(polys["p6"], master.coeff(i, 6))


def test_p6_factors_into_the_four_relations():
    b1, bm1 = sympy.symbols("beta1 betam1")
    scale, factors = sympy.factor_list(to_sympy(derive_constraint_polys()["p6"]))
    assert scale == 4
    assert dict(factors) == {
        b1: 2,
        bm1: 2,
        b1 - bm1: 1,
        b1 + bm1: 1,
        b1 + bm1 + 1: 1,
        b1 + bm1 + 2: 1,
    }
