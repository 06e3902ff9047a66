"""Exact coefficient arithmetic: rationals and sparse multivariate polynomials.

Rationals are ``fractions.Fraction`` (arbitrary precision, always canonical).
Polynomials are stored as a sparse map from exponent vectors (sorted tuples
of (name, positive exponent) pairs) to rational coefficients; zero
coefficients are never stored, so equality of the term maps is equality of
polynomials.  ``accumulate`` is the one sparse linear-combination step that
every layer builds its sums with, ``integer_scaled`` the one way any layer
scales coefficients to ints, and ``SparseVector`` is the one linear
combination type that algebra elements and module vectors share.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

__all__ = [
    "UsageError",
    "parse_rational",
    "format_rational",
    "MultiPoly",
    "symbol",
    "rational_root_scan",
]


class UsageError(ValueError):
    """Raised when an operation is called outside its contract."""


_RATIONAL_LITERAL = re.compile(r"[+-]?\d+(/\d+)?")


def parse_rational(text):
    r"""Parse "p/q" or a plain integer literal into a Fraction.

    After stripping whitespace the text must match ``[+-]?\d+(/\d+)?``;
    anything else, decimals and exponents included, is a ``UsageError``, so
    a short literal such as "1e10000000" cannot buy unbounded work.
    """
    literal = text.strip()
    if not _RATIONAL_LITERAL.fullmatch(literal):
        raise UsageError(f"not a rational literal: {text!r}")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational literal: {text!r}") from exc


def format_rational(value):
    """Canonical "p/q" form, sign on the numerator, denominator always shown."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def accumulate(acc, terms, factor=None):
    """acc[key] += factor * c for every (key, c) in ``terms``, in place.

    ``terms`` is an iterable of (key, coefficient) pairs, such as a map's
    ``items()``.  Sums that come out falsy (a zero Fraction or a zero
    MultiPoly) are dropped, so ``acc`` never stores a zero.  With no factor
    the coefficients are added as they are; multiplying by one would cost a
    full product for MultiPoly coefficients.  Returns ``acc``.
    """
    get = acc.get
    for key, c in terms:
        s = get(key, 0) + (c if factor is None else factor * c)
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def integer_scaled(coeffs):
    """``(D, [c·D for c in coeffs])`` with D the LCM of the rational denominators.

    Fractions and ints become ints; a MultiPoly is multiplied by D and stays
    a polynomial.  No coefficients give D = 1.
    """
    d = lcm(*{c.denominator for c in coeffs if not isinstance(c, MultiPoly)})
    return d, [c * d if isinstance(c, MultiPoly) else c.numerator * (d // c.denominator)
               for c in coeffs]


class SparseVector:
    """A finite linear combination: a map key -> coefficient, zeros pruned.

    Results are built with ``_from_pruned`` around a dict that is already
    pruned, so a subclass constructor that converts its input runs only on
    what a caller passes in, never on intermediate vectors.  Vectors of
    different types never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _from_pruned(cls, terms):
        v = object.__new__(cls)
        v.terms = terms
        return v

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return self._from_pruned(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._from_pruned({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        # Exact coefficients have no zero divisors: a nonzero factor keeps
        # every term nonzero.
        if not factor:
            return self._from_pruned({})
        return self._from_pruned({k: c * factor for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms


def _coerce_coeff(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise UsageError(f"cannot use {value!r} as a polynomial coefficient")


def _mono_mul(exps, mono):
    """The monomial exps * mono, with ``exps`` given as a name -> exponent dict."""
    exps = dict(exps)
    for name, e in mono:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class MultiPoly:
    """Sparse multivariate polynomial over the rationals in named symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # Internal: `terms` must already be canonical (no zero coefficients,
        # monomial keys sorted, exponents positive).  Use symbol() or
        # MultiPoly.const().
        self.terms = {} if terms is None else terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value):
        c = _coerce_coeff(value)
        return cls({} if c == 0 else {(): c})

    # -- basic queries -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def symbols(self):
        names = set()
        for mono in self.terms:
            for name, _ in mono:
                names.add(name)
        return names

    def degree_in(self, name):
        deg = 0
        for mono in self.terms:
            for n, e in mono:
                if n == name:
                    deg = max(deg, e)
        return deg

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _as_poly(value):
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(value)

    def __add__(self, other):
        other = self._as_poly(other)
        return MultiPoly(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._as_poly(other))

    def __rsub__(self, other):
        return self._as_poly(other) + (-self)

    def __mul__(self, other):
        other = self._as_poly(other)
        out = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            accumulate(out, ((_mono_mul(d1, m2), c2) for m2, c2 in other.terms.items()), c1)
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise UsageError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structural operations --------------------------------------------

    def coefficient_of(self, name, degree):
        """The polynomial (in the remaining symbols) multiplying name**degree."""
        if degree < 0:
            raise UsageError("degree must be non-negative")
        out = {}
        for mono, c in self.terms.items():
            exps = dict(mono)
            if exps.pop(name, 0) != degree:
                continue
            out[tuple(sorted(exps.items()))] = c
        return MultiPoly(out)

    def substitute(self, assignment):
        """Partial evaluation: replace the given symbols by rationals."""
        out = {}
        for mono, c in self.terms.items():
            factor = _coerce_coeff(c)
            rest = {}
            for name, e in mono:
                if name in assignment:
                    factor *= _coerce_coeff(assignment[name]) ** e
                else:
                    rest[name] = e
            accumulate(out, ((tuple(sorted(rest.items())), factor),))
        return MultiPoly(out)

    def eval(self, assignment):
        """Full exact evaluation; every occurring symbol must be assigned."""
        missing = self.symbols() - set(assignment)
        if missing:
            raise UsageError(f"unassigned symbols: {sorted(missing)}")
        return self.substitute(assignment).terms.get((), Fraction(0))

    # -- serialization -----------------------------------------------------

    def to_records(self):
        """Sorted list of {"exponents": {...}, "coeff": "p/q"} records."""
        records = []
        for mono in sorted(self.terms):
            records.append(
                {"exponents": dict(mono), "coeff": format_rational(self.terms[mono])}
            )
        return records

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [] if c == 1 and mono else [str(c)]
            for name, e in mono:
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def symbol(name):
    """The polynomial consisting of the one symbol ``name``."""
    return MultiPoly({((name, 1),): Fraction(1)})


def rational_root_scan(p, candidates):
    """Roots of a univariate polynomial among an explicit candidate set.

    No factorization is attempted: every candidate is substituted exactly and
    kept iff the value is zero.
    """
    syms = p.symbols()
    if len(syms) > 1:
        raise UsageError(f"rational_root_scan needs a univariate polynomial, got symbols {sorted(syms)}")
    name = next(iter(syms)) if syms else None
    roots = set()
    for cand in candidates:
        cand = Fraction(cand)
        if name is None:
            if p.is_zero():
                roots.add(cand)
        elif p.eval({name: cand}) == 0:
            roots.add(cand)
    return roots


def proportionality(p, q):
    """The nonzero rational c with p == c*q, or None if there is none.

    Used to check that a derived polynomial equals a reference product of
    factors up to a rational scale (exact division with rational remainder).
    """
    if p.is_zero() or q.is_zero():
        return None
    mono = next(iter(q.terms))
    if mono not in p.terms:
        return None
    c = p.terms[mono] / q.terms[mono]
    if c != 0 and p == q * c:
        return c
    return None
