"""Exact coefficient arithmetic: rationals and sparse multivariate polynomials.

Rationals are ``fractions.Fraction`` (arbitrary precision, always canonical).
Polynomials are stored as a sparse map from exponent vectors (sorted tuples
of (name, positive exponent) pairs) to rational coefficients; zero
coefficients are never stored, so equality of the term maps is equality of
polynomials.  ``accumulate`` is the one sparse linear-combination step that
every layer builds its sums with, ``exact_value`` the one coercion of every
number a caller passes in (``exact_number`` when it must be a number),
``integer_scaled`` the one way any layer scales coefficients to ints
(``unscaled`` divides a numerator back), and ``SparseVector`` the one
sparse-map type of polynomials, algebra elements and module vectors.
"""

from __future__ import annotations

import re
import sys
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
    """Canonical "p/q" form, sign on the numerator, denominator always shown.

    Python prints no int longer than ``sys.get_int_max_str_digits()`` digits
    (4300 by default); a longer numerator or denominator is a ``UsageError``
    that names that limit.
    """
    f = value if isinstance(value, Fraction) else Fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:
        raise UsageError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, the longest "
            "integer this Python prints; choose smaller indices or parameters"
        ) from exc


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
    """``(D, [c·D for c in coeffs])`` with D the LCM of every denominator.

    D clears the denominators of the Fractions and of each MultiPoly's
    coefficients: Fractions and ints become ints, and a MultiPoly becomes a
    polynomial with integral coefficients.  No coefficients give D = 1.
    """
    d = lcm(*{q.denominator for c in coeffs
              for q in (c.terms.values() if isinstance(c, MultiPoly) else (c,))})
    return d, [c * d if isinstance(c, MultiPoly) else c.numerator * (d // c.denominator)
               for c in coeffs]


def exact_value(value, name):
    """A caller's number as a Fraction, or as a MultiPoly only when a symbol occurs in it.

    Anything but an int, a Fraction or a MultiPoly (a float, a str) is a
    ``UsageError`` naming ``name``.  A constant MultiPoly becomes the
    Fraction it equals, so numbers that compare equal also compute alike.
    """
    if isinstance(value, MultiPoly):
        return value if value.symbols() else value.terms.get((), Fraction(0))
    if isinstance(value, (int, Fraction)):
        return value if isinstance(value, Fraction) else Fraction(value)
    raise UsageError(f"{name} must be an int, a Fraction or a MultiPoly, not {value!r}")


def exact_number(value, name):
    """``exact_value`` of a number that must not be a polynomial: a symbol is a ``UsageError``."""
    if isinstance(value := exact_value(value, name), MultiPoly):
        raise UsageError(f"{name} must be a number, not the polynomial {value!r}")
    return value


def unscaled(n, d):
    """The exact coefficient n / d of a scaled numerator n.

    An int gives a Fraction; a MultiPoly is multiplied by 1/d and stays a
    polynomial.
    """
    return Fraction(n, d) if isinstance(n, int) else n * Fraction(1, d)


class SparseVector:
    """A finite linear combination: a map key -> coefficient, zeros pruned.

    The subclasses are ``MultiPoly``, ``algebras.Element`` and
    ``virmodules.ModVector``.  The public constructor takes each coefficient
    through the class's ``_exact`` (``exact_value``, or ``exact_number`` for
    a polynomial or a module vector) and prunes zeros; results are built
    with ``_from_pruned`` around a dict that is already pruned, so that runs
    only on what a caller passes in.  A vector is falsy exactly when it is
    zero.  Vectors of different subclasses never compare equal.
    """

    __slots__ = ("terms",)
    _exact = staticmethod(exact_value)

    def __init__(self, terms=None):
        self.terms = {k: v for k, c in terms.items()
                      if (v := self._exact(c, "coefficient"))} if terms else {}

    @classmethod
    def _from_pruned(cls, terms):
        v = object.__new__(cls)
        v.terms = terms
        return v

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return self._from_pruned(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._from_pruned({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms


def _mono_mul(exps, mono):
    """The monomial exps * mono, with ``exps`` given as a name -> exponent dict."""
    exps = dict(exps)
    for name, e in mono:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class MultiPoly(SparseVector):
    """Sparse multivariate polynomial over the rationals in named symbols."""

    __slots__ = ()
    _exact = staticmethod(exact_number)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value):
        c = exact_number(value, "polynomial coefficient")
        return cls._from_pruned({(): c} if c else {})

    # -- basic queries -----------------------------------------------------

    def symbols(self):
        return {name for mono in self.terms for name, _ in mono}

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        if self.terms.keys() <= {()}:  # a constant, zero included, hashes as its number
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _as_poly(value):
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(value)

    def __add__(self, other):
        other = self._as_poly(other)
        return self._from_pruned(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __rsub__(self, other):
        return self._as_poly(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):  # a number: scale term by term
            c = exact_number(other, "polynomial coefficient")
            return self._from_pruned({m: v * c for m, v in self.terms.items()} if c else {})
        out = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            accumulate(out, ((_mono_mul(d1, m2), c2) for m2, c2 in other.terms.items()), c1)
        return self._from_pruned(out)

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
        return self._from_pruned({tuple((s, e) for s, e in mono if s != name): c
                                  for mono, c in self.terms.items()
                                  if dict(mono).get(name, 0) == degree})

    def substitute(self, assignment):
        """Partial evaluation: replace the given symbols by rationals."""
        assignment = {name: exact_number(v, name) for name, v in assignment.items()}
        out = {}
        for mono, c in self.terms.items():
            factor = c
            rest = {}
            for name, e in mono:
                if name in assignment:
                    factor *= assignment[name] ** e
                else:
                    rest[name] = e
            accumulate(out, ((tuple(sorted(rest.items())), factor),))
        return self._from_pruned(out)

    def eval(self, assignment):
        """Full exact evaluation; every occurring symbol must be assigned."""
        missing = self.symbols() - set(assignment)
        if missing:
            raise UsageError(f"unassigned symbols: {sorted(missing)}")
        return self.substitute(assignment).terms.get((), Fraction(0))

    # -- serialization -----------------------------------------------------

    def to_records(self):
        """Sorted list of {"exponents": {...}, "coeff": "p/q"} records."""
        return [{"exponents": dict(mono), "coeff": format_rational(self.terms[mono])}
                for mono in sorted(self.terms)]

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
    return MultiPoly._from_pruned({((name, 1),): Fraction(1)})


def rational_root_scan(p, candidates):
    """Roots of a univariate polynomial among an explicit candidate set.

    No factorization is attempted: every candidate is substituted exactly and
    kept iff the value is zero.
    """
    syms = p.symbols()
    if len(syms) > 1:
        raise UsageError(f"rational_root_scan needs a univariate polynomial, got symbols {sorted(syms)}")
    return {c for c in (exact_number(c, "candidate root") for c in candidates)
            if p.eval(dict.fromkeys(syms, c)) == 0}


def proportionality(p, q):
    """The nonzero rational c with p == c*q, or None if there is none.

    Used to check that a derived polynomial equals a reference product of
    factors up to a rational scale (exact division with rational remainder).
    """
    if not p or not q:
        return None
    mono = next(iter(q.terms))
    if mono not in p.terms:
        return None
    c = p.terms[mono] / q.terms[mono]
    if c != 0 and p == q * c:
        return c
    return None
