"""The ZxZ-graded Lie algebra families and their structure constants.

Seven families are provided, all with one-dimensional homogeneous
components indexed by integer pairs:

* ``vir``    -- the rank-2 centerless Virasoro algebra Vir(alpha),
* ``d``      -- the uniform family D(alpha, beta) with D(alpha, 0) = Vir(alpha),
* ``block``  -- the Block algebra B(alpha, beta; a1, a2, a2p) with its two
                possible central extensions,
* ``bplus-`` / ``bplus+`` -- the half-planes s*j <= 1 of the Block algebras
                with beta = s = -1 / +1 (central generators retained),
* ``c`` / ``cbar`` -- the algebra with an abelian ideal in degrees j <= -2
                and its dual.

Basis brackets are pure functions of the spec; elements are finite linear
combinations with exact rational (or polynomial, for symbolic central
parameters) coefficients.  Every closed-form structure constant is the one
rule ``_closed_form`` with per-family weights, which a spec scales to ints
over one denominator D once; a structure constant becomes a Fraction once,
when it is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import MultiPoly, SparseVector, UsageError, format_rational, integer_scaled

__all__ = [
    "FAMILIES",
    "DomainError",
    "AlgebraSpec",
    "BasisElement",
    "Element",
    "factorial_ratio",
    "structure_table",
]

FAMILIES = ("vir", "d", "block", "bplus-", "bplus+", "c", "cbar")

_CENTRAL_FAMILIES = ("block", "bplus-", "bplus+")

_HALF_PLANE = {"bplus-": -1, "bplus+": 1}  # s: beta = s, and s*j <= 1 is kept


class DomainError(ValueError):
    """An index outside the algebra's basis index set was used."""


def _as_int(value):
    """The exact integer value of a Fraction, or None if not integral."""
    f = Fraction(value)
    return int(f) if f.denominator == 1 else None


def factorial_ratio(i, j):
    """i!/j! for 0 <= j <= i, and 0 otherwise."""
    if 0 <= j <= i:
        return Fraction(math.factorial(i), math.factorial(j))
    return Fraction(0)


@dataclass(frozen=True, order=True)
class BasisElement:
    """A basis vector: L at an index, or one of the central generators."""

    kind: str  # "L", "C1", "C2"
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("L", "C1", "C2"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "L" and (self.i is None or self.j is None):
            raise ValueError("L basis elements need an index")

    @classmethod
    def of(cls, key):
        """The basis element of a raw bracket-term key: ``(i, j)``, "C1" or "C2"."""
        return cls(key) if isinstance(key, str) else cls("L", *key)

    @property
    def index(self):
        return (self.i, self.j)

    def __repr__(self):
        if self.kind == "L":
            return f"L({self.i},{self.j})"
        return "c1" if self.kind == "C1" else "c2"


def _single(key, coeff):
    """One raw bracket term, or none when the coefficient vanishes."""
    return ((key, coeff),) if coeff else ()


def terms_json(terms):
    """Raw ``(key, coeff)`` bracket terms as ``{"basis", "coeff"}`` records.

    A basis is ``{"kind": "L", "i", "j"}`` or ``{"kind": "C1"/"C2"}``; a
    coefficient is "p/q", or a MultiPoly's records.  The terms keep their
    order, which for ``bracket_terms`` is L, then C1, then C2.
    """
    return [
        {
            "basis": (
                {"kind": key} if isinstance(key, str) else {"kind": "L", "i": key[0], "j": key[1]}
            ),
            "coeff": c.to_records() if isinstance(c, MultiPoly) else format_rational(c),
        }
        for key, c in terms
    ]


_SORT_KEY = {"L": 0, "C1": 1, "C2": 2}


def _basis_sort_key(b):
    return (_SORT_KEY[b.kind], b.i or 0, b.j or 0)


class Element(SparseVector):
    """A finite linear combination of basis elements.

    Coefficients are stored as given: Fractions, or MultiPoly when symbolic
    central parameters are in play.
    """

    __slots__ = ()

    @classmethod
    def from_terms(cls, terms):
        """The element of raw ``(key, coeff)`` terms (distinct keys, nonzero coeffs)."""
        return cls._from_pruned({BasisElement.of(key): c for key, c in terms})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[b]})*{b!r}" for b in sorted(self.terms, key=_basis_sort_key)
        )


@dataclass(frozen=True)
class AlgebraSpec:
    """A family tag plus parameters; determines all structure constants.

    ``literal_c_index`` switches the ``c``/``cbar`` bracket to the
    grading-breaking target index variant kept for diagnostics.

    The domain data (half-plane side, punctured points, central degrees),
    the common denominator D and the int weights of ``_closed_form`` are
    computed once at construction and kept outside the dataclass fields, so
    equality, hashing, ``repr`` and ``replace`` see only the parameters.
    """

    family: str
    alpha: Fraction
    beta: Fraction | None = None
    a1: Fraction | MultiPoly | None = None
    a2: Fraction | MultiPoly | None = None
    a2p: Fraction | MultiPoly | None = None
    literal_c_index: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        side = _HALF_PLANE.get(self.family, 0)
        if side:
            if self.beta is not None and Fraction(self.beta) != side:
                raise ValueError(f"{self.family} fixes beta = {side:+d}")
            object.__setattr__(self, "beta", Fraction(side))
        elif self.family in ("d", "block"):
            if self.beta is None:
                raise ValueError(f"family {self.family!r} needs beta")
            object.__setattr__(self, "beta", Fraction(self.beta))
            if self.family == "block" and self.beta == 0:
                raise ValueError("block requires alpha*beta != 0")
        else:
            if self.beta is not None:
                raise ValueError(f"family {self.family!r} takes no beta")
        for name in ("a1", "a2", "a2p"):
            val = getattr(self, name)
            if val is None:
                continue
            if self.family not in _CENTRAL_FAMILIES:
                raise ValueError(f"{name} only applies to families {_CENTRAL_FAMILIES}")
            if not isinstance(val, MultiPoly):
                object.__setattr__(self, name, Fraction(val))
        if self.literal_c_index and self.family not in ("c", "cbar"):
            raise ValueError("literal_c_index only applies to families ('c', 'cbar')")
        # The punctures (-alpha, beta) and (-2 alpha, 2 beta), where integral,
        # are the degrees of the central generators C1 and C2.  C2's degree
        # is twice C1's, so it is integral whenever C1's is.
        central = {}
        if self.family in _CENTRAL_FAMILIES:
            c1 = (_as_int(-self.alpha), _as_int(self.beta))
            c2 = (_as_int(-2 * self.alpha), _as_int(2 * self.beta))
            if None not in c2:
                central["C2"] = c2
                if None not in c1:
                    central["C1"] = c1
        object.__setattr__(self, "_side", side)
        object.__setattr__(self, "_excluded", frozenset(central.values()))
        object.__setattr__(self, "_central", central)
        den, (a_num, b_num) = integer_scaled([self.alpha, self.beta or 0])
        if self.family in _CENTRAL_FAMILIES:
            weights = (den, a_num, b_num)
        elif self.family in ("c", "cbar"):
            weights = (-den, a_num, den)
        else:  # vir, d; b_num is 0 for vir
            weights = (b_num, a_num, den)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_weights", weights)

    # -- domain ------------------------------------------------------------

    def excluded_points(self):
        """The punctured lattice points, where integral."""
        return self._excluded

    def in_domain(self, i, j):
        return self._side * j <= 1 and (i, j) not in self._excluded

    # -- central generators -------------------------------------------------

    def central_degrees(self):
        """Degrees of the present central generators, keyed "C1"/"C2"."""
        return dict(self._central)

    # -- brackets ------------------------------------------------------------

    def bracket_terms(self, a, b):
        """[L_a, L_b] as a tuple of raw ``(key, coeff)`` terms, zeros dropped.

        A key is the index pair ``(i, j)`` of an L term, or ``"C1"``/``"C2"``
        for a central generator; each key occurs at most once, L before C1
        before C2.  Inputs must be in the domain, else ``DomainError``.
        ``basis_bracket`` is the same bracket as an ``Element``.
        """
        (i, j), (k, ell) = a, b
        family = self.family
        if family in ("vir", "d"):
            n = _closed_form(self._weights, i, j, k, ell)
            return (((i + k, j + ell), Fraction(n, self._den)),) if n else ()
        if family in _CENTRAL_FAMILIES:
            return self._block_bracket(i, j, k, ell)
        # c / cbar
        if family == "cbar":
            j, ell = -j, -ell
        n = _c_numerator(self._weights, i, j, k, ell)
        if not n:
            return ()
        if self.literal_c_index:
            ti, tj = i + ell, k + j
        else:
            ti, tj = i + k, j + ell
        if family == "cbar":
            tj = -tj
        return (((ti, tj), Fraction(n, self._den)),)

    def basis_bracket(self, a, b):
        """[L_a, L_b] as an Element; inputs must be in the domain."""
        return Element.from_terms(self.bracket_terms(a, b))

    def _block_bracket(self, i, j, k, ell):
        # Only the block families have punctures or a half-plane.
        if not self.in_domain(i, j):
            raise DomainError(f"{(i, j)} not in domain of {self.family}")
        if not self.in_domain(k, ell):
            raise DomainError(f"{(k, ell)} not in domain of {self.family}")
        den, a_num, b_num = w = self._weights
        terms = []
        n = _closed_form(w, i, j, k, ell)
        ti, tj = i + k, j + ell
        if n and self.in_domain(ti, tj):
            terms.append(((ti, tj), Fraction(n, den)))
        central = self._central
        if (ti, tj) == central.get("C1") and self.a1 is not None:
            terms += _single("C1", Fraction(a_num * j + b_num * i, den) * self.a1)
        if (ti, tj) == central.get("C2"):
            c = 0
            if self.a2 is not None:
                c = self.a2 * Fraction(a_num * j + b_num * i, den)
            if self.a2p is not None:
                c = c + self.a2p * Fraction(a_num + den * i, den)
            terms += _single("C2", c)
        return tuple(terms)


def _closed_form(w, i, j, k, ell):
    """The closed-form structure constant x(i*ell - j*k) + a(ell - j) + y(k - i).

    The weights w = (x, a, y) are (0, alpha, 1) for ``vir``, (beta, alpha, 1)
    for ``d``, (1, alpha, beta) for the block families and (-1, alpha, 1),
    the ``d`` rule at beta = -1, for the c/cbar generic region.  A spec
    scales them to ints by its denominator; the symbolic proofs pass polynomials.
    """
    x, a, y = w
    return x * (i * ell - j * k) + a * (ell - j) + y * (k - i)


def _c_numerator(w, i, j, k, ell):
    """Structure constant of the c family times D, by (j, ell) region.

    ``w`` = (-D, alpha*D, D) are the weights of the generic core, the ``d``
    rule at beta = -1.  The regions not listed are filled in antisymmetrically.
    """
    _, a_num, den = w
    if j >= -1 and ell >= -1:
        if j == -1 and ell == -1:
            return (k - i) * den
        return _closed_form(w, i, j, k, ell)
    if j >= 0 and ell <= -2:
        if j > -ell - 2:
            return 0
        core = _closed_form(w, i, j, k, ell)
        return math.factorial(-ell - 2) // math.factorial(-ell - j - 2) * core
    if j == -1 and ell <= -2:
        return i * den - a_num
    if j <= -2 and ell <= -2:
        return 0
    return -_c_numerator(w, k, ell, i, j)


def window_range(window):
    """The indices -window..window; a negative window is a ``UsageError``."""
    if window < 0:
        raise UsageError("window must be >= 0")
    return range(-window, window + 1)


def window_indices(spec, window):
    """Domain indices with |i|, |j| <= window, in lexicographic order."""
    rng = window_range(window)
    return [(i, j) for i in rng for j in rng if spec.in_domain(i, j)]


def structure_table(spec, window):
    """All basis brackets for index pairs in the window, lex order."""
    idxs = window_indices(spec, window)
    return [
        {"left": a, "right": b, "result": spec.basis_bracket(a, b)}
        for a in idxs
        for b in idxs
    ]


def table_to_json(spec, window):
    """The structure table as JSON rows, built straight from the raw terms.

    Rows are ``{"left", "right", "result"}`` in ``structure_table`` order;
    ``result`` is ``terms_json`` of the bracket's raw terms, the records the
    ``bracket`` command prints.
    """
    idxs = window_indices(spec, window)
    return [
        {"left": list(a), "right": list(b), "result": terms_json(spec.bracket_terms(a, b))}
        for a in idxs
        for b in idxs
    ]
