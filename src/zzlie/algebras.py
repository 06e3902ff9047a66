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
rule ``_closed_row`` with per-family weights, which a spec scales to ints
over one denominator ``den`` once.  ``den`` also clears the denominators of
the central parameters, so every structure constant is an int (or
int-coefficient polynomial) numerator over ``den``.  A spec gives them in
two row forms, one left index against a list of right ones, that take the
same branches: ``raw_row(a, idxs)``, ``(key, numerator)`` terms with
``raw_terms(a, b)`` the one-entry case, and ``numerators(a, idxs)``, each
at the one key of its degree.  A numerator is divided by ``den`` only where
a value is shown: in an ``Element`` (``Element.from_raw``) or a JSON record
(``terms_json``, and ``table_to_json``, the window's table as a matrix of
JSON cell texts with one row per left index, which the CLI joins a row at a
time).  Every windowed consumer reads its indices and degree grid from one
``window_grid`` call, and ``window_range`` is the one window rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    MultiPoly, SparseVector, UsageError, exact_number, exact_value, format_rational,
    integer_scaled, unscaled,
)

__all__ = [
    "FAMILIES",
    "DomainError",
    "AlgebraSpec",
    "BasisElement",
    "Element",
    "structure_table",
]

FAMILIES = ("vir", "d", "block", "bplus-", "bplus+", "c", "cbar")

_CENTRAL_FAMILIES = ("block", "bplus-", "bplus+")

_HALF_PLANE = {"bplus-": -1, "bplus+": 1}  # s: beta = s, and s*j <= 1 is kept


class DomainError(ValueError):
    """An index outside the algebra's basis index set was used."""


def domain_index(alg, a, name):
    """``a`` as the pair (i, j), a ``DomainError`` naming ``name`` unless ``alg.in_domain(i, j)``."""
    i, j = a
    if alg.in_domain(i, j):
        return i, j
    raise DomainError(f"{(i, j)} not in domain of {name}")


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

    def __repr__(self):
        if self.kind == "L":
            return f"L({self.i},{self.j})"
        return "c1" if self.kind == "C1" else "c2"


def terms_json(terms, den):
    """Raw ``(key, numerator)`` bracket terms over ``den`` as ``{"basis", "coeff"}`` records.

    A basis is ``{"kind": "L", "i", "j"}`` or ``{"kind": "C1"/"C2"}``; a
    coefficient is numerator / den as "p/q", or a MultiPoly's records.  The
    terms keep their order, which for ``raw_terms`` is L, then C1, then C2.
    """
    return [
        {
            "basis": (
                {"kind": key} if isinstance(key, str) else {"kind": "L", "i": key[0], "j": key[1]}
            ),
            "coeff": (unscaled(n, den).to_records() if isinstance(n, MultiPoly)
                      else format_rational(Fraction(n, den))),
        }
        for key, n in terms
    ]


_SORT_KEY = {"L": 0, "C1": 1, "C2": 2}


def _basis_sort_key(b):
    return (_SORT_KEY[b.kind], b.i or 0, b.j or 0)


class Element(SparseVector):
    """A finite linear combination of basis elements.

    Coefficients are Fractions, or MultiPoly when symbolic central
    parameters are in play; the constructor takes each through ``exact_value``.
    """

    __slots__ = ()

    @classmethod
    def from_raw(cls, terms, d):
        """The element of raw ``(key, numerator)`` terms over ``d`` (distinct keys, nonzero)."""
        return cls._from_pruned({BasisElement.of(key): unscaled(n, d) for key, n in terms})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[b]})*{b!r}" for b in sorted(self.terms, key=_basis_sort_key)
        )


@dataclass(frozen=True)
class AlgebraSpec:
    """A family tag plus parameters; determines all structure constants.

    A spec gives its brackets as ``raw_row`` (``raw_terms`` one at a time)
    and ``numerators`` over ``den``, the contract the windowed checks of
    ``verify`` read, with ``in_domain`` and ``central_degrees``;
    ``basis_bracket`` reads only ``raw_terms`` and ``den``, so a duck-typed
    algebra (``verify.QuotientC``) can borrow it.

    On ``bplus-``/``bplus+`` (beta = s) ``a2p`` is redundant: a bracket
    lands at C2's degree (-2 alpha, 2s) only from two indices with j = s,
    where alpha*j + beta*i = s*(alpha + i), so a2 and a2p enter only
    through a2 + s*a2p.  Both are accepted, and the brackets depend only on
    that sum.

    The block families' punctures (-alpha, beta) and (-2 alpha, 2 beta),
    where integral, are the central degrees, kept in one map from degree to
    "C1"/"C2" that ``in_domain``, both row forms and ``central_degrees``
    read.  A block bracket is an L term at the index sum, the central term
    when that sum is a puncture, or nothing.  The half-planes are closed
    under it, so no target is tested: a sum leaves one only from two
    indices at j = s, where the closed form is 0.
    That map, the half-plane side, ``den``, the int weights of
    ``_closed_row`` and the scaled central parameters are computed once at
    construction and kept outside the dataclass fields, so equality,
    hashing, ``repr`` and ``replace`` see only the parameters.
    """

    family: str
    alpha: Fraction
    beta: Fraction | None = None
    a1: Fraction | MultiPoly | None = None
    a2: Fraction | MultiPoly | None = None
    a2p: Fraction | MultiPoly | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "alpha", exact_number(self.alpha, "alpha"))
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        side = _HALF_PLANE.get(self.family, 0)
        if side:
            if self.beta is not None and exact_number(self.beta, "beta") != side:
                raise ValueError(f"{self.family} fixes beta = {side:+d}")
            object.__setattr__(self, "beta", Fraction(side))
        elif self.family in ("d", "block"):
            if self.beta is None:
                raise ValueError(f"family {self.family!r} needs beta")
            object.__setattr__(self, "beta", exact_number(self.beta, "beta"))
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
            object.__setattr__(self, name, exact_value(val, name))
        # C2's degree is twice C1's, so C2 is present whenever C1 is.
        punctures = {}
        if self.family in _CENTRAL_FAMILIES:
            for kind, m in (("C2", 2), ("C1", 1)):
                pi, pj = -m * self.alpha, m * self.beta
                if pi.denominator == pj.denominator == 1:
                    punctures[int(pi), int(pj)] = kind
        object.__setattr__(self, "_side", side)
        object.__setattr__(self, "_punctures", punctures)
        den, (a_num, b_num) = integer_scaled([self.alpha, self.beta or 0])
        # m clears the central parameters' denominators (a polynomial's
        # coefficients included), and the spec's one denominator is den * m:
        # the L weights are scaled by m, and a central numerator is
        # (a_num*j + b_num*i) or (a_num + den*i) times a parameter times m.
        # An absent parameter is 0, which gives the same (dropped) terms.
        m, scaled = integer_scaled([p or 0 for p in (self.a1, self.a2, self.a2p)])
        object.__setattr__(self, "_centre", ((a_num, b_num, den), scaled))
        if self.family in _CENTRAL_FAMILIES:
            weights = (den * m, a_num * m, b_num * m)
        elif self.family in ("c", "cbar"):
            weights = (-den, a_num, den)
        else:  # vir, d; b_num is 0 for vir
            weights = (b_num, a_num, den)
        object.__setattr__(self, "den", den * m)
        object.__setattr__(self, "_weights", weights)

    # -- domain ------------------------------------------------------------

    def in_domain(self, i, j):
        """The one index rule: int components, on the half-plane side, off the punctures."""
        return (i.__class__ is j.__class__ is int
                and self._side * j <= 1 and (i, j) not in self._punctures)

    # -- central generators -------------------------------------------------

    def central_degrees(self):
        """Degrees of the present central generators, keyed "C1"/"C2"."""
        return {kind: deg for deg, kind in self._punctures.items()}

    # -- brackets ------------------------------------------------------------

    def raw_terms(self, a, b):
        """[L_a, L_b] as raw terms: the one entry of ``raw_row(a, [b])``.

        ``DomainError`` for either input (any pair-shaped sequence), the left one first.
        """
        a = domain_index(self, a, self.family)
        (terms,) = self._raw_row(a, [domain_index(self, b, self.family)])
        return terms

    def basis_bracket(self, a, b):
        """[L_a, L_b] as an Element: ``raw_terms`` divided by ``den``."""
        return Element.from_raw(self.raw_terms(a, b), self.den)

    def raw_row(self, a, idxs):
        """[L_a, L_w] as raw ``(key, numerator)`` terms over ``den`` for each w of ``idxs``.

        An entry is empty or one term, keyed "C1"/"C2" when a + w is a puncture,
        else a + w; a numerator is an int, or an int-coefficient MultiPoly for a
        symbolic centre.  ``DomainError`` for ``a``; ``idxs`` are taken to be in the domain.
        """
        return self._raw_row(domain_index(self, a, self.family), idxs)

    def _raw_row(self, a, idxs):
        i, j = a
        if self.family in ("c", "cbar"):
            lines = self._c_lines(i, j, idxs)
            return [(((i + k, j + ell), n),) if (n := a_k * k + a_0) else ()
                    for k, ell in idxs for a_k, a_0 in (lines[ell],)]
        a_l, a_k, a_0 = _closed_row(self._weights, i, j)
        row = [(((i + k, j + ell), n),) if (n := a_l * ell + a_k * k + a_0) else ()
               for k, ell in idxs]
        for q, kind, n in self._central_at(i, j, idxs):
            row[q] = ((kind, n),) if n else ()
        return row

    def numerators(self, a, idxs):
        """``raw_row`` with each entry its numerator at the one key of its degree, 0 if empty.

        It takes the same branches on its own, and the tests hold the two
        forms to each other entry by entry.
        """
        i, j = domain_index(self, a, self.family)
        if self.family in ("c", "cbar"):
            lines = self._c_lines(i, j, idxs)
            return [a_k * k + a_0 for k, ell in idxs for a_k, a_0 in (lines[ell],)]
        a_l, a_k, a_0 = _closed_row(self._weights, i, j)
        row = [a_l * ell + a_k * k + a_0 for k, ell in idxs]
        for q, _, n in self._central_at(i, j, idxs):
            row[q] = n
        return row

    def _c_lines(self, i, j, idxs):
        """``_c_line`` of row (i, j) at each ell of ``idxs``; cbar is c under j -> -j."""
        s = 1 if self.family == "c" else -1
        return {ell: _c_line(self._weights, i, s * j, s * ell) for ell in {ell for _, ell in idxs}}

    def _central_at(self, i, j, idxs):
        """(position, kind, numerator) of each w of ``idxs`` with (i, j) + w a puncture."""
        found = []
        for (pi, pj), kind in self._punctures.items():
            if (w := (pi - i, pj - j)) in idxs:
                (a_num, b_num, den), (a1, a2, a2p) = self._centre
                c = a_num * j + b_num * i
                found.append((idxs.index(w), kind,
                              c * a1 if kind == "C1" else a2 * c + a2p * (a_num + den * i)))
        return found


def _closed_row(w, i, j):
    """Row (i, j) of the closed-form structure constant x(i*ell - j*k) + a(ell - j) + y(k - i).

    The row is affine in (k, ell): (A, B, C) = (x*i + a, y - x*j, -a*j - y*i)
    of A*ell + B*k + C.  The weights w = (x, a, y) are (0, alpha, 1) for
    ``vir``, (beta, alpha, 1) for ``d``, (1, alpha, beta) for the block
    families and (-1, alpha, 1), the ``d`` rule at beta = -1, for the c/cbar
    generic region.  A spec scales them to ints by its denominator; the
    symbolic proofs pass polynomials.
    """
    x, a, y = w
    return x * i + a, y - x * j, -a * j - y * i


def _closed_form(w, i, j, k, ell):
    """The closed-form constant of [L(i, j), L(k, ell)]: its ``_closed_row`` at (k, ell)."""
    a_l, a_k, a_0 = _closed_row(w, i, j)
    return a_l * ell + a_k * k + a_0


def _c_line(w, i, j, ell):
    """(B, C) with B*k + C the c structure constant of [L(i, j), L(k, ell)] times D.

    For a fixed (i, j) and ell the constant is affine in k; the (j, ell)
    regions give it as follows.  ``w`` = (-D, alpha*D, D) are the weights of
    the generic core ``_closed_row``, the ``d`` rule at beta = -1, which
    holds where j, ell >= -1 (not both -1).  Where exactly one of j, ell is
    <= -2 and the other >= 0, the core is scaled by the falling factorial
    perm(-ell - 2, j) or perm(-j - 2, ell), which is 0 past the region's
    edge; the rows and columns at -1 are filled in antisymmetrically, and
    two indices at j, ell <= -2 bracket to 0.
    """
    _, a_num, den = w
    if j == -1 and ell <= -1:
        return (den, -i * den) if ell == -1 else (0, i * den - a_num)
    if j <= -2 and ell <= -1:
        return (-den, a_num) if ell == -1 else (0, 0)
    a_l, a_k, a_0 = _closed_row(w, i, j)
    if ell <= -2:
        f = math.perm(-ell - 2, j)
    elif j <= -2:
        f = math.perm(-j - 2, ell)
    else:
        return a_k, a_l * ell + a_0
    return f * a_k, f * (a_l * ell + a_0)


def window_range(window, least=0):
    """The indices -window..window; ``UsageError`` unless ``window`` is an int >= ``least``.

    The one window rule: a ``bool`` is refused, as in ``in_domain``.
    """
    if window.__class__ is not int or window < least:
        raise UsageError(f"window must be >= {least}")
    return range(-window, window + 1)


def window_grid(alg, window):
    """``(idxs, codes, offset, keys)``: the window's domain indices and their degree grid.

    ``idxs`` are the indices with |i|, |j| <= window that ``alg.in_domain``
    accepts, in lex order.  Index (i, j) has code i*(4W + 1) + j, so codes
    add like the indices.  Every sum of two window indices lies in the box
    |i|, |j| <= 2W, whose degrees ``keys`` lists in lex order, degree t at
    ``offset`` + code(t); the key of a degree of ``alg.central_degrees()``
    that lies inside the box stands in its place.
    """
    rng = window_range(window)
    idxs = [(i, j) for i in rng for j in rng if alg.in_domain(i, j)]
    radix, reach = 4 * window + 1, 2 * window
    keys = [(i, j) for i in range(-reach, reach + 1) for j in range(-reach, reach + 1)]
    offset = reach * (radix + 1)
    for key, (i, j) in alg.central_degrees().items():
        if abs(i) <= reach >= abs(j):
            keys[offset + i * radix + j] = key
    return idxs, [i * radix + j for i, j in idxs], offset, keys


def structure_table(spec, window):
    """All basis brackets for index pairs in the window, lex order, a ``raw_row`` per left index."""
    idxs = window_grid(spec, window)[0]
    return [{"left": a, "right": b, "result": Element.from_raw(terms, spec.den)}
            for a in idxs for b, terms in zip(idxs, spec.raw_row(a, idxs))]


def table_to_json(spec, window):
    """The structure table as a cell matrix ``(idxs, cells)``.

    ``idxs`` are the window indices of ``window_grid``, and ``cells[p]`` is
    the row of left index ``idxs[p]``: for each right index of ``idxs``, in
    order, the JSON text of ``terms_json`` of the bracket, the records the
    ``bracket`` command prints, exactly as ``json.JSONEncoder(sort_keys=True)``
    writes them.  A row is filled from one ``numerators`` row: 0 is the empty
    cell, else the one term sits at the key of the index sum's degree.  A
    cell is the head text of that key, read from the grid's degree box at
    the sum's offset, joined to the text of its coefficient, written once
    per int numerator n as "{n//g}/{den//g}" with g = gcd(n, den); a
    polynomial one is the encoded records of n/den.
    """
    idxs, codes, offset, keys = window_grid(spec, window)
    den = spec.den
    heads = [f'[{{"basis": {{"kind": "{t}"}}, "coeff": ' if t.__class__ is str
             else f'[{{"basis": {{"i": {t[0]}, "j": {t[1]}, "kind": "L"}}, "coeff": '
             for t in keys]
    encode = json.JSONEncoder(sort_keys=True).encode
    tails = {}  # int numerators only: a constant MultiPoly equals its int

    def tail(n):
        if n.__class__ is not int:
            return encode(unscaled(n, den).to_records()) + "}]"
        g = math.gcd(n, den)
        tails[n] = f'"{n // g}/{den // g}"}}]'
        return tails[n]

    return idxs, [
        [
            "[]" if not n else heads[base + c]
            + ((tails.get(n) or tail(n)) if n.__class__ is int else tail(n))
            for c, n in zip(codes, spec.numerators(a, idxs))
        ]
        for a, base in zip(idxs, [offset + c for c in codes])
    ]
