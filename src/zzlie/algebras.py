"""The ZxZ-graded Lie algebra families and their structure constants.

Seven families are provided, all with one-dimensional homogeneous
components indexed by integer pairs:

* ``vir``    -- the rank-2 centerless Virasoro algebra Vir(alpha),
* ``d``      -- the uniform family D(alpha, beta) with D(alpha, 0) = Vir(alpha),
* ``block``  -- the Block algebra B(alpha, beta; a1, a2, a2p) with its two
                possible central extensions,
* ``bplus-`` / ``bplus+`` -- the half-plane subalgebras of the beta = -1 / +1
                Block algebras (central generators retained),
* ``c`` / ``cbar`` -- the algebra with an abelian ideal in degrees j <= -2
                and its dual.

Basis brackets are pure functions of the spec; elements are finite linear
combinations with exact rational (or polynomial, for symbolic central
parameters) coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import MultiPoly, SparseVector, format_rational

__all__ = [
    "DomainError",
    "AlgebraSpec",
    "BasisElement",
    "Element",
    "factorial_ratio",
    "structure_table",
]

FAMILIES = ("vir", "d", "block", "bplus-", "bplus+", "c", "cbar")

_CENTRAL_FAMILIES = ("block", "bplus-", "bplus+")


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

    @property
    def index(self):
        return (self.i, self.j)

    def to_json(self):
        if self.kind == "L":
            return {"kind": "L", "i": self.i, "j": self.j}
        return {"kind": self.kind}

    def __repr__(self):
        if self.kind == "L":
            return f"L({self.i},{self.j})"
        return "c1" if self.kind == "C1" else "c2"


def _L(i, j):
    return BasisElement("L", i, j)


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
    def single(cls, basis, coeff):
        return cls._from_pruned({basis: coeff} if coeff else {})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_json(self):
        out = []
        for basis in sorted(self.terms, key=_basis_sort_key):
            coeff = self.terms[basis]
            if isinstance(coeff, MultiPoly):
                coeff_json = coeff.to_records()
            else:
                coeff_json = format_rational(coeff)
            out.append({"basis": basis.to_json(), "coeff": coeff_json})
        return {"terms": out}

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

    The domain data (punctured points and central degrees) is computed once
    at construction and kept outside the dataclass fields, so equality,
    hashing, ``repr`` and ``dataclasses.replace`` see only the parameters.
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
        if self.family == "bplus-":
            beta = Fraction(-1) if self.beta is None else Fraction(self.beta)
            if beta != -1:
                raise ValueError("bplus- fixes beta = -1")
            object.__setattr__(self, "beta", beta)
        elif self.family == "bplus+":
            beta = Fraction(1) if self.beta is None else Fraction(self.beta)
            if beta != 1:
                raise ValueError("bplus+ fixes beta = +1")
            object.__setattr__(self, "beta", beta)
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
        # The punctures (-alpha, beta) and (-2 alpha, 2 beta), where integral,
        # are also the degrees of the central generators C1 and C2.
        excluded, central = frozenset(), {}
        if self.family in _CENTRAL_FAMILIES:
            c1 = (_as_int(-self.alpha), _as_int(self.beta))
            c2 = (_as_int(-2 * self.alpha), _as_int(2 * self.beta))
            excluded = frozenset(p for p in (c1, c2) if None not in p)
            if None not in c2:
                central["C2"] = c2
                if None not in c1:
                    central["C1"] = c1
        object.__setattr__(self, "_excluded", excluded)
        object.__setattr__(self, "_central", central)

    # -- domain ------------------------------------------------------------

    def excluded_points(self):
        """The punctured lattice points, where integral."""
        return self._excluded

    def in_domain(self, i, j):
        if self.family == "bplus-" and j < -1:
            return False
        if self.family == "bplus+" and j > 1:
            return False
        return (i, j) not in self._excluded

    # -- central generators -------------------------------------------------

    def central_degrees(self):
        """Degrees of the present central generators, keyed "C1"/"C2"."""
        return dict(self._central)

    # -- brackets ------------------------------------------------------------

    def basis_bracket(self, a, b):
        """[L_a, L_b] as an Element; inputs must be in the domain."""
        (i, j), (k, ell) = a, b
        if not self.in_domain(i, j):
            raise DomainError(f"{a} not in domain of {self.family}")
        if not self.in_domain(k, ell):
            raise DomainError(f"{b} not in domain of {self.family}")
        if self.family == "vir":
            coeff = Fraction(k - i) + (ell - j) * self.alpha
            return Element.single(_L(i + k, j + ell), coeff)
        if self.family == "d":
            coeff = self.beta * (i * ell - j * k) + (k - i) + (ell - j) * self.alpha
            return Element.single(_L(i + k, j + ell), coeff)
        if self.family in _CENTRAL_FAMILIES:
            return self._block_bracket(i, j, k, ell)
        # c / cbar
        if self.family == "cbar":
            j, ell = -j, -ell
        coeff = _c_coeff(self.alpha, i, j, k, ell)
        if self.literal_c_index:
            ti, tj = i + ell, k + j
        else:
            ti, tj = i + k, j + ell
        if self.family == "cbar":
            tj = -tj
        return Element.single(_L(ti, tj), coeff)

    def _block_bracket(self, i, j, k, ell):
        alpha, beta = self.alpha, self.beta
        out = Element()
        coeff = (i * ell - j * k) + alpha * (ell - j) + beta * (k - i)
        ti, tj = i + k, j + ell
        if coeff and self.in_domain(ti, tj):
            out = out + Element.single(_L(ti, tj), coeff)
        central = self._central
        if "C1" in central and (ti, tj) == central["C1"] and self.a1 is not None:
            c = (alpha * j + beta * i) * self.a1
            out = out + Element.single(BasisElement("C1"), c)
        if "C2" in central and (ti, tj) == central["C2"]:
            c = 0
            if self.a2 is not None:
                c = self.a2 * (alpha * j + beta * i)
            if self.a2p is not None:
                c = c + self.a2p * (alpha + i)
            out = out + Element.single(BasisElement("C2"), c)
        return out

    def bracket(self, x, y):
        """Bilinear extension; central generators are central."""
        out = Element()
        for bx, cx in x.terms.items():
            if bx.kind != "L":
                continue
            for by, cy in y.terms.items():
                if by.kind != "L":
                    continue
                out = out + self.basis_bracket(bx.index, by.index).scale(cx * cy)
        return out


def _c_coeff(alpha, i, j, k, ell):
    """Structure constant of the c family, by (j, ell) region.

    The regions not listed are filled in antisymmetrically.
    """
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
    return -_c_coeff(alpha, k, ell, i, j)


def window_indices(spec, window):
    """Domain indices with |i|, |j| <= window, in lexicographic order."""
    return [
        (i, j)
        for i in range(-window, window + 1)
        for j in range(-window, window + 1)
        if spec.in_domain(i, j)
    ]


def structure_table(spec, window):
    """All basis brackets for index pairs in the window, lex order."""
    if window < 0:
        raise ValueError("window must be >= 0")
    idxs = window_indices(spec, window)
    return [
        {"left": a, "right": b, "result": spec.basis_bracket(a, b)}
        for a in idxs
        for b in idxs
    ]


def table_to_json(table):
    return [
        {
            "left": list(row["left"]),
            "right": list(row["right"]),
            "result": row["result"].to_json()["terms"],
        }
        for row in table
    ]
