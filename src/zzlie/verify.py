"""Windowed and symbolic verification of the defining identities.

The windowed checks sweep every basis pair/triple with |i|, |j| <= W and
compare exactly; a check "passes" iff its report carries no witnesses.  The
symbolic checks expand the Jacobi sum with all index components and
parameters as polynomial symbols, proving the identity for every value at
once.  The diagonal-isomorphism search turns the window's brackets into
multiplicative equations and solves them with ``propagate_scalars``.

An algebra here is anything with three methods: ``in_domain(i, j)``,
``basis_bracket(a, b)`` returning an ``Element``, and ``central_degrees()``
mapping each present central generator ("C1"/"C2") to its degree.
``AlgebraSpec`` and ``QuotientC`` both provide them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebras import AlgebraSpec, Element, window_indices
from .linsolve import propagate_scalars
from .poly import MultiPoly, accumulate, symbol

__all__ = [
    "ViolationReport",
    "check_antisymmetry",
    "check_jacobi",
    "check_grading",
    "symbolic_jacobi",
    "symbolic_jacobi_D",
    "symbolic_jacobi_vir",
    "symbolic_jacobi_block",
    "QuotientC",
    "find_diagonal_isomorphism",
]


@dataclass
class ViolationReport:
    check: str
    checked_count: int
    witnesses: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.witnesses

    def to_json(self):
        return {
            "check": self.check,
            "checked_count": self.checked_count,
            "witnesses": [
                {"at": [list(t) for t in at], "detail": repr(detail)}
                for at, detail in self.witnesses
            ],
        }


def _pair_cache(alg):
    cache = {}

    def bb(a, b):
        key = (a, b)
        got = cache.get(key)
        if got is None:
            got = cache[key] = alg.basis_bracket(a, b).terms
        return got

    return bb


def check_antisymmetry(alg, window, max_witnesses=20):
    """Witness every ordered pair with [a,b] != -[b,a]."""
    idxs = window_indices(alg, window)
    bb = _pair_cache(alg)
    report = ViolationReport("antisymmetry", 0)
    for a in idxs:
        for b in idxs:
            report.checked_count += 1
            bad = accumulate(dict(bb(a, b)), bb(b, a).items())
            if bad:
                report.witnesses.append(((a, b), Element(bad)))
                if len(report.witnesses) >= max_witnesses:
                    return report
    return report


def check_jacobi(alg, window, max_witnesses=20):
    """Sweep unordered basis triples; witness each nonzero cyclic sum.

    With symbolic central parameters a triple passes only if its sum is the
    zero polynomial, which certifies the cocycle identity for every
    parameter value at once.
    """
    idxs = window_indices(alg, window)
    bb = _pair_cache(alg)
    in_domain = alg.in_domain
    outer_cache = {}

    def outer(u, v):
        # (index, coeff) of the L terms of [u, v] that lie in the domain;
        # only those can be bracketed again.
        key = (u, v)
        got = outer_cache.get(key)
        if got is None:
            got = outer_cache[key] = [
                ((basis.i, basis.j), coeff)
                for basis, coeff in bb(u, v).items()
                if basis.kind == "L" and in_domain(basis.i, basis.j)
            ]
        return got

    report = ViolationReport("jacobi", 0)
    n = len(idxs)
    for x in range(n):
        a = idxs[x]
        for y in range(x, n):
            b = idxs[y]
            ab = outer(a, b)
            for z in range(y, n):
                c = idxs[z]
                report.checked_count += 1
                acc = {}
                for terms, w in ((ab, c), (outer(b, c), a), (outer(c, a), b)):
                    for t, coeff in terms:
                        accumulate(acc, bb(t, w).items(), coeff)
                if acc:
                    report.witnesses.append(((a, b, c), Element(acc)))
                    if len(report.witnesses) >= max_witnesses:
                        return report
    return report


def check_grading(alg, window, max_witnesses=20):
    """Every L term must sit at the index sum; central terms at their degree."""
    idxs = window_indices(alg, window)
    central = alg.central_degrees()
    report = ViolationReport("grading", 0)
    for a in idxs:
        for b in idxs:
            report.checked_count += 1
            total = (a[0] + b[0], a[1] + b[1])
            for basis in alg.basis_bracket(a, b).terms:
                if basis.kind == "L":
                    bad = basis.index != total
                else:
                    bad = central.get(basis.kind) != total
                if bad:
                    report.witnesses.append(((a, b), basis))
                    if len(report.witnesses) >= max_witnesses:
                        return report
    return report


# -- symbolic Jacobi ---------------------------------------------------------


def _d_coeff_poly(i, j, k, ell, alpha, beta):
    return beta * (i * ell - j * k) + (k - i) + (ell - j) * alpha


def symbolic_jacobi(coeff_fn):
    """True iff the cyclic Jacobi sum of a single-term bracket rule vanishes.

    ``coeff_fn(i, j, k, ell)`` must return the structure constant as a
    polynomial in its (polynomial) arguments; the bracket target is the
    index sum, so the three cyclic terms live in one homogeneous component
    and the identity reduces to one polynomial being zero.
    """
    i1, j1 = symbol("i1"), symbol("j1")
    i2, j2 = symbol("i2"), symbol("j2")
    i3, j3 = symbol("i3"), symbol("j3")
    a, b, c = (i1, j1), (i2, j2), (i3, j3)

    def term(x, y, z):
        s = (x[0] + y[0], x[1] + y[1])
        return coeff_fn(x[0], x[1], y[0], y[1]) * coeff_fn(s[0], s[1], z[0], z[1])

    total = term(a, b, c) + term(b, c, a) + term(c, a, b)
    return total == 0


def symbolic_jacobi_D(coeff_fn=None):
    """Jacobi for the uniform two-parameter family, all eight symbols free."""
    alpha, beta = symbol("alpha"), symbol("beta")
    fn = coeff_fn or _d_coeff_poly
    return symbolic_jacobi(lambda i, j, k, ell: fn(i, j, k, ell, alpha, beta))


def symbolic_jacobi_vir():
    """The beta = 0 specialization."""
    alpha = symbol("alpha")
    zero = MultiPoly()
    return symbolic_jacobi(
        lambda i, j, k, ell: _d_coeff_poly(i, j, k, ell, alpha, zero)
    )


def symbolic_jacobi_block():
    """The determinant-form structure constant on its generic region."""
    alpha, beta = symbol("alpha"), symbol("beta")
    return symbolic_jacobi(
        lambda i, j, k, ell: (i + alpha) * (ell - beta) - (j - beta) * (k + alpha)
    )


# -- quotient and diagonal isomorphisms --------------------------------------


class QuotientC:
    """The c-family algebra modulo its abelian ideal in degrees j <= -2.

    Brackets are evaluated upstairs and terms landing at j <= -2 dropped.
    """

    def __init__(self, alpha):
        self.upstairs = AlgebraSpec("c", alpha)

    def in_domain(self, i, j):
        return j >= -1

    def central_degrees(self):
        return {}

    def basis_bracket(self, a, b):
        full = self.upstairs.basis_bracket(a, b)
        out = Element()
        for basis, coeff in full.terms.items():
            if basis.kind == "L" and basis.j <= -2:
                continue
            out.terms[basis] = coeff
        return out


def find_diagonal_isomorphism(alg_a, alg_b, index_map, window, seeds=((1, 0), (0, 1))):
    """Nonzero scalars lambda_idx making rescaled brackets of A match B.

    ``index_map`` must be an additive bijection on the window (grading
    compatible); A-side basis indices whose image is not a B basis index may
    land on a B central generator of matching degree.  Returns the witness
    map (A index -> scalar) or None.

    The scalars are found by ``propagate_scalars`` from unit seeds (the
    residual gauge freedom of a diagonal rescaling), which verifies every
    window equation, so a returned witness is always genuine.
    """
    idxs = window_indices(alg_a, window)
    idx_set = set(idxs)
    central = alg_b.central_degrees()

    def resolve(t):
        m = index_map(t)
        if alg_b.in_domain(*m):
            return ("L", m)
        for kind, deg in central.items():
            if deg == m:
                return (kind,)
        return None

    # Equations c_a * lam_t == c_b * lam_a * lam_b, one per basis target.
    equations = []
    for a in idxs:
        for b in idxs:
            ma, mb = index_map(a), index_map(b)
            if not (alg_b.in_domain(*ma) and alg_b.in_domain(*mb)):
                continue
            ea = alg_a.basis_bracket(a, b)
            eb = alg_b.basis_bracket(ma, mb)
            lhs = {}
            for basis, coeff in ea.terms.items():
                if basis.kind != "L":
                    raise ValueError("A-side central terms are not supported")
                key = resolve(basis.index)
                if key is None:
                    return None  # A term has no image at all
                lhs[key] = (basis.index, coeff)
            rhs = {}
            for basis, coeff in eb.terms.items():
                key = ("L", basis.index) if basis.kind == "L" else (basis.kind,)
                rhs[key] = coeff
            for key in set(lhs) | set(rhs):
                t, ca = lhs.get(key, (None, Fraction(0)))
                cb = rhs.get(key, Fraction(0))
                if ca == 0 and cb == 0:
                    continue
                if ca == 0 or cb == 0:
                    return None  # would force some scalar to zero
                if t not in idx_set:
                    continue  # target scalar outside the window: no constraint
                equations.append((t, ca, (a, b), cb))
    return propagate_scalars(idxs, equations, [s for s in seeds if s in idx_set])
