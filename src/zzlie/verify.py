"""Windowed and symbolic verification of the defining identities.

The windowed checks sweep every basis pair/triple with |i|, |j| <= W and
compare exactly; a check "passes" iff its report carries no witnesses.  Every
windowed check runs through ``ViolationReport.sweep``, which collects the
witnesses in sweep order and stops at ``MAX_WITNESSES`` (20) of them.  The
diagonal-isomorphism search turns the window's brackets into multiplicative
equations and solves them with ``propagate_scalars`` from the unit seeds
(1, 0) and (0, 1).

The symbolic checks expand the Jacobi sum with all index components and
parameters as polynomial symbols, proving the identity for every value at
once.  They run the kernel's rule ``algebras._closed_form`` with symbolic
weights: ``vir``, ``d``, the block families' generic region and, as
D(alpha, -1), the c/cbar generic region.  The c/cbar factorial regions (a
falling factorial of symbolic length) and the block families' punctures,
half-planes and central terms remain window-checked.

An algebra here is anything with three methods: ``in_domain(i, j)``,
``bracket_terms(a, b)`` returning the bracket as raw ``(key, coeff)`` terms
(key ``(i, j)`` for L, "C1"/"C2" for a central generator), and
``central_degrees()`` mapping each present central generator to its degree.
``AlgebraSpec`` and ``QuotientC`` both provide them.

The Jacobi kernel evaluates every bracket of the sweep once and scales all
coefficients with ``poly.integer_scaled``: a rational c becomes the int c·D,
D the LCM of the rational denominators, and a ``MultiPoly`` (symbolic
central parameters) is multiplied by D.  A triple's cyclic sum is then a sum
of int (or exact polynomial) products; the triple fails iff it is nonzero,
and the witness carries the true coefficient sum / D².
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import combinations_with_replacement, product

from .algebras import AlgebraSpec, BasisElement, Element, _closed_form, window_indices
from .linsolve import propagate_scalars
from .poly import accumulate, integer_scaled, symbol

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

MAX_WITNESSES = 20


@dataclass
class ViolationReport:
    check: str
    checked_count: int
    witnesses: list = field(default_factory=list)

    @classmethod
    def sweep(cls, check, cases, defect):
        """Run ``defect(*case)`` over ``cases`` in order and report what it finds.

        ``defect`` returns the witness details of one case (empty when the
        case passes); each detail becomes one witness at that case.  The
        sweep stops once ``MAX_WITNESSES`` witnesses are collected, and
        ``checked_count`` is the number of cases run up to then.
        """
        witnesses = []
        count = 0
        for count, case in enumerate(cases, 1):
            for detail in defect(*case):
                witnesses.append((case, detail))
                if len(witnesses) == MAX_WITNESSES:
                    return cls(check, count, witnesses)
        return cls(check, count, witnesses)

    @property
    def ok(self):
        return not self.witnesses

    def to_json(self):
        return {
            "check": self.check,
            "checked_count": self.checked_count,
            "witnesses": [
                {
                    # algebra witnesses sit at index pairs, module witnesses at ints
                    "at": [list(t) if isinstance(t, tuple) else t for t in at],
                    "detail": repr(detail),
                }
                for at, detail in self.witnesses
            ],
        }


def check_antisymmetry(alg, window):
    """Witness every ordered pair with [a,b] != -[b,a]."""
    idxs = window_indices(alg, window)
    bb = cache(alg.bracket_terms)

    def defect(a, b):
        bad = accumulate(dict(bb(a, b)), bb(b, a))
        return (Element.from_terms(bad.items()),) if bad else ()

    return ViolationReport.sweep("antisymmetry", product(idxs, repeat=2), defect)


def check_jacobi(alg, window):
    """Sweep unordered basis triples; witness each nonzero cyclic sum.

    Runs the integer-scaled kernel of the module docstring.  With symbolic
    central parameters a triple passes only if its sum is the zero
    polynomial, which certifies the cocycle identity for every parameter
    value at once.
    """
    idxs = window_indices(alg, window)
    pairs = list(product(idxs, repeat=2))
    brackets = {pair: alg.bracket_terms(*pair) for pair in pairs}
    # Only the in-domain L terms of a window bracket are bracketed again.
    targets = {
        key
        for terms in brackets.values()
        for key, _ in terms
        if not isinstance(key, str) and alg.in_domain(*key)
    }
    for pair in product(targets, idxs):
        if pair not in brackets:
            brackets[pair] = alg.bracket_terms(*pair)
    d, scaled = integer_scaled([c for terms in brackets.values() for _, c in terms])
    scaled = iter(scaled)
    brackets = {p: tuple((key, next(scaled)) for key, _ in terms) for p, terms in brackets.items()}
    outer = {pair: [(t, c) for t, c in brackets[pair] if t in targets] for pair in pairs}

    def unscaled(s):
        return Fraction(s, d * d) if isinstance(s, int) else s * Fraction(1, d * d)

    def defect(a, b, c):
        acc = {}
        for terms, w in ((outer[a, b], c), (outer[b, c], a), (outer[c, a], b)):
            for t, coeff in terms:
                accumulate(acc, brackets[t, w], coeff)
        if not acc:
            return ()
        witness = Element.from_terms((key, unscaled(s)) for key, s in acc.items())
        return (witness,)

    cases = combinations_with_replacement(idxs, 3)
    return ViolationReport.sweep("jacobi", cases, defect)


def check_grading(alg, window):
    """Every L term must sit at the index sum; central terms at their degree."""
    idxs = window_indices(alg, window)
    central = alg.central_degrees()

    def defect(a, b):
        total = (a[0] + b[0], a[1] + b[1])
        return [
            BasisElement.of(key)
            for key, _ in alg.bracket_terms(a, b)
            if (central.get(key) if isinstance(key, str) else key) != total
        ]

    return ViolationReport.sweep("grading", product(idxs, repeat=2), defect)


# -- symbolic Jacobi ---------------------------------------------------------


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


def symbolic_jacobi_D():
    """Jacobi for the uniform two-parameter family, all eight symbols free."""
    return symbolic_jacobi(partial(_closed_form, (symbol("beta"), symbol("alpha"), 1)))


def symbolic_jacobi_vir():
    """The beta = 0 specialization."""
    return symbolic_jacobi(partial(_closed_form, (0, symbol("alpha"), 1)))


def symbolic_jacobi_block():
    """The determinant-form structure constant on its generic region."""
    return symbolic_jacobi(partial(_closed_form, (1, symbol("alpha"), symbol("beta"))))


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

    def bracket_terms(self, a, b):
        # the c family has no central generators: every key is an index pair
        terms = self.upstairs.bracket_terms(a, b)
        return tuple((key, c) for key, c in terms if key[1] > -2)

    def basis_bracket(self, a, b):
        return Element.from_terms(self.bracket_terms(a, b))


def find_diagonal_isomorphism(alg_a, alg_b, index_map, window):
    """Nonzero scalars lambda_idx making rescaled brackets of A match B.

    ``index_map`` must be an additive bijection on the window (grading
    compatible); A-side basis indices whose image is not a B basis index may
    land on a B central generator of matching degree.  Returns the witness
    map (A index -> scalar) or None.  A-side central terms raise
    ``ValueError``, before any other outcome for the same pair.

    The scalars are found by ``propagate_scalars`` from the unit seeds
    (1, 0) and (0, 1) (the residual gauge freedom of a diagonal rescaling),
    which verifies every window equation, so a returned witness is always
    genuine.
    """
    idxs = window_indices(alg_a, window)
    idx_set = set(idxs)
    central = {deg: kind for kind, deg in alg_b.central_degrees().items()}

    def image(t):
        m = index_map(t)
        return m if alg_b.in_domain(*m) else central.get(m)

    # Equations c_a * lam_t == c_b * lam_a * lam_b, one per basis target.
    equations = []
    for a, b in product(idxs, repeat=2):
        ma, mb = index_map(a), index_map(b)
        if not (alg_b.in_domain(*ma) and alg_b.in_domain(*mb)):
            continue
        ea = alg_a.bracket_terms(a, b)
        if any(isinstance(key, str) for key, _ in ea):
            raise ValueError("A-side central terms are not supported")
        eb = dict(alg_b.bracket_terms(ma, mb))
        for t, ca in ea:
            cb = eb.pop(image(t), None)
            if cb is None:
                return None  # an A term without a B image: its scalar would vanish
            if t in idx_set:  # else the target scalar is unconstrained
                equations.append((t, ca, (a, b), cb))
        if eb:
            return None  # a B term without an A preimage forces a zero scalar
    return propagate_scalars(idxs, equations, [s for s in ((1, 0), (0, 1)) if s in idx_set])
