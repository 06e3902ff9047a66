"""Coefficient recurrence solving and the constraint-polynomial pipeline.

The central object is the three-term recurrence

    (-alpha + i + betam1*k) c_{i+k,j} + (alpha + j + beta1*k) c_{i,j+k}
        = (i + j - k) c_{i,j},

normalized by c_{0,0} = 2*alpha, together with the degree-4/degree-6
constraint polynomials in (beta1, betam1) whose rational roots force the
four-way case split, and the homogeneous d'-system whose only solution is
zero (the impossibility step for beta1 = 1/2), certified by the rank of its
window system (``check_impossibility``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .algebras import window_range
from .linsolve import LinearSystem
from .poly import (
    MultiPoly,
    UsageError,
    exact_number,
    exact_value,
    format_rational,
    integer_scaled,
    proportionality,
    rational_root_scan,
    symbol,
)

__all__ = [
    "ClassificationParams",
    "recurrence_equation",
    "solve_c_window",
    "WindowSolution",
    "closed_form_uniform",
    "closed_form_equal_params",
    "closed_form_opposite_params",
    "derive_constraint_polys",
    "enumerate_case_split",
    "check_impossibility",
]


@dataclass(frozen=True)
class ClassificationParams:
    """The recurrence parameters, each a Fraction or a MultiPoly (``exact_value``).

    ``integer_scaled`` of (alpha, beta1, betam1) is computed once and kept
    outside the dataclass fields (``_den``, ``_nums``), so equality,
    hashing and ``repr`` see only the parameters.  ``_numeric``, set there
    too, is true iff all three numerators are ints (no parameter is a
    MultiPoly); every numericness test reads it, and ``_guarded`` (numeric,
    beta1 or betam1 in {0, 1}) says whether the side condition can fail.
    """

    alpha: Fraction | MultiPoly
    beta1: Fraction | MultiPoly
    betam1: Fraction | MultiPoly

    def __post_init__(self):
        for name in ("alpha", "beta1", "betam1"):
            object.__setattr__(self, name, exact_value(getattr(self, name), name))
        if isinstance(self.alpha, Fraction) and self.alpha == 0:
            raise ValueError("alpha must be nonzero when numeric")
        den, nums = integer_scaled([self.alpha, self.beta1, self.betam1])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_numeric", all(type(n) is int for n in nums))
        object.__setattr__(self, "_guarded", self._numeric and not {0, den}.isdisjoint(nums[1:]))


def _guard_literal(p, i, j, k):
    """The per-equation side condition, read as printed, for a ``_guarded`` p.

    Each half is discharged by the normalization parameter lying outside
    {0, 1} (tested first) or by the factor pair being nonzero; it is vacuous
    unless ``_guarded``.  Both run on the int numerators over the common D.
    """
    d, (a, b1, bm1) = p._den, p._nums
    left = bm1 not in (0, d) or (d * i - a) * (d * (i + k) - a) != 0
    right = b1 not in (0, d) or (d * j + a) * (d * (j + k) + a) != 0
    return left and right


def _terms(p, i, j, k):
    """Instance (i, j, k), k != 0, as its unknowns and coefficients (u1, c1, u2, c2, u3, c3).

    The relation moved to one side (= 0) and multiplied by D, as
    ``recurrence_equation`` describes, zeros included; the three unknowns
    are distinct.
    """
    d, (a, b1, bm1) = p._den, p._nums
    return ((i + k, j), -a + d * i + bm1 * k, (i, j + k), a + d * j + b1 * k,
            (i, j), -d * (i + j - k))


def recurrence_equation(p, i, j, k):
    """One instance of the recurrence as unknown -> coefficient, plus guard.

    The relation is returned moved to one side (= 0) and multiplied by D,
    the common denominator of alpha, beta1 and betam1 (a symbolic
    parameter's coefficients included); as it is homogeneous the scaling
    changes no solution.  Every coefficient is an int, or a polynomial with
    integral coefficients when a parameter is symbolic, and no coefficient
    is zero.  At k = 0 the three unknowns are c_{i,j} and the coefficients
    cancel identically, (-a + D i) + (a + D j) - D (i + j) = 0, so the row
    is empty; for k != 0 the unknowns c_{i+k,j}, c_{i,j+k} and c_{i,j} are
    distinct, and each nonzero coefficient is written as it is (``_terms``).
    A violated side condition sets ``skipped`` instead of raising, k = 0
    included.
    """
    skipped = p._guarded and not _guard_literal(p, i, j, k)
    t = _terms(p, i, j, k) if k else ()
    return {"coeffs": {u: c for u, c in zip(t[::2], t[1::2]) if c}, "skipped": skipped}


@dataclass
class WindowSolution:
    """The result of one window solve (``solve_c_window``).

    - ``values``: unknown (i, j) -> Fraction for each unknown the system
      pins to one value.  On an infeasible system these are prefix values:
      the rows are added in sweep order and a row that contradicts those
      before it is left out, so they are the values of the maximal
      consistent subsystem met in that order.
    - ``undetermined``: the sorted window unknowns not pinned to one value.
    - ``unique``: the system is feasible and every undetermined unknown
      lies on the window boundary.
    - ``skipped``: the instances whose side condition fails as printed,
      k = 0 instances included (their rows are empty).
    - ``infeasible``: the rows admit no common solution.
    - ``certificate``: the tags of a minimal contradicting row subset (the
      first met in sweep order), or None when feasible.
    - ``notes``: warnings about the parameters, such as an integral alpha
      with a normalization parameter in {0, 1}.
    """

    values: dict
    undetermined: list
    unique: bool
    skipped: int
    infeasible: bool
    certificate: list | None
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "values": {
                f"{i},{j}": format_rational(v) for (i, j), v in sorted(self.values.items())
            },
            "undetermined": [list(t) for t in self.undetermined],
            "unique": self.unique,
            "skipped_equations": self.skipped,
            "infeasible": self.infeasible,
            "certificate": self.certificate,
            "notes": self.notes,
        }


@cache
def _sweep_order(window):
    """The window's (i, j, k) instances in sweep order, as one tuple.

    Every (i, j, k) with |i|, |j|, |k| <= window whose unknowns lie in the
    window, sorted by (tier, |i| + |j| + |k|, i, j, k).  The tiers are
    derivation tiers: 0 for the origin instances (i = j = 0), 1 for the
    matched-index instances that pin the even axis and diagonal closed
    forms, 2 for the remaining axis instances and 3 for the general sweep.
    The order depends on the window alone.
    """
    rng = window_range(window)

    def key(t):
        i, j, k = t
        if i == 0 and j == 0:
            tier = 0
        elif (i == 0 and j == k) or (j == 0 and i == k):
            tier = 1
        elif i == 0 or j == 0:
            tier = 2
        else:
            tier = 3
        return tier, abs(i) + abs(j) + abs(k), i, j, k

    return tuple(sorted(
        ((i, j, k) for i in rng for j in rng for k in rng
         if abs(i + k) <= window and abs(j + k) <= window),
        key=key,
    ))


def solve_c_window(p, window):
    """Exact window solve of the recurrence with c_{0,0} = 2*alpha.

    Equations range over |i|,|j|,|k| <= window with all referenced unknowns
    inside the window, admitted under the side condition read as printed
    (``_guard_literal``; skips are counted).  The uniqueness flag holds when
    every unpinned unknown lies on the window boundary.

    The instances are walked in the sweep order of ``_sweep_order``,
    computed once per window.  The guard is tested only when the point is
    ``_guarded``.  Each admitted k != 0 instance is read as its unknowns
    and coefficients (``_terms``, the formula ``recurrence_equation`` also
    reads) and put to ``LinearSystem.settled`` first; a row over solved
    unknowns that changes nothing (most rows of a W=6 solve) is never
    built.  Any other instance is added at once as its three (unknown,
    coefficient) pairs, zeros included (an all-zero row changes nothing);
    the empty k = 0 rows are not added.  For a consistent system the
    order is irrelevant.  On an inconsistent system the certificate names a
    contradicting equation subset; values and undetermined unknowns then
    describe the maximal consistent subsystem met in sweep order (the
    closed forms the system pins down before the contradiction surfaces),
    so the order makes them canonical.
    """
    if not p._numeric:
        raise UsageError("window solving needs numeric parameters")
    rng = window_range(window, 2)
    unknowns = [(i, j) for i in rng for j in rng]
    system = LinearSystem()
    system.add_equation((((0, 0), p._den),), 2 * p._nums[0], ("norm",))
    skipped, guarded, settled = 0, p._guarded, system.settled
    for i, j, k in _sweep_order(window):
        if guarded and not _guard_literal(p, i, j, k):
            skipped += 1
        elif k and not settled(*(t := _terms(p, i, j, k))):
            system.add_equation(zip(t[::2], t[1::2]), 0, ("eq", i, j, k))
    # the system keeps only the first contradiction met in sweep order
    tags = system.certificate_tags()
    certificate = None if tags is None else [list(t) for t in tags]
    infeasible = certificate is not None
    values = system.solved_values()
    undetermined = system.undetermined(unknowns)
    boundary = lambda t: abs(t[0]) == window or abs(t[1]) == window
    unique = not infeasible and all(boundary(t) for t in undetermined)
    notes = []
    if p.alpha.denominator == 1 and (p.beta1 in (0, 1) or p.betam1 in (0, 1)):
        notes.append(
            "integral alpha with a normalization parameter in {0,1}: "
            "finitely many indices may evade the recurrence"
        )
    return WindowSolution(
        values=values,
        undetermined=undetermined,
        unique=unique,
        skipped=skipped,
        infeasible=infeasible,
        certificate=certificate,
        notes=notes,
    )


# -- closed forms -------------------------------------------------------------


def closed_form_uniform(alpha, beta):
    """c_{i,j} = 2*alpha + (beta-1)i + (beta+1)j (the beta1 = -2 - betam1 case,
    beta = beta1 + 1)."""
    alpha, beta = exact_number(alpha, "alpha"), exact_number(beta, "beta")

    def c(i, j):
        return 2 * alpha + (beta - 1) * i + (beta + 1) * j

    return c


def closed_form_equal_params(alpha, beta1, k):
    """(c_{0,2k}, c_{2k,0}) in the beta1 = betam1 case."""
    alpha, beta1, k = (exact_number(alpha, "alpha"), exact_number(beta1, "beta1"),
                       exact_number(k, "k"))
    den = alpha**2 - 2 * beta1**2 * (1 + beta1) * k**2
    if den == 0:
        raise UsageError("degenerate denominator in closed form")
    c0 = 2 * alpha * (-alpha + beta1 * k) * (-alpha + (1 + beta1) * k) / den
    c1 = 2 * alpha * (alpha + beta1 * k) * (alpha + (1 + beta1) * k) / den
    return c0, c1


def closed_form_opposite_params(alpha, beta1, k):
    """(c_{0,2k}, c_{2k,0}, c_{2k,2k}) in the beta1 = -betam1 case."""
    alpha, beta1, k = (exact_number(alpha, "alpha"), exact_number(beta1, "beta1"),
                       exact_number(k, "k"))
    d1 = alpha + 2 * beta1 * k
    d2 = alpha + 4 * beta1 * k
    if d1 == 0 or d2 == 0:
        raise UsageError("degenerate denominator in closed form")
    c0 = 2 * alpha * (alpha + (beta1 - 1) * k) / d1
    c1 = 2 * alpha * (alpha + (beta1 + 1) * k) / d1
    cd = 2 * alpha * (alpha + 2 * (beta1 - 1) * k) * (alpha + 2 * (beta1 + 1) * k) / (d1 * d2)
    return c0, c1, cd


# -- constraint polynomials ---------------------------------------------------


def _determinant_poly(alpha, b1, bm1, k):
    """The 2x2 determinant tying c_{0,2k} to the parameters."""
    a11 = (-alpha + bm1 * k) * (-alpha + (1 + bm1) * k)
    a12 = -(alpha + b1 * k) * (alpha + (1 + b1) * k)
    a21 = -alpha + 2 * bm1 * k
    a22 = alpha + 2 * b1 * k
    return a11 * a22 - a12 * a21


def derive_constraint_polys():
    """The i^4 (at betam1 = 0) and i^6 coefficients of the master constraint.

    The constraint combines the determinant at +-i with the symmetric
    difference relation; its top coefficients in i are the polynomials
    whose rational roots drive the case split.
    """
    alpha = symbol("alpha")
    b1 = symbol("beta1")
    bm1 = symbol("betam1")
    i = symbol("i")
    d_pos = _determinant_poly(alpha, b1, bm1, i)
    d_neg = _determinant_poly(alpha, b1, bm1, -i)
    lhs = (
        2 * (-alpha + bm1 * i) * (-alpha + (1 + bm1) * i) * (alpha + 2 * b1 * i) * d_neg
        + 2 * (alpha + bm1 * i) * (alpha + (1 + bm1) * i) * (alpha - 2 * b1 * i) * d_pos
        + ((bm1 - b1) * (bm1 + b1 - 1) - 2) * d_pos * d_neg
    )
    p4 = lhs.substitute({"betam1": Fraction(0)}).coefficient_of("i", 4)
    p6 = lhs.coefficient_of("i", 6)
    return {"p4": p4, "p6": p6, "master": lhs}


_CANDIDATES = [Fraction(n, 2) for n in range(-10, 11)]


def enumerate_case_split():
    """The four generic parameter relations plus the exceptional pairs.

    The four relation factors are written by hand, not derived: the i^6
    coefficient ``p6`` is checked, with ``proportionality``, to be a scalar
    multiple (``p6_scale``) of their product times beta1^2 betam1^2, and a
    ``UsageError`` is raised if it is not.  The exceptional pairs are
    derived from the constraint polynomials: the i^4 coefficient's rational
    roots at betam1 = 0, minus those already implied by a generic relation.
    """
    polys = derive_constraint_polys()
    b1 = symbol("beta1")
    bm1 = symbol("betam1")
    relation_factors = {
        "beta1 = betam1": b1 - bm1,
        "beta1 = -betam1": b1 + bm1,
        "beta1 = -1 - betam1": b1 + bm1 + 1,
        "beta1 = -2 - betam1": b1 + bm1 + 2,
    }
    product = b1**2 * bm1**2
    for factor in relation_factors.values():
        product = product * factor
    scale = proportionality(polys["p6"], product)
    if scale is None:
        raise UsageError("degree-6 coefficient does not factor as expected")
    relations = list(relation_factors)

    # roots of the degree-4 coefficient at betam1 = 0, alpha scaled out
    p4 = polys["p4"].substitute({"alpha": Fraction(1)})
    roots = rational_root_scan(p4, _CANDIDATES)
    generic_at_zero = set()
    for factor in relation_factors.values():
        f0 = factor.substitute({"betam1": Fraction(0)})
        generic_at_zero |= rational_root_scan(f0, _CANDIDATES)
    exceptional_b1 = sorted(roots - generic_at_zero - {Fraction(0)})
    pairs = [(v, Fraction(0)) for v in exceptional_b1]
    pairs += [(Fraction(0), v) for v in exceptional_b1]
    return {
        "relations": relations,
        "exceptional_pairs": sorted(pairs),
        "p4_roots": sorted(roots),
        "p6_scale": scale,
    }


# -- the d'-system impossibility ---------------------------------------------


def check_impossibility(alpha, window):
    """Certify that the homogeneous d'-system only has the zero solution.

    Unknowns d'_{i,j} over the window; one equation per (i, j, k) triple,
    A d'_{i,j} = B d'_{0,i+j} with A = 4 alpha - 7i - 7j - k and
    B = 4 alpha + 9i - 7j - k, so A - B = -16i.  Each row is built times
    the denominator of alpha, as ints.  For i != 0 two values
    k1 != k2 give the determinant 16i(k1 - k2) != 0, forcing
    d'_{i,j} = d'_{0,i+j} = 0; every d'_{0,s} is coupled to (1, s-1) or to
    (-1, s+1).  So the rank equals the number of unknowns for every alpha
    and every window >= 2, and ``only_zero`` reports that rank check.

    Only rows that raise the rank are built, as two (unknown, coefficient)
    pairs.  The i = 0 rows vanish (A = B), and a row whose unknowns are all
    solved is redundant: the system is homogeneous, so a solved unknown is
    0 and the row is a combination of the rows that solved it.  So the k
    rows of (i, j) stop once d'_{i,j} and d'_{0,i+j} are both solved, and a
    row is built only when an unsolved unknown has a nonzero coefficient: a
    one-unknown row (A or B zero at an integral 4 alpha) over a solved
    unknown never is.  Skipping them changes neither rank nor ``only_zero``.
    """
    den, (num,) = integer_scaled([exact_number(alpha, "alpha")])
    rng = window_range(window, 2)
    # |i+j| <= window keeps the coupled unknown d'_{0,i+j} inside the set
    unknowns = [(i, j) for i in rng for j in rng if abs(i + j) <= window]
    system = LinearSystem()
    for i, j in unknowns:
        if i == 0:  # A = B: every row is zero
            continue
        pair = u, v = (i, j), (0, i + j)
        for k in rng:
            unsolved = system.undetermined(pair)
            if not unsolved:
                break
            a = 4 * num - (7 * i + 7 * j + k) * den
            b = -(4 * num + (9 * i - 7 * j - k) * den)
            if a and u in unsolved or b and v in unsolved:
                system.add_equation(((u, a), (v, b)), 0, ("eq", i, j, k))
    rank = system.rank()
    return {"only_zero": rank == len(unknowns), "rank": rank, "unknowns": len(unknowns)}
