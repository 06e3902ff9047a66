"""Coefficient recurrence solving and the constraint-polynomial pipeline.

The central object is the three-term recurrence

    (-alpha + i + betam1*k) c_{i+k,j} + (alpha + j + beta1*k) c_{i,j+k}
        = (i + j - k) c_{i,j},

normalized by c_{0,0} = 2*alpha, together with the degree-4/degree-6
constraint polynomials in (beta1, betam1) whose rational roots force the
four-way case split, and the homogeneous d'-system whose only solution is
zero (the impossibility step for beta1 = 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linsolve import LinearSystem
from .poly import MultiPoly, UsageError, accumulate, format_rational, proportionality, rational_root_scan, symbol

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
    "k_coefficient_comparison",
]


def _param(value):
    if isinstance(value, MultiPoly):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class ClassificationParams:
    alpha: Fraction | MultiPoly
    beta1: Fraction | MultiPoly
    betam1: Fraction | MultiPoly

    def __post_init__(self):
        for name in ("alpha", "beta1", "betam1"):
            object.__setattr__(self, name, _param(getattr(self, name)))
        if isinstance(self.alpha, Fraction) and self.alpha == 0:
            raise ValueError("alpha must be nonzero when numeric")

    def is_numeric(self):
        return all(
            isinstance(getattr(self, n), Fraction)
            for n in ("alpha", "beta1", "betam1")
        )


def _guard_literal(p, i, j, k):
    """The per-equation side condition, read as printed.

    Each half is discharged by the normalization parameter lying outside
    {0, 1} (tested first: it is cheap and almost always true) or by the
    factor pair being nonzero; symbolic parameters make it vacuous.
    """
    if not p.is_numeric():
        return True
    left = p.betam1 not in (0, 1) or (i - p.alpha) * (i + k - p.alpha) != 0
    right = p.beta1 not in (0, 1) or (j + p.alpha) * (j + k + p.alpha) != 0
    return left and right


def recurrence_equation(p, i, j, k):
    """One instance of the recurrence as unknown -> coefficient, plus guard.

    The relation is returned moved to one side (= 0).  A violated side
    condition sets ``skipped`` instead of raising.
    """
    coeffs = accumulate({}, [
        ((i + k, j), -p.alpha + i + p.betam1 * k),
        ((i, j + k), p.alpha + j + p.beta1 * k),
        ((i, j), -Fraction(i + j - k)),
    ])
    return {
        "coeffs": coeffs,
        "skipped": not _guard_literal(p, i, j, k),
    }


@dataclass
class WindowSolution:
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


def solve_c_window(p, window):
    """Exact window solve of the recurrence with c_{0,0} = 2*alpha.

    Equations range over |i|,|j|,|k| <= window with all referenced unknowns
    inside the window, admitted under the side condition read as printed
    (``_guard_literal``; skips are counted).  The uniqueness flag holds when
    every unpinned unknown lies on the window boundary.

    On an inconsistent system the certificate names a contradicting
    equation subset; values and undetermined unknowns then describe the
    maximal consistent subsystem met in sweep order (the closed forms the
    system pins down before the contradiction surfaces).
    """
    if not p.is_numeric():
        raise UsageError("window solving needs numeric parameters")
    if window < 2:
        raise UsageError("window must be >= 2")
    rng = range(-window, window + 1)
    unknowns = [(i, j) for i in rng for j in rng]
    system = LinearSystem()
    system.add_equation({(0, 0): Fraction(1)}, 2 * p.alpha, ("norm",))
    skipped = 0
    certificate = None
    # Instances are added in derivation tiers: the origin and matched-index
    # instances that pin the even axis/diagonal closed forms come first,
    # then remaining axis instances, then the general sweep.  For a
    # consistent system the order is irrelevant; for an inconsistent one it
    # makes the reported prefix values canonical.
    triples = []
    for i in rng:
        for j in rng:
            for k in rng:
                if abs(i + k) > window or abs(j + k) > window:
                    continue
                eq = recurrence_equation(p, i, j, k)
                if eq["skipped"]:
                    skipped += 1
                    continue
                if i == 0 and j == 0:
                    tier = 0
                elif (i == 0 and j == k) or (j == 0 and i == k):
                    tier = 1
                elif i == 0 or j == 0:
                    tier = 2
                else:
                    tier = 3
                triples.append((tier, abs(i) + abs(j) + abs(k), i, j, k, eq["coeffs"]))
    triples.sort(key=lambda t: t[:5])
    for _, _, i, j, k, coeffs in triples:
        if not coeffs:
            continue
        ok = system.add_equation(coeffs, 0, ("eq", i, j, k))
        if not ok and certificate is None:
            certificate = [list(t) for t in system.certificate_tags()]
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
    alpha, beta = Fraction(alpha), Fraction(beta)

    def c(i, j):
        return 2 * alpha + (beta - 1) * i + (beta + 1) * j

    return c


def closed_form_equal_params(alpha, beta1, k):
    """(c_{0,2k}, c_{2k,0}) in the beta1 = betam1 case."""
    alpha, beta1, k = Fraction(alpha), Fraction(beta1), Fraction(k)
    den = alpha**2 - 2 * beta1**2 * (1 + beta1) * k**2
    if den == 0:
        raise UsageError("degenerate denominator in closed form")
    c0 = 2 * alpha * (-alpha + beta1 * k) * (-alpha + (1 + beta1) * k) / den
    c1 = 2 * alpha * (alpha + beta1 * k) * (alpha + (1 + beta1) * k) / den
    return c0, c1


def closed_form_opposite_params(alpha, beta1, k):
    """(c_{0,2k}, c_{2k,0}, c_{2k,2k}) in the beta1 = -betam1 case."""
    alpha, beta1, k = Fraction(alpha), Fraction(beta1), Fraction(k)
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

    Derived from the constraint polynomials themselves: the i^6 coefficient
    factors into the four relation factors (times beta1^2 betam1^2), and
    the i^4 coefficient's rational roots at betam1 = 0, minus those already
    implied by a generic relation, give the exceptional pairs.
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


def k_coefficient_comparison():
    """Both sides of the d'-relation as polynomials; their k-coefficients.

    Returns ((lhs, lhs_k), (rhs, rhs_k)) with placeholder symbols d and d0
    for d'_{i,j} and d'_{0,i+j}; equal k-coefficients force d = d0.
    """
    alpha, i, j, k = symbol("alpha"), symbol("i"), symbol("j"), symbol("k")
    d, d0 = symbol("d"), symbol("d0")
    lhs = d * (4 * alpha - 7 * i - 7 * j - k)
    rhs = d0 * (4 * alpha + 9 * i - 7 * j - k)
    return (lhs, lhs.coefficient_of("k", 1)), (rhs, rhs.coefficient_of("k", 1))


def check_impossibility(alpha, window):
    """Certify that the homogeneous d'-system only has the zero solution.

    Unknowns d'_{i,j} over the window; one equation per (i, j, k) triple.
    A nonzero solution would be a counterexample and is returned as such;
    otherwise the certificate reports full rank.
    """
    alpha = Fraction(alpha)
    if window < 2:
        raise UsageError("window must be >= 2")
    rng = range(-window, window + 1)
    # |i+j| <= window keeps the coupled unknown d'_{0,i+j} inside the set
    unknowns = [(i, j) for i in rng for j in rng if abs(i + j) <= window]
    system = LinearSystem()
    for i, j in unknowns:
        for k in rng:
            coeffs = accumulate({}, [
                ((i, j), 4 * alpha - 7 * i - 7 * j - k),
                ((0, i + j), -(4 * alpha + 9 * i - 7 * j - k)),
            ])
            if coeffs:
                system.add_equation(coeffs, 0, ("eq", i, j, k))
    rank = system.rank()
    if rank == len(unknowns):
        return {"only_zero": True, "rank": rank, "unknowns": len(unknowns)}
    # produce an explicit nonzero solution
    free = [u for u in unknowns if u not in system.pivots]
    assign = {u: Fraction(0) for u in unknowns}
    assign[free[0]] = Fraction(1)
    for var, (row, const, _) in system.pivots.items():
        assign[var] = const - sum(c * assign[v] for v, c in row.items())
    return {
        "only_zero": False,
        "rank": rank,
        "unknowns": len(unknowns),
        "counterexample": {f"{i},{j}": format_rational(v) for (i, j), v in assign.items() if v},
    }
