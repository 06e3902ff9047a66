"""Exact solving over the rationals: linear systems and scalar propagation.

``LinearSystem`` keeps rows as sparse maps unknown -> Fraction with a
constant term.  Every row added to the system carries an opaque tag; reduced
rows remember which tags combined into them, so a contradiction yields a
certificate naming the original equations with no common solution.

``propagate_scalars`` solves the multiplicative systems behind the diagonal
isomorphism and intertwiner searches: one worklist pass from unit seeds,
then a check of every equation.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import prod

from .poly import accumulate

__all__ = ["LinearSystem"]


class LinearSystem:
    """Incremental reduced row echelon form with provenance tracking."""

    def __init__(self):
        # pivot unknown -> (row coeffs, constant, tag combination)
        self.pivots = {}
        self.contradiction = None  # tag combination of an inconsistent row

    def _reduce(self, coeffs, const, combo):
        coeffs = dict(coeffs)
        combo = dict(combo)
        for var in list(coeffs):
            piv = self.pivots.get(var)
            if piv is None:
                continue
            factor = coeffs.pop(var)
            prow, pconst, pcombo = piv
            accumulate(coeffs, prow.items(), -factor)
            const -= factor * pconst
            accumulate(combo, pcombo.items(), -factor)
        return coeffs, const, combo

    def add_equation(self, coeffs, const, tag):
        """Add sum(coeffs[v]*v) = const; returns False on contradiction.

        A contradictory row is remembered (certificate) and not installed;
        the rest of the system stays usable.
        """
        clean = {v: Fraction(c) for v, c in coeffs.items() if c}
        coeffs, const, combo = self._reduce(clean, Fraction(const), {tag: Fraction(1)})
        if not coeffs:
            if const:
                if self.contradiction is None:
                    self.contradiction = combo
                return False
            return True
        var = min(coeffs)  # deterministic pivot choice
        lead = coeffs.pop(var)
        row = {v: c / lead for v, c in coeffs.items()}
        const = const / lead
        combo = {t: c / lead for t, c in combo.items()}
        # back-substitute into existing pivot rows
        for pvar, (prow, pconst, pcombo) in self.pivots.items():
            factor = prow.get(var)
            if not factor:
                continue
            prow.pop(var)
            accumulate(prow, row.items(), -factor)
            accumulate(pcombo, combo.items(), -factor)
            self.pivots[pvar] = (prow, pconst - factor * const, pcombo)
        self.pivots[var] = (row, const, combo)
        return True

    def solved_values(self):
        return {
            var: const
            for var, (row, const, _) in self.pivots.items()
            if not row
        }

    def undetermined(self, unknowns):
        """Unknowns not pinned to a single value by the current system."""
        return sorted(
            v for v in unknowns
            if v not in self.pivots or self.pivots[v][0]
        )

    def rank(self):
        return len(self.pivots)

    def certificate_tags(self):
        """Tags of an inconsistent equation subset, or None if consistent."""
        if self.contradiction is None:
            return None
        return sorted(self.contradiction, key=repr)


def propagate_scalars(unknowns, equations, seeds):
    """Nonzero scalars x with c_lhs * x[t] == c_rhs * prod(x[s] for s in sources).

    ``equations`` holds (t, c_lhs, sources, c_rhs) tuples with nonzero
    coefficients.  Starting from x = 1 on ``seeds``, an equation fixes an
    unknown once that unknown is its only unset occurrence; a repeated
    occurrence (t among the sources, a squared source) is never solved for.
    Unknowns never reached get the gauge value 1.  Every equation is then
    checked, so a returned map (unknown -> Fraction, in ``unknowns`` order)
    is a genuine solution; None means the equations force a contradiction.
    """
    x = {s: Fraction(1) for s in seeds}
    by_unknown = defaultdict(list)
    for eq in equations:
        for u in {eq[0], *eq[2]}:
            by_unknown[u].append(eq)
    work = list(x)
    while work:
        for t, c_lhs, sources, c_rhs in by_unknown[work.pop()]:
            unset = [u for u in (t, *sources) if u not in x]
            if len(unset) != 1:
                continue
            u = unset[0]
            if u == t:
                x[u] = c_rhs * prod(x[s] for s in sources) / c_lhs
            else:
                x[u] = c_lhs * x[t] / (c_rhs * prod(x[s] for s in sources if s != u))
            work.append(u)
    values = {u: x.get(u, Fraction(1)) for u in unknowns}
    for t, c_lhs, sources, c_rhs in equations:
        if c_lhs * values[t] != c_rhs * prod(values[s] for s in sources):
            return None
    return values
