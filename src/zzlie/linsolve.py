"""Exact solving over the rationals: linear systems and scalar propagation.

``LinearSystem`` keeps its pivots fraction-free, in reduced row echelon
form.  A pivot is an int row ``lead*x + sum(row[v]*v) = const`` with a
positive lead, divided by the gcd of its entries.  Elimination and
back-substitution share one step, ``_cancel``, which cross-multiplies (or
divides exactly, when a lead divides the factor); the gcd is divided out of
every row installed or updated, so no ``Fraction`` is built per row or per
step.  Rational input rows are scaled to ints once, on entry, with
``poly.integer_scaled``; solved values are ``Fraction(const, lead)``.
Every row added to the system carries an opaque tag, and the system
remembers the rows that raised its rank.  Elimination tracks no provenance:
at the first contradiction one transposed solve over those rows finds the
combination that produces the contradicting row, and its tags form a minimal
certificate of equations with no common solution.

``propagate_scalars`` solves the multiplicative systems behind the diagonal
isomorphism and intertwiner searches: one worklist pass from unit seeds,
then a check of every equation.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, prod

from .poly import accumulate, integer_scaled

__all__ = ["LinearSystem"]


def _integer_row(coeffs, const):
    """The row ``coeffs`` = ``const`` times the LCM of its denominators, as ints."""
    values = [*coeffs.values(), const]
    if all(type(c) is int for c in values):
        return dict(coeffs), const
    _, scaled = integer_scaled(values)
    return dict(zip(coeffs, scaled)), scaled[-1]


def _primitive(row, const, lead):
    """The pivot (row, const, lead) divided by the gcd of its entries."""
    g = gcd(lead, const, *row.values())
    if g == 1:
        return row, const, lead
    return {v: c // g for v, c in row.items()}, const // g, lead // g


def _cancel(row, const, lead, var, pivot):
    """Cancel ``var`` from the int row lead*x + row = const with ``var``'s pivot.

    Cross-multiplies, or divides exactly when the pivot's lead divides the
    factor.  ``row`` must mention ``var``, and is taken over.
    """
    factor = row.pop(var)
    prow, pconst, plead = pivot
    if factor % plead:
        row = {v: c * plead for v, c in row.items()}
        const *= plead
        lead *= plead
    else:
        factor //= plead
    accumulate(row, prow.items(), -factor)
    return row, const - factor * pconst, lead


class LinearSystem:
    """Incremental fraction-free reduced row echelon form with a certificate.

    ``pivots`` maps each pivot unknown x to (row, const, lead): ints with
    lead*x + sum(row[v]*v) = const, lead > 0 and the gcd of all entries 1,
    where no row mentions another pivot unknown.  Rows may be given with int
    or ``Fraction`` coefficients; they are scaled to int rows once.

    The rows that raised the rank are linearly independent, so a
    contradicting row is a unique combination of them plus a nonzero
    constant.  Its certificate is the new row's tag with the tags of the
    rows that combination uses; dropping any member leaves an independent,
    hence consistent, set, so the certificate is minimal.
    """

    def __init__(self):
        self.pivots = {}  # unknown -> (row, const, lead)
        self._installed = []  # (coeffs, tag) of each row that raised the rank
        self.contradiction = None  # tag combination of the first inconsistent row

    def _eliminate(self, coeffs, const):
        """Reduce the int row ``coeffs`` (taken over) and install what is left.

        Returns None once the row is installed as a new pivot; otherwise the
        row reduced to 0 = c and c is returned (zero for a redundant row).
        """
        pivots = self.pivots
        for var in list(coeffs):
            piv = pivots.get(var)
            if piv is not None:
                coeffs, const, _ = _cancel(coeffs, const, 1, var, piv)
        if not coeffs:
            return const
        var = min(coeffs)  # deterministic pivot choice
        lead = coeffs.pop(var)
        if lead < 0:
            coeffs = {v: -c for v, c in coeffs.items()}
            const, lead = -const, -lead
        pivot = _primitive(coeffs, const, lead)
        # back-substitute into existing pivot rows
        for pvar, old in pivots.items():
            if var in old[0]:
                pivots[pvar] = _primitive(*_cancel(*old, var, pivot))
        pivots[var] = pivot
        return None

    def _combination(self, coeffs, tag):
        """Tag combination of the contradicting row ``coeffs`` tagged ``tag``.

        Solves sum_t y_t * row_t = coeffs over the installed rows (unique, as
        they are independent); the row minus that sum reads 0 = nonzero.
        """
        columns = defaultdict(dict)
        for t, (row, _) in enumerate(self._installed):
            for var, c in row.items():
                columns[var][t] = c
        dual = LinearSystem()
        for var, column in columns.items():
            dual._eliminate(*_integer_row(column, coeffs.get(var, 0)))
        y = dual.solved_values()
        return accumulate(
            {tag: Fraction(1)}, ((self._installed[t][1], -y_t) for t, y_t in y.items())
        )

    def add_equation(self, coeffs, const, tag):
        """Add sum(coeffs[v]*v) = const; returns False on contradiction.

        A contradictory row is not installed; the first one is remembered
        (certificate) and the rest of the system stays usable.
        """
        clean = {v: c for v, c in coeffs.items() if c}
        residue = self._eliminate(*_integer_row(clean, const))
        if residue is None:
            self._installed.append((clean, tag))
            return True
        if not residue:
            return True
        if self.contradiction is None:
            self.contradiction = self._combination(clean, tag)
        return False

    def solved_values(self):
        return {
            var: Fraction(const, lead)
            for var, (row, const, lead) in self.pivots.items()
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
        """Tags of a minimal inconsistent equation subset, or None if consistent."""
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
