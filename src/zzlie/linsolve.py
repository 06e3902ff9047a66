"""Exact solving over the rationals: linear systems and scalar propagation.

``LinearSystem`` keeps its pivots fraction-free, in reduced row echelon
form.  A pivot is an int row ``lead*x + sum(row[v]*v) = const`` with a
positive lead, divided by the gcd of its entries.  Elimination and
back-substitution share one step, ``_cancel``, which cross-multiplies (or
divides exactly, when a lead divides the factor); the gcd is divided out of
every row installed or updated, so no ``Fraction`` is built per row or per
step.  Rows come in as ints (callers set their equations up over a common
denominator); solved values come out as ``Fraction(const, lead)``.
Work is done only where the system can change.  A row whose unknowns are
all solved (their pivot rows are empty) is decided by one int sum of
c*const/lead over a common denominator, read straight from the caller's
map: it is neither copied nor eliminated.  A new pivot
is back-substituted only into the open pivot rows (the non-empty ones),
since a solved row never changes again.

Every row added to the system carries an opaque tag, and the system
remembers the rows that raised its rank.  Elimination tracks no provenance:
at the first contradiction one transposed solve over those rows finds the
combination that produces the contradicting row, and its tags form a minimal
certificate of equations with no common solution.

``propagate_scalars`` solves the multiplicative systems behind the diagonal
isomorphism and intertwiner searches from unit seeds.  It decides each
equation when it examines it, in input order: it checks the equation,
solves it for its one unset unknown, or parks it on two unset unknowns
and examines it again when either is set.  Once every unknown is set, the
parked and unexamined equations are checked in one pass; else the parked
ones are checked under the gauge value 1.  The work is linear in the
occurrences of unknowns, and the order of the equations affects only its
speed.  Its coefficients are ints (the callers set
their equations up over the product of their denominators), each scalar is
kept as a reduced int pair (num, den), and the checks cross-multiply, so
the only ``Fraction`` built is one per unknown of the returned map.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd

from .poly import accumulate

__all__ = ["LinearSystem"]


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
    where no row mentions another pivot unknown.  Rows must have int
    coefficients and an int constant: scale a rational row over its common
    denominator first.

    A row over solved unknowns only is redundant or contradicting by one
    int sum; any other row is eliminated.  ``_open`` holds, in install
    order, the pivot unknowns whose row is not empty, and a new pivot is
    back-substituted into those alone: a row that empties leaves it, and a
    solved row never changes again.

    The rows that raised the rank are linearly independent, so a
    contradicting row is a unique combination of them plus a nonzero
    constant.  Its certificate is the new row's tag with the tags of the
    rows that combination uses; dropping any member leaves an independent,
    hence consistent, set, so the certificate is minimal.
    """

    def __init__(self):
        self.pivots = {}  # unknown -> (row, const, lead)
        self._open = {}  # pivot unknowns whose row is not empty, as dict keys
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
        # back-substitute into the open pivot rows; a solved row mentions nothing
        opened = self._open
        for pvar in [p for p in opened if var in pivots[p][0]]:
            pivots[pvar] = new = _primitive(*_cancel(*pivots[pvar], var, pivot))
            if not new[0]:
                del opened[pvar]
        pivots[var] = pivot
        if pivot[0]:
            opened[var] = None
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
            dual._eliminate(column, coeffs.get(var, 0))
        y = dual.solved_values()
        return accumulate(
            {tag: Fraction(1)}, ((self._installed[t][1], -y_t) for t, y_t in y.items())
        )

    def add_equation(self, coeffs, const, tag):
        """Add sum(coeffs[v]*v) = const; returns False on contradiction.

        ``coeffs`` maps unknowns to ints, zeros allowed, and ``const`` is an
        int; the caller's map is not changed.  A row over solved unknowns is
        decided from that map as it is; a copy without zeros is made only
        for a row that goes to elimination.  A contradictory row is not
        installed; the first one is remembered (certificate) and the rest of
        the system stays usable.
        """
        # While every unknown is solved, keep sum(c*const/lead) - const as
        # the int fraction residue/den; any other unknown needs elimination.
        pivots = self.pivots
        residue, den = -const, 1
        for var, c in coeffs.items():
            if not c:
                continue
            piv = pivots.get(var)
            if piv is None or piv[0]:
                clean = {v: c for v, c in coeffs.items() if c}
                residue = self._eliminate(dict(clean), const)
                if residue is None:
                    self._installed.append((clean, tag))
                    return True
                break
            residue = residue * piv[2] + c * piv[1] * den
            den *= piv[2]
        if not residue:
            return True
        if self.contradiction is None:
            # reads coeffs[v] only for installed unknowns; a zero reads as absent
            self.contradiction = self._combination(coeffs, tag)
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


def _holds(x, equation):
    """Whether c_lhs * x[t] == c_rhs * prod(x[s]), by cross-multiplying the (num, den) pairs."""
    t, c_lhs, sources, c_rhs = equation
    lhs, rhs = c_lhs * x[t][0], c_rhs * x[t][1]
    for s in sources:
        num, den = x[s]
        lhs *= den
        rhs *= num
    return lhs == rhs


def propagate_scalars(unknowns, equations, seeds):
    """Nonzero scalars x with c_lhs * x[t] == c_rhs * prod(x[s] for s in sources).

    ``equations`` holds (t, c_lhs, sources, c_rhs) tuples with nonzero int
    coefficients.  Starting from x = 1 on ``seeds``, each equation is
    decided when it is examined, in input order, by its unset occurrences:

    - none: it is checked by cross-multiplying;
    - one: it is solved for that unknown, so it holds by construction;
    - more: it is parked on two distinct unset unknowns (on the one, if a
      single unknown repeats) and examined again when either is set; it
      cannot come down to one unset occurrence before that.

    A repeated occurrence (t among the sources, a squared source) is never
    solved for, and an equation with no sources only checks its target.
    An equation is examined again at most once per distinct unknown it
    holds, so the work is linear in occurrences.  Once every member of
    ``unknowns`` is set (a seed outside it does not count), the equations
    parked or not yet examined are checked in one pass.  The unknowns
    reached are the closure of the one-unset-occurrence rule, and each is
    forced by the seeds, so the result does not depend on the order of
    ``equations``; the order affects only the speed, best when the
    equations that reach every unknown from the seeds come first.  Unknowns
    never reached get the gauge value 1, under which the equations still
    parked at the end are checked.  A scalar is held as a reduced int pair
    (num, den) with den > 0, reduced by one gcd when it is solved.  A
    returned map (unknown -> Fraction, in ``unknowns`` order) is a genuine
    solution; None means the equations force a contradiction.
    """
    x = {s: (1, 1) for s in seeds}
    left = set(unknowns).difference(x)  # the members of ``unknowns`` still unset
    waits = {}  # index of a parked equation -> the unset unknowns it is parked on
    parked = defaultdict(list)  # unknown -> indices of the equations parked on it
    rest = ()  # the equations not yet examined when the last unknown is set
    for first in range(len(equations)):
        if not left:
            rest = equations[first:]
            break
        woken = [(first, None)]
        while woken:
            e, by = woken.pop()
            if by is not None and by not in waits.get(e, ()):
                continue  # decided, or examined again since ``by`` was set
            t, c_lhs, sources, c_rhs = equations[e]
            unset = [u for u in (t, *sources) if u not in x]
            if not unset:
                waits.pop(e, None)
                if not _holds(x, equations[e]):
                    return None
            elif len(unset) == 1 and sources:
                waits.pop(e, None)
                u = unset[0]
                if u == t:  # x[t] = c_rhs * prod(x[s]) / c_lhs
                    num, den = c_rhs, c_lhs
                    for s in sources:
                        num *= x[s][0]
                        den *= x[s][1]
                else:  # x[u] = c_lhs * x[t] / (c_rhs * prod(x[s] for s != u))
                    num, den = c_lhs * x[t][0], c_rhs * x[t][1]
                    for s in sources:
                        if s != u:
                            num *= x[s][1]
                            den *= x[s][0]
                g = gcd(num, den)
                x[u] = (num // g, den // g) if den > 0 else (-num // g, -den // g)
                left.discard(u)
                woken += [(f, u) for f in parked.pop(u, ())]
            else:
                # keep the unset unknowns e is parked on already, and park
                # it on new ones up to two distinct
                on = [w for w in waits.get(e, ()) if w not in x]
                for u in unset:
                    if len(on) == 2:
                        break
                    if u not in on:
                        on.append(u)
                        parked[u].append(e)
                waits[e] = on
    x.update(dict.fromkeys(left, (1, 1)))  # the gauge value of an unknown never reached
    if not all(_holds(x, eq) for eq in [*(equations[e] for e in waits), *rest]):
        return None
    return {u: Fraction(*x[u]) for u in unknowns}
