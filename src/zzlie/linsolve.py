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
map: it is neither copied nor eliminated.  A row with one more unknown
that is not yet a pivot is solved for it from the same sum, and that value
is installed as an empty pivot row without elimination.  A new pivot is
back-substituted only into the open pivot rows (the non-empty ones), since
a solved row never changes again; both ways of installing a pivot share
that step, ``_install``.

Every row added to the system carries an opaque tag, and the system
remembers the rows that raised its rank.  Elimination tracks no provenance:
at the first contradiction one transposed solve over those rows finds the
combination that produces the contradicting row, and its tags form a minimal
certificate of equations with no common solution.  That solve takes its
rows (the columns of the installed rows) shortest first; its solution is
unique, so the order changes only the cost.

``propagate_scalars`` solves the multiplicative systems behind the diagonal
isomorphism and intertwiner searches from unit seeds, taken as the rows the
callers read: a head unknown (or none), targets, sources and the two sides'
int numerators.  It solves equations one at a time only until every
unknown is set; then one cross-multiplied comparison per row decides every
row, the rows it solved from included.  The only ``Fraction`` built is one
per unknown of the result.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

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
    int sum, and one with a single fresh unknown besides is solved for it
    from that sum; any other row is eliminated.  ``_open`` holds, in install
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
        self._install(var, _primitive(coeffs, const, lead))
        return None

    def _install(self, var, pivot):
        """Make ``pivot`` the row of the new pivot unknown ``var``.

        ``var`` is back-substituted into the open pivot rows that mention
        it (a solved row mentions nothing), and ``var`` joins ``_open``
        when its own row is not empty.
        """
        pivots, opened = self.pivots, self._open
        for pvar in [p for p in opened if var in pivots[p][0]]:
            pivots[pvar] = new = _primitive(*_cancel(*pivots[pvar], var, pivot))
            if not new[0]:
                del opened[pvar]
        pivots[var] = pivot
        if pivot[0]:
            opened[var] = None

    def _combination(self, coeffs, tag):
        """Tag combination of the contradicting row ``coeffs`` tagged ``tag``.

        Solves sum_t y_t * row_t = coeffs over the installed rows (unique, as
        they are independent); the row minus that sum reads 0 = nonzero.
        The dual system takes its rows (the columns of the installed rows)
        shortest first, which keeps its pivot rows short; as the solution
        is unique, the order changes nothing else.
        """
        columns = defaultdict(dict)
        for t, (row, _) in enumerate(self._installed):
            for var, c in row.items():
                columns[var][t] = c
        dual = LinearSystem()
        for var, column in sorted(columns.items(), key=lambda item: len(item[1])):
            dual._eliminate(column, coeffs.get(var, 0))
        y = dual.solved_values()
        return accumulate(
            {tag: Fraction(1)}, ((t_tag, -y[t]) for t, (_, t_tag) in enumerate(self._installed))
        )

    def add_equation(self, coeffs, const, tag):
        """Add sum(coeffs[v]*v) = const; returns False on contradiction.

        ``coeffs`` maps unknowns to ints, zeros allowed, and ``const`` is an
        int; the caller's map is not changed.  One walk over that map reads
        the pivots of its unknowns.  A row over solved unknowns is decided
        by its int sum.  A row over solved unknowns and one fresh unknown
        (not yet a pivot) is solved for it from the same sum and installed
        as an empty pivot row, without elimination.  Any other row is copied
        without zeros and eliminated.  A contradictory row is not
        installed; the first one is remembered (certificate) and the rest of
        the system stays usable.
        """
        # While every unknown but one fresh one is solved, keep
        # sum(c*const/lead) - const over the solved ones as the int fraction
        # residue/den; an open pivot or a second fresh unknown needs elimination.
        pivots = self.pivots
        residue, den, fresh = -const, 1, None
        for var, c in coeffs.items():
            if not c:
                continue
            piv = pivots.get(var)
            if piv is None:
                if fresh is None:
                    fresh, lead = var, c
                    continue
            elif not piv[0]:
                residue = residue * piv[2] + c * piv[1] * den
                den *= piv[2]
                continue
            clean = {v: c for v, c in coeffs.items() if c}
            residue = self._eliminate(dict(clean), const)
            if residue is None:
                self._installed.append((clean, tag))
                return True
            break
        else:
            if fresh is not None:
                # lead*x + residue/den = 0, so x = -residue/(den*lead)
                lead *= den
                self._install(fresh, _primitive({}, -residue if lead > 0 else residue, abs(lead)))
                self._installed.append(({v: c for v, c in coeffs.items() if c}, tag))
                return True
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


def propagate_scalars(unknowns, rows, seeds, scale=(1, 1)):
    """Nonzero scalars x with c_l*lhs[q]*x[t_q] == c_r*rhs[q]*x[head]*x[s_q] on every row.

    A row is (head, targets, sources, lhs, rhs): entry q is the equation
    above with t_q = targets[q], s_q = sources[q] and (c_l, c_r) = ``scale``;
    a head of None leaves x[head] out.  Two phases.  Solve: from x = 1 on
    ``seeds``, the entries are walked in row order until every member of
    ``unknowns`` is set (a seed outside it does not count).  An entry with
    both sides nonzero and exactly one unset occurrence is solved for it;
    one with more is parked on each distinct unset unknown, examined again
    as each of them is set, and solved once one unset occurrence is left.
    Any other entry is left alone, and a repeated occurrence is never
    solved for.  The unknowns reached are the closure of that rule, so the
    order of the rows affects only the speed, best when those reaching
    every unknown come first.  Decide: unknowns never reached get the gauge
    value 1, and one row check decides every row: over the common
    denominator D of x it compares the int rows c_l*lhs*D*x[t] and
    c_r*rhs*D*x[s] (times x[head] for a head).  As every scalar is nonzero,
    an entry 0 on both sides holds and one 0 on one side only fails.  A
    returned map (unknown -> Fraction, in ``unknowns`` order) is a genuine
    solution; None means a contradiction.
    """
    c_l, c_r = scale
    x = dict.fromkeys(seeds, (1, 1))
    left = set(unknowns).difference(x)  # the members of ``unknowns`` still unset
    parked = defaultdict(list)  # unknown -> (row, entry) of the equations parked on it
    for first in ((r, q) for r, row in enumerate(rows) for q in range(len(row[1]))):
        if not left:
            break
        woken = [first]
        while woken:
            e = woken.pop()
            (head, targets, sources, lhs, rhs), q = rows[e[0]], e[1]
            t, c_lhs, c_rhs = targets[q], c_l * lhs[q], c_r * rhs[q]
            pair = (sources[q],) if head is None else (head, sources[q])
            unset = [u for u in (t, *pair) if u not in x]
            if not (c_lhs and c_rhs and unset):
                continue  # the row check decides it
            if len(unset) > 1:
                if e == first:  # a woken entry is already parked on all its unset unknowns
                    for u in set(unset):
                        parked[u].append(e)
                continue
            u = unset[0]
            if u == t:  # x[t] = c_rhs * prod(x[s]) / c_lhs
                num, den = c_rhs, c_lhs
                for s in pair:
                    num *= x[s][0]
                    den *= x[s][1]
            else:  # x[u] = c_lhs * x[t] / (c_rhs * prod(x[s] for s != u))
                num, den = c_lhs * x[t][0], c_rhs * x[t][1]
                for s in pair:
                    if s != u:
                        num *= x[s][1]
                        den *= x[s][0]
            g = gcd(num, den)
            x[u] = (num // g, den // g) if den > 0 else (-num // g, -den // g)
            left.discard(u)
            woken += parked.pop(u, ())
    x.update(dict.fromkeys(left, (1, 1)))  # the gauge value of an unknown never reached
    d = lcm(*(den for _, den in x.values()))
    n = {u: num * (d // den) for u, (num, den) in x.items()}  # n[u] = D*x[u]
    for head, targets, sources, lhs, rhs in rows:
        f_l, f_r = (c_l, c_r) if head is None else (c_l * d, c_r * n[head])
        if [c * f_l * n[t] for c, t in zip(lhs, targets)] != [
                c * f_r * n[s] for c, s in zip(rhs, sources)]:
            return None
    return {u: Fraction(*x[u]) for u in unknowns}
