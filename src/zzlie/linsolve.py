"""Exact solving over the rationals: linear systems and scalar propagation.

``LinearSystem`` keeps its pivots fraction-free, in reduced row echelon
form.  A pivot is an int row ``lead*x + sum(row[v]*v) = const`` with a
positive lead, divided by the gcd of its entries.  Elimination and
back-substitution share one step, ``_cancel``, which cross-multiplies (or
divides exactly, when a lead divides the factor); the gcd is divided out of
every row installed or updated, so no ``Fraction`` is built per row or per
step.  A row comes in as (unknown, int coefficient) pairs, with an int
constant (callers set their equations up over a common denominator);
solved values come out as ``Fraction(const, lead)``.  Work is done only
where the system can change.  A row whose unknowns are all solved (their
pivot rows are empty) is decided by one int sum of c*const/lead over a
common denominator, read off its pairs; ``settled`` decides a homogeneous
three-term row so before it is built.  A row with one more unknown that is
not yet a pivot is solved for it from the same sum and installed as an
empty pivot row.  Only a row that needs elimination becomes a map, for
``_eliminate``.  A new pivot is back-substituted only into the open pivot
rows (the non-empty ones), since a solved row never changes again; both
ways of installing a pivot share that step, ``_install``.

Every row added to the system carries an opaque tag, and the system
remembers the rows that raised its rank, as the pairs they were given.
Elimination tracks no provenance: at the first contradiction one transposed
solve over those rows finds the combination that produces the contradicting
row, and its tags form a minimal certificate of equations with no common
solution.  That solve takes its rows (the columns of the installed rows)
shortest first; its solution is unique, so the order changes only the cost.

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
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .poly import UsageError, accumulate

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
    denominator first.  ``_open`` holds, in install order, the pivot
    unknowns whose row is not empty, and a new pivot is back-substituted
    into those alone: a row that empties leaves it, and a solved row never
    changes again.

    The rows that raised the rank are linearly independent, so a
    contradicting row is a unique combination of them plus a nonzero
    constant.  Its certificate is the new row's tag with the tags of the
    rows that combination uses; dropping any member leaves an independent,
    hence consistent, set, so the certificate is minimal.
    """

    def __init__(self):
        self.pivots = {}  # unknown -> (row, const, lead)
        self._open = {}  # pivot unknowns whose row is not empty, as dict keys
        self._installed = []  # (terms, tag) of each row that raised the rank, as given
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

    def _combination(self, terms, tag):
        """Tag combination of the contradicting row ``terms`` tagged ``tag``.

        Solves sum_t y_t * row_t = row over the installed rows (unique, as
        they are independent); the row minus that sum reads 0 = nonzero.
        The installed rows' pairs are read with zeros skipped, and only here
        is the contradicting row a map.  The dual system takes its rows (the
        columns of the installed rows) shortest first, which keeps its pivot
        rows short; as the solution is unique, the order changes nothing else.
        """
        columns = defaultdict(dict)
        for t, (row, _) in enumerate(self._installed):
            for var, c in row:
                if c:
                    columns[var][t] = c
        coeffs = dict(terms)
        dual = LinearSystem()
        for var, column in sorted(columns.items(), key=lambda item: len(item[1])):
            dual._eliminate(column, coeffs.get(var, 0))
        y = dual.solved_values()
        return accumulate(
            {tag: Fraction(1)}, ((t_tag, -y[t]) for t, (_, t_tag) in enumerate(self._installed))
        )

    def settled(self, v1, c1, v2, c2, v3, c3):
        """Whether the row c1*v1 + c2*v2 + c3*v3 = 0 is known to change nothing.

        True when its three distinct unknowns are solved (empty pivot rows
        (n, l) = (const, lead)) and a contradiction is already recorded or
        the sum c1*n1*l2*l3 + c2*n2*l1*l3 + c3*n3*l1*l2 is zero: then
        ``add_equation`` would install nothing and record no certificate.
        Otherwise False, and the row must go to ``add_equation``.
        """
        pivots = self.pivots
        p1, p2, p3 = pivots.get(v1), pivots.get(v2), pivots.get(v3)
        if p1 is None or p2 is None or p3 is None or p1[0] or p2[0] or p3[0]:
            return False
        (_, n1, l1), (_, n2, l2), (_, n3, l3) = p1, p2, p3
        return (self.contradiction is not None
                or not c1 * n1 * l2 * l3 + c2 * n2 * l1 * l3 + c3 * n3 * l1 * l2)

    def add_equation(self, terms, const, tag):
        """Add sum(c*v for v, c in terms) = const; returns False on contradiction.

        ``terms`` is a sequence of (unknown, int coefficient) pairs over
        distinct unknowns, zeros allowed, read once into a tuple (so a
        generator works); a mapping is refused with ``UsageError`` (pass
        its ``.items()``).  ``const`` is an int.  A zero coefficient is
        skipped: it neither solves nor installs its unknown.  The row is
        decided by its int sum, solved for its one fresh unknown, or else
        eliminated as the map of its nonzero coefficients (module
        docstring); a row that raises the rank is kept as its pairs.  The
        first contradictory row is remembered (certificate), none is
        installed, and the rest of the system stays usable.
        """
        if isinstance(terms, Mapping):
            raise UsageError("a row is (unknown, coefficient) pairs: pass a mapping's .items()")
        terms = tuple(terms)
        # While every unknown but one fresh one is solved, keep
        # sum(c*const/lead) - const over the solved ones as the int fraction
        # residue/den; an open pivot or a second fresh unknown needs elimination.
        pivots = self.pivots
        residue, den, fresh = -const, 1, None
        for var, c in terms:
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
            residue = self._eliminate({v: c for v, c in terms if c}, const)
            if residue is None:
                self._installed.append((terms, tag))
                return True
            break
        else:
            if fresh is not None:
                # lead*x + residue/den = 0, so x = -residue/(den*lead)
                lead *= den
                self._install(fresh, _primitive({}, -residue if lead > 0 else residue, abs(lead)))
                self._installed.append((terms, tag))
                return True
        if not residue:
            return True
        if self.contradiction is None:
            self.contradiction = self._combination(terms, tag)
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
