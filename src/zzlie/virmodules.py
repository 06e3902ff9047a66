"""Intermediate-series modules over the rank-1 centerless Virasoro algebra.

Three families with basis {v_k | k in Z}, all weight multiplicities one:

* ``a_ab``    -- L_i v_k = (alpha + k + beta*i) v_{i+k}
* ``a_paren`` -- L_i v_k = (i+k) v_{i+k} for k != 0, L_i v_0 = i(i+alpha) v_i
* ``b_paren`` -- L_i v_k = k v_{i+k} for k != -i, L_i v_{-i} = -i(i+alpha) v_0

The action always lands at index i+k, so each family is given by one
piecewise coefficient function.  A reducible ``a_ab`` module is represented
by its subquotient: the same spec with one index ``removed`` from the
support.  Intertwiners are diagonal, so they need the same support on both
sides, and are found with ``propagate_scalars``.

The module-axiom sweep builds no vectors.  Both sides of
[L_i, L_j] v_k = (j-i) L_{i+j} v_k sit at the one index i+j+k, so each case
is the scalar identity s = 0 with

    s = a(j,k) a(i,j+k) - a(i,k) a(j,i+k) - (j-i) a(i+j,k),

where a(i,k) is the coefficient of L_i v_k, taken as 0 when v_{i+k} is
outside the support (``act`` drops that term).  A module is read through
one contract: ``supports(k)``, ``den`` (for a spec, the LCM of the
denominators of alpha and beta), and the coefficients as rows, new lists
of int numerators over ``den``: ``numerators(i, ks)``, the counterpart of
``AlgebraSpec.numerators``, where the three family formulas are written
once.  ``act`` divides a numerator by ``den`` only to build a
``ModVector``.  The sweep reads one row per i, so s is summed in ints (the
last term scaled by D = ``den`` once more) and a failing case's witness
is s / D^2 v_{i+j+k}, which equals lhs - rhs.  Since s(j, i, k) =
-s(i, j, k) for every coefficient table, and so s(i, i, k) = 0, one sweep
row per k decides its cases i < j in one comprehension and reads each
case i > j as the mirror of one of them.  ``find_intertwiner`` hands the
rows to ``propagate_scalars`` as read, so no ``Fraction`` or equation
tuple is built per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebras import window_range
from .linsolve import propagate_scalars
from .poly import SparseVector, accumulate, exact_number, integer_scaled
from .verify import ViolationReport

__all__ = [
    "ModuleSpec",
    "ModVector",
    "act",
    "check_module_axiom",
    "irreducible_subquotient",
    "find_intertwiner",
]

MODULE_FAMILIES = ("a_ab", "a_paren", "b_paren")


@dataclass(frozen=True)
class ModuleSpec:
    """A module family and its parameters.

    ``removed`` is the one index left out of the support of an ``a_ab``
    subquotient (see ``irreducible_subquotient``): only -alpha, with alpha
    integral and beta 0 or 1, leaves a module.  None keeps all of Z.

    ``den``, the LCM of the denominators of alpha and beta, and the
    parameters' numerators over it are computed once at construction and
    kept outside the dataclass fields, so equality, hashing, ``repr`` and
    ``replace`` see only the parameters.
    """

    family: str
    alpha: Fraction
    beta: Fraction | None = None
    removed: int | None = None

    def __post_init__(self):
        if self.family not in MODULE_FAMILIES:
            raise ValueError(f"unknown module family {self.family!r}")
        object.__setattr__(self, "alpha", exact_number(self.alpha, "alpha"))
        if self.family == "a_ab":
            if self.beta is None:
                raise ValueError("a_ab needs beta")
            object.__setattr__(self, "beta", exact_number(self.beta, "beta"))
        elif self.beta is not None:
            raise ValueError(f"family {self.family!r} takes no beta")
        if self.removed is not None and not (
            type(self.removed) is int and self.removed == -self.alpha and self.beta in (0, 1)
        ):
            raise ValueError("removed must be the integer -alpha, for a_ab with beta 0 or 1")
        den, nums = integer_scaled([self.alpha, self.beta or 0])
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_nums", nums)

    def supports(self, k):
        return k != self.removed

    def numerators(self, i, ks):
        """A new list of the int numerators over ``den`` of a(i, k), for k of ``ks``.

        L_i v_k = a(i, k) v_{i+k}; affine in k but at k = 0 (a_paren) and k = -i (b_paren).
        """
        den, (a_num, b_num) = self.den, self._nums
        if self.family == "a_ab":
            base = a_num + b_num * i
            return [base + den * k for k in ks]
        special = i * (i * den + a_num)
        if self.family == "a_paren":
            return [(i + k) * den if k else special for k in ks]
        return [k * den if k + i else -special for k in ks]  # b_paren


class ModVector(SparseVector):
    """A finite linear combination of the v_k with Fraction coefficients."""

    __slots__ = ()
    _exact = staticmethod(exact_number)

    @classmethod
    def basis(cls, k):
        return cls({k: 1})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k]})*v[{k}]" for k in sorted(self.terms))


def act(m, i, x):
    """L_i x by linearity from ``numerators`` over ``den``; its indices are ints in the support."""
    if i.__class__ is not int:
        raise ValueError(f"L_{i} is not an int index")
    image = []
    for (k, c), n in zip(x.terms.items(), m.numerators(i, x.terms)):
        if k.__class__ is not int or not m.supports(k):
            raise ValueError(f"v_{k} is outside the module support")
        if m.supports(i + k):
            image.append((i + k, c * Fraction(n, m.den)))
    return ModVector._from_pruned(accumulate({}, image))


def irreducible_subquotient(m):
    """The module itself if irreducible, else its one-point-removed form.

    Reducibility is read off the action coefficient alpha + k + beta*i: an
    index k0 is degenerate when every coefficient out of k0 vanishes
    (beta = 0, k0 = -alpha) or every coefficient into k0 vanishes (beta = 1,
    k0 = -alpha, since alpha + k + i = alpha + k0 there).  For beta = 0 the
    removed vector spans a trivial submodule and the action on the rest is
    the quotient action (terms landing at k0 dropped); for beta = 1 the
    removed index is never hit, so the rest is the complementary submodule.
    """
    if m.family != "a_ab":
        raise ValueError("subquotients are defined for the two-parameter family")
    k0 = -m.alpha
    if k0.denominator != 1 or m.beta not in (0, 1):
        return m
    return replace(m, removed=int(k0))


def check_module_axiom(m, window):
    """[L_i, L_j] v_k = (j-i) L_{i+j} v_k, exactly, over the sweep window.

    Runs the scalar kernel of the module docstring, one sweep row per k, on
    a table of the int numerators with both indices in [-2W, 2W].  Row k
    holds the (2W+1)^2 cases (i, j, k), each at offset (i+W)(2W+1) + j+W.
    Its one comprehension evaluates s for every i < j; its suspects are the
    nonzero cases and their mirrors (j, i, k), in offset order, and the
    cases j = i pass.  So the rows, suspects and witnesses are those of a
    sweep that evaluates every case.  Only ``supports``, ``numerators`` and
    ``den`` are read from ``m``, so any object with those members can be
    checked.
    """
    rng = window_range(window)
    # 0..2W then -2W..-1, so that a[i][k] = a(i, k) under negative indexing
    order = [*range(2 * window + 1), *range(-2 * window, 0)]
    supports, d = m.supports, m.den
    a = [m.numerators(i, order) for i in order]
    for t in [t for t in range(-4 * window, 4 * window + 1) if not supports(t)]:
        for i in range(max(t, 0) - 2 * window, min(t, 0) + 2 * window + 1):
            a[i][t - i] = 0  # a term landing outside the support is dropped

    def defect(i, j, k):
        s = a[j][k] * a[i][j + k] - a[i][k] * a[j][i + k] - (j - i) * d * a[i + j][k]
        return (ModVector._from_pruned({i + j + k: Fraction(s, d * d)}),) if s else ()

    def rows():
        n, a_rng = len(rng), [a[i] for i in rng]
        for k in filter(supports, rng):
            column = [row[k] for row in a]  # column[x] = a(x, k)
            scaled = [d * c for c in column]  # scaled[x] = D a(x, k)
            found = [(i, j) for i, a_i, a_ik in zip(rng, a_rng, map(column.__getitem__, rng))
                     for j in range(i + 1, window + 1)
                     if column[j] * a_i[j + k] - a_ik * a[j][i + k] - (j - i) * scaled[i + j]]
            yield n * n, [((i + window) * n + j + window, (i, j, k))
                          for i, j in sorted(found + [(j, i) for i, j in found])]

    return ViolationReport.sweep("module-axiom", rows(), defect)


def find_intertwiner(m1, m2, window):
    """Nonzero scalars c_k with c-rescaled m1-action equal to the m2-action.

    Such a map sends each v_k to a nonzero multiple of v_k, so the two
    modules must support the same indices in the window, else None.  Per
    (i, k) in the window, coeff1(i,k) * c_{i+k} = coeff2(i,k) * c_k: row i
    for ``propagate_scalars`` is the two ``numerators(i, ks)`` rows as read,
    over the scale (den2, den1), its ks and targets slices of the support
    when the support has no hole.  The row i = 1 comes first; it chains the
    unit seed at the lowest supported index (the global-scale gauge) through
    the support unless a hole breaks the chain, so solving usually stops
    within that row.  The row check then decides every equation, so a
    returned witness is genuine; None means none exists.
    A window holding no supported index gives the empty map ``{}``.
    """
    rng = window_range(window)
    support = [k for k in rng if m1.supports(k)]
    if support != [k for k in rng if m2.supports(k)]:
        return None  # a diagonal map sends each v_k to a nonzero multiple of v_k
    sup, n = set(support), len(support)
    rows = []
    for i in sorted(rng, key=(1).__ne__):  # the row i = 1 first, then in window order
        if n == len(rng):  # no hole: ks and their targets i + k are slices of the support
            lo, hi = max(0, -i), min(n, n - i)
            ks, targets = support[lo:hi], support[lo + i:hi + i]
        else:
            ks = [k for k in support if i + k in sup]
            targets = [i + k for k in ks]
        rows.append((None, targets, ks, m1.numerators(i, ks), m2.numerators(i, ks)))
    return propagate_scalars(support, rows, support[:1], (m2.den, m1.den))
