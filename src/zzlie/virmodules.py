"""Intermediate-series modules over the rank-1 centerless Virasoro algebra.

Three families with basis {v_k | k in Z}, all weight multiplicities one:

* ``a_ab``    -- L_i v_k = (alpha + k + beta*i) v_{i+k}
* ``a_paren`` -- L_i v_k = (i+k) v_{i+k} for k != 0, L_i v_0 = i(i+alpha) v_i
* ``b_paren`` -- L_i v_k = k v_{i+k} for k != -i, L_i v_{-i} = -i(i+alpha) v_0

The action always lands at index i+k, so each family is given by one
piecewise coefficient function.  A reducible ``a_ab`` module is represented
by its subquotient: the same spec with one index ``removed`` from the
support.  Intertwiners are found with ``propagate_scalars``.

The module-axiom sweep builds no vectors.  Both sides of
[L_i, L_j] v_k = (j-i) L_{i+j} v_k sit at the one index i+j+k, so each case
is the scalar identity s = 0 with

    s = a(j,k) a(i,j+k) - a(i,k) a(j,i+k) - (j-i) a(i+j,k),

where a(i,k) is the coefficient of L_i v_k, taken as 0 when v_{i+k} is
outside the support (``act`` drops that term).  The a are read once and
scaled to ints by ``integer_scaled``, so s is summed in ints (the last term
scaled by D once more) and a failing case's witness is s / D^2 v_{i+j+k},
which equals lhs - rhs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebras import window_range
from .linsolve import propagate_scalars
from .poly import SparseVector, accumulate, format_rational, integer_scaled
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
    """

    family: str
    alpha: Fraction
    beta: Fraction | None = None
    removed: int | None = None

    def __post_init__(self):
        if self.family not in MODULE_FAMILIES:
            raise ValueError(f"unknown module family {self.family!r}")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.family == "a_ab":
            if self.beta is None:
                raise ValueError("a_ab needs beta")
            object.__setattr__(self, "beta", Fraction(self.beta))
        elif self.beta is not None:
            raise ValueError(f"family {self.family!r} takes no beta")
        if self.removed is not None and not (
            type(self.removed) is int and self.removed == -self.alpha and self.beta in (0, 1)
        ):
            raise ValueError("removed must be the integer -alpha, for a_ab with beta 0 or 1")

    def supports(self, k):
        return k != self.removed

    def coeff(self, i, k):
        """The scalar with L_i v_k = coeff * v_{i+k}."""
        alpha = self.alpha
        if self.family == "a_ab":
            return alpha + k + self.beta * i
        if self.family == "a_paren":
            if k == 0:
                return Fraction(i) * (i + alpha)
            return Fraction(i + k)
        # b_paren
        if k == -i:
            return -Fraction(i) * (i + alpha)
        return Fraction(k)


class ModVector(SparseVector):
    """A finite linear combination of the v_k with Fraction coefficients."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {k: Fraction(c) for k, c in terms.items() if c} if terms else {}

    @classmethod
    def basis(cls, k):
        return cls({k: 1})

    def to_json(self):
        return {str(k): format_rational(self.terms[k]) for k in sorted(self.terms)}

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k]})*v[{k}]" for k in sorted(self.terms))


def act(m, i, x):
    """Linear extension of the basis action of L_i."""
    image = []
    for k, c in x.terms.items():
        if not m.supports(k):
            raise ValueError(f"v_{k} is outside the module support")
        if m.supports(i + k):
            image.append((i + k, c * m.coeff(i, k)))
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

    Runs the scalar kernel of the module docstring on a table of the
    coefficients with both indices in [-2W, 2W].  Only ``supports`` and
    ``coeff`` are read from ``m``, so any object with those two methods can
    be checked.
    """
    rng = window_range(window)
    span = window_range(2 * window)
    coeff = {(i, k): m.coeff(i, k) if m.supports(i + k) else 0 for i in span for k in span}
    d, scaled = integer_scaled(list(coeff.values()))
    a = dict(zip(coeff, scaled))

    def defect(i, j, k):
        s = a[j, k] * a[i, j + k] - a[i, k] * a[j, i + k] - (j - i) * d * a[i + j, k]
        return (ModVector._from_pruned({i + j + k: Fraction(s, d * d)}),) if s else ()

    cases = ((i, j, k) for k in rng if m.supports(k) for i in rng for j in rng)
    return ViolationReport.sweep("module-axiom", cases, defect)


def find_intertwiner(m1, m2, window):
    """Nonzero scalars c_k with c-rescaled m1-action equal to the m2-action.

    The intertwining condition per (i, k) with all indices in the window is
    coeff1(i,k) * c_{i+k} = coeff2(i,k) * c_k.  ``propagate_scalars`` solves
    them from a unit seed (the global-scale gauge) and re-verifies the full
    window, so a returned witness is always genuine; None means no witness
    exists.
    """
    rng = window_range(window)
    support = [k for k in rng if m1.supports(k)]
    if not support:
        return None
    sup = set(support)
    equations = []
    for k in support:
        for i in rng:
            t = i + k
            if t not in sup:
                continue
            c1, c2 = m1.coeff(i, k), m2.coeff(i, k)
            if c1 == 0 and c2 == 0:
                continue
            if c1 == 0 or c2 == 0:
                return None  # would force a scalar to zero
            equations.append((t, c1, (k,), c2))
    return propagate_scalars(support, equations, support[:1])
