"""Intermediate-series modules over the rank-1 centerless Virasoro algebra.

Three families with basis {v_k | k in Z}, all weight multiplicities one:

* ``a_ab``    -- L_i v_k = (alpha + k + beta*i) v_{i+k}
* ``a_paren`` -- L_i v_k = (i+k) v_{i+k} for k != 0, L_i v_0 = i(i+alpha) v_i
* ``b_paren`` -- L_i v_k = k v_{i+k} for k != -i, L_i v_{-i} = -i(i+alpha) v_0

The action always lands at index i+k, so each family is given by one
piecewise coefficient function.  A reducible ``a_ab`` module is represented
by its subquotient: the same spec with one index ``removed`` from the
support.  Intertwiners are found with ``propagate_scalars``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .linsolve import propagate_scalars
from .poly import accumulate, format_rational
from .verify import ViolationReport

__all__ = [
    "ModuleSpec",
    "ModVector",
    "act",
    "action_coeff",
    "check_module_axiom",
    "irreducible_subquotient",
    "find_intertwiner",
]

MODULE_FAMILIES = ("a_ab", "a_paren", "b_paren")


@dataclass(frozen=True)
class ModuleSpec:
    """A module family and its parameters.

    ``removed`` is the one index left out of the support of an ``a_ab``
    subquotient (see ``irreducible_subquotient``); None keeps all of Z.
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
        if self.removed is not None:
            if self.family != "a_ab":
                raise ValueError("only a_ab modules have a removed index")
            if type(self.removed) is not int:
                raise ValueError(f"removed index must be an integer, got {self.removed!r}")

    def supports(self, k):
        return k != self.removed

    def coeff(self, i, k):
        """The scalar with L_i v_k = coeff * v_{i+k}."""
        return action_coeff(self, i, k)


def action_coeff(m, i, k):
    alpha = m.alpha
    if m.family == "a_ab":
        return alpha + k + m.beta * i
    if m.family == "a_paren":
        if k == 0:
            return Fraction(i) * (i + alpha)
        return Fraction(i + k)
    # b_paren
    if k == -i:
        return -Fraction(i) * (i + alpha)
    return Fraction(k)


class ModVector:
    """A finite linear combination of the v_k, zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if c:
                    self.terms[k] = Fraction(c)

    @classmethod
    def basis(cls, k):
        return cls({k: 1})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        v = ModVector()
        v.terms = accumulate(dict(self.terms), other.terms.items())
        return v

    def __neg__(self):
        v = ModVector()
        v.terms = {k: -c for k, c in self.terms.items()}
        return v

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        v = ModVector()
        if factor:
            v.terms = {k: c * factor for k, c in self.terms.items()}
        return v

    def __eq__(self, other):
        if not isinstance(other, ModVector):
            return NotImplemented
        return self.terms == other.terms

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
    out = ModVector()
    accumulate(out.terms, image)
    return out


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
    """[L_i, L_j] v_k = (j-i) L_{i+j} v_k, exactly, over the sweep window."""
    rng = range(-window, window + 1)
    report = ViolationReport("module-axiom", 0)
    for k in rng:
        if not m.supports(k):
            continue
        vk = ModVector.basis(k)
        for i in rng:
            for j in rng:
                report.checked_count += 1
                lhs = act(m, i, act(m, j, vk)) - act(m, j, act(m, i, vk))
                rhs = act(m, i + j, vk).scale(Fraction(j - i))
                bad = lhs - rhs
                if bad:
                    report.witnesses.append(((i, j, k), bad))
                    if len(report.witnesses) >= 20:
                        return report
    return report


def find_intertwiner(m1, m2, window):
    """Nonzero scalars c_k with c-rescaled m1-action equal to the m2-action.

    The intertwining condition per (i, k) with all indices in the window is
    coeff1(i,k) * c_{i+k} = coeff2(i,k) * c_k.  ``propagate_scalars`` solves
    them from a unit seed (the global-scale gauge) and re-verifies the full
    window, so a returned witness is always genuine; None means no witness
    exists.
    """
    support = [k for k in range(-window, window + 1) if m1.supports(k)]
    if not support:
        return None
    sup = set(support)
    equations = []
    for k in support:
        for i in range(-window, window + 1):
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
