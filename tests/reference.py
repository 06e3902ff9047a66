"""Independent references the tests check the kernels against.

Each reference recomputes a result the slow, obvious way: brackets and
action coefficients from the Fraction formulas of each family, the
antisymmetry, grading, Jacobi and module-axiom sweeps case by case with
Element and ModVector arithmetic, propagation and elimination in Fraction
arithmetic.  None of them calls the kernel it is compared with.
``PrintedIndexC``, ``Perturbed`` and the ``algebra_specs`` strategy are
the shared test inputs that go with them, and ``solve_equations`` and
``row_equations`` translate between single equations and the rows of
``propagate_scalars``.
"""

import math
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import prod

from hypothesis import strategies as st

from zzlie.algebras import AlgebraSpec, Element, window_grid
from zzlie.linsolve import propagate_scalars
from zzlie.poly import accumulate, symbol, unscaled
from zzlie.verify import MAX_WITNESSES, ViolationReport
from zzlie.virmodules import ModVector, act


# -- algebra brackets -----------------------------------------------------------


def fraction_terms(alg, a, b):
    """[L_a, L_b] as ``(key, coeff)`` terms: ``raw_terms`` divided by ``den``."""
    return tuple((key, unscaled(n, alg.den)) for key, n in alg.raw_terms(a, b))


def factorial_ratio(i, j):
    """i!/j! for 0 <= j <= i, and 0 otherwise."""
    if 0 <= j <= i:
        return Fraction(math.factorial(i), math.factorial(j))
    return Fraction(0)


def reference_c_coeff(alpha, i, j, k, ell):
    """The c-family structure constant by (j, ell) region, in Fraction arithmetic."""
    if j >= -1 and ell >= -1:
        if j == -1 and ell == -1:
            return Fraction(k - i)
        return Fraction(k * (j + 1) - (ell + 1) * i) + (ell - j) * alpha
    if j >= 0 and ell <= -2:
        core = Fraction(k * (j + 1) - (ell + 1) * i) + (ell - j) * alpha
        return factorial_ratio(-ell - 2, -ell - j - 2) * core
    if j == -1 and ell <= -2:
        return -alpha + i
    if j <= -2 and ell <= -2:
        return Fraction(0)
    return -reference_c_coeff(alpha, k, ell, i, j)


def reference_bracket_terms(spec, a, b):
    """[L_a, L_b] as raw terms from the Fraction formulas of each family."""
    (i, j), (k, ell) = a, b
    alpha, beta = spec.alpha, spec.beta
    terms = []
    if spec.family == "vir":
        terms.append(((i + k, j + ell), Fraction(k - i) + (ell - j) * alpha))
    elif spec.family == "d":
        coeff = beta * (i * ell - j * k) + (k - i) + (ell - j) * alpha
        terms.append(((i + k, j + ell), coeff))
    elif spec.family in ("block", "bplus-", "bplus+"):
        target = (i + k, j + ell)
        if spec.in_domain(*target):
            terms.append((target, (i * ell - j * k) + alpha * (ell - j) + beta * (k - i)))
        central = spec.central_degrees()
        if target == central.get("C1") and spec.a1 is not None:
            terms.append(("C1", (alpha * j + beta * i) * spec.a1))
        if target == central.get("C2"):
            c = 0
            if spec.a2 is not None:
                c = spec.a2 * (alpha * j + beta * i)
            if spec.a2p is not None:
                c = c + spec.a2p * (alpha + i)
            terms.append(("C2", c))
    else:
        sign = -1 if spec.family == "cbar" else 1
        jj, ll = sign * j, sign * ell
        coeff = reference_c_coeff(alpha, i, jj, k, ll)
        terms.append(((i + k, sign * (jj + ll)), coeff))
    return tuple((key, c) for key, c in terms if c)


# integral values often enough that the punctures and centres occur
_nonzero = (
    st.fractions(min_value=-4, max_value=4, max_denominator=12)
    | st.integers(-3, 3).map(Fraction)
).filter(bool)
_centre = st.none() | st.fractions(min_value=-3, max_value=3, max_denominator=12) | st.just("sym")


@st.composite
def algebra_specs(draw):
    family = draw(st.sampled_from(["vir", "d", "block", "bplus-", "bplus+", "c", "cbar"]))
    alpha = draw(_nonzero)
    kwargs = {}
    if family in ("d", "block"):
        kwargs["beta"] = draw(_nonzero)
    if family in ("block", "bplus-", "bplus+"):
        for name in ("a1", "a2", "a2p"):
            value = draw(_centre)
            kwargs[name] = symbol(name) if value == "sym" else value
    return AlgebraSpec(family, alpha, **kwargs)


class PrintedIndexC:
    """Wraps a c or cbar spec, keying each bracket at the target the paper prints.

    The paper prints the c target of [L(i,j), L(k,ell)] as (i + ell, k + j),
    which breaks the grading; under cbar's j -> -j it is (i - ell, j - k).
    The numerators stay, so the misprint shows to the grading sweep and
    to the sums that meet terms at one key: antisymmetry and Jacobi.
    """

    def __init__(self, inner):
        self.inner = inner
        self.den = inner.den
        self.s = -1 if inner.family == "cbar" else 1

    def in_domain(self, i, j):
        return self.inner.in_domain(i, j)

    def central_degrees(self):
        return {}

    def raw_terms(self, a, b):
        (i, j), (k, ell), s = a, b, self.s
        return tuple(((i + s * ell, s * k + j), n) for _, n in self.inner.raw_terms(a, b))

    basis_bracket = AlgebraSpec.basis_bracket


def _reference_window(alg, window):
    return [
        (i, j)
        for i in range(-window, window + 1)
        for j in range(-window, window + 1)
        if alg.in_domain(i, j)
    ]


def reference_antisymmetry(alg, bracket, window):
    """(checked_count, witnesses) of an antisymmetry sweep, [a, b] + [b, a] per ordered pair.

    ``bracket(a, b)`` returns an Element; each pair is bracketed afresh and
    summed with Element arithmetic.
    """
    count, witnesses = 0, []
    for count, (a, b) in enumerate(product(_reference_window(alg, window), repeat=2), 1):
        total = bracket(a, b) + bracket(b, a)
        if total:
            witnesses.append(((a, b), total))
            if len(witnesses) == MAX_WITNESSES:
                break
    return count, witnesses


def reference_grading(alg, bracket, window):
    """(checked_count, witnesses) of a grading sweep: each misplaced basis element per pair.

    A basis element of ``bracket(a, b)`` is misplaced unless its degree, the
    index of an L term or ``central_degrees()`` of a central one, is a + b;
    the sweep stops at the witness cap, also inside one pair.
    """
    central = alg.central_degrees()
    count, witnesses = 0, []
    for count, (a, b) in enumerate(product(_reference_window(alg, window), repeat=2), 1):
        for basis in bracket(a, b).terms:
            degree = (basis.i, basis.j) if basis.kind == "L" else central.get(basis.kind)
            if degree != (a[0] + b[0], a[1] + b[1]):
                witnesses.append(((a, b), basis))
                if len(witnesses) == MAX_WITNESSES:
                    return count, witnesses
    return count, witnesses


def reference_jacobi(alg, bracket, window):
    """(checked_count, witnesses) of a Jacobi sweep summed with Element arithmetic.

    ``bracket(a, b)`` returns an Element; every cyclic term is bracketed and
    summed afresh, with no memo and no integer scaling.
    """
    count, witnesses = 0, []
    triples = combinations_with_replacement(_reference_window(alg, window), 3)
    for count, (a, b, c) in enumerate(triples, 1):
        total = Element()
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for basis, coeff in bracket(x, y).terms.items():
                if basis.kind == "L" and alg.in_domain(basis.i, basis.j):
                    inner = bracket((basis.i, basis.j), z)
                    total = total + Element({t: v * coeff for t, v in inner.terms.items()})
        if total:
            witnesses.append(((a, b, c), total))
            if len(witnesses) == MAX_WITNESSES:
                break
    return count, witnesses


# -- diagonal scalars -------------------------------------------------------------


def reference_propagate_scalars(unknowns, equations, seeds):
    """``propagate_scalars`` in Fraction arithmetic, coefficients of any rational type."""
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


def solve_equations(unknowns, equations, seeds):
    """``propagate_scalars`` on (t, c_lhs, sources, c_rhs) equations, one row each.

    A source pair (h, s) is the row's head and source; one source s makes a
    headless row.
    """
    rows = [(None if len(sources) == 1 else sources[0], [t], [sources[-1]], [c_lhs], [c_rhs])
            for t, c_lhs, sources, c_rhs in equations]
    return propagate_scalars(unknowns, rows, seeds)


def row_equations(rows, scale=(1, 1)):
    """The (t, c_lhs, sources, c_rhs) equations of ``propagate_scalars`` rows, in order.

    An entry that is zero on both sides holds and is left out.
    """
    c_l, c_r = scale
    return [(t, c_l * lhs_q, (s,) if head is None else (head, s), c_r * rhs_q)
            for head, targets, sources, lhs, rhs in rows
            for t, s, lhs_q, rhs_q in zip(targets, sources, lhs, rhs) if lhs_q or rhs_q]


def seeded_prefix(unknowns, equations, seeds):
    """The fewest leading equations whose one-unset closure from ``seeds`` sets every unknown.

    Replays only which unknowns the rule of ``propagate_scalars`` sets, not
    their values: an equation with sources and one unset occurrence sets
    it.  None if all of ``equations`` leave an unknown unset.
    """
    done, wanted = set(seeds), set(unknowns)
    by_unknown = defaultdict(list)
    for n, (t, _, sources, _) in enumerate(equations, 1):
        occurrences = (t, *sources)
        for u in set(occurrences):
            by_unknown[u].append(occurrences)
        work = [occurrences]
        while work:
            occurrences = work.pop()
            unset = [u for u in occurrences if u not in done]
            if len(unset) == 1 and len(occurrences) > 1:
                done.add(unset[0])
                work += by_unknown[unset[0]]
        if wanted <= done:
            return n
    return None


def reference_intertwiner(m1, m2, window):
    """``find_intertwiner`` from the Fraction coefficients and the reference solver."""
    rng = range(-window, window + 1)
    support = [k for k in rng if m1.supports(k)]
    equations = []
    for k in support:
        for i in rng:
            if not m1.supports(i + k) or abs(i + k) > window:
                continue
            c1, c2 = reference_coeff(m1, i, k), reference_coeff(m2, i, k)
            if c1 == 0 and c2 == 0:
                continue
            if c1 == 0 or c2 == 0:
                return None
            equations.append((i + k, c1, (k,), c2))
    return reference_propagate_scalars(support, equations, support[:1])


def reference_isomorphism(alg_a, alg_b, index_map, window):
    """``find_diagonal_isomorphism`` from the Fraction brackets and the reference solver."""
    idxs = window_grid(alg_a, window)[0]
    central = {deg: kind for kind, deg in alg_b.central_degrees().items()}
    if any(not alg_b.in_domain(*m) and m not in central for m in map(index_map, idxs)):
        return None  # an index with neither a basis image nor a central one
    equations = []
    for a, b in product(idxs, repeat=2):
        ma, mb = index_map(a), index_map(b)
        if not (alg_b.in_domain(*ma) and alg_b.in_domain(*mb)):
            continue
        eb = dict(fraction_terms(alg_b, ma, mb))
        for t, ca in fraction_terms(alg_a, a, b):
            m = index_map(t)
            cb = eb.pop(m if alg_b.in_domain(*m) else central.get(m), None)
            if cb is None:
                return None
            if t in idxs:
                equations.append((t, ca, (a, b), cb))
        if eb:
            return None
    seeds = [s for s in ((1, 0), (0, 1)) if s in idxs]
    return reference_propagate_scalars(idxs, equations, seeds)


# -- modules ----------------------------------------------------------------------


class Perturbed:
    """A module with one action coefficient raised by 1: a(i, k) + 1 at ``at``."""

    def __init__(self, module, at):
        self.module = module
        self.at = at
        self.den = module.den

    def supports(self, k):
        return self.module.supports(k)

    def numerators(self, i, ks):
        row = self.module.numerators(i, ks)
        return [n + self.den if (i, k) == self.at else n for k, n in zip(ks, row)]


def reference_coeff(m, i, k):
    """The action coefficients of the module docstring, in Fractions."""
    if isinstance(m, Perturbed):
        return reference_coeff(m.module, i, k) + ((i, k) == m.at)
    alpha = Fraction(m.alpha)
    if m.family == "a_ab":
        return alpha + k + Fraction(m.beta) * i
    if m.family == "a_paren":
        return Fraction(i) * (i + alpha) if k == 0 else Fraction(i + k)
    return -Fraction(i) * (i + alpha) if k == -i else Fraction(k)


def act_reference_sweep(m, window):
    """The module-axiom sweep through ``act`` and ModVector arithmetic, case by case."""
    rng = range(-window, window + 1)
    image = cache(lambda i, k: act(m, i, ModVector.basis(k)))
    count, witnesses = 0, []
    for k in rng:
        if not m.supports(k):
            continue
        for i in rng:
            for j in rng:
                count += 1
                lhs = act(m, i, image(j, k)) - act(m, j, image(i, k))
                bad = lhs - ModVector(
                    {t: c * Fraction(j - i) for t, c in image(i + j, k).terms.items()})
                if bad:
                    witnesses.append(((i, j, k), bad))
                    if len(witnesses) == MAX_WITNESSES:
                        return ViolationReport("module-axiom", count, witnesses)
    return ViolationReport("module-axiom", count, witnesses)


# -- elimination ------------------------------------------------------------------


def tagged_elimination(rows):
    """Reference elimination that carries a tag combination on every pivot row.

    ``rows`` holds (coeffs, const, tag) triples.  Returns the add results,
    the pivots as unknown -> (row, const) and the tag combination of the
    first contradicting row (None if the rows are consistent).
    """
    pivots, results, contradiction = {}, [], None
    for coeffs, const, tag in rows:
        coeffs = {v: Fraction(c) for v, c in coeffs.items() if c}
        const, combo = Fraction(const), {tag: Fraction(1)}
        for var in list(coeffs):
            if var in pivots:
                factor = coeffs.pop(var)
                prow, pconst, pcombo = pivots[var]
                accumulate(coeffs, prow.items(), -factor)
                const -= factor * pconst
                accumulate(combo, pcombo.items(), -factor)
        if not coeffs:
            if const and contradiction is None:
                contradiction = combo
            results.append(not const)
            continue
        var = min(coeffs)
        lead = coeffs.pop(var)
        row = {v: c / lead for v, c in coeffs.items()}
        const /= lead
        combo = {t: c / lead for t, c in combo.items()}
        for pvar, (prow, pconst, pcombo) in pivots.items():
            factor = prow.pop(var, 0)
            if factor:
                accumulate(prow, row.items(), -factor)
                accumulate(pcombo, combo.items(), -factor)
                pivots[pvar] = (prow, pconst - factor * const, pcombo)
        pivots[var] = (row, const, combo)
        results.append(True)
    return results, {v: (row, c) for v, (row, c, _) in pivots.items()}, contradiction
