import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from zzlie import verify, virmodules
from zzlie.algebras import (
    AlgebraSpec,
    BasisElement,
    DomainError,
    Element,
    table_to_json,
    terms_json,
    window_grid,
)
from zzlie.linsolve import propagate_scalars
from zzlie.poly import MultiPoly, symbol
from zzlie.verify import (
    QuotientC,
    check_antisymmetry,
    check_grading,
    check_jacobi,
    find_diagonal_isomorphism,
    symbolic_jacobi,
    symbolic_jacobi_D,
    symbolic_jacobi_block,
)
from zzlie.virmodules import ModuleSpec, find_intertwiner, irreducible_subquotient

from reference import (
    PrintedIndexC,
    algebra_specs,
    fraction_terms,
    reference_antisymmetry,
    reference_grading,
    reference_intertwiner,
    reference_isomorphism,
    reference_jacobi,
    reference_propagate_scalars,
    reference_table,
    row_equations,
    table_lines,
    seeded_prefix,
    solve_equations,
)


class CorruptedPair:
    """Wraps an algebra, negating the bracket of one ordered index pair."""

    def __init__(self, inner, pair):
        self.inner = inner
        self.pair = pair
        self.den = inner.den

    def in_domain(self, i, j):
        return self.inner.in_domain(i, j)

    def central_degrees(self):
        return self.inner.central_degrees()

    def raw_terms(self, a, b):
        terms = self.inner.raw_terms(a, b)
        if (a, b) == self.pair:
            return tuple((key, -n) for key, n in terms)
        return terms


class MovedKey(CorruptedPair):
    """Wraps an algebra, moving each L key of one ordered pair's bracket one step in j.

    The numerators stay, so the move shows only to a sweep that checks
    where each term sits: a misgraded algebra.
    """

    def raw_terms(self, a, b):
        terms = self.inner.raw_terms(a, b)
        if (a, b) == self.pair:
            return tuple((key if isinstance(key, str) else (key[0], key[1] + 1), n)
                         for key, n in terms)
        return terms

    basis_bracket = AlgebraSpec.basis_bracket


class ExtraKey(MovedKey):
    """Wraps an algebra, adding to one ordered pair's bracket a moved copy of each L term.

    The bracket keeps its graded first term, so only a sweep that reads
    every term of a bracket sees the second.
    """

    def raw_terms(self, a, b):
        terms = self.inner.raw_terms(a, b)
        return terms + tuple(t for t in super().raw_terms(a, b) if t not in terms)


class HalfPlaneCut:
    """Wraps an algebra, cutting its domain to j >= -1 but keeping every bracket term.

    Brackets of window indices then carry L terms outside the domain, which
    the Jacobi sweep must not bracket again: the kernel, not the algebra,
    owns that filter.
    """

    def __init__(self, inner):
        self.inner = inner
        self.den = inner.den

    def in_domain(self, i, j):
        return j >= -1 and self.inner.in_domain(i, j)

    def central_degrees(self):
        return self.inner.central_degrees()

    def raw_terms(self, a, b):
        return self.inner.raw_terms(a, b)

    def basis_bracket(self, a, b):
        return self.inner.basis_bracket(a, b)


def test_antisymmetry_clean_sweeps():
    assert check_antisymmetry(AlgebraSpec("vir", Fraction(1, 2)), 3).ok
    assert check_antisymmetry(AlgebraSpec("c", Fraction(2, 3)), 3).ok


def test_antisymmetry_finds_injected_fault():
    clean = AlgebraSpec("vir", 1)
    bad = CorruptedPair(clean, ((1, 0), (0, 1)))
    # that pair brackets to zero, so negating it changes nothing
    assert check_antisymmetry(bad, 2).ok
    bad = CorruptedPair(clean, ((1, 0), (2, 0)))
    report = check_antisymmetry(bad, 2)
    assert len(report.witnesses) == 2
    at = {w[0] for w in report.witnesses}
    assert at == {((1, 0), (2, 0)), ((2, 0), (1, 0))}


def test_jacobi_clean_sweeps():
    assert check_jacobi(AlgebraSpec("d", 1, 1), 3).ok
    assert check_jacobi(AlgebraSpec("c", Fraction(2, 3)), 3).ok


def test_jacobi_finds_injected_fault():
    bad = CorruptedPair(AlgebraSpec("vir", 1), ((1, 0), (2, 0)))
    assert not check_jacobi(bad, 2).ok


def test_jacobi_evaluates_each_bracket_once():
    spec = AlgebraSpec("block", 1, 2, a1=1, a2=2, a2p=3)
    calls = Counter()

    def raw_terms(a, b):
        calls[a, b] += 1
        return spec.raw_terms(a, b)

    counting = SimpleNamespace(
        in_domain=spec.in_domain, central_degrees=spec.central_degrees, raw_terms=raw_terms,
        den=spec.den,
    )
    assert check_jacobi(counting, 2) == check_jacobi(spec, 2)
    window = len(window_grid(spec, 2))
    # every window pair, plus the pairs of bracketed targets outside the window
    assert len(calls) > window * window
    assert set(calls.values()) == {1}


class CorruptedRow(CorruptedPair):
    """``CorruptedPair`` with the row primitive too, negating the same pair in both forms.

    Its Jacobi sweep takes the fast path: suspects from numbers, their
    witnesses from the keyed sum over ``raw_terms``.
    """

    def numerators(self, a, idxs):
        row = self.inner.numerators(a, idxs)
        if a == self.pair[0] and self.pair[1] in idxs:
            p = idxs.index(self.pair[1])
            row[p] = -row[p]
        return row


class DroppedPair(CorruptedPair):
    """Wraps an algebra, emptying the bracket of one ordered index pair in both forms."""

    def raw_terms(self, a, b):
        return () if (a, b) == self.pair else self.inner.raw_terms(a, b)

    def numerators(self, a, idxs):
        row = self.inner.numerators(a, idxs)
        if a == self.pair[0] and self.pair[1] in idxs:
            row[idxs.index(self.pair[1])] = 0
        return row


class RawRow:
    """Mixin: ``raw_row`` for a one-pair wrapper of an ``AlgebraSpec``, read by the pair sweeps.

    A row is the inner spec's ``raw_row`` with the wrapped pair's entry
    replaced by the wrapper's ``raw_terms``, so the row path and the
    per-pair fallback read the same fault.
    """

    rows = 0

    def raw_row(self, a, idxs):
        self.rows += 1
        row = self.inner.raw_row(a, idxs)
        if a == self.pair[0] and self.pair[1] in idxs:
            row[idxs.index(self.pair[1])] = self.raw_terms(*self.pair)
        return row


def _raw_only(spec):
    """``spec`` as a duck-typed algebra without ``numerators``: Jacobi rows off ``raw_terms``."""
    return SimpleNamespace(raw_terms=spec.raw_terms, in_domain=spec.in_domain,
                           central_degrees=spec.central_degrees, den=spec.den)


_SYM = {name: symbol(name) for name in ("a1", "a2", "a2p")}


@settings(max_examples=60, deadline=None)
@given(algebra_specs(), st.integers(0, 3))
# both punctures with numeric and symbolic centres, the rows at j = s of
# each half-plane, and the factorial regions of c and cbar
@example(AlgebraSpec("block", 1, 2, a1=2, a2=Fraction(1, 3), a2p=-1), 3)
@example(AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2), **_SYM), 3)
@example(AlgebraSpec("bplus-", 2, **_SYM), 3)
@example(AlgebraSpec("bplus+", Fraction(3, 2), a1=Fraction(2, 3), a2=5, a2p=1), 3)
@example(AlgebraSpec("c", Fraction(2, 3)), 3)
@example(AlgebraSpec("cbar", Fraction(-5, 3)), 3)
# the quotient of c: its rows at j = -1 drop the brackets that land at j = -2
@example(QuotientC(Fraction(2, 3)), 3)
def test_numerators_match_raw_terms_property(spec, window):
    # numerators rows against rows read off raw_terms: every row the sweep
    # reads, the window's and the outside index sums', is raw_terms' number
    # at its degree's key, and the Jacobi kernel reports alike on both
    idxs = window_grid(spec, window)
    key_at = {deg: key for key, deg in spec.central_degrees().items()}
    sums = {(a[0] + b[0], a[1] + b[1]) for a in idxs for b in idxs} - set(idxs)
    for t in [*idxs, *sorted(sums)]:
        if t in key_at or not spec.in_domain(*t):
            continue
        expected = []
        for w in idxs:
            deg = (t[0] + w[0], t[1] + w[1])
            terms = dict(spec.raw_terms(t, w))
            assert terms.keys() <= {key_at.get(deg, deg)}
            expected.append(terms.get(key_at.get(deg, deg), 0))
        assert spec.numerators(t, idxs) == expected, (spec, t)
    fast, generic = check_jacobi(spec, window), check_jacobi(_raw_only(spec), window)
    assert fast == generic
    assert repr(fast.witnesses) == repr(generic.witnesses)
    if hasattr(spec, "raw_row"):  # rows read off raw_row rows
        assert check_jacobi(SimpleNamespace(**vars(_raw_only(spec)), raw_row=spec.raw_row),
                            window) == fast


@pytest.mark.parametrize("spec, pair", [
    (AlgebraSpec("vir", 1), ((1, 0), (2, 0))),  # the sweep stops at the cap mid-row
    (AlgebraSpec("block", 1, 2, **_SYM), ((0, 1), (-1, 1))),  # a C1 term at the puncture
    (AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2), a2=3, a2p=-1), ((0, 1), (-1, 2))),
    (AlgebraSpec("c", Fraction(2, 3)), ((1, 0), (0, -2))),  # the factorial region
    (AlgebraSpec("bplus+", Fraction(3, 2), a1=Fraction(2, 3), a2=5, a2p=1), ((0, 1), (-1, 0))),
])
def test_fast_kernel_finds_the_faults_of_the_generic_one(spec, pair):
    # a suspect found from numbers gets its witness from the keyed sum
    fast = check_jacobi(CorruptedRow(spec, pair), 2)
    generic = check_jacobi(CorruptedPair(spec, pair), 2)
    assert not fast.ok
    assert fast.checked_count == generic.checked_count
    assert repr(fast.witnesses) == repr(generic.witnesses)


class CorruptedMonomial(CorruptedPair):
    """Wraps an algebra, adding ``delta`` to one ordered pair's central numerator.

    Both ``raw_terms`` and ``numerators`` carry the change, so the Jacobi
    sweep takes the fast path with the polynomial entry changed.
    """

    def __init__(self, inner, pair, delta):
        super().__init__(inner, pair)
        self.delta = delta

    def raw_terms(self, a, b):
        terms = self.inner.raw_terms(a, b)
        if (a, b) == self.pair:
            return tuple((key, n + self.delta if isinstance(key, str) else n) for key, n in terms)
        return terms

    def numerators(self, a, idxs):
        row = self.inner.numerators(a, idxs)
        if a == self.pair[0] and self.pair[1] in idxs:
            row[idxs.index(self.pair[1])] += self.delta
        return row


def _assert_fast_matches_raw_only_and_reference(alg, window=2):
    # the substituted pass against rows read off raw_terms (substituted
    # alike) and against the Element reference, which substitutes nothing
    fast, generic = check_jacobi(alg, window), check_jacobi(_raw_only(alg), window)
    assert fast == generic
    assert repr(fast.witnesses) == repr(generic.witnesses)
    count, witnesses = reference_jacobi(alg, partial(AlgebraSpec.basis_bracket, alg), window)
    assert (fast.checked_count, fast.witnesses) == (count, witnesses)
    return fast


_T, _X = symbol("t"), symbol("x")


@pytest.mark.parametrize("spec, pair, delta", [
    # one monomial's coefficient of a C1 and of a C2 numerator
    (AlgebraSpec("block", 1, 2, **_SYM), ((0, 1), (-1, 1)), symbol("a1")),
    (AlgebraSpec("block", 1, 2, **_SYM), ((0, 2), (-2, 2)), -3 * symbol("a2p")),
    (AlgebraSpec("bplus-", 2, **_SYM), ((0, -1), (-2, 0)), 2 * symbol("a1")),
    # two monomials that would cancel if two symbols went to one power
    (AlgebraSpec("block", 1, 2, **_SYM), ((0, 2), (-2, 2)), symbol("a2") - symbol("a2p")),
    # a number that carries at a radix bounding the entries but not their
    # products: the entry -72 - 3x of a row outside the window becomes
    # 56 - 4x, so the entries' bound (a sum of |coefficients|) is M = 63, and
    # the change 128 - x is 0 at x = 2^(bitlen(M) + 1); at the radix above
    # 6M² it stays nonzero
    (AlgebraSpec("block", 1, 2, a1=0, a2=12, a2p=_X), ((-4, 2), (2, 2)), 128 - _X),
])
def test_substitution_finds_a_changed_monomial(spec, pair, delta):
    assert spec.raw_terms(*pair)[0][0] in ("C1", "C2")
    assert not _assert_fast_matches_raw_only_and_reference(CorruptedMonomial(spec, pair, delta)).ok


class PolynomialEntry(CorruptedMonomial):
    """``CorruptedMonomial`` at an L term: one pair's L numerator plus ``delta``, in both forms."""

    def raw_terms(self, a, b):
        terms = self.inner.raw_terms(a, b)
        if (a, b) == self.pair:
            return tuple((key, n if isinstance(key, str) else n + self.delta) for key, n in terms)
        return terms


@pytest.mark.parametrize("spec", [
    AlgebraSpec("block", 1, 2, **_SYM),  # the central probe substitutes
    AlgebraSpec("vir", 1),  # no central entry: the pass reads the polynomial as it is
], ids=["symbolic-centre", "numeric"])
@pytest.mark.parametrize("delta", [0 * symbol("a1"), symbol("a1"), symbol("t") - 1])
def test_substitution_reaches_a_polynomial_at_a_non_central_key(spec, delta):
    # a polynomial L numerator sits where no central degree is; the Jacobi
    # pass still decides every triple exactly as the Element reference does
    pair = ((1, 0), (2, 1))
    assert not isinstance(spec.raw_terms(*pair)[0][0], str)
    report = _assert_fast_matches_raw_only_and_reference(PolynomialEntry(spec, pair, delta))
    assert report.ok == (not delta)


@pytest.mark.parametrize("family, args", [("block", (1, 2)), ("bplus-", (2,))])
@pytest.mark.parametrize("centre", [
    {"a1": _T, "a2": _T, "a2p": symbol("a2p")},  # a1 = a2
    {"a1": _T * _T, "a2": _T, "a2p": 0},  # a1 = a2^2
])
def test_substitution_with_dependent_parameters(family, args, centre):
    spec = AlgebraSpec(family, *args, **centre)
    assert _assert_fast_matches_raw_only_and_reference(spec).ok
    pair = next((a, b) for a in window_grid(spec, 2) for b in window_grid(spec, 2)
                if any(isinstance(k, str) and n for k, n in spec.raw_terms(a, b)))
    assert not _assert_fast_matches_raw_only_and_reference(CorruptedRow(spec, pair)).ok


@pytest.mark.parametrize("a1", [10**30 * _X + 1, _X - 2**32, _X - 2**64, 2**64 * _X - 1])
def test_substitution_with_coefficients_past_a_fixed_width(a1):
    # x is the one symbol; a negated C1 term makes numbers that are
    # multiples of a1, zero at x = 2**32 or 2**64, so a radix of a fixed
    # width would hide them: the radix grows with the coefficients
    spec = AlgebraSpec("block", 1, 2, a1=a1, a2=2, a2p=1)
    assert _assert_fast_matches_raw_only_and_reference(spec).ok
    bad = _assert_fast_matches_raw_only_and_reference(CorruptedRow(spec, ((0, 1), (-1, 1))))
    assert not bad.ok


def test_jacobi_and_table_read_no_terms_of_a_clean_spec(monkeypatch):
    calls = Counter()
    raw_terms = AlgebraSpec.raw_terms

    def counting(self, a, b):
        calls[a, b] += 1
        return raw_terms(self, a, b)

    monkeypatch.setattr(AlgebraSpec, "raw_terms", counting)
    for spec, window in (
        (AlgebraSpec("d", Fraction(2, 3), Fraction(3, 2)), 2),
        (AlgebraSpec("block", 1, 2, a1=1, a2=2, a2p=3), 2),
        (AlgebraSpec("cbar", Fraction(2, 3)), 2),
        # symbolic centres: every number, an int after the substitution, is 0
        (AlgebraSpec("block", 1, 2, **_SYM), 2),
        (AlgebraSpec("bplus-", 2, **_SYM), 2),
        (AlgebraSpec("block", -1, -1, **_SYM), 3),
    ):
        assert check_jacobi(spec, window).ok
        assert len(json.loads(table_to_json(spec, window))) == len(window_grid(spec, window)) ** 2
    assert not calls
    # a suspect still reaches raw_terms through the keyed sum
    assert not check_jacobi(CorruptedRow(AlgebraSpec("vir", 1), ((1, 0), (2, 0))), 2).ok
    assert calls


def test_pair_sweeps_read_no_terms_of_a_clean_spec(monkeypatch):
    # antisymmetry and grading pass every pair of a clean spec from its
    # raw_row rows: a pass that lets a passing pair through to the exact
    # per-case rule reports alike, so only the raw_terms calls show it
    calls = Counter()
    raw_terms = AlgebraSpec.raw_terms

    def counting(self, a, b):
        calls[a, b] += 1
        return raw_terms(self, a, b)

    monkeypatch.setattr(AlgebraSpec, "raw_terms", counting)
    for spec in (
        AlgebraSpec("d", Fraction(2, 3), Fraction(3, 2)),
        AlgebraSpec("c", Fraction(2, 3)),
        AlgebraSpec("block", -1, -1, **_SYM),  # both punctures in the window
        AlgebraSpec("bplus+", Fraction(3, 2), a1=Fraction(2, 3), a2=5, a2p=1),
    ):
        for check in (check_antisymmetry, check_grading):
            report = check(spec, 3)
            assert report.ok and report.checked_count == len(window_grid(spec, 3)) ** 2
    assert not calls


def _clean_and_corrupted(spec, pair):
    """(algebra, Element bracket) for ``spec`` and for ``CorruptedPair(spec, pair)``."""
    def corrupted(a, b):
        result = spec.basis_bracket(a, b)
        return -result if (a, b) == pair else result

    return [(spec, spec.basis_bracket), (CorruptedPair(spec, pair), corrupted)]


def test_jacobi_matches_fraction_reference():
    sym = {name: symbol(name) for name in ("a1", "a2", "a2p")}
    # Each spec with the pair its CorruptedPair negates.  The block pairs
    # bracket into the central degree, so their witnesses carry C2 (numeric)
    # and C1 (symbolic) terms; the half-integral symbolic block scales its
    # polynomial terms by D = 2; the other two sweeps stop at the witness cap.
    # The half-plane families drop the outer brackets that leave their
    # half-plane; QuotientC, duck-typed, drops its terms at j <= -2; and
    # HalfPlaneCut returns terms outside its domain, which must not be
    # bracketed again; PrintedIndexC misgrades every c and cbar bracket,
    # MovedKey misgrades one pair's bracket, and ExtraKey gives it a second,
    # misgraded term, so their triples' cyclic terms need not share a key
    # and a one-number test cannot decide them.  On the pairs of ``outer``
    # MovedKey misgrades only a row of an index sum outside the window.
    moved = ((1, 0), (1, 1))
    outer = [((3, 0), (0, 1)), ((3, -1), (-2, 2))]
    cases = [
        (AlgebraSpec("d", Fraction(2, 3), Fraction(3, 2)), ((1, 0), (1, 1))),
        (
            AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2), a2=3, a2p=Fraction(-3, 4)),
            ((0, 1), (-1, 2)),
        ),
        (AlgebraSpec("block", 1, 2, **sym), ((0, 1), (-1, 1))),
        (AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2), **sym), ((0, 1), (-1, 2))),
        (PrintedIndexC(AlgebraSpec("c", Fraction(2, 3))), ((1, 0), (1, 1))),
        (PrintedIndexC(AlgebraSpec("cbar", Fraction(-5, 3))), ((1, 0), (1, -1))),
        (AlgebraSpec("bplus-", 2, a1=3, a2=Fraction(1, 2), a2p=-2), ((-1, 0), (-1, -1))),
        (
            AlgebraSpec("bplus+", Fraction(3, 2), a1=Fraction(2, 3), a2=5, a2p=1),
            ((0, 1), (-1, 0)),
        ),
        (QuotientC(Fraction(2, 3)), ((1, 0), (1, 1))),
        (HalfPlaneCut(AlgebraSpec("d", Fraction(2, 3), Fraction(3, 2))), ((1, 0), (1, 1))),
        (MovedKey(AlgebraSpec("vir", 1), moved), moved),
        (MovedKey(AlgebraSpec("d", Fraction(2, 3), Fraction(3, 2)), moved), moved),
        (ExtraKey(AlgebraSpec("vir", 1), moved), moved),
        *((MovedKey(spec, pair), pair) for spec in (
            AlgebraSpec("vir", 1), AlgebraSpec("d", Fraction(2, 3), Fraction(3, 2)),
        ) for pair in outer),
    ]
    denominators, kinds = set(), set()
    for spec, pair in cases:
        for alg, bracket in _clean_and_corrupted(spec, pair):
            report = check_jacobi(alg, 2)
            count, witnesses = reference_jacobi(alg, bracket, 2)
            assert report.checked_count == count, spec
            assert report.witnesses == witnesses, spec
            assert repr(report.witnesses) == repr(witnesses), spec
            if isinstance(spec, MovedKey):
                assert witnesses, spec
            for _, w in witnesses:
                kinds.update(basis.kind for basis in w.terms)
                denominators.update(
                    c.denominator for c in w.terms.values() if isinstance(c, Fraction)
                )
    assert kinds == {"L", "C1", "C2"}
    # a kernel that divides its integer sums by D instead of D^2 fails above
    assert max(denominators) > 1


@settings(max_examples=100, deadline=None)
@given(algebra_specs(), st.data())
def test_jacobi_kernel_matches_reference_property(spec, data):
    # every family, numeric and symbolic centres and the printed c index:
    # the scalar zero test and the keyed sum report what Element sums report
    if spec.family in ("c", "cbar") and data.draw(st.booleans()):
        spec = PrintedIndexC(spec)
    idxs = window_grid(spec, 1)
    pair = data.draw(st.tuples(st.sampled_from(idxs), st.sampled_from(idxs)))
    for alg, bracket in _clean_and_corrupted(spec, pair):
        report = check_jacobi(alg, 1)
        count, witnesses = reference_jacobi(alg, bracket, 1)
        assert report.checked_count == count
        assert repr(report.witnesses) == repr(witnesses)


@settings(max_examples=100, deadline=None)
@given(algebra_specs(), st.sampled_from([None, MovedKey, ExtraKey, HalfPlaneCut]), st.data())
def test_pair_sweeps_match_reference_property(spec, wrapper, data):
    # the row passes of antisymmetry and grading let only passing pairs
    # through: every family, clean, misgraded, cut or with one negated pair
    if wrapper is HalfPlaneCut:
        spec = HalfPlaneCut(spec)
    idxs = window_grid(spec, 2)
    pair = data.draw(st.tuples(st.sampled_from(idxs), st.sampled_from(idxs)))
    if wrapper in (MovedKey, ExtraKey):
        spec = wrapper(spec, pair)
    for alg, bracket in _clean_and_corrupted(spec, pair):
        for check, reference in ((check_antisymmetry, reference_antisymmetry),
                                 (check_grading, reference_grading)):
            report = check(alg, 2)
            count, witnesses = reference(alg, bracket, 2)
            assert report.checked_count == count
            assert repr(report.witnesses) == repr(witnesses)


@pytest.mark.parametrize("wrapper", [CorruptedPair, MovedKey, ExtraKey])
@pytest.mark.parametrize("spec, pair", [
    (AlgebraSpec("vir", 1), ((1, 0), (2, 0))),
    (AlgebraSpec("block", 1, 2, **_SYM), ((0, 1), (-1, 1))),  # the C1 term at the puncture
    (AlgebraSpec("bplus+", Fraction(3, 2), a1=Fraction(2, 3), a2=5, a2p=1), ((0, 1), (-1, 0))),
    (AlgebraSpec("block", 1, 2, **_SYM), ((1, 1), (0, -1))),
    (AlgebraSpec("c", Fraction(2, 3)), ((1, 0), (0, -2))),  # the factorial region
])
def test_pair_sweeps_read_rows_as_the_per_pair_fallback(wrapper, spec, pair):
    # a negated pair, a moved key and an extra key (the last two move only
    # L keys), read from raw_row rows and from one raw_terms call per pair:
    # the same counts and witnesses, which are the Element references'
    rowed, plain = type("Rowed", (RawRow, wrapper), {})(spec, pair), wrapper(spec, pair)
    bracket = partial(AlgebraSpec.basis_bracket, plain)
    n, oks = len(window_grid(spec, 2)), []
    for check, reference in ((check_antisymmetry, reference_antisymmetry),
                             (check_grading, reference_grading)):
        rowed.rows = 0
        fast, slow = check(rowed, 2), check(plain, 2)
        assert rowed.rows == n
        assert fast == slow
        assert repr(fast.witnesses) == repr(slow.witnesses)
        assert (fast.checked_count, fast.witnesses) == reference(plain, bracket, 2)
        oks.append(fast.ok)
    assert all(oks) == (plain.raw_terms(*pair) == spec.raw_terms(*pair))


class TableAlgebra:
    """A duck-typed algebra whose brackets are zero except the ones in ``table``.

    ``table`` maps an ordered index pair to one L term at the index sum, so
    the algebra is graded and its Jacobi sweep takes the scalar row pass.
    Its domain is the window of radius 2 plus every key in ``table``.
    """

    den = 1

    def __init__(self, table):
        self.table = {
            (a, b): (((a[0] + b[0], a[1] + b[1]), n),) for (a, b), n in table.items()
        }
        self.extra = {t for terms in self.table.values() for t, _ in terms}

    def in_domain(self, i, j):
        return max(abs(i), abs(j)) <= 2 or (i, j) in self.extra

    def central_degrees(self):
        return {}

    def raw_terms(self, a, b):
        return self.table.get((a, b), ())

    basis_bracket = AlgebraSpec.basis_bracket


def test_pair_sweeps_match_reference_on_one_sided_brackets():
    # [a, b] != 0 = [b, a]: the row pass must not let the empty side through
    alg = TableAlgebra({((1, 0), (0, 1)): 2, ((-1, -1), (2, 2)): -1})
    for check, reference in ((check_antisymmetry, reference_antisymmetry),
                             (check_grading, reference_grading)):
        report = check(alg, 2)
        assert (report.checked_count, report.witnesses) == reference(alg, alg.basis_bracket, 2)
    assert [at for at, _ in check_antisymmetry(alg, 2).witnesses] == [
        ((-1, -1), (2, 2)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((2, 2), (-1, -1))]


@pytest.mark.parametrize("table, at", [
    # [a, a] != 0 at one index, alone and beside a one-sided pair that
    # straddles it, so its row holds a mirror, the diagonal and a later q
    ({((1, 0), (1, 0)): 1}, [((1, 0), (1, 0))]),
    ({((0, 2), (1, 0)): 3, ((1, 0), (1, 0)): -2, ((1, 0), (2, 1)): 1},
     [((0, 2), (1, 0)), ((1, 0), (0, 2)), ((1, 0), (1, 0)), ((1, 0), (2, 1)),
      ((2, 1), (1, 0))]),
])
def test_antisymmetry_finds_a_fault_on_the_diagonal(table, at):
    alg = TableAlgebra(table)
    report = check_antisymmetry(alg, 2)
    assert (report.checked_count, report.witnesses) == reference_antisymmetry(
        alg, alg.basis_bracket, 2)
    assert [w for w, _ in report.witnesses] == at


def test_antisymmetry_cap_falls_on_a_mirrored_pair():
    # row 0 finds 19 one-sided pairs; the 20th witness is the mirror of the
    # first, in row 1 at q = 0, so the count stops at n + 1
    idxs = window_grid(TableAlgebra({}), 2)
    alg = TableAlgebra({(idxs[0], b): 1 for b in idxs[1:20]})
    report = check_antisymmetry(alg, 2)
    assert (report.checked_count, report.witnesses) == reference_antisymmetry(
        alg, alg.basis_bracket, 2)
    assert report.checked_count == len(idxs) + 1
    assert report.witnesses[-1][0] == (idxs[1], idxs[0])


def _jacobi_row(n, count):
    """(offset, size) in its row p of the count-th triple of a Jacobi sweep of n indices."""
    for p in range(n):
        size = (n - p) * (n - p + 1) // 2  # every (q, r) with p <= q <= r
        if count <= size:
            return count - 1, size
        count -= size
    raise AssertionError("count beyond the sweep")


def test_jacobi_counts_a_lone_witness_at_its_sweep_position(monkeypatch):
    # with a cap of one witness the count is the witness's position in the
    # sweep: each offset start(q) + r - q of a row p is checked where it
    # starts or ends a run of one q, and where it ends the row
    monkeypatch.setattr(verify, "MAX_WITNESSES", 1)
    idxs = window_grid(AlgebraSpec("vir", 1), 2)
    order = list(combinations_with_replacement(idxs, 3))
    for a, b, c in [((2, -2), (2, -1), (2, 2)), ((-1, 0), (0, 1), (0, 1)),
                    ((-2, 2), (1, -2), (2, 2)), ((0, 0), (2, 2), (2, 2)),
                    ((2, 1), (2, 2), (2, 2))]:
        t = (a[0] + b[0], a[1] + b[1])
        report = check_jacobi(TableAlgebra({(a, b): 1, (t, c): 1}), 2)
        assert [at for at, _ in report.witnesses] == [(a, b, c)]
        assert report.checked_count == order.index((a, b, c)) + 1


def test_jacobi_counts_at_row_boundaries():
    vir = AlgebraSpec("vir", 1)
    idxs = window_grid(vir, 2)
    n, last = len(idxs), (2, 2)
    assert idxs[-1] == last
    total = n * (n + 1) * (n + 2) // 6
    # the 20th witness in the middle of a row: graded (scalar row pass) and
    # misgraded (every triple a suspect)
    corrupted, bracket = _clean_and_corrupted(vir, ((1, 0), (2, 0)))[1]
    printed = PrintedIndexC(AlgebraSpec("c", 1))
    # the only failing triple ends the run q = (2, -1) of the row of
    # (2, -2), its four triples with r = (2, -1) .. (2, 2), mid-row:
    # [[a, b], c] = [L(4, -3), L(2, 2)] is the one nonzero bracket of a
    # cyclic sum
    run_end = TableAlgebra({((2, -2), (2, -1)): 1, ((4, -3), last): 1})
    assert n - idxs.index((2, -1)) == 4
    # the only failing triple is the sweep's last, (c, c, c)
    sweep_end = TableAlgebra({(last, last): 1, ((4, 4), last): 1})
    ats = []
    for alg, bracket, count, row in [
        (corrupted, bracket, 2601, (39, 78)),
        (printed, printed.basis_bracket, 44, (43, 325)),
        (run_end, run_end.basis_bracket, total, None),
        (sweep_end, sweep_end.basis_bracket, total, None),
    ]:
        report = check_jacobi(alg, 2)
        reference_count, witnesses = reference_jacobi(alg, bracket, 2)
        assert window_grid(alg, 2) == idxs
        assert report.checked_count == reference_count == count
        assert report.witnesses == witnesses
        assert repr(report.witnesses) == repr(witnesses)
        if row is not None:
            assert len(report.witnesses) == 20
            assert _jacobi_row(n, count) == row
        ats.append([at for at, _ in report.witnesses])
    assert ats[2] == [((2, -2), (2, -1), last)]
    assert ats[3] == [(last, last, last)]
    assert hashlib.sha256(repr(ats[:2]).encode()).hexdigest() == (
        "b06ef414f2407abd7f53bf43c53a464146f85bbb2af43e714db2d71a7ebdca4c"
    )


def test_symbolic_jacobi_families():
    assert symbolic_jacobi_D()
    assert symbolic_jacobi_block()


def _proof_rule(proof):
    """The coefficient function a symbolic Jacobi proof hands to ``symbolic_jacobi``."""
    rules = []
    with mock.patch.object(verify, "symbolic_jacobi", rules.append):
        proof()
    return rules[0]


def _rule_value(rule, a, b, alpha, beta):
    value = rule(*a, *b)
    if isinstance(value, MultiPoly):
        return value.eval({"alpha": alpha, "beta": beta})
    return Fraction(value)


def _kernel_value(spec, a, b):
    """The L-term coefficient of ``raw_terms`` over ``den`` at the index sum."""
    target = (a[0] + b[0], a[1] + b[1])
    return dict(fraction_terms(spec, a, b)).get(target, Fraction(0))


_parameter = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)
_small = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_c_generic = st.tuples(st.integers(-4, 4), st.integers(-1, 4))


@settings(max_examples=200, deadline=None)
@given(_parameter, _parameter, _small, _small, _c_generic, _c_generic)
def test_symbolic_rules_are_the_kernel_rule(alpha, beta, a, b, ca, cb):
    # The proofs evaluate the very rule that raw_terms runs: with the
    # parameters substituted, each proof's coefficient is the kernel's.
    rule_d = _proof_rule(symbolic_jacobi_D)
    cases = [
        (rule_d, AlgebraSpec("d", alpha, beta)),
        (_proof_rule(symbolic_jacobi_block), AlgebraSpec("block", alpha, beta)),
    ]
    target = (a[0] + b[0], a[1] + b[1])
    for rule, spec in cases:
        if all(spec.in_domain(*p) for p in (a, b, target)):
            assert _rule_value(rule, a, b, alpha, beta) == _kernel_value(spec, a, b)
    # vir is D(alpha, 0)
    vir = AlgebraSpec("vir", alpha)
    assert _rule_value(rule_d, a, b, alpha, Fraction(0)) == _kernel_value(vir, a, b)
    # the c/cbar generic region (j, ell >= -1, not both -1) is D(alpha, -1)
    if (ca[1], cb[1]) != (-1, -1):
        c = AlgebraSpec("c", alpha)
        assert _rule_value(rule_d, ca, cb, alpha, Fraction(-1)) == _kernel_value(c, ca, cb)


def test_symbolic_jacobi_rejects_mutation():
    alpha, beta = symbol("alpha"), symbol("beta")

    # A bare sign flip on the (k - i) term is absorbed by the symmetry
    # (i, j) -> (-i, j), beta -> -beta, so it still satisfies Jacobi.
    def sign_flip(i, j, k, ell, a=alpha, b=beta):
        return b * (i * ell - j * k) - (k - i) + (ell - j) * a

    assert symbolic_jacobi(sign_flip)

    def broken(i, j, k, ell, a=alpha, b=beta):
        # (k + i) destroys antisymmetry and genuinely breaks the identity
        return b * (i * ell - j * k) + (k + i) + (ell - j) * a

    assert not symbolic_jacobi(broken)


def test_symbolic_specializes_to_numeric():
    rng = random.Random(7)
    for _ in range(20):
        alpha = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        beta = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        spec = AlgebraSpec("d", alpha, beta)
        assert check_jacobi(spec, 3).ok


def test_symbolic_cocycle_implies_numeric():
    rng = random.Random(11)
    sym = AlgebraSpec(
        "block", 1, 2, a1=symbol("a1"), a2=symbol("a2"), a2p=symbol("a2p")
    )
    assert check_jacobi(sym, 2).ok
    for _ in range(5):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        spec = AlgebraSpec("block", 1, 2, a1=vals[0], a2=vals[1], a2p=vals[2])
        assert check_jacobi(spec, 2).ok


def test_grading_sweeps():
    for spec in (
        AlgebraSpec("vir", Fraction(1, 2)),
        AlgebraSpec("block", 1, 2, a1=1, a2=1, a2p=1),
        AlgebraSpec("bplus-", 1, a1=1, a2=1, a2p=1),
    ):
        assert check_grading(spec, 3).ok


def test_grading_block_central_terms_at_their_degree():
    spec = AlgebraSpec("block", 1, 2, a1=1, a2=1, a2p=1)
    seen = {"C1": 0, "C2": 0}
    for a in [(0, 1), (1, 0), (-2, 3), (2, -2), (-3, 4)]:
        for b in [(-1, 1), (-2, 2), (1, 1), (0, 4), (-3, 4), (1, 0)]:
            if not (spec.in_domain(*a) and spec.in_domain(*b)):
                continue
            result = spec.basis_bracket(a, b)
            for basis in result.terms:
                if basis.kind in seen:
                    seen[basis.kind] += 1
                    degree = spec.central_degrees()[basis.kind]
                    assert (a[0] + b[0], a[1] + b[1]) == degree
    assert seen["C1"] > 0 and seen["C2"] > 0


def test_grading_literal_index_variant_fails():
    for family in ("c", "cbar"):
        assert not check_grading(PrintedIndexC(AlgebraSpec(family, 1)), 2).ok
        assert check_grading(AlgebraSpec(family, 1), 2).ok


# -- the degree grid's edges -------------------------------------------------
#
# The table, the Jacobi set-up and grading read each index sum's key and row
# from a list over the box |i|, |j| <= 2W at the sum's code plus an offset.
# Lists take negative indices, so a wrong code or offset reads a wrong entry
# and raises nothing.  block(-5, 1) has C1 at (5, 1), inside the W=3 box but
# outside the window, and C2 at (10, 2), outside the box; block(-1, 4) has
# C2 at (2, 8), outside the box, where the code 2*13 + 8 is that of the box
# degree (3, -5).  At W=1 the C1 of block(1, 2) at (-1, 2) is inside the box
# and outside the window; at W=0 the box is (0, 0) alone.
_GRID_EDGES = [
    (AlgebraSpec("block", -5, 1, a1=2, a2=3, a2p=-1), 3),
    (AlgebraSpec("block", -5, 1, **_SYM), 3),
    (AlgebraSpec("block", -1, 4, a1=1, a2=2, a2p=3), 3),
    (AlgebraSpec("bplus-", 2, a1=1, a2=-2, a2p=3), 3),
    (AlgebraSpec("bplus+", Fraction(3, 2), a1=2, a2=5, a2p=1), 3),
    (AlgebraSpec("bplus+", 1, **_SYM), 3),
    (AlgebraSpec("block", 1, 2, a1=1, a2=2, a2p=3), 1),
    (AlgebraSpec("block", 1, 2, a1=1, a2=2, a2p=3), 0),
    (AlgebraSpec("bplus-", 1, a1=1, a2=2, a2p=3), 1),
    (AlgebraSpec("vir", Fraction(-5, 6)), 0),
    (AlgebraSpec("d", Fraction(2, 3), Fraction(-7, 4)), 1),
    (AlgebraSpec("c", Fraction(2, 3)), 1),
    (AlgebraSpec("cbar", Fraction(5, 3)), 0),
]


def test_grid_edges_are_where_the_comment_says():
    assert AlgebraSpec("block", -5, 1).central_degrees() == {"C1": (5, 1), "C2": (10, 2)}
    assert AlgebraSpec("block", -1, 4).central_degrees() == {"C1": (1, 4), "C2": (2, 8)}
    assert AlgebraSpec("block", 1, 2).central_degrees() == {"C1": (-1, 2), "C2": (-2, 4)}
    # (3, -5) is an index sum of the W=3 window, and a central one of its
    # table cells sits at (5, 1)
    spec = AlgebraSpec("block", -5, 1, a1=2, a2=3, a2p=-1)
    assert spec.raw_terms((3, 0), (2, 1))[0][0] == "C1"
    assert AlgebraSpec("block", -1, 4).raw_terms((3, -2), (0, -3))[0][0] == (3, -5)


def test_tables_at_the_grid_edges_match_terms_json():
    for spec, window in _GRID_EDGES:
        for sep in (None, ","):
            lines = table_lines(table_to_json(spec, window, sep))
            assert lines == reference_table(spec, window, sep), (spec, sep)


def test_clean_sweeps_at_the_grid_edges_read_each_bracket_once(monkeypatch):
    # Jacobi decides a clean spec from its numerator rows alone, and grading
    # reads each left index's raw-term row once and no single bracket: a
    # wrong grid entry makes a suspect, which the exact per-case rule would
    # clear at a raw_terms call, so only the calls show it
    calls, rows = Counter(), Counter()
    raw_terms, raw_row = AlgebraSpec.raw_terms, AlgebraSpec.raw_row

    def counting(self, a, b):
        calls[a, b] += 1
        return raw_terms(self, a, b)

    def counting_rows(self, a, idxs):
        rows[a, tuple(idxs)] += 1
        return raw_row(self, a, idxs)

    monkeypatch.setattr(AlgebraSpec, "raw_terms", counting)
    monkeypatch.setattr(AlgebraSpec, "raw_row", counting_rows)
    for spec, window in _GRID_EDGES:
        calls.clear()
        rows.clear()
        assert check_jacobi(spec, window).ok, (spec, window)
        assert not calls and not rows, (spec, window)
        report = check_grading(spec, window)
        idxs = window_grid(spec, window)
        assert rows == Counter({(a, tuple(idxs)): 1 for a in idxs}), (spec, window)
        assert not calls, (spec, window)
        reference = reference_grading(spec, partial(AlgebraSpec.basis_bracket, spec), window)
        assert (report.checked_count, report.witnesses) == reference == (len(idxs) ** 2, [])


@pytest.mark.parametrize("spec, pair", [
    # the inner bracket of every triple over (3, 0) = x + y and (2, 1) is C1
    # at (5, 1), a box degree outside the window
    (AlgebraSpec("block", -5, 1, a1=2, a2=3, a2p=-1), ((3, 0), (2, 1))),
    # the outer bracket lands at (3, -5), whose code is that of C2 at (2, 8)
    (AlgebraSpec("block", -1, 4, a1=1, a2=2, a2p=3), ((3, -2), (0, -3))),
    # the half-plane j >= -1: the outer bracket lands at (5, 6), on the
    # box's edge j = 2W
    (AlgebraSpec("bplus-", 2, a1=1, a2=-2, a2p=3), ((3, 3), (2, 3))),
], ids=["central-in-box", "aliased-code", "half-plane"])
def test_corrupted_sweeps_at_the_grid_edges_match_reference(spec, pair):
    assert not _assert_fast_matches_raw_only_and_reference(CorruptedRow(spec, pair), 3).ok


@pytest.mark.parametrize(
    "check, stop", [(check_antisymmetry, 41), (check_jacobi, 44), (check_grading, 42)]
)
def test_sweeps_stop_at_the_witness_cap(check, stop):
    report = check(PrintedIndexC(AlgebraSpec("c", 1)), 2)
    assert len(report.witnesses) == 20
    assert report.checked_count == stop


def test_capped_sweep_reports_are_pinned():
    spec = PrintedIndexC(AlgebraSpec("c", 1))
    h = hashlib.sha256()
    for check in (check_antisymmetry, check_jacobi, check_grading):
        h.update(repr(check(spec, 2).to_json()).encode())
    assert h.hexdigest() == (
        "6a0d75d2c50e759a04bca840581a840a34ccd5be9605f138e5d8ab839435ef0e"
    )


def test_report_json_shape():
    report = check_grading(AlgebraSpec("vir", 1), 1)
    data = report.to_json()
    assert data["check"] == "grading"
    assert data["witnesses"] == []
    assert data["checked_count"] == 81


def test_quotient_drops_low_terms():
    q = QuotientC(1)
    upstairs = AlgebraSpec("c", 1).basis_bracket((0, -1), (1, -1))
    assert upstairs
    assert not q.basis_bracket((0, -1), (1, -1))


def test_quotient_bracket_terms_drop_low_degrees():
    q, upstairs = QuotientC(Fraction(2, 3)), AlgebraSpec("c", Fraction(2, 3))
    idxs = [(i, j) for i in range(-2, 3) for j in range(-1, 3)]
    dropped = 0
    for a in idxs:
        for b in idxs:
            full = fraction_terms(upstairs, a, b)
            kept = tuple((key, c) for key, c in full if key[1] >= -1)
            assert fraction_terms(q, a, b) == kept
            assert q.basis_bracket(a, b) == Element({BasisElement.of(k): c for k, c in kept})
            dropped += len(full) - len(kept)
    assert dropped > 0


def test_quotient_contract():
    q = QuotientC(1)
    # an input index at j <= -2, on either side, is outside the domain
    with pytest.raises(DomainError, match=r"\(2, -5\) not in domain"):
        q.basis_bracket((2, -5), (1, 4))
    with pytest.raises(DomainError, match=r"\(0, -3\) not in domain"):
        q.raw_terms((0, -3), (1, 2))
    with pytest.raises(DomainError, match=r"\(0, -3\) not in domain"):
        q.raw_terms((1, 2), (0, -3))
    # the Element view is AlgebraSpec's, read from raw_terms and den
    assert QuotientC.basis_bracket is AlgebraSpec.basis_bracket
    alg = QuotientC(Fraction(2, 3))
    report = check_grading(alg, 3)
    assert report.ok
    assert report.checked_count == len(window_grid(alg, 3)) ** 2


def test_quotient_numerators_refuse_a_low_index():
    q = QuotientC(Fraction(2, 3))
    idxs = window_grid(q, 2)
    for a in ((0, -2), (3, -5)):  # raw_terms' refusal, message and all
        with pytest.raises(DomainError) as row_error:
            q.numerators(a, idxs)
        with pytest.raises(DomainError) as terms_error:
            q.raw_terms(a, (0, 0))
        assert str(row_error.value) == str(terms_error.value) == (
            f"{a} not in domain of the quotient of c")
    # a row at j = -1 is the upstairs row with its entries at j = -1 set to 0
    upstairs = AlgebraSpec("c", Fraction(2, 3)).numerators((1, -1), idxs)
    assert any(n for w, n in zip(idxs, upstairs) if w[1] == -1)
    assert q.numerators((1, -1), idxs) == [0 if w[1] == -1 else n for w, n in zip(idxs, upstairs)]


def test_identity_isomorphism():
    vir = AlgebraSpec("vir", 1)
    lam = find_diagonal_isomorphism(vir, vir, lambda t: t, 3)
    assert lam is not None
    assert all(v == 1 for v in lam.values())


def test_distinct_alpha_not_isomorphic():
    lam = find_diagonal_isomorphism(
        AlgebraSpec("vir", 1), AlgebraSpec("vir", 2), lambda t: t, 3
    )
    assert lam is None


def test_isomorphism_outcomes_without_witness():
    block = AlgebraSpec("block", 1, 2, a1=1, a2=1, a2p=1)
    with pytest.raises(ValueError, match="central"):
        find_diagonal_isomorphism(block, block, lambda t: t, 2)
    lam = find_diagonal_isomorphism(
        AlgebraSpec("vir", 1), AlgebraSpec("d", 1, 1), lambda t: t, 2
    )
    assert lam is None
    # the c family keeps the terms at j <= -2 that the quotient drops
    lam = find_diagonal_isomorphism(QuotientC(1), AlgebraSpec("c", 1), lambda t: t, 2)
    assert lam is None
    # a symbolic B-side centre that a bracket reaches is refused
    sym_target = AlgebraSpec("bplus-", -1, a1=symbol("a1"), a2=0, a2p=0)
    with pytest.raises(ValueError, match="B-side symbolic"):
        find_diagonal_isomorphism(QuotientC(1), sym_target, lambda t: t, 2)
    # an A-side central term is refused first, on the same pair
    sym_block = AlgebraSpec("block", 1, 2, a1=symbol("a1"), a2=symbol("a2"), a2p=symbol("a2p"))
    with pytest.raises(ValueError, match="A-side central"):
        find_diagonal_isomorphism(sym_block, sym_block, lambda t: t, 2)


def test_quotient_isomorphism_to_half_plane_block():
    q = QuotientC(1)
    target = AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0)
    lam = find_diagonal_isomorphism(q, target, lambda t: t, 3)
    assert lam is not None
    # brackets landing on the removed index (1,-1) go to the central line
    left = q.basis_bracket((0, -1), (1, 0))
    assert list(left.terms) == [BasisElement("L", 1, -1)]
    image = target.basis_bracket((0, -1), (1, 0))
    assert list(image.terms) == [BasisElement("C1")]


def test_isomorphism_refuses_a_central_image_that_brackets():
    # L(-2, 2) of d(1, 1) lands on C2 of block(1, 1), which is central, but
    # it brackets to nonzero in d(1, 1)
    d = AlgebraSpec("d", 1, 1)
    assert fraction_terms(d, (-2, 2), (1, 0)) == (((-1, 2), Fraction(-1)),)
    block = AlgebraSpec("block", 1, 1, a1=1, a2=0, a2p=0)
    assert find_diagonal_isomorphism(d, block, lambda t: t, 3) is None


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("alg_a, alg_b, index_map", [
    (AlgebraSpec("block", 1, 1), AlgebraSpec("bplus-", 1), lambda t: (-t[1], t[0])),
    (AlgebraSpec("block", 1, -1), AlgebraSpec("bplus-", 1), lambda t: t),
    (AlgebraSpec("d", 1, -1), QuotientC(1), lambda t: t),
    (AlgebraSpec("d", 1, 1), QuotientC(1), lambda t: (-t[0], -t[1])),
], ids=["block-rotated-to-bplus", "block-to-bplus", "d-to-quotient",
        "d-negated-to-quotient"])
def test_isomorphism_refuses_a_partial_map(alg_a, alg_b, index_map, window):
    # some window index of A has neither a B basis index nor a B central
    # degree as its image, and every row that the search reads still matches
    idxs = window_grid(alg_a, window)
    central = set(alg_b.central_degrees().values())
    lost = [a for a in idxs if not alg_b.in_domain(*index_map(a))]
    assert lost and not central.intersection(map(index_map, lost))
    assert find_diagonal_isomorphism(alg_a, alg_b, index_map, window) is None
    assert reference_isomorphism(alg_a, alg_b, index_map, window) is None
    # e.g. [L(-1, 0), L(-2, 0)] = -L(-3, 0) of block(1, 1) at W=3, and (-3, 0)
    # goes to (0, -3), below the half-plane of bplus-(1)
    if window == 3 and alg_a == AlgebraSpec("block", 1, 1):
        assert fraction_terms(alg_a, (-1, 0), (-2, 0)) == (((-3, 0), Fraction(-1)),)
        assert (-3, 0) in lost


@pytest.mark.parametrize("window", [2, 3])
def test_isomorphism_accepts_the_inverse_rotation_into_block(window):
    # every image of bplus-(1)'s window lies in block(1, 1)'s domain, so the
    # witness is a diagonal homomorphism on A's window; its images need not
    # cover B's window
    alg_a, alg_b = AlgebraSpec("bplus-", 1), AlgebraSpec("block", 1, 1)
    index_map = lambda t: (t[1], -t[0])  # noqa: E731
    lam = find_diagonal_isomorphism(alg_a, alg_b, index_map, window)
    assert lam is not None and sorted(lam) == window_grid(alg_a, window)
    _assert_same_scalars(lam, reference_isomorphism(alg_a, alg_b, index_map, window))
    covered = {index_map(a) for a in lam}
    assert covered < set(window_grid(alg_b, window))


def test_isomorphism_maps_each_window_index_once():
    calls = Counter()

    def index_map(t):
        calls[t] += 1
        return t

    q = QuotientC(1)
    assert find_diagonal_isomorphism(
        q, AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0), index_map, 3) is not None
    assert set(window_grid(q, 3)) <= calls.keys()
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("alg_a, alg_b, index_map, found", [
    (AlgebraSpec("d", 1, 3), AlgebraSpec("d", 1, 3), lambda t: (t[0], t[1]), True),
    (AlgebraSpec("bplus-", 1), AlgebraSpec("block", 1, 1), lambda t: (t[1], -t[0]), True),
    (AlgebraSpec("block", 1, 1), AlgebraSpec("bplus-", 1), lambda t: (-t[1], t[0]), False),
], ids=["d-identity", "bplus-rotated-into-block", "block-rotated-partially"])
def test_isomorphism_takes_list_images_as_tuples(alg_a, alg_b, index_map, found):
    lam = find_diagonal_isomorphism(alg_a, alg_b, index_map, 2)
    assert (lam is not None) is found
    assert find_diagonal_isomorphism(alg_a, alg_b, lambda t: list(index_map(t)), 2) == lam


def test_isomorphism_reads_no_terms(monkeypatch):
    calls = Counter()

    def counting(raw_terms):
        def wrapped(self, a, b):
            calls[a, b] += 1
            return raw_terms(self, a, b)
        return wrapped

    monkeypatch.setattr(AlgebraSpec, "raw_terms", counting(AlgebraSpec.raw_terms))
    monkeypatch.setattr(QuotientC, "raw_terms", counting(QuotientC.raw_terms))
    q, target = QuotientC(1), AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0)
    assert find_diagonal_isomorphism(q, target, lambda t: t, 3) is not None
    vir = AlgebraSpec("vir", Fraction(2, 3))
    assert find_diagonal_isomorphism(vir, vir, lambda t: t, 3) is not None
    assert not calls


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=25, deadline=None)
@given(_fractions.filter(bool), st.none() | _fractions, st.integers(1, 5))
@example(Fraction(1), Fraction(1), 5)
@example(Fraction(2), Fraction(3, 2), 5)
def test_quotient_isomorphism_matches_reference_property(alpha, a1, window):
    # the benchmark's shape: the quotient of c(alpha) onto bplus-(-alpha, a1)
    q, target = QuotientC(alpha), AlgebraSpec("bplus-", -alpha, a1=a1, a2=0, a2p=0)
    lam = find_diagonal_isomorphism(q, target, lambda t: t, window)
    _assert_same_scalars(lam, reference_isomorphism(q, target, lambda t: t, window))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["vir", "d"]), _fractions.filter(bool), _fractions.filter(bool),
       _fractions.filter(bool), st.integers(1, 3))
def test_closed_isomorphism_matches_reference_property(family, alpha, other, beta, window):
    # vir or d onto itself (found), and onto another alpha (None)
    beta = beta if family == "d" else None
    spec = AlgebraSpec(family, alpha, beta)
    lam = find_diagonal_isomorphism(spec, spec, lambda t: t, window)
    _assert_same_scalars(lam, reference_isomorphism(spec, spec, lambda t: t, window))
    assert lam is not None
    if other != alpha:
        moved = AlgebraSpec(family, other, beta)
        lam = find_diagonal_isomorphism(spec, moved, lambda t: t, window)
        _assert_same_scalars(lam, reference_isomorphism(spec, moved, lambda t: t, window))
        assert lam is None


@pytest.mark.parametrize("corrupt_b", [False, True])
@pytest.mark.parametrize("pair", [((1, 0), (2, 0)), ((2, 0), (1, 0))])
def test_isomorphism_keeps_a_mirrored_equation_that_differs(pair, corrupt_b):
    # One side negates one ordered pair, so (a, b) and (b, a) are two
    # equations that contradict each other; only a pair whose both
    # numerators are negated shares one equation with its mirror.  (1, 0)
    # precedes (2, 0).
    spec = AlgebraSpec("vir", Fraction(2, 3))
    assert find_diagonal_isomorphism(spec, spec, lambda t: t, 3) is not None
    bad = CorruptedRow(spec, pair)
    alg_a, alg_b = (spec, bad) if corrupt_b else (bad, spec)
    lam = find_diagonal_isomorphism(alg_a, alg_b, lambda t: t, 3)
    _assert_same_scalars(lam, reference_isomorphism(alg_a, alg_b, lambda t: t, 3))
    assert lam is None


def test_quotient_isomorphism_witness_is_pinned():
    lam = find_diagonal_isomorphism(
        QuotientC(1), AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0), lambda t: t, 4
    )
    items = sorted(lam.items())
    assert len(items) == 54
    assert {v for _, v in items} == {-1, 1}
    assert hashlib.sha256(repr(items).encode()).hexdigest() == (
        "45681cc79155845d1b52d3d40194f1d8b3d92b256edce06c1cc63c77bf4f8d5e"
    )


def test_propagate_scalars_repeated_occurrences():
    one = 1
    # target equal to its source (an i = 0 intertwiner equation): only checked
    assert solve_equations([0], [(0, one, (0,), one)], [0]) == {0: 1}
    assert solve_equations([0, 1], [(0, one, (0,), 2 * one)], [1]) is None
    # target equal to one source (b = (0,0)): the other source is solved
    eqs = [("a", 3 * one, ("a", "z"), 2 * one)]
    assert solve_equations(["a", "z"], eqs, ["a"]) == {"a": 1, "z": Fraction(3, 2)}
    # a squared source is solved forwards, never backwards
    eqs = [("t", one, ("a", "a"), 4 * one)]
    assert solve_equations(["a", "t"], eqs, ["a"]) == {"a": 1, "t": 4}
    assert solve_equations(["a", "t"], eqs, ["t"]) is None
    # values travel along a chain in both directions from the seed
    eqs = [(1, 2 * one, (0,), one), (2, one, (1,), 3 * one)]
    assert solve_equations([0, 1, 2], eqs, [1]) == {0: 2, 1: 1, 2: 3}


def test_propagation_checks_every_equation_once_all_unknowns_are_set():
    # the first two equations set every unknown, x = (1, 2, 6), so solving
    # stops there; the row check then decides every equation, those two
    # included
    chain = [(1, 1, (0,), 2), (2, 1, (1,), 3)]
    assert solve_equations([0, 1, 2], [*chain, (2, 1, (0,), 5)], [0]) is None
    found = solve_equations([0, 1, 2], [*chain, (2, 1, (0, 1), 3)], [0])
    assert found == {0: 1, 1: 2, 2: 6}
    assert solve_equations([0, 1, 2], [*chain, (2, 1, (0, 1), 4)], [0]) is None
    # a seed outside ``unknowns`` does not count towards every unknown set
    found = solve_equations([0, 1, 2], [*chain, (2, 1, (1,), 3)], [0, "s"])
    assert found == {0: 1, 1: 2, 2: 6}


def test_row_check_takes_over_in_the_middle_of_a_row():
    # With 2*lhs*x[t] == 3*rhs*x[head]*x[s]: the first two entries of row 0
    # set x = (1, 3/2, 5/3) from the seed, so solving stops in the middle of
    # row 0.  The row check then decides every entry of both rows, the two
    # solved from included, over the common denominator 6.
    rows = [(None, [1, 2, 2], [0, 0, 1], [1, 9, 27], [1, 10, 20]),
            (1, [2, 0], [1, 2], [81, 15], [40, 4])]
    expected = {0: 1, 1: Fraction(3, 2), 2: Fraction(5, 3)}
    _assert_same_scalars(propagate_scalars([0, 1, 2], rows, [0], (2, 3)), expected)
    for r, row in enumerate(rows):
        for q in range(len(row[1])):
            bad = [list(v) if isinstance(v, list) else v for v in row]
            bad[4][q] += 1
            moved = [*rows[:r], tuple(bad), *rows[r + 1:]]
            assert propagate_scalars([0, 1, 2], moved, [0], (2, 3)) is None
            assert reference_propagate_scalars([0, 1, 2], row_equations(moved, (2, 3)), [0]) is None


def test_row_entries_that_are_zero():
    # Solving leaves an entry with a zero side alone, and the row check
    # decides it: 0 = 0 holds, and a zero on one side only would force a
    # zero scalar, whether solving stops in its row (row 0) or before (row 1)
    chain = (None, [1], [0], [1], [2])
    for rows in ([(None, [1, 1], [0, 0], [0, 1], [0, 2])],
                 [chain, (0, [1, 1], [0, 0], [0, 1], [0, 2])]):
        assert propagate_scalars([0, 1], rows, [0]) == {0: 1, 1: 2}
    for lhs, rhs in (([1, 1], [0, 2]), ([1, 0], [2, 2])):
        assert propagate_scalars([0, 1], [(None, [1, 1], [0, 0], lhs, rhs)], [0]) is None
        assert propagate_scalars([0, 1], [chain, (None, [1, 1], [0, 0], lhs, rhs)], [0]) is None


@st.composite
def consistent_scalar_rows(draw):
    """Rows with a hidden nonzero solution, 1 on the seeds, under a drawn ``scale``.

    Heads and sources repeat and may equal a target; an entry may be zero
    on both sides, and one optional entry is perturbed.
    """
    unknowns = list(range(draw(st.integers(2, 6))))
    seeds = draw(st.lists(st.sampled_from(unknowns), min_size=1, max_size=2))
    values = st.sampled_from([Fraction(v) for v in ("1", "-1", "2", "-3", "1/2", "-2/3", "5/3")])
    hidden = {u: Fraction(1) if u in seeds else draw(values) for u in unknowns}
    scale = draw(st.sampled_from([(1, 1), (2, 3), (-4, 1)]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.none() | st.sampled_from(unknowns))
        row = (head, [], [], [], [])
        for _ in range(draw(st.integers(0, 4))):
            t, s = draw(st.sampled_from(unknowns)), draw(st.sampled_from(unknowns))
            # rhs / lhs = c_l x[t] / (c_r x[head] x[s])
            x_head = 1 if head is None else hidden[head]
            ratio = scale[0] * hidden[t] / (scale[1] * x_head * hidden[s])
            f = draw(st.sampled_from((0, 1, -1, 2, -3)))
            for v, c in zip(row[1:], (t, s, f * ratio.denominator, f * ratio.numerator)):
                v.append(c)
        rows.append(row)
    entries = [(r, q) for r, row in enumerate(rows) for q in range(len(row[1]))]
    perturbed = bool(entries) and draw(st.booleans())
    if perturbed:
        r, q = draw(st.sampled_from(entries))
        rows[r][4][q] = rows[r][4][q] * draw(st.sampled_from((2, -1, 3))) + 1
    return unknowns, rows, seeds, scale, hidden, perturbed


@settings(max_examples=300, deadline=None)
@given(consistent_scalar_rows())
def test_row_propagation_matches_reference(system):
    unknowns, rows, seeds, scale, hidden, perturbed = system
    equations = row_equations(rows, scale)
    if any(not (c_lhs and c_rhs) for _, c_lhs, _, c_rhs in equations):
        assert propagate_scalars(unknowns, rows, seeds, scale) is None  # a one-sided zero
        return
    found = propagate_scalars(unknowns, rows, seeds, scale)
    _assert_same_scalars(found, reference_propagate_scalars(unknowns, equations, seeds))
    assert propagate_scalars(unknowns, rows[::-1], seeds, scale) == found
    if found is not None and not perturbed:
        assert all(found[u] in (hidden[u], 1) for u in unknowns)


def test_isomorphism_reads_every_row_to_its_ends():
    # Faults in the first and last column of every row: a negated B
    # numerator at a pair whose sum is in the window (an equation), and an
    # emptied one at a pair whose sum is outside it (only the zero pattern
    # sees it).  Each leaves no map.
    spec = AlgebraSpec("vir", Fraction(2, 3))
    idxs = window_grid(spec, 2)
    for a in idxs:
        for b, n in zip((idxs[0], idxs[-1]), spec.numerators(a, [idxs[0], idxs[-1]])):
            if n:
                wrap = CorruptedRow if (a[0] + b[0], a[1] + b[1]) in idxs else DroppedPair
                bad = wrap(spec, (a, b))
                assert find_diagonal_isomorphism(spec, bad, lambda t: t, 2) is None
                assert reference_isomorphism(spec, bad, lambda t: t, 2) is None


def _spy_rows(monkeypatch):
    """Record (unknowns, rows, seeds, scale) of each call of ``propagate_scalars``."""
    handed = []

    def spy(unknowns, rows, seeds, scale=(1, 1)):
        handed.append((unknowns, rows, seeds, scale))
        return propagate_scalars(unknowns, rows, seeds, scale)

    monkeypatch.setattr(verify, "propagate_scalars", spy)
    monkeypatch.setattr(virmodules, "propagate_scalars", spy)
    return handed


def test_seed_rows_set_every_scalar_at_the_benchmark_sizes(monkeypatch):
    # Both searches hand over first the rows that reach every scalar from
    # the seeds (here with a few equations of the next row on the
    # quotient), so the row check decides all the others.
    handed = _spy_rows(monkeypatch)
    m1, m2 = ModuleSpec("a_ab", Fraction(5, 2), 0), ModuleSpec("a_ab", Fraction(5, 2), 1)
    assert find_intertwiner(m1, m2, 40) is not None
    target = AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0)
    assert find_diagonal_isomorphism(QuotientC(1), target, lambda t: t, 5) is not None
    (unknowns, rows, seeds, scale), isomorphism = handed
    equations = row_equations(rows, scale)
    assert (len(unknowns), len(rows), len(equations)) == (81, 81, 4921)
    assert seeded_prefix(unknowns, equations, seeds) <= len(rows[0][1]) == 80  # the row i = 1
    unknowns, rows, seeds, scale = isomorphism
    equations = row_equations(rows, scale)
    # 1412 antisymmetric pairs, each an equation in both orders
    assert (len(unknowns), len(rows), len(equations)) == (77, 76, 2824)
    assert seeded_prefix(unknowns, equations, seeds) <= 150


@pytest.mark.parametrize("search", ["quotient1", "quotient2", "subquotients"])
def test_propagation_goes_on_past_the_seed_rows(monkeypatch, search):
    # The seed rows alone leave scalars unset: on the quotients at W=5, and
    # past the k = -2 hole of the subquotient pair at W=40.  The solver keeps
    # propagating into the later rows before the row check takes over.
    handed = _spy_rows(monkeypatch)
    if search == "subquotients":
        m1 = irreducible_subquotient(ModuleSpec("a_ab", 2, 0))
        m2 = irreducible_subquotient(ModuleSpec("a_ab", 2, 1))
        found, reference = find_intertwiner(m1, m2, 40), reference_intertwiner(m1, m2, 40)
        ((unknowns, rows, seeds, scale),) = handed
        seed_rows = rows[:1]  # the row i = 1
    else:
        alpha = {"quotient1": 1, "quotient2": 2}[search]
        q, target = QuotientC(alpha), AlgebraSpec("bplus-", -alpha, a1=1, a2=0, a2p=0)
        found = find_diagonal_isomorphism(q, target, lambda t: t, 5)
        reference = reference_isomorphism(q, target, lambda t: t, 5)
        ((unknowns, rows, seeds, scale),) = handed
        seed_rows = [row for row in rows if row[0] in seeds]
        assert rows[:len(seed_rows)] == seed_rows
    assert seeded_prefix(unknowns, row_equations(seed_rows, scale), seeds) is None
    assert seeded_prefix(unknowns, row_equations(rows, scale), seeds) is not None
    assert found is not None
    _assert_same_scalars(found, reference)


@pytest.mark.parametrize("alg_a, alg_b", [
    (AlgebraSpec("vir", Fraction(2, 3)), AlgebraSpec("vir", Fraction(2, 3))),
    (QuotientC(1), AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0)),
])
def test_isomorphism_catches_a_fault_in_its_last_row(alg_a, alg_b):
    # The seed rows go first, so the last row handed over is the last
    # window index, a = (3, 3), and the row check alone decides it.  Each
    # case negates one of its B numerators at a pair (a, b) with a + b in
    # the window; the mirror (b, a) keeps its sign, so no map exists.
    idxs = window_grid(alg_a, 3)
    a = idxs[-1]
    assert find_diagonal_isomorphism(alg_a, alg_b, lambda t: t, 3) is not None
    faults = [b for b, n in zip(idxs, alg_b.numerators(a, idxs))
              if n and (a[0] + b[0], a[1] + b[1]) in idxs]
    assert len(faults) >= 6
    for b in faults:
        bad = CorruptedRow(alg_b, (a, b))
        lam = find_diagonal_isomorphism(alg_a, bad, lambda t: t, 3)
        assert lam is None
        assert reference_isomorphism(alg_a, bad, lambda t: t, 3) is None


def _assert_same_scalars(found, reference):
    assert found == reference
    if found is not None:
        assert list(found) == list(reference)
        assert all(type(v) is Fraction for v in found.values())


def test_int_propagation_matches_fraction_reference():
    # intertwiners: fractional alpha (found), unequal denominators and
    # a_paren onto b_paren (None), the full degenerate pair (None) and
    # subquotient pairs (found), all at W=6; then a_paren onto a_ab(0, 1)
    # over unequal denominators, found at W=1 and None at W=2
    found = 0
    pairs = [
        (ModuleSpec("a_ab", Fraction(5, 2), 0), ModuleSpec("a_ab", Fraction(5, 2), 1)),
        (ModuleSpec("a_ab", Fraction(-7, 3), 1), ModuleSpec("a_ab", Fraction(-7, 3), 0)),
        (ModuleSpec("a_ab", Fraction(1, 3), Fraction(3, 4)),
         ModuleSpec("a_ab", Fraction(1, 3), Fraction(3, 4))),
        (ModuleSpec("a_ab", Fraction(1, 2), Fraction(1, 3)),
         ModuleSpec("a_ab", Fraction(1, 2), 1)),
        (ModuleSpec("a_paren", Fraction(2, 5)), ModuleSpec("b_paren", Fraction(2, 5))),
        (ModuleSpec("a_ab", 0, 0), ModuleSpec("a_ab", 0, 1)),
        (irreducible_subquotient(ModuleSpec("a_ab", 0, 0)),
         irreducible_subquotient(ModuleSpec("a_ab", 0, 1))),
        (irreducible_subquotient(ModuleSpec("a_ab", -2, 1)),
         irreducible_subquotient(ModuleSpec("a_ab", -2, 0))),
    ]
    paren_onto_ab = (ModuleSpec("a_paren", Fraction(2, 5)), ModuleSpec("a_ab", 0, 1))
    pairs = [(6, pair) for pair in pairs] + [(1, paren_onto_ab), (2, paren_onto_ab)]
    for window, (m1, m2) in pairs:
        w = find_intertwiner(m1, m2, window)
        _assert_same_scalars(w, reference_intertwiner(m1, m2, window))
        found += w is not None
    assert found == 6
    # diagonal isomorphisms: the quotient onto bplus-, vir onto itself (found)
    # and onto another alpha (None)
    for alg_a, alg_b, ok in [
        (QuotientC(1), AlgebraSpec("bplus-", -1, a1=1, a2=0, a2p=0), True),
        (QuotientC(2), AlgebraSpec("bplus-", -2, a1=Fraction(3, 2), a2=0, a2p=0), True),
        (AlgebraSpec("vir", Fraction(2, 3)), AlgebraSpec("vir", Fraction(2, 3)), True),
        (AlgebraSpec("vir", 1), AlgebraSpec("vir", 2), False),
    ]:
        lam = find_diagonal_isomorphism(alg_a, alg_b, lambda t: t, 3)
        _assert_same_scalars(lam, reference_isomorphism(alg_a, alg_b, lambda t: t, 3))
        assert (lam is not None) == ok
    # direct systems: negative coefficients, scalars with denominators, both
    # directions of a two-source equation, and a contradiction that only
    # the final check sees (both equations fix x1 from x0; the second is skipped)
    for unknowns, eqs, seeds, expected in [
        ([0, 1, 2], [(1, -2, (0,), 3), (2, 5, (1,), -4)], [0],
         {0: 1, 1: Fraction(-3, 2), 2: Fraction(6, 5)}),
        (["a", "b", "t"], [("b", 2, ("t",), 3), ("t", 6, ("a", "b"), -4)], ["t"],
         {"a": -1, "b": Fraction(3, 2), "t": 1}),
        (["a", "b", "t"], [("b", 2, ("a",), 3), ("t", 6, ("a", "b"), -4)], ["a"],
         {"a": 1, "b": Fraction(3, 2), "t": -1}),
        ([0, 1], [(1, 2, (0,), 1), (1, 1, (0,), 1)], [0], None),
        ([0, 1, 2], [(1, 3, (0,), 1), (2, 3, (1,), 1), (2, 1, (0,), 9)], [0], None),
    ]:
        got = solve_equations(unknowns, eqs, seeds)
        assert got == expected
        _assert_same_scalars(got, reference_propagate_scalars(unknowns, eqs, seeds))


_nonzero = st.integers(-6, 6).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4), _nonzero, st.lists(st.integers(0, 4), min_size=1, max_size=2),
              _nonzero),
    max_size=8,
))
def test_int_propagation_property(raw):
    eqs = [(t, c_lhs, tuple(sources), c_rhs) for t, c_lhs, sources, c_rhs in raw]
    unknowns = list(range(5))
    _assert_same_scalars(
        solve_equations(unknowns, eqs, [0]), reference_propagate_scalars(unknowns, eqs, [0])
    )


@st.composite
def consistent_scalar_systems(draw):
    """A multiplicative system with a hidden nonzero solution, 1 on the seeds.

    Each equation's coefficients are read off the hidden solution, so the
    system is consistent unless its one optional perturbed equation breaks
    it.  Sources repeat, a target may be among its sources, and the
    equations come in a shuffled order.
    """
    unknowns = list(range(draw(st.integers(2, 6))))
    seeds = draw(st.lists(st.sampled_from(unknowns), min_size=1, max_size=2))
    values = st.sampled_from([Fraction(v) for v in ("1", "-1", "2", "-3", "1/2", "-2/3", "5/3")])
    hidden = {u: Fraction(1) if u in seeds else draw(values) for u in unknowns}
    equations = []
    for _ in range(draw(st.integers(1, 10))):
        t = draw(st.sampled_from(unknowns))
        sources = tuple(draw(st.lists(st.sampled_from(unknowns), min_size=1, max_size=2)))
        ratio = hidden[t] / math.prod(hidden[s] for s in sources)  # c_rhs / c_lhs
        scale = draw(st.sampled_from((1, -1, 2, -3)))
        equations.append((t, scale * ratio.denominator, sources, scale * ratio.numerator))
    perturbed = draw(st.booleans())
    if perturbed:
        n = draw(st.integers(0, len(equations) - 1))
        t, c_lhs, sources, c_rhs = equations[n]
        equations[n] = (t, c_lhs, sources, c_rhs * draw(st.sampled_from((2, -1, 3))))
    equations = draw(st.permutations(equations))
    return unknowns, equations, seeds, hidden, perturbed


@settings(max_examples=300, deadline=None)
@given(consistent_scalar_systems())
def test_propagation_of_consistent_systems_matches_reference(system):
    unknowns, equations, seeds, hidden, perturbed = system
    found = solve_equations(unknowns, equations, seeds)
    _assert_same_scalars(found, reference_propagate_scalars(unknowns, equations, seeds))
    assert solve_equations(unknowns, equations[::-1], seeds) == found
    if found is not None and not perturbed:
        # a reached value is forced by the seeds; the others take the gauge 1
        assert all(found[u] in (hidden[u], 1) for u in unknowns)


def test_propagation_solves_an_equation_once_its_other_unknowns_are_set():
    # each first equation has three unset occurrences when it is examined;
    # the later equations set two of them, so it must solve the third
    cases = [
        (["a", "p", "q", "r"],
         [("r", 1, ("p", "q"), 6), ("p", 1, ("a",), 2), ("q", 1, ("a",), 3)],
         {"a": 1, "p": 2, "q": 3, "r": 36}),
        (["a", "p", "q", "t"],
         [("t", 2, ("p", "q"), 1), ("t", 1, ("a",), 3), ("p", 1, ("a",), 4)],
         {"a": 1, "p": 4, "q": Fraction(3, 2), "t": 3}),
        (["a", "p", "q", "t"],
         [("t", 2, ("p", "q"), 1), ("q", 1, ("a",), 3), ("t", 1, ("a",), 4)],
         {"a": 1, "p": Fraction(8, 3), "q": 3, "t": 4}),
    ]
    for unknowns, equations, expected in cases:
        found = solve_equations(unknowns, equations, ["a"])
        assert found == expected
        _assert_same_scalars(found, reference_propagate_scalars(unknowns, equations, ["a"]))


def test_propagation_of_a_reversed_chain_matches_the_chain():
    # a chain seeded at its start, in order and reversed: the reversed one
    # is solved from its last equation back up through parked equations
    n = 2000
    chain = [(u + 1, (2, 3)[u % 2], (u,), (3, 2)[u % 2]) for u in range(n)]
    unknowns = list(range(n + 1))
    in_order = solve_equations(unknowns, chain, [0])
    assert in_order == {u: Fraction(3, 2) if u % 2 else Fraction(1) for u in unknowns}
    _assert_same_scalars(solve_equations(unknowns, chain[::-1], [0]), in_order)


def test_symbolic_jacobi_single_term_rule():
    alpha = symbol("alpha")
    assert symbolic_jacobi(lambda i, j, k, ell: (k - i) + (ell - j) * alpha)


def _pinned_sweep_specs():
    sym = {name: symbol(name) for name in ("a1", "a2", "a2p")}
    return [
        AlgebraSpec("vir", Fraction(1, 2)),
        AlgebraSpec("d", 1, Fraction(-1, 3)),
        AlgebraSpec("c", Fraction(2, 3)),
        AlgebraSpec("cbar", Fraction(-3, 2)),
        AlgebraSpec("block", 1, 2, a1=3, a2=Fraction(1, 2), a2p=-1),
        AlgebraSpec("block", 1, 2, **sym),
        AlgebraSpec("bplus-", 1, a1=1, a2=2, a2p=Fraction(1, 3)),
        AlgebraSpec("bplus+", 1, a1=-2, a2=1, a2p=1),
    ]


def _pinned_sweep_digest():
    h = hashlib.sha256()
    for spec in _pinned_sweep_specs():
        for alg in (spec, CorruptedPair(spec, ((1, 0), (1, 1)))):
            for check in (check_jacobi, check_antisymmetry, check_grading):
                h.update(repr(check(alg, 2).to_json()).encode())
    return h.hexdigest()


def test_sweep_reports_are_pinned():
    # Guards the counts, witnesses and witness order of the windowed sweeps.
    assert _pinned_sweep_digest() == (
        "1a294128d50a448ec77707787543ee13becdba131b2b52ec420ec196c2770f14"
    )
