import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from zzlie import verify
from zzlie.algebras import AlgebraSpec, BasisElement, Element
from zzlie.linsolve import propagate_scalars
from zzlie.poly import MultiPoly, symbol
from zzlie.verify import (
    MAX_WITNESSES,
    QuotientC,
    check_antisymmetry,
    check_grading,
    check_jacobi,
    find_diagonal_isomorphism,
    symbolic_jacobi,
    symbolic_jacobi_D,
    symbolic_jacobi_block,
    symbolic_jacobi_vir,
)


class CorruptedPair:
    """Wraps an algebra, negating the bracket of one ordered index pair."""

    def __init__(self, inner, pair):
        self.inner = inner
        self.pair = pair

    def in_domain(self, i, j):
        return self.inner.in_domain(i, j)

    def central_degrees(self):
        return self.inner.central_degrees()

    def bracket_terms(self, a, b):
        terms = self.inner.bracket_terms(a, b)
        if (a, b) == self.pair:
            return tuple((key, -c) for key, c in terms)
        return terms


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


def _reference_jacobi(alg, bracket, window):
    """(checked_count, witnesses) of a Jacobi sweep summed with Element arithmetic.

    ``bracket(a, b)`` returns an Element; every cyclic term is bracketed and
    summed afresh, with no memo and no integer scaling.
    """
    idxs = [
        (i, j)
        for i in range(-window, window + 1)
        for j in range(-window, window + 1)
        if alg.in_domain(i, j)
    ]
    count, witnesses = 0, []
    for count, (a, b, c) in enumerate(combinations_with_replacement(idxs, 3), 1):
        total = Element()
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for basis, coeff in bracket(x, y).terms.items():
                if basis.kind == "L" and alg.in_domain(basis.i, basis.j):
                    total = total + bracket(basis.index, z).scale(coeff)
        if total:
            witnesses.append(((a, b, c), total))
            if len(witnesses) == MAX_WITNESSES:
                break
    return count, witnesses


def test_jacobi_matches_fraction_reference():
    sym = {name: symbol(name) for name in ("a1", "a2", "a2p")}
    # Each spec with the pair its CorruptedPair negates.  The block pairs
    # bracket into the central degree, so their witnesses carry C2 (numeric)
    # and C1 (symbolic) terms; the half-integral symbolic block scales its
    # polynomial terms by D = 2; the other two sweeps stop at the witness cap.
    cases = [
        (AlgebraSpec("d", Fraction(2, 3), Fraction(3, 2)), ((1, 0), (1, 1))),
        (
            AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2), a2=3, a2p=Fraction(-3, 4)),
            ((0, 1), (-1, 2)),
        ),
        (AlgebraSpec("block", 1, 2, **sym), ((0, 1), (-1, 1))),
        (AlgebraSpec("block", Fraction(1, 2), Fraction(3, 2), **sym), ((0, 1), (-1, 2))),
        (AlgebraSpec("c", Fraction(2, 3), literal_c_index=True), ((1, 0), (1, 1))),
    ]
    denominators, kinds = set(), set()
    for spec, pair in cases:
        def corrupted(a, b, spec=spec, pair=pair):
            result = spec.basis_bracket(a, b)
            return -result if (a, b) == pair else result

        bad = CorruptedPair(spec, pair)
        for alg, bracket in ((spec, spec.basis_bracket), (bad, corrupted)):
            report = check_jacobi(alg, 2)
            count, witnesses = _reference_jacobi(alg, bracket, 2)
            assert report.checked_count == count, spec
            assert report.witnesses == witnesses, spec
            assert repr(report.witnesses) == repr(witnesses), spec
            for _, w in witnesses:
                kinds.update(basis.kind for basis in w.terms)
                denominators.update(
                    c.denominator for c in w.terms.values() if isinstance(c, Fraction)
                )
    assert kinds == {"L", "C1", "C2"}
    # a kernel that divides its integer sums by D instead of D^2 fails above
    assert max(denominators) > 1


def test_symbolic_jacobi_families():
    assert symbolic_jacobi_D()
    assert symbolic_jacobi_vir()
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
    """The L-term coefficient of ``bracket_terms`` at the index sum."""
    target = (a[0] + b[0], a[1] + b[1])
    return dict(spec.bracket_terms(a, b)).get(target, Fraction(0))


_parameter = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)
_small = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_c_generic = st.tuples(st.integers(-4, 4), st.integers(-1, 4))


@settings(max_examples=200, deadline=None)
@given(_parameter, _parameter, _small, _small, _c_generic, _c_generic)
def test_symbolic_rules_are_the_kernel_rule(alpha, beta, a, b, ca, cb):
    # The proofs evaluate the very rule that bracket_terms runs: with the
    # parameters substituted, each proof's coefficient is the kernel's.
    rule_d = _proof_rule(symbolic_jacobi_D)
    cases = [
        (_proof_rule(symbolic_jacobi_vir), AlgebraSpec("vir", alpha)),
        (rule_d, AlgebraSpec("d", alpha, beta)),
        (_proof_rule(symbolic_jacobi_block), AlgebraSpec("block", alpha, beta)),
    ]
    target = (a[0] + b[0], a[1] + b[1])
    for rule, spec in cases:
        if all(spec.in_domain(*p) for p in (a, b, target)):
            assert _rule_value(rule, a, b, alpha, beta) == _kernel_value(spec, a, b)
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
    assert not check_grading(AlgebraSpec("c", 1, literal_c_index=True), 2).ok
    assert check_grading(AlgebraSpec("c", 1), 2).ok


@pytest.mark.parametrize(
    "check, stop", [(check_antisymmetry, 41), (check_jacobi, 44), (check_grading, 42)]
)
def test_sweeps_stop_at_the_witness_cap(check, stop):
    report = check(AlgebraSpec("c", 1, literal_c_index=True), 2)
    assert len(report.witnesses) == 20
    assert report.checked_count == stop


def test_capped_sweep_reports_are_pinned():
    spec = AlgebraSpec("c", 1, literal_c_index=True)
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
    assert not upstairs.is_zero()
    assert q.basis_bracket((0, -1), (1, -1)).is_zero()


def test_quotient_bracket_terms_drop_low_degrees():
    q, upstairs = QuotientC(Fraction(2, 3)), AlgebraSpec("c", Fraction(2, 3))
    idxs = [(i, j) for i in range(-2, 3) for j in range(-1, 3)]
    dropped = 0
    for a in idxs:
        for b in idxs:
            full = upstairs.bracket_terms(a, b)
            kept = tuple((key, c) for key, c in full if key[1] >= -1)
            assert q.bracket_terms(a, b) == kept
            assert q.basis_bracket(a, b) == Element.from_terms(kept)
            dropped += len(full) - len(kept)
    assert dropped > 0


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
    one = Fraction(1)
    # target equal to its source (an i = 0 intertwiner equation): only checked
    assert propagate_scalars([0], [(0, one, (0,), one)], [0]) == {0: 1}
    assert propagate_scalars([0, 1], [(0, one, (0,), 2 * one)], [1]) is None
    # target equal to one source (b = (0,0)): the other source is solved
    eqs = [("a", 3 * one, ("a", "z"), 2 * one)]
    assert propagate_scalars(["a", "z"], eqs, ["a"]) == {"a": 1, "z": Fraction(3, 2)}
    # a squared source is solved forwards, never backwards
    eqs = [("t", one, ("a", "a"), 4 * one)]
    assert propagate_scalars(["a", "t"], eqs, ["a"]) == {"a": 1, "t": 4}
    assert propagate_scalars(["a", "t"], eqs, ["t"]) is None
    # values travel along a chain in both directions from the seed
    eqs = [(1, 2 * one, (0,), one), (2, one, (1,), 3 * one)]
    assert propagate_scalars([0, 1, 2], eqs, [1]) == {0: 2, 1: 1, 2: 3}


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
