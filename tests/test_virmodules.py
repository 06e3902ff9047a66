import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zzlie.poly import MultiPoly, UsageError, symbol
from zzlie.virmodules import (
    MODULE_FAMILIES,
    ModuleSpec,
    ModVector,
    act,
    check_module_axiom,
    find_intertwiner,
    irreducible_subquotient,
)

from reference import (
    Perturbed,
    act_reference_sweep,
    reference_act,
    reference_coeff,
    reference_intertwiner,
)


def test_two_parameter_action():
    m = ModuleSpec("a_ab", Fraction(1, 2), 0)
    out = act(m, 1, ModVector.basis(0))
    assert out.terms == {1: Fraction(1, 2)}


def test_exceptional_row_action():
    m = ModuleSpec("a_paren", 1)
    assert act(m, 2, ModVector.basis(0)).terms == {2: Fraction(6)}
    assert act(m, 2, ModVector.basis(3)).terms == {5: Fraction(5)}


def test_b_family_kills_v0():
    for alpha in (Fraction(1), Fraction(-2), Fraction(2, 7)):
        m = ModuleSpec("b_paren", alpha)
        for i in (-3, -1, 1, 2):
            assert not act(m, i, ModVector.basis(0))


def test_b_family_exceptional_row():
    m = ModuleSpec("b_paren", 1)
    assert act(m, 2, ModVector.basis(-2)).terms == {0: Fraction(-6)}


@pytest.mark.parametrize("m", [
    ModuleSpec("a_ab", Fraction(1, 2), Fraction(-2, 3)),
    ModuleSpec("a_paren", Fraction(3, 2)),
    ModuleSpec("b_paren", -2),
    irreducible_subquotient(ModuleSpec("a_ab", 2, 0)),
    irreducible_subquotient(ModuleSpec("a_ab", -1, 1)),
    Perturbed(ModuleSpec("a_ab", Fraction(1, 2), 3), (1, 2)),
], ids=["a_ab", "a_paren", "b_paren", "quotient", "submodule", "perturbed"])
def test_act_matches_reference_coeff(m):
    # act reads ``numerators``; the reference reads the Fraction formulas
    rng = range(-4, 5)
    for i in rng:
        for k in filter(m.supports, rng):
            assert act(m, i, ModVector.basis(k)) == reference_act(m, i, ModVector.basis(k))
        x = ModVector({k: Fraction(k + 7, 3) for k in rng if m.supports(k)})
        assert act(m, i, x) == reference_act(m, i, x)


@pytest.mark.parametrize("i, x", [
    (Fraction(1, 2), ModVector.basis(0)),
    (Fraction(1), ModVector.basis(0)),
    (True, ModVector.basis(0)),
    (Fraction(1, 2), ModVector({})),
    (1, ModVector({Fraction(1, 2): 1})),
    (1, ModVector({Fraction(2): 1})),
    (1, ModVector({False: 1})),
])
def test_act_refuses_an_index_that_is_not_an_int(i, x):
    for m in (ModuleSpec("a_ab", 1, 0), irreducible_subquotient(ModuleSpec("a_ab", 1, 0))):
        with pytest.raises(ValueError):
            act(m, i, x)


def test_action_is_linear():
    m = ModuleSpec("a_ab", Fraction(1, 3), 2)
    x = ModVector({0: Fraction(2), 3: Fraction(-1)})
    v0, v3 = ModVector.basis(0), ModVector.basis(3)
    assert act(m, 2, x) == act(m, 2, v0) + act(m, 2, v0) - act(m, 2, v3)


def test_numerators_are_integral_over_den():
    specs = [
        ModuleSpec("a_ab", 3, -2),
        ModuleSpec("a_ab", Fraction(5, 2), 0),
        ModuleSpec("a_ab", -4, Fraction(7, 3)),
        ModuleSpec("a_ab", Fraction(-2, 3), Fraction(5, 4)),
        ModuleSpec("a_paren", 2),
        ModuleSpec("a_paren", Fraction(-3, 5)),
        ModuleSpec("b_paren", -1),
        ModuleSpec("b_paren", Fraction(7, 2)),
        irreducible_subquotient(ModuleSpec("a_ab", 2, 0)),
        irreducible_subquotient(ModuleSpec("a_ab", -3, 1)),
    ]
    span = range(-12, 13)  # the table check_module_axiom reads at W=6
    for m in specs:
        assert type(m.den) is int and m.den > 0
        for i in span:
            for k, n in zip(span, m.numerators(i, span)):
                assert type(n) is int, (m, i, k)
                assert Fraction(n, m.den) == reference_coeff(m, i, k)
    # den is the LCM of the denominators of alpha and beta
    assert [m.den for m in specs] == [1, 2, 3, 12, 1, 5, 1, 2, 1, 1]
    # den stays outside the dataclass fields: equality, hash and repr as before
    m = ModuleSpec("a_ab", Fraction(1, 2), Fraction(1, 3))
    assert m == ModuleSpec("a_ab", Fraction(2, 4), Fraction(2, 6))
    assert hash(m) == hash(("a_ab", Fraction(1, 2), Fraction(1, 3), None))
    assert repr(m) == (
        "ModuleSpec(family='a_ab', alpha=Fraction(1, 2), beta=Fraction(1, 3), removed=None)"
    )


def test_module_axiom_sweeps():
    specs = [
        ModuleSpec("a_ab", Fraction(1, 2), 0),
        ModuleSpec("a_ab", 0, 0),
        ModuleSpec("a_ab", 0, 1),
        ModuleSpec("a_paren", 1),
        ModuleSpec("b_paren", 1),
        ModuleSpec("b_paren", -2),
    ]
    for m in specs:
        assert check_module_axiom(m, 4).ok


def test_module_axiom_random_parameters():
    rng = random.Random(3)
    for _ in range(6):
        alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        beta = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        assert check_module_axiom(ModuleSpec("a_ab", alpha, beta), 4).ok
    for _ in range(3):
        alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        assert check_module_axiom(ModuleSpec("a_paren", alpha), 4).ok
        assert check_module_axiom(ModuleSpec("b_paren", alpha), 4).ok


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(MODULE_FAMILIES),
    st.one_of(st.integers(-4, 4).map(Fraction), rationals),
    st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), rationals),
    st.booleans(),
    st.integers(-8, 8),
    st.lists(st.integers(-12, 12), max_size=8),
)
@example("a_ab", Fraction(2), Fraction(0), True, 3, [-2, 1])
@example("a_ab", Fraction(-3), Fraction(1), True, -1, [3, 4])
@example("a_paren", Fraction(2, 3), None, False, 2, [])
@example("b_paren", Fraction(-5, 2), None, False, -4, [])
def test_numerators_match_reference_property(family, alpha, beta, subquotient, i, ks):
    # every family and both subquotients (beta 0 and 1 at an integral
    # alpha), each row with the exceptional entries k = 0 and k = -i
    m = ModuleSpec(family, alpha, beta if family == "a_ab" else None)
    if subquotient and family == "a_ab":
        m = irreducible_subquotient(m)
    ks = [*ks, 0, -i]
    row = m.numerators(i, ks)
    assert len(row) == len(ks) and all(type(n) is int for n in row)
    assert [Fraction(n, m.den) for n in row] == [reference_coeff(m, i, k) for k in ks]


class MutatedExceptional:
    """a_paren with the exceptional coefficient off by one.

    It gives only the one module contract, ``supports``, ``numerators`` and
    ``den``, which both ``act`` and ``check_module_axiom`` read.
    """

    family = "a_paren"

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)
        self.den = self.alpha.denominator

    def supports(self, k):
        return True

    def numerators(self, i, ks):
        den = self.den
        return [(i + k) * den if k else i * (i * den + self.alpha.numerator) + den for k in ks]

    def offset(self, i, k):
        return int(k == 0)


def test_module_axiom_finds_injected_fault():
    assert not check_module_axiom(MutatedExceptional(1), 3).ok


def test_module_axiom_stops_at_the_witness_cap():
    report = check_module_axiom(MutatedExceptional(1), 4)
    assert len(report.witnesses) == 20
    assert report.checked_count == 347


def test_module_axiom_report_serializes():
    report = check_module_axiom(MutatedExceptional(1), 4)
    data = json.loads(json.dumps(report.to_json()))
    assert len(data["witnesses"]) == 20
    positions = [w["at"] for w in data["witnesses"]]
    assert positions == [list(at) for at, _ in report.witnesses]
    assert all(len(at) == 3 and all(type(x) is int for x in at) for at in positions)


def test_module_axiom_reports_are_pinned():
    # Guards the counts, witnesses and witness order of the module sweep.
    h = hashlib.sha256()
    for m in (
        ModuleSpec("a_ab", Fraction(1, 2), 0),
        ModuleSpec("a_ab", Fraction(-2, 3), Fraction(5, 2)),
        ModuleSpec("a_paren", 1),
        ModuleSpec("b_paren", -2),
        irreducible_subquotient(ModuleSpec("a_ab", 0, 0)),
        irreducible_subquotient(ModuleSpec("a_ab", 0, 1)),
        MutatedExceptional(1),
    ):
        report = check_module_axiom(m, 4)
        h.update(repr((report.check, report.checked_count, report.witnesses)).encode())
    assert h.hexdigest() == (
        "ec5881d09523f8bc442554cb2c6c4327e46b23544ed7b6f8b5944c27471a472f"
    )


class DroppedIndex:
    """A module with one index left out of its support but not out of its action.

    Unlike a real subquotient, the coefficients into and out of the dropped
    index stay nonzero, so which terms the support drops decides cases.
    """

    def __init__(self, module, dropped):
        self.module = module
        self.dropped = dropped
        self.den = module.den

    def supports(self, k):
        return k != self.dropped and self.module.supports(k)

    def numerators(self, i, ks):
        return self.module.numerators(i, ks)


def assert_matches_act_reference(m, window):
    report = check_module_axiom(m, window)
    reference = act_reference_sweep(m, window)
    assert report.checked_count == reference.checked_count
    assert report.witnesses == reference.witnesses
    assert repr(report.witnesses) == repr(reference.witnesses)
    return report


def test_module_axiom_matches_act_reference():
    for m in (
        ModuleSpec("a_ab", Fraction(1, 2), Fraction(-2, 3)),
        irreducible_subquotient(ModuleSpec("a_ab", 2, 0)),
        irreducible_subquotient(ModuleSpec("a_ab", -1, 1)),
        ModuleSpec("b_paren", Fraction(2, 5)),
    ):
        assert assert_matches_act_reference(m, 4).ok
    report = assert_matches_act_reference(MutatedExceptional(Fraction(1, 3)), 4)
    assert any(w.terms[t].denominator > 1 for _, w in report.witnesses for t in w.terms)
    for dropped in (-3, 0, 2):
        double = DroppedIndex(ModuleSpec("a_ab", Fraction(1, 2), Fraction(5, 3)), dropped)
        assert not assert_matches_act_reference(double, 4).ok


def test_module_axiom_counts_at_row_boundaries():
    # A row is one k with its (2W + 1)^2 cases, (i, j) at offset
    # (i + W)(2W + 1) + j + W.  Each case's defect is antisymmetric in i and
    # j, so failing cases come in mirrored pairs and the sweep's last case
    # (i = j = k = W) always passes.  The 20th witness falls in the middle
    # of a row: case 347 is (-2, 0, 0), the 23rd of row k = 0.
    report = assert_matches_act_reference(MutatedExceptional(1), 4)
    assert (report.checked_count, len(report.witnesses)) == (347, 20)
    assert report.checked_count % 9 == 5
    assert hashlib.sha256(repr(report.witnesses).encode()).hexdigest() == (
        "3e629a822c8a5d04c6a26aa1d2c4a4531a9bae65901205fe3b27a4403277571f"
    )
    # a(0, 2W) is read only by the case (0, W, W) and its mirror (W, 0, W),
    # both in the sweep's last row
    perturbed = Perturbed(ModuleSpec("a_ab", Fraction(1, 2), 3), (0, 6))
    report = assert_matches_act_reference(perturbed, 3)
    assert report.checked_count == 7 ** 3
    assert repr(report.witnesses) == "[((0, 3, 3), (25/2)*v[6]), ((3, 0, 3), (-25/2)*v[6])]"


def test_module_axiom_cap_falls_on_a_mirrored_case():
    # The sweep evaluates s(i, j, k) for j > i only; a case with i > j is the
    # mirror of (j, i, k), found in the same row k.  Here the 20th witness is
    # (0, -2, 2), the first case of i = 0 in row k = 2 and the mirror of
    # (-2, 0, 2).
    perturbed = Perturbed(ModuleSpec("a_ab", Fraction(1, 2), 3), (0, 0))
    report = assert_matches_act_reference(perturbed, 2)
    assert (report.checked_count, len(report.witnesses)) == (111, 20)
    assert report.checked_count == (4 * 5 + 2) * 5 + 1
    (i, j, k), last = report.witnesses[-1]
    assert (i, j, k) == (0, -2, 2)
    assert report.witnesses.index(((j, i, k), -last)) < 19


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(MODULE_FAMILIES),
    st.one_of(st.integers(-4, 4).map(Fraction), rationals),
    st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), rationals),
    st.booleans(),
    st.one_of(st.none(), st.integers(-4, 4)),
    st.integers(0, 3),
)
def test_module_axiom_kernel_property(family, alpha, beta, subquotient, dropped, window):
    m = ModuleSpec(family, alpha, beta if family == "a_ab" else None)
    if subquotient and family == "a_ab":
        m = irreducible_subquotient(m)
    if dropped is not None:
        m = DroppedIndex(m, dropped)
    assert_matches_act_reference(m, window)


def test_subquotient_detection():
    full = irreducible_subquotient(ModuleSpec("a_ab", Fraction(1, 2), 0))
    assert isinstance(full, ModuleSpec)  # irreducible, returned unchanged
    sub = irreducible_subquotient(ModuleSpec("a_ab", 0, 0))
    assert sub == ModuleSpec("a_ab", 0, 0, removed=0)
    assert not sub.supports(0) and sub.supports(1)
    sub = irreducible_subquotient(ModuleSpec("a_ab", -3, 1))
    assert not sub.supports(3)
    # beta outside {0, 1} never degenerates
    assert isinstance(irreducible_subquotient(ModuleSpec("a_ab", 0, 2)), ModuleSpec)


def test_subquotient_rejects_other_families():
    with pytest.raises(ValueError):
        irreducible_subquotient(ModuleSpec("a_paren", 1))
    with pytest.raises(ValueError):
        ModuleSpec("a_paren", 1, removed=0)
    with pytest.raises(ValueError):
        ModuleSpec("a_ab", 0, 0, removed=Fraction(0))
    # only -alpha, with alpha integral and beta in {0, 1}, leaves a module
    with pytest.raises(ValueError):
        ModuleSpec("a_ab", 1, 0, removed=5)
    with pytest.raises(ValueError):
        ModuleSpec("a_ab", Fraction(1, 2), Fraction(1, 3), removed=0)


def test_unknown_family_and_unsupported_vector_are_refused():
    with pytest.raises(ValueError, match="unknown module family 'nope'"):
        ModuleSpec("nope", 1)
    with pytest.raises(ValueError, match="a_ab needs beta"):
        ModuleSpec("a_ab", 1)
    with pytest.raises(ValueError, match="family 'a_paren' takes no beta"):
        ModuleSpec("a_paren", 1, 1)
    m = irreducible_subquotient(ModuleSpec("a_ab", 1, 0))
    assert not m.supports(-1)
    with pytest.raises(ValueError, match="v_-1 is outside the module support"):
        act(m, 1, ModVector.basis(-1))


def test_constant_polynomial_module_parameters_are_numbers():
    by_poly = ModuleSpec("a_ab", MultiPoly.const(1), MultiPoly.const(Fraction(1, 2)))
    assert by_poly == ModuleSpec("a_ab", 1, Fraction(1, 2))
    assert type(by_poly.alpha) is Fraction and type(by_poly.beta) is Fraction
    for name, params in (("alpha", (symbol("a"), 0)), ("beta", (1, symbol("b")))):
        with pytest.raises(UsageError, match=f"^{name} must be a number"):
            ModuleSpec("a_ab", *params)


def test_subquotients_satisfy_module_axiom():
    for beta in (0, 1):
        sub = irreducible_subquotient(ModuleSpec("a_ab", 0, beta))
        assert check_module_axiom(sub, 5).ok


def test_intertwiner_exists_off_integer_alpha():
    m1 = ModuleSpec("a_ab", Fraction(1, 2), 0)
    m2 = ModuleSpec("a_ab", Fraction(1, 2), 1)
    w = find_intertwiner(m1, m2, 6)
    assert w is not None
    ratios = {w[k] / (Fraction(1, 2) + k) for k in w}
    assert len(ratios) == 1 and Fraction(0) not in ratios


def test_intertwiner_absent_for_full_degenerate_modules():
    assert find_intertwiner(ModuleSpec("a_ab", 0, 0), ModuleSpec("a_ab", 0, 1), 6) is None


def test_intertwiner_found_for_subquotients():
    s1 = irreducible_subquotient(ModuleSpec("a_ab", 0, 0))
    s2 = irreducible_subquotient(ModuleSpec("a_ab", 0, 1))
    w = find_intertwiner(s1, s2, 6)
    assert w is not None
    assert 0 not in w


@pytest.mark.parametrize("window, ks", [(6, range(-6, 1)), (40, [0])])
@pytest.mark.parametrize("side", [0, 1])
def test_intertwiner_catches_a_fault_in_its_last_row(window, ks, side):
    # The row i = 1 sets every scalar, and the last row handed over, i = W
    # over k = -W..0, is decided by the row check alone.  Each case raises
    # one of its coefficients on one side by 1, which leaves it nonzero.
    pair = [ModuleSpec("a_ab", Fraction(5, 2), 0), ModuleSpec("a_ab", Fraction(5, 2), 1)]
    assert find_intertwiner(*pair, window) is not None
    for k in ks:
        bad = list(pair)
        bad[side] = Perturbed(pair[side], (window, k))
        assert find_intertwiner(*bad, window) is None
        assert reference_intertwiner(*bad, window) is None


def test_intertwiner_needs_matching_supports():
    # the submodule of A(0, 1) misses v_0: a diagonal map would have to send
    # v_0 of A(0, 0) or A(0, 1) to zero
    sub = irreducible_subquotient(ModuleSpec("a_ab", 0, 1))
    for whole in (ModuleSpec("a_ab", 0, 0), ModuleSpec("a_ab", 0, 1)):
        assert find_intertwiner(sub, whole, 3) is None
        assert find_intertwiner(whole, sub, 3) is None


def test_intertwiner_on_a_window_without_support_is_empty():
    # the subquotient removes index 0, the only index of window 0
    m = irreducible_subquotient(ModuleSpec("a_ab", 0, 0))
    assert find_intertwiner(m, m, 0) == {}
    assert find_intertwiner(m, m, 1) == {-1: 1, 1: 1}


def test_intertwiner_identity():
    m = ModuleSpec("a_ab", Fraction(1, 3), 2)
    w = find_intertwiner(m, m, 4)
    assert w is not None
    assert len({v for v in w.values()}) == 1


def test_intertwiner_round_trip():
    m1 = ModuleSpec("a_ab", Fraction(1, 2), 0)
    m2 = ModuleSpec("a_ab", Fraction(1, 2), 1)
    w = find_intertwiner(m1, m2, 5)
    for k in range(-5, 6):
        for i in range(-5, 6):
            if abs(i + k) > 5:
                continue
            assert reference_coeff(m1, i, k) * w[i + k] == reference_coeff(m2, i, k) * w[k]
