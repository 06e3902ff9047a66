import hashlib
import random
from fractions import Fraction

import pytest

from zzlie.virmodules import (
    ModuleSpec,
    ModVector,
    act,
    check_module_axiom,
    find_intertwiner,
    irreducible_subquotient,
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


def test_action_is_linear():
    m = ModuleSpec("a_ab", Fraction(1, 3), 2)
    x = ModVector({0: Fraction(2), 3: Fraction(-1)})
    lhs = act(m, 2, x)
    rhs = act(m, 2, ModVector.basis(0)).scale(Fraction(2)) - act(
        m, 2, ModVector.basis(3)
    )
    assert lhs == rhs


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


class MutatedExceptional:
    """a_paren with the exceptional coefficient off by one."""

    family = "a_paren"

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)

    def supports(self, k):
        return True

    def coeff(self, i, k):
        if k == 0:
            return Fraction(i) * (i + self.alpha) + 1
        return Fraction(i + k)


def test_module_axiom_finds_injected_fault():
    assert not check_module_axiom(MutatedExceptional(1), 3).ok


def test_module_axiom_stops_at_the_witness_cap():
    report = check_module_axiom(MutatedExceptional(1), 4)
    assert len(report.witnesses) == 20
    assert report.checked_count == 347


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
            assert m1.coeff(i, k) * w[i + k] == m2.coeff(i, k) * w[k]


def test_modvector_serialization():
    v = ModVector({2: Fraction(-1, 3), -1: Fraction(5)})
    assert v.to_json() == {"-1": "5/1", "2": "-1/3"}
