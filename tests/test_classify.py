import hashlib
import json
from fractions import Fraction

import pytest

from zzlie.classify import (
    ClassificationParams,
    check_impossibility,
    closed_form_equal_params,
    closed_form_opposite_params,
    closed_form_uniform,
    derive_constraint_polys,
    enumerate_case_split,
    recurrence_equation,
    solve_c_window,
)
from zzlie.poly import MultiPoly, UsageError, accumulate, proportionality, symbol


def test_recurrence_origin_instance_is_trivial():
    p = ClassificationParams(1, 2, 3)
    eq = recurrence_equation(p, 0, 0, 0)
    assert eq["coeffs"] == {}
    assert not eq["skipped"]


def test_recurrence_symbolic_zero_coefficients_are_pruned():
    # at i = alpha, k = 0 every coefficient cancels, symbolic or not
    symbolic = ClassificationParams(1, symbol("beta1"), symbol("betam1"))
    assert recurrence_equation(symbolic, 1, 0, 0)["coeffs"] == {}
    assert recurrence_equation(ClassificationParams(1, 2, 3), 1, 0, 0)["coeffs"] == {}
    eq = recurrence_equation(symbolic, 0, 0, 2)
    assert eq["coeffs"][(2, 0)] == -1 + 2 * symbol("betam1")


def test_constant_polynomial_parameters_solve_as_numbers():
    # a constant MultiPoly is kept as the Fraction it equals, so it solves
    by_poly = ClassificationParams(1, MultiPoly.const(2), 3)
    by_number = ClassificationParams(1, 2, 3)
    assert repr(by_poly) == repr(by_number) and type(by_poly.beta1) is Fraction
    assert solve_c_window(by_poly, 3).to_json() == solve_c_window(by_number, 3).to_json()


def test_impossibility_takes_a_constant_polynomial_alpha():
    assert check_impossibility(MultiPoly.const(2), 3) == check_impossibility(2, 3)
    with pytest.raises(UsageError, match="^alpha must be a number"):
        check_impossibility(symbol("alpha"), 3)


def test_recurrence_k0_rows_are_empty_and_still_guarded():
    symbolic = ClassificationParams(symbol("alpha"), Fraction(1, 2), symbol("beta1"))
    for p in (ClassificationParams(Fraction(2, 3), 5, -1), symbolic):
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert recurrence_equation(p, i, j, 0) == {"coeffs": {}, "skipped": False}
    guarded = ClassificationParams(1, 0, 1)
    assert recurrence_equation(guarded, 1, 0, 0) == {"coeffs": {}, "skipped": True}
    assert recurrence_equation(guarded, 0, -1, 0) == {"coeffs": {}, "skipped": True}


@pytest.mark.parametrize("p", [
    ClassificationParams(Fraction(2, 3), Fraction(-1, 2), Fraction(-3, 2)),
    ClassificationParams(1, 0, 1),  # integral alpha: coefficients vanish
    ClassificationParams(Fraction(3, 2), Fraction(1, 4), Fraction(-5, 4)),
    ClassificationParams(symbol("alpha"), Fraction(1, 2), symbol("beta1")),
])
def test_recurrence_rows_match_an_accumulated_row(p):
    d, (a, b1, bm1) = p._den, p._nums
    for i in range(-3, 4):
        for j in range(-3, 4):
            for k in [-3, -2, -1, 1, 2, 3]:
                expected = accumulate({}, [
                    ((i + k, j), -a + d * i + bm1 * k),
                    ((i, j + k), a + d * j + b1 * k),
                    ((i, j), -d * (i + j - k)),
                ])
                coeffs = recurrence_equation(p, i, j, k)["coeffs"]
                assert coeffs == expected and list(coeffs) == list(expected)
                assert all(coeffs.values())


def test_recurrence_rows_are_integral_for_fractional_symbolic_parameters():
    # D clears the denominators of a polynomial parameter's coefficients too
    p = ClassificationParams(1, symbol("beta1") * Fraction(1, 2), 0)
    coeffs = recurrence_equation(p, 1, 0, 1)["coeffs"]
    assert coeffs == {(1, 1): 2 + symbol("beta1")}
    for c in coeffs.values():
        assert type(c) is int or (
            isinstance(c, MultiPoly) and all(q.denominator == 1 for q in c.terms.values()))


def test_recurrence_axis_instance():
    p = ClassificationParams(1, 2, 3)
    eq = recurrence_equation(p, 0, 0, 4)
    # (-a + bm1*k) c_{k,0} + (a + b1*k) c_{0,k} - (-k) c_{0,0} = 0
    assert eq["coeffs"] == {
        (4, 0): Fraction(-1 + 3 * 4),
        (0, 4): Fraction(1 + 2 * 4),
        (0, 0): Fraction(4),
    }


def test_recurrence_constant_solution_when_params_sum_to_minus_one():
    # beta1 + betam1 = -1 admits the constant solution c = 2*alpha
    p = ClassificationParams(Fraction(3, 2), Fraction(1, 4), Fraction(-5, 4))
    for i, j, k in [(1, 2, 3), (-2, 0, 5), (4, -1, -3), (0, 0, 7)]:
        eq = recurrence_equation(p, i, j, k)
        total = sum(eq["coeffs"].values()) * 2 * p.alpha
        assert total == 0


def test_recurrence_guard_marks_skips():
    p = ClassificationParams(1, 0, 1)  # both normalization params in {0, 1}
    eq = recurrence_equation(p, 1, 0, 0)  # i - alpha = 0 and i + k - alpha = 0
    assert eq["skipped"]
    eq = recurrence_equation(p, 0, 0, 5)
    assert not eq["skipped"]


@pytest.mark.parametrize("alpha, beta1, betam1", [
    (1, 0, 1), (1, -3, 0), (1, 0, 5), (2, 1, Fraction(1, 2)), (Fraction(2, 5), 1, 0),
    (1, 2, 3), (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)),
])
def test_recurrence_guard_decided_once_matches_the_printed_condition(
        monkeypatch, alpha, beta1, betam1):
    # the side condition as printed, in Fractions, on every triple of a W=3
    # window; a point with no parameter in {0, 1} never evaluates the guard
    p = ClassificationParams(alpha, beta1, betam1)
    a, b1, bm1 = (Fraction(v) for v in (alpha, beta1, betam1))
    if b1 not in (0, 1) and bm1 not in (0, 1):
        def refuse(*args):
            raise AssertionError("the guard cannot fail here")
        monkeypatch.setattr("zzlie.classify._guard_literal", refuse)
    rng = range(-3, 4)
    for i in rng:
        for j in rng:
            for k in rng:
                fails = (bm1 in (0, 1) and (i - a) * (i + k - a) == 0
                         or b1 in (0, 1) and (j + a) * (j + k + a) == 0)
                assert recurrence_equation(p, i, j, k)["skipped"] == fails, (i, j, k)


def test_recurrence_guard_vacuous_for_off_case_params():
    p = ClassificationParams(1, 2, 3)  # params outside {0, 1}: no skips
    assert not recurrence_equation(p, 1, 0, 0)["skipped"]
    # beta1 = 0 and j + alpha = 0 skip (0, -1, 0), but only when all three
    # parameters are numeric: a symbolic betam1 makes the guard vacuous
    assert recurrence_equation(ClassificationParams(1, 0, 5), 0, -1, 0)["skipped"]
    symbolic = ClassificationParams(1, 0, symbol("betam1"))
    assert recurrence_equation(symbolic, 0, -1, 0)["skipped"] is False


def test_zero_alpha_and_degenerate_closed_forms_are_refused():
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        ClassificationParams(0, 1, 1)
    # equal case: alpha**2 == 2 * beta1**2 * (1 + beta1) * k**2
    with pytest.raises(UsageError, match="degenerate denominator"):
        closed_form_equal_params(2, 1, 1)
    # opposite case: alpha + 2*beta1*k == 0, then alpha + 4*beta1*k == 0
    for alpha in (-2, -4):
        with pytest.raises(UsageError, match="degenerate denominator"):
            closed_form_opposite_params(alpha, 1, 1)


def test_solve_rejects_symbolic_and_small_windows():
    with pytest.raises(UsageError):
        solve_c_window(ClassificationParams(symbol("alpha"), 1, 1), 3)
    # a numeric alpha is not enough: every parameter must be numeric
    with pytest.raises(UsageError):
        solve_c_window(ClassificationParams(1, symbol("beta1"), 1), 3)
    with pytest.raises(UsageError):
        solve_c_window(ClassificationParams(1, 1, symbol("betam1")), 3)
    with pytest.raises(UsageError):
        solve_c_window(ClassificationParams(1, 1, 1), 1)


def test_linear_closed_form_case():
    # beta1 = -2 - betam1 with beta = beta1 + 1 = 3
    s = solve_c_window(ClassificationParams(1, 2, -4), 4)
    assert not s.infeasible
    assert s.unique
    cf = closed_form_uniform(1, 3)
    assert len(s.values) == 81
    for (i, j), v in s.values.items():
        assert v == cf(i, j)


def test_uniform_closed_form_is_a_polynomial_identity():
    # beta1 = beta - 1, betam1 = -1 - beta: c = 2 alpha + (beta-1) i + (beta+1) j
    # solves every instance of the recurrence, identically in all five symbols
    alpha, beta, i, j, k = (symbol(n) for n in ("alpha", "beta", "i", "j", "k"))

    def residual(beta1, betam1):
        eq = recurrence_equation(ClassificationParams(alpha, beta1, betam1), i, j, k)
        assert not eq["skipped"]
        total = MultiPoly()
        for (a, b), coeff in eq["coeffs"].items():
            total = total + coeff * (2 * alpha + (beta - 1) * a + (beta + 1) * b)
        return total

    assert residual(beta - 1, -1 - beta) == MultiPoly()
    assert residual(-1 - beta, beta - 1) != MultiPoly()


def test_equal_params_closed_form_values():
    s = solve_c_window(ClassificationParams(1, 2, 2), 4)
    for k in (1, 2):
        c0, c2 = closed_form_equal_params(1, 2, k)
        assert s.values[(0, 2 * k)] == c0
        assert s.values[(2 * k, 0)] == c2
    assert s.values[(0, 2)] == Fraction(-4, 23)


def test_opposite_params_closed_form_axis_values():
    s = solve_c_window(ClassificationParams(1, 3, -3), 4)
    for k in (1, 2):
        c0, c1, _ = closed_form_opposite_params(1, 3, k)
        assert s.values[(0, 2 * k)] == c0
        assert s.values[(2 * k, 0)] == c1


GRID_BETAS = [Fraction(-3), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)]
# relation -> (beta1, betam1) as a function of beta = betam1, and the betas
# at which the W=4 solve is feasible
GRID_RELATIONS = {
    "beta1 = betam1": (lambda b: (b, b), {Fraction(-1), Fraction(-1, 2)}),
    "beta1 = -betam1": (lambda b: (-b, b), {Fraction(-1), Fraction(1)}),
    "beta1 = -1 - betam1": (lambda b: (-1 - b, b), set(GRID_BETAS)),
    "beta1 = -2 - betam1": (lambda b: (-2 - b, b), set(GRID_BETAS)),
}
# exceptional pair (beta1, betam1) -> infeasible at W=4
GRID_PAIRS = {(1, 0): True, (0, 1): True, (-3, 0): False, (0, -3): False}


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2, 5), Fraction(1)])
def test_feasibility_flags_on_the_w4_grid(alpha):
    # One row per point: (beta1, betam1, expected infeasible).  At alpha = 1
    # the guard skips equations, and some feasible points are not unique.
    points = [
        (*relation(b), b not in feasible)
        for relation, feasible in GRID_RELATIONS.values()
        for b in GRID_BETAS
    ]
    points += [(b1, bm1, infeasible) for (b1, bm1), infeasible in GRID_PAIRS.items()]
    wrong = []
    for b1, bm1, infeasible in points:
        s = solve_c_window(ClassificationParams(alpha, b1, bm1), 4)
        if s.infeasible != infeasible or (alpha != 1 and s.unique == infeasible):
            wrong.append((b1, bm1, s.infeasible, s.unique))
    assert wrong == []


def test_contradictory_params_certified():
    s = solve_c_window(ClassificationParams(1, 1, 1), 4)
    assert s.infeasible
    assert s.certificate
    assert all(tag[0] in ("eq", "norm") for tag in s.certificate)


def test_degeneracy_note_surfaces():
    s = solve_c_window(ClassificationParams(1, 0, 2), 2)
    assert s.notes
    assert not solve_c_window(ClassificationParams(1, 2, -4), 2).notes


def test_solution_serialization():
    s = solve_c_window(ClassificationParams(1, 2, -4), 2)
    data = s.to_json()
    assert data["values"]["0,0"] == "2/1"
    assert data["infeasible"] is False


def test_constraint_polys_factor_exactly():
    polys = derive_constraint_polys()
    b1, bm1, alpha = symbol("beta1"), symbol("betam1"), symbol("alpha")
    p4_ref = b1**2 * (b1 + 1) * (b1 + 2) * (b1 - 1) * (b1 + 3) * alpha**2
    assert proportionality(polys["p4"], p4_ref) is not None
    p6_ref = (
        -4
        * (b1 - bm1)
        * (b1 + bm1)
        * (b1 + bm1 + 1)
        * (b1 + bm1 + 2)
        * b1**2
        * bm1**2
    )
    assert proportionality(polys["p6"], p6_ref) is not None


def test_p6_vanishes_on_each_relation():
    p6 = derive_constraint_polys()["p6"]
    for b1, bm1 in [(2, 2), (2, -2), (2, -3), (2, -4), (-5, -5), (-5, 5)]:
        assert p6.eval({"beta1": Fraction(b1), "betam1": Fraction(bm1)}) == 0


def test_case_split_enumeration():
    split = enumerate_case_split()
    assert split["relations"] == [
        "beta1 = betam1",
        "beta1 = -betam1",
        "beta1 = -1 - betam1",
        "beta1 = -2 - betam1",
    ]
    assert split["exceptional_pairs"] == [
        (Fraction(-3), Fraction(0)),
        (Fraction(0), Fraction(-3)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]
    assert split["p4_roots"] == [
        Fraction(-3),
        Fraction(-2),
        Fraction(-1),
        Fraction(0),
        Fraction(1),
    ]


def test_impossibility_system_only_zero():
    for alpha in (Fraction(1), Fraction(2, 5)):
        result = check_impossibility(alpha, 3)
        assert result["only_zero"]
        assert result["rank"] == result["unknowns"]


def test_impossibility_rejects_small_window():
    with pytest.raises(UsageError):
        check_impossibility(1, 1)


# A feasible uniform point, the three infeasible points of the certificate
# tests, an alpha = 1 point whose guard skips no equation, and two alpha = 1
# points with skipped equations (one feasible, one infeasible).
PINNED_POINTS = [
    (Fraction(2, 5), Fraction(1, 2), Fraction(-5, 2)),
    (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), 2, -2),
    (Fraction(1, 3), 0, 1),
    (1, 2, -4),
    (1, -3, 0),
    (1, 1, 0),
]


def test_window_solutions_are_pinned():
    # Guards values, flags, skip counts and certificates byte for byte.
    h = hashlib.sha256()
    for point in PINNED_POINTS:
        for window in (3, 4, 5, 6):
            solution = solve_c_window(ClassificationParams(*point), window)
            h.update(json.dumps(solution.to_json()).encode())
    assert h.hexdigest() == (
        "6f1eb165cb895a5e8dabfdb65bcb324653a6dd04ec7d9fb96b99e470d1b07ba5"
    )


def test_impossibility_results_are_pinned():
    h = hashlib.sha256()
    for alpha in (Fraction(1, 5), Fraction(2, 5), Fraction(7, 5)):
        h.update(json.dumps(check_impossibility(alpha, 10)).encode())
    assert h.hexdigest() == (
        "6b0f6d2b252ad0d7283c5afee0d76188e0cf43b5ec9d15944d0876b09e873141"
    )
