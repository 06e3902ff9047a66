import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zzlie.classify import (
    ClassificationParams,
    check_impossibility,
    recurrence_equation,
    solve_c_window,
)
from zzlie.linsolve import LinearSystem
from zzlie.poly import integer_scaled

from reference import tagged_elimination


def consistent(rows):
    return tagged_elimination(rows)[2] is None


def assert_minimal_certificate(rows, tags):
    chosen = [row for row in rows if row[2] in tags]
    assert len(chosen) == len(tags)
    assert not consistent(chosen)
    for dropped in tags:
        assert consistent([row for row in chosen if row[2] != dropped]), dropped


def test_consistent_solve():
    system = LinearSystem()
    assert system.add_equation({"x": 1, "y": 1}, 3, "a")
    assert system.add_equation({"x": 1, "y": -1, "z": 0}, 1, "b")
    assert system.add_equation({"z": 2, "w": 1}, 4, "c")
    assert system.rank() == 3
    assert system.solved_values() == {"x": 2, "y": 1}
    assert system.undetermined(["w", "x", "y", "z"]) == ["w", "z"]
    assert system.certificate_tags() is None


def test_redundant_row_is_accepted_and_never_certified():
    system = LinearSystem()
    assert system.add_equation({"x": 1, "y": 1}, 3, "a")
    assert system.add_equation({"x": 2, "y": 2}, 6, "twice a")
    assert system.rank() == 1
    assert system.certificate_tags() is None
    assert system.add_equation({"x": 1, "y": -1}, 1, "b")
    assert not system.add_equation({"x": 1}, 5, "c")
    assert system.certificate_tags() == ["a", "b", "c"]


def test_first_contradiction_is_kept():
    system = LinearSystem()
    system.add_equation({"x": 1}, 1, "a")
    system.add_equation({"y": 1}, 2, "b")
    assert not system.add_equation({"x": 1}, 0, "first")
    assert not system.add_equation({"y": 1}, 0, "second")
    assert not system.add_equation({"x": 1, "y": 1}, 0, "third")
    assert system.certificate_tags() == ["a", "first"]
    assert system.contradiction == {"a": -1, "first": 1}


def test_rows_after_a_contradiction_still_install():
    system = LinearSystem()
    system.add_equation({"x": 1}, 1, "a")
    assert not system.add_equation({"x": 1}, 2, "bad")
    assert system.add_equation({"x": 1, "y": 1}, 4, "b")
    assert system.solved_values() == {"x": 1, "y": 3}
    assert system.rank() == 2
    assert system.certificate_tags() == ["a", "bad"]


small_rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


def integer_row(coeffs, const):
    """The row coeffs = const times the LCM of its denominators, as ints."""
    _, scaled = integer_scaled([*coeffs.values(), const])
    return dict(zip(coeffs, scaled)), scaled[-1]


# LinearSystem takes int rows, so each drawn rational row is scaled to ints;
# the same int rows go to LinearSystem and to the Fraction reference.
rows_strategy = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 3), small_rationals, min_size=1, max_size=3),
        small_rationals,
    ).map(lambda row: integer_row(*row)),
    max_size=8,
)


def rational_pivots(system):
    """The pivots as unknown -> (row, const), divided by their leads."""
    return {
        v: ({u: Fraction(c, lead) for u, c in row.items()}, Fraction(const, lead))
        for v, (row, const, lead) in system.pivots.items()
    }


def assert_matches_tagged_elimination(raw):
    """Add the int rows ``raw`` and compare with the Fraction reference.

    After every row, ``_open`` must be exactly the pivots with a non-empty row.
    """
    rows = [(coeffs, const, ("row", n)) for n, (coeffs, const) in enumerate(raw)]
    system = LinearSystem()
    results = []
    for row in rows:
        results.append(system.add_equation(*row))
        assert set(system._open) == {v for v, (prow, _, _) in system.pivots.items() if prow}
    expected_results, expected_pivots, expected_combo = tagged_elimination(rows)
    assert results == expected_results
    assert rational_pivots(system) == expected_pivots
    for row, const, lead in system.pivots.values():
        entries = [lead, const, *row.values()]
        assert all(type(c) is int for c in entries)
        assert lead > 0 and math.gcd(*entries) == 1
    assert system.contradiction == expected_combo
    tags = system.certificate_tags()
    if tags is None:
        assert all(results)
        return
    assert tags == sorted(expected_combo, key=repr)
    assert ("row", results.index(False)) in tags
    assert_minimal_certificate(rows, tags)


@settings(max_examples=300, deadline=None)
@given(rows_strategy)
def test_matches_tagged_elimination(raw):
    assert_matches_tagged_elimination(raw)


def test_rows_over_solved_unknowns_are_decided_by_their_sum():
    system = LinearSystem()
    assert system.add_equation({"x": 3}, 2, "x")
    assert system.add_equation({"y": -5}, 4, "y")
    assert system.pivots == {"x": ({}, 2, 3), "y": ({}, -4, 5)}
    assert system.add_equation({"x": 6, "y": 5}, 0, "sum")  # 4 - 4 = 0
    assert system.add_equation({"x": -9}, -6, "scaled x")
    assert system.rank() == 2 and system.contradiction is None
    assert not system.add_equation({"x": 3, "y": 5}, 0, "off")  # 2 - 4 != 0
    assert system.certificate_tags() == ["off", "x", "y"]
    assert not system.add_equation({}, 1, "0 = 1")
    assert system.add_equation({"x": 0}, 0, "0 = 0")
    assert system.certificate_tags() == ["off", "x", "y"]
    # a fresh unknown (not a pivot) over solved ones is solved from the same
    # sum: 3x + 5y = -2, so -2z = 4 + 2, with a negative coefficient
    assert system.add_equation({"x": 3, "z": -2, "y": 5}, 4, "z")
    assert system.pivots["z"] == ({}, -3, 1) and not system._open
    # a fresh unknown in an open pivot row is back-substituted into that row
    system = LinearSystem()
    assert system.add_equation({"x": 1, "y": 1}, 3, "x + y")
    assert system.add_equation({"y": 2}, 4, "2y")
    assert system.pivots == {"x": ({}, 1, 1), "y": ({}, 2, 1)} and not system._open
    assert not system.add_equation({"x": 1}, 2, "x = 2")
    assert system.certificate_tags() == ["2y", "x + y", "x = 2"]
    # an unknown with an open pivot row is eliminated, not solved afresh
    system = LinearSystem()
    assert system.add_equation({"x": 1, "y": 1}, 3, "x + y")
    assert system.add_equation({"x": 1}, 1, "x")
    assert system.pivots == {"x": ({}, 1, 1), "y": ({}, 2, 1)} and not system._open


# Unknowns 0-3 are solved first, with leads that are mostly not 1; the rows
# after that are combinations of those unknowns (redundant, or off by a
# constant), multiples of a solving row, or rows that also meet unknowns 4
# and 5, which open pivot rows and later close them.
@st.composite
def solved_rows_strategy(draw):
    leads = st.sampled_from([2, 3, 5, -3, -4, 1])
    solving = draw(st.dictionaries(
        st.integers(0, 3), st.tuples(leads, st.integers(-6, 6)), min_size=1
    ))
    rows = [({v: lead}, const) for v, (lead, const) in solving.items()]
    values = {v: Fraction(const, lead) for v, (lead, const) in solving.items()}
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["redundant", "off", "scaled", "open"]))
        if kind == "scaled":
            coeffs, const = draw(st.sampled_from(rows[: len(solving)]))
            m = draw(st.integers(-3, 3).filter(bool))
            rows.append(({v: m * c for v, c in coeffs.items()}, m * const))
        elif kind == "open":
            coeffs = draw(st.dictionaries(
                st.integers(0, 5), st.integers(-3, 3).filter(bool), min_size=1, max_size=3
            ))
            coeffs[draw(st.integers(4, 5))] = draw(st.integers(-3, 3).filter(bool))
            rows.append((coeffs, draw(st.integers(-4, 4))))
        else:
            coeffs = draw(st.dictionaries(
                st.sampled_from(sorted(values)), small_rationals.filter(bool), min_size=1
            ))
            const = sum(c * values[v] for v, c in coeffs.items())
            if kind == "off":
                const += draw(small_rationals.filter(bool))
            rows.append(integer_row(coeffs, const))
    return rows


@settings(max_examples=300, deadline=None)
@given(solved_rows_strategy())
def test_solved_rows_match_tagged_elimination(raw):
    assert_matches_tagged_elimination(raw)


@settings(max_examples=200, deadline=None)
@given(rows_strategy.filter(bool), st.data())
def test_scaling_a_row_changes_nothing(raw, data):
    n = data.draw(st.integers(0, len(raw) - 1))
    m = data.draw(st.integers(-3, 3).filter(bool))
    plain, scaled = LinearSystem(), LinearSystem()
    for t, (coeffs, const) in enumerate(raw):
        plain.add_equation(coeffs, const, ("row", t))
        if t == n:
            coeffs, const = {v: m * c for v, c in coeffs.items()}, m * const
        scaled.add_equation(coeffs, const, ("row", t))
    assert scaled.solved_values() == plain.solved_values()
    assert scaled.rank() == plain.rank()
    assert scaled.undetermined(range(4)) == plain.undetermined(range(4))
    assert scaled.certificate_tags() == plain.certificate_tags()


def reference_window(alpha, beta1, betam1, window):
    """Admitted recurrence rows as Fraction rows, in solve order, and the skip count.

    Each instance is read off the printed recurrence
    (-alpha + i + betam1 k) c_{i+k,j} + (alpha + j + beta1 k) c_{i,j+k}
    = (i + j - k) c_{i,j}, skipped when a normalization parameter in {0, 1}
    meets a vanishing factor pair, and ordered by derivation tier, then
    |i| + |j| + |k|, then (i, j, k), after the row c_{0,0} = 2 alpha.
    """
    rng = range(-window, window + 1)
    keyed, skipped = [], 0
    for i in rng:
        for j in rng:
            for k in rng:
                if abs(i + k) > window or abs(j + k) > window:
                    continue
                left = betam1 not in (0, 1) or (i - alpha) * (i + k - alpha) != 0
                right = beta1 not in (0, 1) or (j + alpha) * (j + k + alpha) != 0
                if not (left and right):
                    skipped += 1
                    continue
                coeffs = {}
                for key, c in [
                    ((i + k, j), -alpha + i + betam1 * k),
                    ((i, j + k), alpha + j + beta1 * k),
                    ((i, j), -(i + j - k)),
                ]:
                    coeffs[key] = coeffs.get(key, 0) + Fraction(c)
                if i == 0 and j == 0:
                    tier = 0
                elif (i == 0 and j == k) or (j == 0 and i == k):
                    tier = 1
                elif i == 0 or j == 0:
                    tier = 2
                else:
                    tier = 3
                keyed.append(((tier, abs(i) + abs(j) + abs(k), i, j, k), coeffs))
    keyed.sort(key=lambda item: item[0])
    rows = [({(0, 0): 1}, 2 * alpha, ("norm",))]
    rows += [(coeffs, 0, ("eq", *key[2:])) for key, coeffs in keyed]
    return rows, skipped


@settings(max_examples=100, deadline=None)
@given(
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2, 3])),
    st.one_of(st.sampled_from([0, 1]), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))),
    st.one_of(st.sampled_from([0, 1]), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))),
    st.sampled_from([2, 3]),
)
@example(Fraction(1), 0, 1, 3)  # guard skips, infeasible
@example(Fraction(1), -3, 0, 3)  # guard skips, feasible
def test_window_solve_matches_fraction_reference(alpha, beta1, betam1, window):
    assert_window_solve_matches_reference(alpha, beta1, betam1, window)


# the benchmark's window: its uniform, equal and off-case points, and both guard points
@pytest.mark.parametrize("alpha, beta1, betam1, skipped", [
    (Fraction(5, 3), Fraction(-5, 2), Fraction(1, 2), 0),
    (Fraction(-2, 3), Fraction(-5, 2), Fraction(-5, 2), 0),  # infeasible
    (Fraction(5, 3), Fraction(3, 2), Fraction(-1, 2), 0),  # infeasible
    (Fraction(1), Fraction(0), Fraction(1), 411),  # infeasible
    (Fraction(1), Fraction(-3), Fraction(0), 227),  # feasible
])
def test_window_solve_matches_fraction_reference_at_w6(alpha, beta1, betam1, skipped):
    data = assert_window_solve_matches_reference(alpha, beta1, betam1, 6)
    assert data["skipped_equations"] == skipped


def assert_window_solve_matches_reference(alpha, beta1, betam1, window):
    """Compare ``solve_c_window`` with the Fraction reference; returns its JSON."""
    solution = solve_c_window(ClassificationParams(alpha, beta1, betam1), window)
    rows, skipped = reference_window(alpha, beta1, betam1, window)
    _, pivots, combo = tagged_elimination(rows)
    rng = range(-window, window + 1)
    undetermined = sorted(
        (i, j) for i in rng for j in rng if (i, j) not in pivots or pivots[(i, j)][0]
    )
    infeasible = combo is not None
    data = solution.to_json()
    assert solution.values == {v: c for v, (row, c) in pivots.items() if not row}
    assert solution.undetermined == undetermined
    assert data["infeasible"] is infeasible
    assert data["unique"] is (
        not infeasible and all(window in (abs(i), abs(j)) for i, j in undetermined)
    )
    assert data["skipped_equations"] == skipped
    expected = None if combo is None else [list(t) for t in sorted(combo, key=repr)]
    assert data["certificate"] == expected
    return data


@pytest.mark.parametrize("point, window", [
    ((Fraction(5, 3), Fraction(-5, 2), Fraction(1, 2)), 3),
    ((Fraction(-2, 3), Fraction(-5, 2), Fraction(-5, 2)), 4),
    ((Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)), 3),
    ((Fraction(1), Fraction(0), Fraction(1)), 4),
    ((Fraction(1), Fraction(-3), Fraction(0)), 3),
    # k = i + j on beta1 + betam1 = -1: instance (-2, 1, -1) has three zero coefficients
    ((Fraction(1), Fraction(2), Fraction(-3)), 3),
])
def test_window_rows_reach_the_system_in_sweep_order(monkeypatch, point, window):
    # skipped instances and empty rows (the k = 0 instances and any all-zero
    # k != 0 instance) never reach it
    tags = []
    add_equation = LinearSystem.add_equation

    def spy(system, coeffs, const, tag):
        tags.append(tag)
        return add_equation(system, coeffs, const, tag)

    monkeypatch.setattr(LinearSystem, "add_equation", spy)
    solve_c_window(ClassificationParams(*point), window)
    rows, _ = reference_window(*point, window)
    assert tags == [tag for coeffs, _, tag in rows if any(coeffs.values())]


def test_the_sweep_order_is_shared_across_solves():
    p = ClassificationParams(Fraction(-2, 3), Fraction(-5, 2), Fraction(-5, 2))
    first = solve_c_window(p, 3).to_json()
    solve_c_window(p, 4)
    assert solve_c_window(p, 3).to_json() == first


def test_add_equation_leaves_the_callers_row_alone_on_every_path():
    def add(system, coeffs, const, tag):
        row = dict(coeffs)
        result = system.add_equation(row, const, tag)
        assert row == coeffs
        return result

    system = LinearSystem()
    assert add(system, {"x": 2, "y": 0}, 4, "x")  # eliminated and installed
    assert add(system, {"y": 3}, -3, "y")
    assert all(c for row, _, _ in system.pivots.values() for c in row.values())
    assert system.solved_values() == {"x": 2, "y": -1}
    # decided over solved unknowns, with a zero on the unsolved z
    assert add(system, {"x": 1, "z": 0, "y": 2}, 0, "sum")
    assert system.rank() == 2 and "z" not in system.pivots
    assert add(system, {"z": 0, "w": 0}, 0, "0 = 0")
    assert add(system, {"z": 1, "w": 0, "x": 1}, 5, "z")  # eliminated and installed
    assert system.solved_values() == {"x": 2, "y": -1, "z": 3}
    assert all(c for row, _, _ in system.pivots.values() for c in row.values())
    # contradicting over solved unknowns: a zero entry changes no certificate
    plain, twin = LinearSystem(), LinearSystem()
    for system in (plain, twin):
        add(system, {"x": 1}, 2, "x")
        add(system, {"y": 1}, -1, "y")
    assert not add(plain, {"x": 1, "y": 1}, 0, "off")
    assert not add(twin, {"x": 1, "w": 0, "y": 1}, 0, "off")
    assert twin.contradiction == plain.contradiction == {"off": 1, "x": -1, "y": -1}
    # contradicting after elimination, through an open pivot row
    plain, twin = LinearSystem(), LinearSystem()
    for system in (plain, twin):
        add(system, {"x": 1, "y": 1}, 3, "a")
    assert not add(plain, {"x": 2, "y": 2}, 7, "off")
    assert not add(twin, {"y": 2, "v": 0, "x": 2}, 7, "off")
    assert twin.contradiction == plain.contradiction == {"off": 1, "a": -2}


# an integral alpha makes A or B vanish at some k, which gives one-unknown rows
@pytest.mark.parametrize("alpha", [
    Fraction(1, 5), Fraction(-2, 3), Fraction(1), Fraction(7, 5),
    Fraction(-1), Fraction(7, 4), Fraction(2, 5), Fraction(-3, 7),
])
def test_impossibility_rank_matches_fraction_reference(alpha):
    for window in range(2, 7):
        assert check_impossibility(alpha, window) == _full_impossibility_result(alpha, window)


def _full_impossibility_result(alpha, window):
    """The d'-system's result from all 2W+1 rows of every unknown, i = 0 included."""
    rng = range(-window, window + 1)
    rows = []
    for i in rng:
        for j in rng:
            if abs(i + j) > window:
                continue
            for k in rng:
                coeffs = {(i, j): 4 * alpha - 7 * i - 7 * j - k}
                coeffs[(0, i + j)] = coeffs.get((0, i + j), 0) - (4 * alpha + 9 * i - 7 * j - k)
                rows.append((coeffs, 0, ("eq", i, j, k)))
    _, pivots, _ = tagged_elimination(rows)
    unknowns = len({key for coeffs, _, _ in rows for key in coeffs})
    return {"only_zero": len(pivots) == unknowns, "rank": len(pivots), "unknowns": unknowns}


# at alpha = 1, W = 10 (and alpha = -1, W = 11) A vanishes at k = -W on the
# rows of i + j = 2 (i + j = 1), which would be redundant once d'_{0,i+j} is solved
@pytest.mark.parametrize("alpha, window, rank", [
    (Fraction(2, 5), 10, 331),
    (Fraction(1), 10, 331),
    (Fraction(1), 12, 469),
    (Fraction(-1), 11, 397),
    (Fraction(7, 4), 4, 61),
])
def test_impossibility_builds_only_rows_that_raise_the_rank(monkeypatch, alpha, window, rank):
    added = []
    add_equation = LinearSystem.add_equation

    def spy(system, coeffs, const, tag):
        before = system.rank()
        ok = add_equation(system, coeffs, const, tag)
        added.append((tag, system.rank() - before))
        return ok

    monkeypatch.setattr(LinearSystem, "add_equation", spy)
    result = check_impossibility(alpha, window)
    assert result == {"only_zero": True, "rank": rank, "unknowns": rank}
    assert len(added) == rank
    assert all(raised == 1 for _, raised in added)
    assert all(tag[1] != 0 for tag, _ in added)  # an i = 0 row is never built


@pytest.mark.parametrize("point", [
    (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), 2, -2),
    (Fraction(1, 3), 0, 1),
])
def test_window_certificates_are_minimal(point):
    p = ClassificationParams(*point)
    tags = [tuple(tag) for tag in solve_c_window(p, 3).certificate]
    rows = []
    for tag in tags:
        if tag == ("norm",):
            rows.append(({(0, 0): 1}, 2 * p.alpha, tag))
        else:
            rows.append((recurrence_equation(p, *tag[1:])["coeffs"], 0, tag))
    assert_minimal_certificate(rows, tags)
