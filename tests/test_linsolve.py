from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzlie.classify import ClassificationParams, recurrence_equation, solve_c_window
from zzlie.linsolve import LinearSystem
from zzlie.poly import accumulate


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


rows_strategy = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 3), st.integers(-2, 2), min_size=1, max_size=3),
        st.integers(-2, 2),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(rows_strategy)
def test_matches_tagged_elimination(raw):
    rows = [(coeffs, const, ("row", n)) for n, (coeffs, const) in enumerate(raw)]
    system = LinearSystem()
    results = [system.add_equation(*row) for row in rows]
    expected_results, expected_pivots, expected_combo = tagged_elimination(rows)
    assert results == expected_results
    assert {v: (row, c) for v, (row, c, _) in system.pivots.items()} == expected_pivots
    assert system.contradiction == expected_combo
    tags = system.certificate_tags()
    if tags is None:
        assert all(results)
        return
    assert tags == sorted(expected_combo, key=repr)
    assert ("row", results.index(False)) in tags
    assert_minimal_certificate(rows, tags)


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
