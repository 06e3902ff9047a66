"""Replayable mutants of ``src/``: each must make the tests it names fail.

Run from anywhere, with the test extra installed::

    python tests/mutants.py

A mutant is one exact text replacement in one file of ``src/zzlie``.  The
runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs the named tests of every mutant there
unchanged: they must pass.  Then, for each mutant, it replaces the old text
in a fresh copy and runs the mutant's tests with ``-x``; pytest must report
a test failure (exit code 1).  The old text must occur exactly once, so a
refactor that moves it makes the runner fail loudly until the mutant is
brought up to date.  The exit code is 1 when a mutant survived or could not
be applied, and 2 when the named tests fail on the unchanged source.

The file is not collected by pytest: its name does not start with
``test_``.  A change that kills a new kind of fault adds its mutant here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/zzlie
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_VERIFY = "tests/test_verify.py::"
_ALGEBRAS = "tests/test_algebras.py::"
_POLY = "tests/test_poly.py::"
_GUARD = "tests/test_classify.py::test_recurrence_guard_decided_once_matches_the_printed_condition"
_OFFSET = "((q - p) * n - (q * (q - 1) - p * (p - 1)) // 2 + r - q,"
_PUNCTURE_OVERWRITE = """        for q, kind, n in self._central_at(i, j, win):
            row[q] = ((kind, n),) if n else ()
"""
_ROW_PASS = "zip(range(p, n), xs[p:], ys[p:])"
_LINSOLVE = "tests/test_linsolve.py::"
_FRESH = _LINSOLVE + "test_rows_over_solved_unknowns_are_decided_by_their_sum"
_SETTLED = _LINSOLVE + "test_settled_decides_rows_over_solved_unknowns_by_their_sum"
_SETTLED_RULE = _LINSOLVE + "test_settled_rows_are_those_that_change_nothing"
_ROW_CHECK = """        if [c * f_l * n[t] for c, t in zip(lhs, targets)] != [
                c * f_r * n[s] for c, s in zip(rhs, sources)]:"""

MUTANTS = [
    # propagate_scalars, solve phase: an entry with two unset unknowns is
    # then never woken when its first one is set by another entry
    Mutant("park-on-first-unset-only", "linsolve.py",
           "for u in set(unset):", "for u in unset[:1]:",
           (_VERIFY + "test_propagation_solves_an_equation_once_its_other_unknowns_are_set",
            _VERIFY + "test_propagation_of_consistent_systems_matches_reference")),
    # propagate_scalars, decide phase: the equations used for solving are
    # no longer checked
    Mutant("row-check-after-the-set-row", "linsolve.py",
           "for head, targets, sources, lhs, rhs in rows:",
           "for head, targets, sources, lhs, rhs in rows[first[0] + 1:]:",
           (_VERIFY + "test_propagation_checks_every_equation_once_all_unknowns_are_set",
            _VERIFY + "test_row_check_takes_over_in_the_middle_of_a_row")),
    Mutant("row-check-drops-the-head-factor", "linsolve.py",
           "(c_l * d, c_r * n[head])", "(c_l * d, c_r * d)",
           (_VERIFY + "test_row_check_takes_over_in_the_middle_of_a_row",
            _VERIFY + "test_quotient_isomorphism_witness_is_pinned")),
    Mutant("row-check-skips-the-first-entry", "linsolve.py", _ROW_CHECK,
           _ROW_CHECK.replace("(lhs, targets)", "(lhs[1:], targets[1:])")
           .replace("(rhs, sources)", "(rhs[1:], sources[1:])"),
           (_VERIFY + "test_isomorphism_reads_every_row_to_its_ends",)),
    Mutant("row-check-skips-the-last-entry", "linsolve.py", _ROW_CHECK,
           _ROW_CHECK.replace("(lhs, targets)", "(lhs[:-1], targets[:-1])")
           .replace("(rhs, sources)", "(rhs[:-1], sources[:-1])"),
           (_VERIFY + "test_isomorphism_reads_every_row_to_its_ends",)),
    # LinearSystem.add_equation: a fresh unknown solved from its row's int sum
    Mutant("fresh-path-skips-back-substitution", "linsolve.py",
           "self._install(fresh, ", "self.pivots.__setitem__(fresh, ",
           (_FRESH, _LINSOLVE + "test_solved_rows_match_tagged_elimination")),
    Mutant("fresh-value-with-the-residue-sign-flipped", "linsolve.py",
           "-residue if lead > 0 else residue", "residue if lead > 0 else -residue",
           (_FRESH, _LINSOLVE + "test_solved_rows_match_tagged_elimination")),
    Mutant("fresh-path-for-an-open-pivot", "linsolve.py",
           "            if piv is None:\n", "            if piv is None or piv[0]:\n",
           (_FRESH, _LINSOLVE + "test_matches_tagged_elimination")),
    # LinearSystem.settled: a row over three solved unknowns decided by its sum
    Mutant("settled-reads-an-open-pivot-as-solved", "linsolve.py",
           "p3 is None or p1[0] or p2[0] or p3[0]:", "p3 is None:",
           (_SETTLED, _SETTLED_RULE)),
    Mutant("settled-sum-drops-a-lead", "linsolve.py",
           "c1 * n1 * l2 * l3 +", "c1 * n1 * l2 +",
           (_SETTLED, _SETTLED_RULE)),
    Mutant("settled-contradiction-test-inverted", "linsolve.py",
           "self.contradiction is not None\n", "self.contradiction is None\n",
           (_SETTLED, _SETTLED_RULE)),
    # LinearSystem.add_equation: a zero coefficient on an unsolved unknown
    # is read as its fresh unknown, which it then installs with lead 0
    Mutant("walk-reads-a-zero-coefficient", "linsolve.py",
           "            if not c:\n                continue\n", "",
           (_LINSOLVE + "test_add_equation_leaves_the_callers_row_alone_on_every_path",
            _LINSOLVE + "test_matches_tagged_elimination")),
    # LinearSystem.add_equation: a mapping read as a sequence gives its keys,
    # so a key (0, 1) reads as the pair "unknown 0, coefficient 1"
    Mutant("mapping-keys-read-as-pairs", "linsolve.py",
           "if isinstance(terms, Mapping):", "if False:",
           (_LINSOLVE + "test_add_equation_refuses_a_mapping",)),
    # _kronecker: a radix that bounds the entries but not their products
    Mutant("radix-bounds-only-the-entries", "verify.py",
           "bits, e = 2 * m.bit_length() + 3,", "bits, e = m.bit_length() + 1,",
           (_VERIFY + "test_substitution_finds_a_changed_monomial[spec4-pair4-delta4]",)),
    # _kronecker: E = 1 sends every symbol to the same power of B
    Mutant("one-power-for-every-symbol", "verify.py",
           "2 * max((d for _, d in exps), default=0) + 1", "1",
           (_VERIFY + "test_substitution_finds_a_changed_monomial[spec3-pair3-delta3]",)),
    # _kronecker: the rows of odd i keep their polynomials, so a clean
    # symbolic triple is a suspect and reaches raw_terms
    Mutant("substitute-half-the-rows", "verify.py",
           "[x if x.__class__ is int else", "[x if x.__class__ is int or t[0] % 2 else",
           (_VERIFY + "test_jacobi_and_table_read_no_terms_of_a_clean_spec",)),
    # check_jacobi: a suspect's offset in its row p
    *(Mutant(f"jacobi-offset-{name}", "verify.py", _OFFSET, _OFFSET.replace(old, new),
             (_VERIFY + "test_jacobi_counts_a_lone_witness_at_its_sweep_position",))
      for name, old, new in (("from-p", "r - q,", "r - p,"),
                             ("start-off-by-a-run", "q * (q - 1) - p * (p - 1)",
                              "q * (q + 1) - p * (p + 1)"),
                             ("short-runs", "(q - p) * n", "(q - p) * (n - 1)"))),
    # ClassificationParams._guarded: the points where the side condition can fail
    *(Mutant(f"guard-{name}", "classify.py", "not {0, den}.isdisjoint(nums[1:])", new, (_GUARD,))
      for name, new in (("without-0", "not {den}.isdisjoint(nums[1:])"),
                        ("without-1", "not {0}.isdisjoint(nums[1:])"),
                        ("beta1-only", "not {0, den}.isdisjoint(nums[1:2])"),
                        ("betam1-only", "not {0, den}.isdisjoint(nums[2:])"))),
    # check_antisymmetry: row p decides q >= p against column p and reads
    # q < p as mirrors
    Mutant("antisymmetry-skips-the-diagonal", "verify.py",
           _ROW_PASS, "zip(range(p + 1, n), xs[p + 1:], ys[p + 1:])",
           (_VERIFY + "test_antisymmetry_finds_a_fault_on_the_diagonal",)),
    Mutant("antisymmetry-row-against-itself", "verify.py",
           _ROW_PASS, "zip(range(p, n), xs[p:], xs[p:])",
           (_VERIFY + "test_pair_sweeps_read_no_terms_of_a_clean_spec",
            _VERIFY + "test_pair_sweeps_match_reference_on_one_sided_brackets")),
    Mutant("antisymmetry-drops-the-mirrors", "verify.py",
           "suspects = mirrors[p] + found", "suspects = found",
           (_VERIFY + "test_antisymmetry_cap_falls_on_a_mirrored_pair",
            _VERIFY + "test_pair_sweeps_match_reference_on_one_sided_brackets")),
    # window_grid: codes that collide at the box's j edges, a grid read one
    # degree off, and a central key written at a degree outside the box
    # (an index past the list, or at (2, 8) the slot of (3, -5))
    *(Mutant(f"grid-{name}", "algebras.py", old, new,
             (_VERIFY + "test_tables_at_the_grid_edges_match_terms_json",
              _VERIFY + "test_clean_sweeps_at_the_grid_edges_read_each_bracket_once"))
      for name, old, new in (
          ("radix-4w", "self.radix, self.reach = 4 * window + 1, 2 * window",
           "self.radix, self.reach = 4 * window, 2 * window"),
          ("offset-off-by-one", "self.offset = self.reach * (self.radix + 1)",
           "self.offset = self.reach * (self.radix + 1) - 1"),
          ("central-key-without-the-box-bound", "if abs(i) <= reach >= abs(j):", "if True:"))),
    # the degree box without the central keys: check_grading then makes every
    # central term a suspect, which the exact rule clears at a second raw_terms call
    Mutant("grading-grid-without-central-keys", "algebras.py",
           "in self._central.items():", "in {}.items():",
           (_VERIFY + "test_clean_sweeps_at_the_grid_edges_read_each_bracket_once",)),
    # window_range: a float or bool window passes a window rule that tests only the minimum
    Mutant("window-rule-without-the-int-test", "algebras.py",
           "if window.__class__ is not int or window < least:", "if window < least:",
           (_ALGEBRAS + "test_negative_window_is_refused[window_grid]",
            _ALGEBRAS + "test_negative_window_is_refused[impossibility]")),
    # check_grading: each pair's key read at the left index's own degree
    # makes every nonempty bracket a suspect, which the exact rule clears
    Mutant("grading-key-of-the-left-index", "verify.py",
           "terms[0][0] != keys[base + d]", "terms[0][0] != keys[base]",
           (_VERIFY + "test_pair_sweeps_read_no_terms_of_a_clean_spec",
            _VERIFY + "test_clean_sweeps_at_the_grid_edges_read_each_bracket_once")),
    # AlgebraSpec.raw_terms: the domain test of the right input; the
    # puncture lookup of both row forms: the partner of the index sum, and
    # raw_row's central entries
    Mutant("raw-terms-skips-the-right-input", "algebras.py",
           "[domain_index(self, b, self.family)]", "[tuple(b)]",
           (_ALGEBRAS + "test_numerators_refuse_an_out_of_domain_index",)),
    Mutant("puncture-at-the-left-index", "algebras.py",
           "(q := win.pos.get((pi - i, pj - j)))", "(q := win.pos.get((i, j)))",
           (_ALGEBRAS + "test_block_central_term_example",
            _ALGEBRAS + "test_block_second_center")),
    Mutant("raw-row-without-the-puncture-overwrite", "algebras.py", _PUNCTURE_OVERWRITE, "",
           (_ALGEBRAS + "test_block_central_term_example",
            _ALGEBRAS + "test_raw_row_matches_reference_property")),
    # Window: a block that runs on past a hole in its ell steps, a column
    # run written one position too far apart, and a position map that reads
    # each pair's position from the other end of the window
    Mutant("run-spans-a-hole", "algebras.py",
           "elif blocks and k == b[1] + b[3] * b[5] and ell == b[2] + b[4] * b[5]:",
           "elif blocks and k == b[1] + b[3] * b[5]:",
           (_ALGEBRAS + "test_row_forms_match_reference_on_every_window_property",
            _VERIFY + "test_tables_at_the_grid_edges_match_terms_json")),
    Mutant("c-column-stride-off-by-one", "algebras.py",
           "(slice(q, q + st * n, st), k, dk, n)", "(slice(q, q + (st + 1) * n, st + 1), k, dk, n)",
           (_ALGEBRAS + "test_row_forms_match_reference_on_every_window_property",
            _VERIFY + "test_numerators_match_raw_terms_property")),
    Mutant("puncture-position-of-the-wrong-index", "algebras.py",
           "dict(zip(reversed(self), range(len(self) - 1, -1, -1)))",
           "dict(zip(self, range(len(self) - 1, -1, -1)))",
           (_ALGEBRAS + "test_row_forms_match_reference_on_every_window_property",
            _ALGEBRAS + "test_table_cells_match_json_encoding")),
    # exact_value: Fraction(value) takes a float or a str as it is
    Mutant("exact-value-converts-anything", "poly.py",
           "    if isinstance(value, (int, Fraction)):\n"
           "        return value if isinstance(value, Fraction) else Fraction(value)\n",
           "    return Fraction(value)\n",
           (_POLY + "test_numbers_are_exact_at_every_entry_point[AlgebraSpec]",
            _POLY + "test_numbers_are_exact_at_every_entry_point[closed_form_uniform]")),
    # AlgebraSpec.in_domain: an index equal to an int passes as one
    Mutant("in-domain-without-the-int-test", "algebras.py",
           "return (i.__class__ is j.__class__ is int\n                and ", "return (",
           (_ALGEBRAS + "test_index_components_must_be_ints[d]",
            _ALGEBRAS + "test_index_components_must_be_ints[c]")),
    # Window.of: a sequence that repeats a pair is taken as it is
    Mutant("row-window-takes-a-repeated-pair", "algebras.py",
           "if len(win.pos) < len(win):", "if False:",
           (_ALGEBRAS + "test_row_forms_refuse_a_repeated_pair",)),
    # act: an index that only equals an int, or is no int at all, is taken
    Mutant("act-takes-a-non-int-index", "virmodules.py",
           "if k.__class__ is not int or not m.supports(k):", "if not m.supports(k):",
           ("tests/test_virmodules.py::test_act_refuses_an_index_that_is_not_an_int",)),
    # find_diagonal_isomorphism: a list image is taken as it is, and a
    # Window of list pairs cannot be built
    Mutant("isomorphism-images-taken-as-given", "verify.py",
           "tuple(index_map(a))", "index_map(a)",
           (_VERIFY + "test_isomorphism_takes_list_images_as_tuples",)),
    # find_diagonal_isomorphism: an index whose image is outside B's domain
    # and not central is dropped, so a partial map gives a witness
    Mutant("isomorphism-drops-an-index-without-an-image", "verify.py",
           "for a, m in images if a not in position)", "for a, m in images if m in b_central)",
           tuple(_VERIFY + "test_isomorphism_refuses_a_partial_map[" + case + "]"
                 for case in ("block-rotated-to-bplus-3", "d-to-quotient-2"))),
]


def _copy(dest):
    """A copy of the parts of the repository that the tests read, without bytecode."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(where, tests, *flags):
    """The exit code of pytest run on ``tests`` in the copy at ``where``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *tests]
    return subprocess.run(cmd, cwd=where).returncode


def run(mutants):
    """Apply each mutant to a fresh copy; returns the names that survived or did not apply."""
    bad = []
    with tempfile.TemporaryDirectory(prefix="zzlie-mutants-") as tmp:
        tmp = Path(tmp)
        clean = tmp / "clean"
        _copy(clean)
        tests = sorted({t for m in mutants for t in m.tests})
        if _pytest(clean, tests) != 0:
            print("mutants: the named tests fail on the unchanged source", file=sys.stderr)
            sys.exit(2)
        for m in mutants:
            where = tmp / m.name
            shutil.copytree(clean, where)
            path = where / "src" / "zzlie" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"mutants: {m.name}: the old text occurs {text.count(m.old)} times "
                      f"in src/zzlie/{m.file}, not once", file=sys.stderr)
                bad.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new))
            code = _pytest(where, m.tests, "-x", "--no-header", "--tb=no")
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit code {code})"
            print(f"mutants: {m.name}: {verdict}", flush=True)
            if code != 1:
                bad.append(m.name)
    return bad


def main():
    bad = run(MUTANTS)
    if bad:
        print(f"mutants: {len(bad)} not killed: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
