"""Seeded job lists and reference checks for the four benchmark workloads.

A workload is a fixed list of ops.  The seed only picks parameter
numerators from small fixed ranges; every slot's denominator, every family
and every window is fixed here, so a new seed keeps the cost class (a sweep
at alpha = 2/3 costs about 1.4x the same sweep at alpha = 1).

Every op goes through the public library API or through ``zzlie.cli.main``,
looked up on its module at call time so that the traced mode can wrap it.
Each op has a reference check that recomputes what the result must be by
an independent route (index-set sizes, closed forms, the structure-constant
formula) and compares exactly: ``Fraction``, integer or JSON-string values,
never floats.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from zzlie import cli, verify
from zzlie.algebras import AlgebraSpec, BasisElement
from zzlie.classify import closed_form_equal_params, closed_form_uniform
from zzlie.poly import symbol

WORKLOADS = ("sweep-closed", "sweep-central", "recurrence", "modules")

SWEEPS = ("antisymmetry", "jacobi", "grading")
# Ops that run through ``zzlie.cli.main``; they return (exit code, stdout).
CLI_OPS = ("table", "solve", "impossibility", "module-check", "intertwine")

# Windows, per op kind.
SWEEP_WINDOW = 3
TABLE_WINDOW = 6
SOLVE_WINDOW = 6
SOLVES_PER_KIND = 2
IMPOSSIBILITY_WINDOW = 10
MODULE_WINDOW = 10
INTERTWINE_WINDOW = 40
ISOMORPHISM_WINDOW = 5

# Numerator ranges.  Each is used with one fixed denominator per slot.
_OFF_THIRDS = (-5, -4, -2, -1, 1, 2, 4, 5)  # n/3 never integral
_ODD = (-5, -3, -1, 1, 3, 5)  # m/2 never integral
_SMALL_ODD = (-3, -1, 1, 3)  # n/2 with the puncture (-2a, 2b) inside W=3
_SMALL_INT = (-2, -1, 1, 2)  # integral, puncture (-a, b) inside W=3
_CENTRAL = (-3, -2, -1, 1, 2, 3)
_OFF_FIFTHS = (1, 2, 3, 4, 6, 7)


@dataclass(frozen=True)
class Op:
    """One benchmark op as plain data.

    ``name`` says what runs, ``check`` which reference check judges it,
    ``family`` the algebra/module family (or recurrence point kind) and
    ``params`` the remaining inputs as (key, string) pairs.
    """

    name: str
    check: str
    family: str
    window: int
    params: tuple = ()

    def shape(self):
        """What a seed may not change: the op, its check, family and window."""
        return (self.name, self.check, self.family, self.window)

    def param(self, key):
        return dict(self.params).get(key)


def _q(num, den):
    f = Fraction(num, den)
    return f"{f.numerator}/{f.denominator}"


# -- input generation ----------------------------------------------------------


def generate(workload, seed):
    """The workload's op list for ``seed``; identical for identical seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def _sweep_ops(family, params):
    return [
        Op(name, "sweep", family, SWEEP_WINDOW, tuple(params))
        for name in SWEEPS
    ]


def _gen_sweep_closed(rng):
    ops = []
    ops += _sweep_ops("vir", [("alpha", _q(rng.choice(_OFF_THIRDS), 3))])
    ops += _sweep_ops(
        "d",
        [("alpha", _q(rng.choice(_OFF_THIRDS), 3)), ("beta", _q(rng.choice(_ODD), 2))],
    )
    ops += _sweep_ops("c", [("alpha", _q(rng.choice(_OFF_THIRDS), 3))])
    ops += _sweep_ops("cbar", [("alpha", _q(rng.choice(_OFF_THIRDS), 3))])
    table = (
        ("alpha", _q(rng.choice(_OFF_THIRDS), 3)),
        ("beta", _q(rng.choice(_ODD), 2)),
    )
    ops.append(Op("table", "table", "d", TABLE_WINDOW, table))
    return ops


def _central(rng):
    return [(name, str(rng.choice(_CENTRAL))) for name in ("a1", "a2", "a2p")]


def _gen_sweep_central(rng):
    ops = []
    # half-integral alpha, beta: the C2 generator and one puncture
    ops += _sweep_ops(
        "block",
        [
            ("alpha", _q(rng.choice(_SMALL_ODD), 2)),
            ("beta", _q(rng.choice(_SMALL_ODD), 2)),
        ]
        + _central(rng),
    )
    # integral alpha, beta with symbolic centre: C1, C2 and both punctures
    ops += _sweep_ops(
        "block",
        [
            ("alpha", _q(rng.choice(_SMALL_INT), 1)),
            ("beta", _q(rng.choice(_SMALL_INT), 1)),
            ("a1", "sym"),
            ("a2", "sym"),
            ("a2p", "sym"),
        ],
    )
    ops += _sweep_ops(
        "bplus-", [("alpha", _q(rng.choice(_SMALL_INT), 1))] + _central(rng)
    )
    ops += _sweep_ops(
        "bplus+", [("alpha", _q(rng.choice(_SMALL_ODD), 2))] + _central(rng)
    )
    return ops


def _off_case(b1, bm1):
    """True when (beta1, betam1) lies on none of the four case relations."""
    return b1 not in (bm1, -bm1, -1 - bm1, -2 - bm1)


def _gen_recurrence(rng):
    ops = []
    for _ in range(SOLVES_PER_KIND):
        alpha = Fraction(rng.choice(_OFF_THIRDS), 3)
        bm1 = Fraction(rng.choice(_ODD), 2)
        ops.append(_solve_op("uniform", alpha, -2 - bm1, bm1))
    for _ in range(SOLVES_PER_KIND):
        alpha = Fraction(rng.choice(_OFF_THIRDS), 3)
        beta = Fraction(rng.choice(_ODD), 2)
        ops.append(_solve_op("equal", alpha, beta, beta))
    for _ in range(SOLVES_PER_KIND):
        alpha = Fraction(rng.choice(_OFF_THIRDS), 3)
        while True:
            b1 = Fraction(rng.choice(_ODD), 2)
            bm1 = Fraction(rng.choice(_ODD), 2)
            if _off_case(b1, bm1):
                break
        ops.append(_solve_op("off-case", alpha, b1, bm1))
    alpha = _q(rng.choice(_OFF_FIFTHS), 5)
    ops.append(
        Op("impossibility", "impossibility", "d-prime", IMPOSSIBILITY_WINDOW, (("alpha", alpha),))
    )
    return ops


def _solve_op(kind, alpha, b1, bm1):
    params = (("alpha", _q(alpha, 1)), ("beta1", _q(b1, 1)), ("betam1", _q(bm1, 1)))
    return Op("solve", kind, "recurrence", SOLVE_WINDOW, params)


def _gen_modules(rng):
    w = MODULE_WINDOW
    ops = [
        Op(
            "module-check", "module", "a_ab", w,
            (("alpha", _q(rng.choice(_ODD), 2)), ("beta", _q(rng.choice(_OFF_THIRDS), 3))),
        ),
        Op("module-check", "module", "a_paren", w, (("alpha", str(rng.choice(_SMALL_INT))),)),
        Op("module-check", "module", "b_paren", w, (("alpha", str(rng.choice(_SMALL_INT))),)),
    ]
    # integral alpha with beta in {0, 1}: reducible, checked on the subquotient
    for beta in ("0", "1"):
        alpha = str(rng.choice(_SMALL_INT))
        ops.append(
            Op("module-check", "module", "a_ab", w,
               (("alpha", alpha), ("beta", beta), ("subquotient", "1")))
        )
    ops.append(
        Op("intertwine", "intertwine", "a_ab", INTERTWINE_WINDOW,
           (("alpha", _q(rng.choice(_ODD), 2)),))
    )
    ops.append(
        Op("isomorphism", "isomorphism", "bplus-", ISOMORPHISM_WINDOW,
           (("alpha", str(rng.choice((1, 2, 3)))), ("a1", str(rng.choice(_CENTRAL)))))
    )
    return ops


_GENERATORS = {
    "sweep-closed": _gen_sweep_closed,
    "sweep-central": _gen_sweep_central,
    "recurrence": _gen_recurrence,
    "modules": _gen_modules,
}


# -- running -------------------------------------------------------------------


def algebra_spec(op):
    """The op's AlgebraSpec; the literal "sym" makes a central parameter symbolic."""

    def central(name):
        value = op.param(name)
        if value is None:
            return None
        return symbol(name) if value == "sym" else Fraction(value)

    beta = op.param("beta")
    return AlgebraSpec(
        op.family,
        Fraction(op.param("alpha")),
        None if beta is None else Fraction(beta),
        a1=central("a1"),
        a2=central("a2"),
        a2p=central("a2p"),
    )


def cli_argv(op):
    """The ``zzlie`` command line of a CLI op."""
    w = f"--window={op.window}"
    if op.name == "table":
        return ["table", f"--family={op.family}", f"--alpha={op.param('alpha')}",
                f"--beta={op.param('beta')}", w, "--format=csv"]
    if op.name == "solve":
        return ["classify", "solve", f"--alpha={op.param('alpha')}",
                f"--beta1={op.param('beta1')}", f"--betam1={op.param('betam1')}", w]
    if op.name == "impossibility":
        return ["classify", "impossibility", f"--alpha={op.param('alpha')}", w]
    if op.name == "module-check":
        argv = ["module", "check", f"--family={op.family}", f"--alpha={op.param('alpha')}"]
        if op.param("beta") is not None:
            argv.append(f"--beta={op.param('beta')}")
        if op.param("subquotient"):
            argv.append("--subquotient")
        return argv + [w]
    if op.name == "intertwine":
        alpha = op.param("alpha")
        return ["module", "intertwine", f"--family={op.family}", f"--alpha={alpha}",
                "--beta=0", f"--family2={op.family}", f"--alpha2={alpha}", "--beta2=1", w]
    raise ValueError(f"{op.name} has no CLI form")


def isomorphism_specs(op):
    """The quotient of ``c`` and the half-plane algebra it maps onto."""
    alpha = Fraction(op.param("alpha"))
    target = AlgebraSpec("bplus-", -alpha, a1=Fraction(op.param("a1")), a2=0, a2p=0)
    return verify.QuotientC(alpha), target


def _identity(t):
    return t


def prepare(op):
    """Build the op's inputs and return a zero-argument callable running it.

    Library specs are rebuilt inside the callable, so every pass pays for
    spec construction as a caller would; building one here validates the
    parameters during set-up.
    """
    if op.name in SWEEPS:
        algebra_spec(op)
        check_name = "check_" + op.name

        def run():
            return getattr(verify, check_name)(algebra_spec(op), op.window)

        return run
    if op.name == "isomorphism":
        isomorphism_specs(op)

        def run():
            quotient, target = isomorphism_specs(op)
            return verify.find_diagonal_isomorphism(quotient, target, _identity, op.window)

        return run
    argv = cli_argv(op)

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return run


# -- reference checks ----------------------------------------------------------
#
# Each check returns (ok, items, message).  ``items`` counts checked items:
# the triples, pairs or module checks of a report, or the admitted
# recurrence equations of a window solve.


def _domain_size(op):
    """Basis indices with |i|, |j| <= W, counted from the family definition."""
    w = op.window
    alpha = Fraction(op.param("alpha"))
    family = op.family
    if family in ("vir", "d", "c", "cbar"):
        return (2 * w + 1) ** 2
    beta = {"bplus-": Fraction(-1), "bplus+": Fraction(1)}.get(family)
    if beta is None:
        beta = Fraction(op.param("beta"))
    js = range(-w, w + 1)
    if family == "bplus-":
        js = range(-1, w + 1)
    elif family == "bplus+":
        js = range(-w, 2)
    punctures = {
        (p.numerator, q.numerator)
        for p, q in ((-alpha, beta), (-2 * alpha, 2 * beta))
        if p.denominator == 1 and q.denominator == 1
    }
    inside = sum(1 for i, j in punctures if abs(i) <= w and j in js)
    return (2 * w + 1) * len(js) - inside


def _check_sweep(op, report):
    n = _domain_size(op)
    expected = n * (n + 1) * (n + 2) // 6 if op.name == "jacobi" else n * n
    if not report.ok:
        return False, report.checked_count, f"{len(report.witnesses)} witnesses"
    if report.checked_count != expected:
        return False, report.checked_count, f"checked {report.checked_count}, expected {expected}"
    return True, report.checked_count, ""


def _d_coeff(alpha, beta, i, j, k, ell):
    return beta * (i * ell - j * k) + (k - i) + (ell - j) * alpha


def _check_table(op, result):
    code, text = result
    if code != 0:
        return False, 0, f"exit code {code}"
    alpha, beta = Fraction(op.param("alpha")), Fraction(op.param("beta"))
    w = op.window
    idxs = [(i, j) for i in range(-w, w + 1) for j in range(-w, w + 1)]
    lines = text.splitlines()
    if lines[0] != "left_i,left_j,right_i,right_j,terms":
        return False, 0, "bad csv header"
    if len(lines) != 1 + len(idxs) ** 2:
        return False, 0, f"{len(lines) - 1} rows, expected {len(idxs) ** 2}"
    rows = iter(lines[1:])
    for i, j in idxs:
        for k, ell in idxs:
            li, lj, ri, rj, terms = next(rows).split(",", 4)
            if (int(li), int(lj), int(ri), int(rj)) != (i, j, k, ell):
                return False, 0, f"row order differs at {(i, j, k, ell)}"
            coeff = _d_coeff(alpha, beta, i, j, k, ell)
            want = []
            if coeff:
                want = [{"basis": {"i": i + k, "j": j + ell, "kind": "L"},
                         "coeff": f"{coeff.numerator}/{coeff.denominator}"}]
            if json.loads(terms) != want:
                return False, 0, f"bracket {(i, j)},{(k, ell)} differs"
    return True, 0, ""


def _solve_triples(w):
    rng = range(-w, w + 1)
    return sum(
        1 for i in rng for j in rng for k in rng
        if abs(i + k) <= w and abs(j + k) <= w
    )


def _check_solve(op, result):
    code, text = result
    if code == 2:
        return False, 0, "usage error"
    data = json.loads(text)
    items = _solve_triples(op.window) - data["skipped_equations"]
    if code != (1 if data["infeasible"] else 0):
        return False, items, f"exit code {code} disagrees with the report"
    values = {
        tuple(int(x) for x in key.split(",")): Fraction(v)
        for key, v in data["values"].items()
    }
    alpha = Fraction(op.param("alpha"))
    b1, bm1 = Fraction(op.param("beta1")), Fraction(op.param("betam1"))
    w = op.window
    if op.check == "uniform":
        if data["infeasible"]:
            return False, items, "uniform point reported infeasible"
        if len(values) != (2 * w + 1) ** 2:
            return False, items, f"{len(values)} values pinned"
        cf = closed_form_uniform(alpha, b1 + 1)
        bad = [t for t, v in values.items() if v != cf(*t)]
        return not bad, items, f"closed form differs at {bad[:3]}" if bad else ""
    if op.check == "equal":
        # Only the prefix values are asserted here, not feasibility.
        for k in range(1, w // 2 + 1):
            c0, c2 = closed_form_equal_params(alpha, b1, k)
            if values.get((0, 2 * k)) != c0 or values.get((2 * k, 0)) != c2:
                return False, items, f"c(0,{2 * k}) or c({2 * k},0) differs"
        return True, items, ""
    # off-case point
    if not data["infeasible"] or not data["certificate"]:
        return False, items, f"off-case point {(alpha, b1, bm1)} not certified infeasible"
    return True, items, ""


def _check_impossibility(op, result):
    code, text = result
    if code != 0:
        return False, 0, f"exit code {code}"
    data = json.loads(text)
    w = op.window
    unknowns = sum(
        1 for i in range(-w, w + 1) for j in range(-w, w + 1) if abs(i + j) <= w
    )
    if not data["only_zero"]:
        return False, 0, "a nonzero solution was reported"
    if data["rank"] != unknowns or data["unknowns"] != unknowns:
        return False, 0, f"rank {data['rank']} of {data['unknowns']}, expected {unknowns}"
    return True, 0, ""


def _check_module(op, result):
    code, text = result
    if code != 0:
        return False, 0, f"exit code {code}"
    data = json.loads(text)
    w = op.window
    support = 2 * w + 1
    if op.param("subquotient") and abs(int(op.param("alpha"))) <= w:
        support -= 1  # the removed index -alpha
    expected = support * (2 * w + 1) ** 2
    if data["witnesses"] or data["checked_count"] != expected:
        return False, data["checked_count"], f"checked {data['checked_count']}, expected {expected}"
    return True, data["checked_count"], ""


def _check_intertwine(op, result):
    code, text = result
    if code != 0:
        return False, 0, f"exit code {code}"
    data = json.loads(text)
    alpha = Fraction(op.param("alpha"))
    scalars = {int(k): Fraction(v) for k, v in data["scalars"].items()}
    if sorted(scalars) != list(range(-op.window, op.window + 1)):
        return False, 0, "scalars do not cover the window"
    ratios = {c / (alpha + k) for k, c in scalars.items()}
    if len(ratios) != 1 or 0 in ratios:
        return False, 0, "intertwiner ratios are not one nonzero constant"
    return True, 0, ""


def _check_isomorphism(op, lam):
    """lam(t) [a, b]_A == lam(a) lam(b) [a, b]_B at t = a + b, for every pair.

    A is the quotient, B the half-plane algebra.  At a B puncture the A term
    is compared with the B central generator of that degree.
    """
    if lam is None:
        return False, 0, "no isomorphism found"
    quotient, target = isomorphism_specs(op)
    central = {degree: kind for kind, degree in target.central_degrees().items()}
    w = op.window
    idxs = [(i, j) for i in range(-w, w + 1) for j in range(-1, w + 1)]
    if sorted(lam) != idxs or not all(lam.values()):
        return False, 0, "scalars missing or zero"
    pairs = [(a, b) for a in idxs for b in idxs if target.in_domain(*a) and target.in_domain(*b)]
    for a, b in pairs:
        t = (a[0] + b[0], a[1] + b[1])
        if t not in lam:
            continue
        lhs = quotient.basis_bracket(a, b).terms
        rhs = target.basis_bracket(a, b).terms
        ca = lhs.get(BasisElement("L", *t), 0)
        if target.in_domain(*t):
            cb = rhs.get(BasisElement("L", *t), 0)
        else:
            cb = rhs.get(BasisElement(central[t]), 0) if t in central else 0
        if ca * lam[t] != cb * lam[a] * lam[b]:
            return False, 0, f"bracket {a},{b} is not intertwined"
    return True, 0, ""


CHECKS = {
    "sweep": _check_sweep,
    "table": _check_table,
    "uniform": _check_solve,
    "equal": _check_solve,
    "off-case": _check_solve,
    "impossibility": _check_impossibility,
    "module": _check_module,
    "intertwine": _check_intertwine,
    "isomorphism": _check_isomorphism,
}


def check(op, result):
    """Judge one op's result against its reference: (ok, items, message)."""
    return CHECKS[op.check](op, result)
