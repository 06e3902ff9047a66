"""Command-line front end.

Subcommands: bracket, table, verify, module, classify.  Output is
deterministic (sorted keys, canonical "p/q" rationals) and identical in
information across --format json|csv|text: csv and text print one row per
JSON leaf or empty list/dict, with null, true, false, [] and {} as JSON
writes them (``table`` prints one row per bracket).  Exit codes: 0 success /
all checks pass, 1 violation or infeasibility found, 2 usage error, a
window past the platform's index range or an ``--out`` path that cannot be
written.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import algebras, classify, verify, virmodules
# structure_table is not called here; zzbench/tracing.py wraps it on this module.
# It wraps table_to_json on this module too, so _cmd_table must call it through
# this module's global, as imported here by name.
from .algebras import AlgebraSpec, structure_table, table_to_json  # noqa: F401
from .poly import UsageError, format_rational, parse_rational, symbol


def _param(text, name):
    """A rational flag value, or a polynomial symbol for the literal "sym"."""
    if text is None:
        return None
    if text == "sym":
        return symbol(name)
    return parse_rational(text)


def _index(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"index must be 'i,j', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise UsageError(f"index components must be integers: {text!r}") from exc


def _algebra_spec(args):
    return AlgebraSpec(
        family=args.family,
        alpha=parse_rational(args.alpha),
        beta=None if args.beta is None else parse_rational(args.beta),
        a1=_param(args.a1, "a1"),
        a2=_param(args.a2, "a2"),
        a2p=_param(args.a2p, "a2p"),
    )


def _emit(payload, args):
    """Render one payload in the chosen format and write it."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        sep = _SEPARATORS[args.format]
        text = "".join(sep.join(str(x) for x in row) + "\n" for row in _flatten(payload))
    _write(text, args)


def _write(text, args):
    """Write rendered output to ``--out``, or to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_SEPARATORS = {"csv": ",", "text": " "}


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict) and payload:
        for key in sorted(payload, key=str):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list) and payload:
        for n, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{n}."))
    else:
        if payload is None or isinstance(payload, (bool, dict, list)):
            payload = json.dumps(payload)
        rows.append((prefix.rstrip("."), payload))
    return rows


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--out", default=None)


def _add_algebra_flags(sub):
    sub.add_argument("--family", required=True, choices=algebras.FAMILIES)
    sub.add_argument("--alpha", required=True)
    sub.add_argument("--beta", default=None)
    sub.add_argument("--a1", default=None)
    sub.add_argument("--a2", default=None)
    sub.add_argument("--a2p", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="zzlie")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bracket", help="evaluate one basis bracket")
    _add_algebra_flags(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)

    p = subs.add_parser("table", help="export a windowed structure table")
    _add_algebra_flags(p)
    p.add_argument("--window", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("verify", help="run a verification sweep")
    p.add_argument("check", choices=("antisymmetry", "jacobi", "grading", "all"))
    _add_algebra_flags(p)
    p.add_argument("--window", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("module", help="intermediate-series module operations")
    p.add_argument("action", choices=("check", "intertwine"))
    p.add_argument("--family", required=True, choices=virmodules.MODULE_FAMILIES)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", default=None)
    p.add_argument("--subquotient", action="store_true")
    p.add_argument("--family2", default=None, choices=virmodules.MODULE_FAMILIES)
    p.add_argument("--alpha2", default=None)
    p.add_argument("--beta2", default=None)
    p.add_argument("--subquotient2", action="store_true")
    p.add_argument("--window", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("classify", help="recurrence solving and constraints")
    p.add_argument("action", choices=("constraints", "solve", "impossibility"))
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta1", default=None)
    p.add_argument("--betam1", default=None)
    p.add_argument("--window", type=int, default=None)
    _add_common(p)

    return parser


def _module_spec(family, alpha, beta, subquotient):
    m = virmodules.ModuleSpec(
        family,
        parse_rational(alpha),
        None if beta is None else parse_rational(beta),
    )
    if subquotient:
        return virmodules.irreducible_subquotient(m)
    return m


def _cmd_bracket(args):
    spec = _algebra_spec(args)
    terms = spec.raw_terms(_index(args.left), _index(args.right))
    _emit({"terms": algebras.terms_json(terms, spec.den)}, args)
    return 0


def _cmd_table(args):
    """Write ``table_to_json``'s text: json, or csv/text lines with the format's separator."""
    _write(table_to_json(_algebra_spec(args), args.window, _SEPARATORS.get(args.format)), args)
    return 0


_CHECKS = {
    "antisymmetry": verify.check_antisymmetry,
    "jacobi": verify.check_jacobi,
    "grading": verify.check_grading,
}


def _cmd_verify(args):
    spec = _algebra_spec(args)
    algebras.window_range(args.window, 1)
    names = list(_CHECKS) if args.check == "all" else [args.check]
    reports = [_CHECKS[name](spec, args.window) for name in names]
    payload = [r.to_json() for r in reports]
    _emit(payload if len(payload) > 1 else payload[0], args)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_module(args):
    m1 = _module_spec(args.family, args.alpha, args.beta, args.subquotient)
    algebras.window_range(args.window, 1)
    if args.action == "check":
        report = virmodules.check_module_axiom(m1, args.window)
        _emit(report.to_json(), args)
        return 0 if report.ok else 1
    if args.family2 is None or args.alpha2 is None:
        raise UsageError("intertwine needs --family2 and --alpha2")
    m2 = _module_spec(args.family2, args.alpha2, args.beta2, args.subquotient2)
    witness = virmodules.find_intertwiner(m1, m2, args.window)
    if witness is None:
        _emit({"found": False}, args)
        return 1

    _emit(
        {
            "found": True,
            "scalars": {str(k): format_rational(v) for k, v in sorted(witness.items())},
        },
        args,
    )
    return 0


def _cmd_classify(args):
    if args.action == "constraints":
        polys = classify.derive_constraint_polys()
        split = classify.enumerate_case_split()
        payload = {
            "p4": polys["p4"].to_records(),
            "p6": polys["p6"].to_records(),
            "relations": split["relations"],
            "exceptional_pairs": [
                [str(a), str(b)] for a, b in split["exceptional_pairs"]
            ],
        }
        _emit(payload, args)
        return 0
    if args.window is None or args.alpha is None:
        raise UsageError(f"classify {args.action} needs --alpha and --window")
    if args.action == "impossibility":
        result = classify.check_impossibility(parse_rational(args.alpha), args.window)
        _emit(result, args)
        return 0 if result["only_zero"] else 1
    if args.beta1 is None or args.betam1 is None:
        raise UsageError("classify solve needs --beta1 and --betam1")
    params = classify.ClassificationParams(
        parse_rational(args.alpha),
        parse_rational(args.beta1),
        parse_rational(args.betam1),
    )
    solution = classify.solve_c_window(params, args.window)
    _emit(solution.to_json(), args)
    return 1 if solution.infeasible else 0


_COMMANDS = {
    "bracket": _cmd_bracket,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "module": _cmd_module,
    "classify": _cmd_classify,
}


@cache
def _parser():
    """The parser of ``main``, built on its first call and kept for the process."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if [] in vars(args).values():  # argparse before 3.12 reads "--flag=--" as []
            raise UsageError("a flag's value may not be '--'")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
