import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from zzlie.algebras import FAMILIES, terms_json, window_grid
from zzlie.cli import _algebra_spec, build_parser, main

from reference import table_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bracket_zero_element(capsys):
    code, out = run(
        capsys, "bracket", "--family", "vir", "--alpha", "1",
        "--left", "1,0", "--right", "0,1",
    )
    assert code == 0
    assert json.loads(out) == {"terms": []}


def test_bracket_element_schema(capsys):
    code, out = run(
        capsys, "bracket", "--family", "c", "--alpha", "1",
        "--left", "0,1", "--right", "3,-4",
    )
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"basis": {"i": 3, "j": -3, "kind": "L"}, "coeff": "2/1"}]
    }


def test_bracket_symbolic_central_parameter(capsys):
    code, out = run(
        capsys, "bracket", "--family", "block", "--alpha", "1", "--beta", "2",
        "--a1", "sym", "--left", "0,1", "--right=-1,1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"][0]["basis"] == {"kind": "C1"}
    assert data["terms"][0]["coeff"] == [{"exponents": {"a1": 1}, "coeff": "1/1"}]


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out = run(
        capsys, "verify", "jacobi", "--family", "c", "--alpha", "2/3",
        "--window", "2",
    )
    assert code == 0
    assert json.loads(out)["witnesses"] == []


def test_verify_all(capsys):
    code, out = run(
        capsys, "verify", "all", "--family", "vir", "--alpha", "1/2",
        "--window", "2",
    )
    assert code == 0
    assert len(json.loads(out)) == 3


def test_usage_errors_exit_two(capsys):
    assert main(["bracket", "--family", "vir", "--alpha", "x",
                 "--left", "0,0", "--right", "0,0"]) == 2
    assert main(["bracket", "--family", "vir", "--alpha", "0",
                 "--left", "0,0", "--right", "0,0"]) == 2
    assert main(["bracket", "--family", "block", "--alpha", "1", "--beta", "2",
                 "--left", "-1,2", "--right", "0,0"]) == 2
    assert main(["bracket", "--family", "vir", "--alpha", "1",
                 "--left", "nope", "--right", "0,0"]) == 2
    assert main(["bracket", "--family", "vir", "--alpha", "1",
                 "--left=1,x", "--right", "0,0"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    for flags, message in [
        (["--family", "a_ab", "--alpha", "1"], "a_ab needs beta"),
        (["--family", "a_paren", "--alpha", "1", "--beta", "1"],
         "family 'a_paren' takes no beta"),
    ]:
        assert main(["module", "check", *flags, "--window", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_table_window_exits_two(capsys):
    code = main(["table", "--family", "vir", "--alpha", "1", "--window", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: window must be >= 0\n"


def test_window_past_the_index_range_exits_two(capsys):
    # the module sweep's index table cannot hold 2W + 1 entries
    code = main(["module", "check", "--family", "a_ab", "--alpha", "1", "--beta", "0",
                 "--window", "99999999999999999999"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_oversized_coefficient_exits_two_naming_the_digit_limit(capsys):
    # the coefficient of this c(1) bracket has 10,938 digits
    code = main(["bracket", "--family", "c", "--alpha", "1", "--left=1,3000", "--right=0,-6000"])
    captured = capsys.readouterr()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:  # an interpreter that prints ints of any length
        assert code == 0
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: a result has more than {limit} digits, the longest integer this Python "
        "prints; choose smaller indices or parameters\n"
    )


@pytest.mark.parametrize("literal", ["1e10000000", "2.5", "1_0"])
def test_non_integer_ratio_literals_exit_two(capsys, literal):
    code = main(["module", "check", "--family", "a_ab", f"--alpha={literal}",
                 "--beta", "1/2", "--window", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: not a rational literal")


@pytest.mark.parametrize("literal, coeff", [("-7", "14/1"), (" 2/6 ", "-2/3"), ("3/4", "-3/2")])
def test_rational_literals_parse(capsys, literal, coeff):
    # in vir(alpha), [L(1,2), L(1,0)] = -2 alpha L(2,2)
    code, out = run(capsys, "bracket", "--family", "vir", f"--alpha={literal}",
                    "--left=1,2", "--right=1,0")
    assert code == 0
    assert json.loads(out)["terms"][0]["coeff"] == coeff


def test_table_formats_agree(capsys):
    # the three layouts against an independent route: json.dumps of the
    # terms_json records of raw_terms over window_grid pairs, and every
    # csv/text line split back into (left, right, cell); every TABLE_FLAGS
    # spec at its window and at W=0, and vir at W=1
    inputs = [["--family", "vir", "--alpha", "1", "--window", "1"]]
    for flags in TABLE_FLAGS.values():
        inputs += [flags, [*flags, "--window", "0"]]
    header = ("left_i", "left_j", "right_i", "right_j", "terms")
    for flags in inputs:
        args = build_parser().parse_args(["table", *flags])
        spec = _algebra_spec(args)
        idxs = window_grid(spec, args.window)
        pairs = [(a, b) for a in idxs for b in idxs]
        terms = {(a, b): terms_json(spec.raw_terms(a, b), spec.den) for a, b in pairs}
        code, as_json = run(capsys, "table", *flags, "--format", "json")
        assert code == 0
        assert table_lines(as_json) == table_lines(json.dumps(
            [{"left": list(a), "result": terms[a, b], "right": list(b)} for a, b in pairs],
            sort_keys=True,
        ) + "\n"), flags
        for fmt, sep in (("csv", ","), ("text", " ")):
            code, out = run(capsys, "table", *flags, "--format", fmt)
            assert code == 0
            lines = out.split("\n")
            assert lines[0] == sep.join(header) and lines[-1] == ""
            assert len(lines) == len(pairs) + 2, (flags, fmt)
            for line, (a, b) in zip(lines[1:], pairs):
                li, lj, ri, rj, cell = line.split(sep, 4)
                assert ((int(li), int(lj)), (int(ri), int(rj))) == (a, b), (flags, fmt)
                assert cell == json.dumps(terms[a, b], sort_keys=True), (flags, fmt, a, b)


def test_output_is_byte_stable(capsys):
    args = ["table", "--family", "c", "--alpha", "2/3", "--window", "1"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run(
        capsys, "bracket", "--family", "vir", "--alpha", "1",
        "--left", "0,1", "--right", "2,0", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["terms"]


@pytest.mark.parametrize("where", ["missing/result.json", "."])
def test_out_path_errors_exit_two(tmp_path, capsys, where):
    # a missing directory, then a directory in place of a file
    code = main([
        "bracket", "--family", "vir", "--alpha", "1",
        "--left", "0,1", "--right", "2,0", "--out", str(tmp_path / where),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_module_check_and_intertwine(capsys):
    code, out = run(
        capsys, "module", "check", "--family", "a_ab", "--alpha", "1/2",
        "--beta", "0", "--window", "3",
    )
    assert code == 0
    code, out = run(
        capsys, "module", "intertwine", "--family", "a_ab", "--alpha", "1/2",
        "--beta", "0", "--family2", "a_ab", "--alpha2", "1/2", "--beta2", "1",
        "--window", "4",
    )
    assert code == 0
    assert json.loads(out)["found"]
    code, out = run(
        capsys, "module", "intertwine", "--family", "a_ab", "--alpha", "0",
        "--beta", "0", "--family2", "a_ab", "--alpha2", "0", "--beta2", "1",
        "--window", "4",
    )
    assert code == 1
    code, out = run(
        capsys, "module", "intertwine", "--family", "a_ab", "--alpha", "0",
        "--beta", "0", "--subquotient", "--family2", "a_ab", "--alpha2", "0",
        "--beta2", "1", "--subquotient2", "--window", "4",
    )
    assert code == 0


@pytest.mark.parametrize("given", [["--family2", "a_ab"], ["--alpha2", "1/2"]])
def test_intertwine_needs_both_target_flags(capsys, given):
    code = main(["module", "intertwine", "--family", "a_ab", "--alpha", "1/2", "--beta", "0",
                 *given, "--window", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: intertwine needs --family2 and --alpha2\n"


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7).map(str)
malformed = st.one_of(
    st.sampled_from(["", " ", "1/0", "0/0", "x", "1/", "/2", "--1", "nan", "inf", "2.5", "1e3"]),
    st.text(alphabet="0123456789/-+. e", max_size=5),
)
literals = rationals | malformed
# (family, alpha, beta, subquotient): two branches of three are well formed, so
# that many runs get past argument checking; None leaves a flag out.
module_args = st.one_of(
    st.tuples(st.just("a_ab"), rationals, rationals, st.booleans()),
    st.tuples(st.sampled_from(["a_paren", "b_paren"]), rationals, st.none(), st.booleans()),
    st.tuples(
        st.none() | st.sampled_from(["a_ab", "a_paren", "b_paren", "vir", ""]),
        st.none() | literals, st.none() | literals, st.booleans(),
    ),
)


def module_flags(suffix, family, alpha, beta, subquotient):
    flags = {"family": family, "alpha": alpha, "beta": beta}
    argv = [f"--{name}{suffix}={value}" for name, value in flags.items() if value is not None]
    return argv + ([f"--subquotient{suffix}"] if subquotient else [])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["check", "intertwine"]), module_args, module_args, st.integers(-2, 3))
def test_module_commands_never_raise(action, first, second, window):
    argv = ["module", action, f"--window={window}"]
    argv += module_flags("", *first) + module_flags("2", *second)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


params = literals | st.just("sym")
indices = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map("{0[0]},{0[1]}".format)
ACTIONS = {
    "bracket": [None],
    "table": [None],
    "verify": ["antisymmetry", "jacobi", "grading", "all", "none"],
    "classify": ["constraints", "solve", "impossibility", "none"],
}


CENTRE = ("a1", "a2", "a2p")


def algebra_flags(draw, well_formed):
    if not well_formed:
        flags = {"family": draw(st.none() | st.sampled_from([*FAMILIES, "", "e"]))}
        return flags | {name: draw(st.none() | params) for name in ("alpha", "beta", *CENTRE)}
    family = draw(st.sampled_from(FAMILIES))
    flags = {"family": family, "alpha": draw(rationals)}
    if family in ("d", "block"):
        flags["beta"] = draw(rationals)
    if family in ("block", "bplus-", "bplus+"):
        flags |= {name: draw(st.none() | rationals | st.just("sym")) for name in CENTRE}
    return flags


@st.composite
def algebra_argv(draw):
    """argv for bracket, table, verify or classify.

    Half the runs draw flags a family accepts, so that they get past argument
    checking; the other half may leave out or malform any flag.
    """
    command = draw(st.sampled_from(sorted(ACTIONS)))
    action = draw(st.sampled_from(ACTIONS[command]))
    well_formed = draw(st.booleans())
    argv = [command] + ([action] if action else [])
    if command == "classify":
        values = rationals if well_formed else st.none() | params
        flags = {name: draw(values) for name in ("alpha", "beta1", "betam1")}
    else:
        flags = algebra_flags(draw, well_formed)
    if command == "bracket":
        sides = indices if well_formed else st.none() | indices | malformed
        flags |= {side: draw(sides) for side in ("left", "right")}
    else:
        windows = st.integers(-1, 3)
        flags["window"] = draw(windows if well_formed else st.none() | windows)
    flags["format"] = draw(st.sampled_from(["json", "csv", "text"]))
    return argv + [f"--{name}={value}" for name, value in flags.items() if value is not None]


@settings(max_examples=150, deadline=None)
@given(algebra_argv())
def test_algebra_and_classify_commands_never_raise(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("flag", ["--alpha=--", "--window=--", "--family=--"])
def test_a_flag_valued_double_dash_is_a_usage_error(capsys, flag):
    # argparse before Python 3.12 reads "--alpha=--" as an empty list
    argv = ["table", "--family=vir", "--alpha=1", "--window=0", flag]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_constraints(capsys):
    code, out = run(capsys, "classify", "constraints")
    assert code == 0
    data = json.loads(out)
    assert "beta1 = -2 - betam1" in data["relations"]
    assert ["-3", "0"] in data["exceptional_pairs"]
    assert data["p4"] and data["p6"]


def test_classify_solve_exit_codes(capsys):
    code, out = run(
        capsys, "classify", "solve", "--alpha", "1", "--beta1", "2",
        "--betam1", "-4", "--window", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"]["0,0"] == "2/1"
    assert data["unique"] is True
    code, _ = run(
        capsys, "classify", "solve", "--alpha", "1", "--beta1", "1",
        "--betam1", "1", "--window", "3",
    )
    assert code == 1


def test_classify_impossibility(capsys):
    code, out = run(capsys, "classify", "impossibility", "--alpha", "1",
                    "--window", "2")
    assert code == 0
    assert json.loads(out)["only_zero"]


def test_flattened_rows_write_json_leaves(capsys):
    code, out = run(
        capsys, "classify", "solve", "--alpha", "1", "--beta1", "2",
        "--betam1=-4", "--window", "2", "--format", "text",
    )
    assert code == 0
    rows = out.splitlines()
    for row in ("certificate null", "infeasible false", "notes []", "undetermined []",
                "unique true"):
        assert row in rows


def test_classify_missing_flags(capsys):
    assert main(["classify", "solve", "--alpha", "1", "--window", "3"]) == 2
    assert main(["classify", "solve"]) == 2


# The README commands (table on stdout) and two subquotient runs, with the
# sha256 of their stdout; any change in output bytes fails the case.
GOLDEN = {
    "bracket-d": (
        ["bracket", "--family", "d", "--alpha", "1", "--beta", "3",
         "--left=1,-1", "--right=2,1"],
        "0910beddb613586493143b25419d0f7f2b22f2c48b60084c4f1b65fcd503cff6"),
    "table-vir-csv": (
        ["table", "--family", "vir", "--alpha", "1/2", "--window", "2",
         "--format", "csv"],
        "abb837ed584ec3b28cac508bcd670897a1c3979641b7145b067c6a3ca179fbda"),
    "verify-jacobi-block-sym": (
        ["verify", "jacobi", "--family", "block", "--alpha", "1", "--beta", "2",
         "--a1", "sym", "--a2", "sym", "--a2p", "sym", "--window", "2"],
        "2c0f67de6d275ea957c0ac2129e1ffea4ac1904ae065af3f5e05e86f1af18089"),
    "module-check": (
        ["module", "check", "--family", "a_ab", "--alpha", "1/2", "--beta", "0",
         "--window", "4"],
        "631370844b58ebf890feb1040888ba9f850b0aa4b4fb5ba1fb079280b0b7a554"),
    "classify-solve": (
        ["classify", "solve", "--alpha", "1", "--beta1", "2", "--betam1=-4",
         "--window", "4"],
        "bf72e838c2c6cfd30d7e785983b224ddc67ef0761cac757cdc2e58980487c43f"),
    "classify-impossibility": (
        ["classify", "impossibility", "--alpha", "2/5", "--window", "3"],
        "1e755e879cc82cbee438bc1c6198b8ee325c772cff8883703ea05534fedc2d4a"),
    "module-intertwine-subquotients": (
        ["module", "intertwine", "--family", "a_ab", "--alpha", "0", "--beta", "0",
         "--subquotient", "--family2", "a_ab", "--alpha2", "0", "--beta2", "1",
         "--subquotient2", "--window", "6"],
        "5aedee8ea08bf38581efc5fa0557b3bc627475680fb275690713dd140e4d8b2c"),
    "module-check-subquotient": (
        ["module", "check", "--family", "a_ab", "--alpha", "0", "--beta", "1",
         "--subquotient", "--window", "4"],
        "74d92bf917b4bb6032f43988d801f3879a7e198682148265b833e8973373fb0d"),
    # payloads flattened to rows: text and csv outside `table`, with empty
    # lists and null/true/false written as JSON writes them
    "verify-jacobi-d-text": (
        ["verify", "jacobi", "--family", "d", "--alpha", "1/2", "--beta", "2",
         "--window", "2", "--format", "text"],
        "79f5dc4fc5b554f49598d38838dccf77a6f5144de1fdf7511bcf57add33a82a9"),
    "module-check-csv": (
        ["module", "check", "--family", "a_ab", "--alpha", "1/2", "--beta", "0",
         "--window", "3", "--format", "csv"],
        "86e933150b115ae8c8d3a1867f8c2335b9088b5581c17359cef346074ab14144"),
    "classify-solve-text": (
        ["classify", "solve", "--alpha", "1", "--beta1", "2", "--betam1=-4",
         "--window", "2", "--format", "text"],
        "a924fbdd05c781a7332ad6a5c0760b976607968fb83a5e9f8298b396ef577cd7"),
    "classify-constraints-text": (
        ["classify", "constraints", "--format", "text"],
        "bd8d13e43329b0a57e47ebdf5d3aeab89dbf93f0c5c382a89ed11cb3df90c6ea"),
    # one bracket per kind of term: C1, a polynomial C2, a numeric C2, an L
    # term of the c family's factorial region, and the empty bracket
    "bracket-block-c1": (
        ["bracket", "--family", "block", "--alpha", "1", "--beta", "2", "--a1", "2",
         "--left=0,1", "--right=-1,1"],
        "710bf8585e168782230340d108538477f6b608d3dd06efe5c9fe25ffb5c3c418"),
    "bracket-block-sym-c2": (
        ["bracket", "--family", "block", "--alpha", "1", "--beta", "2", "--a1", "sym",
         "--a2", "sym", "--a2p", "sym", "--left=0,2", "--right=-2,2"],
        "c81c77ca3762f4d00ee2eb337213db223ed7c7b4ab69b9728dcc235880ec41c1"),
    "bracket-bplus+": (
        ["bracket", "--family", "bplus+", "--alpha", "1/2", "--a2", "2/7", "--a2p=-1",
         "--left=0,1", "--right=-1,1"],
        "c6031087048f41acbd94476ae45cfbbd929ff82fecdfa05e21431de358785c8c"),
    "bracket-c": (
        ["bracket", "--family", "c", "--alpha", "2/3", "--left=0,1", "--right=2,-4"],
        "e00039e2649b4cb5fccb5977ca2a164768a24384c82afeef83d61c40c4a16678"),
    "bracket-vir-empty": (
        ["bracket", "--family", "vir", "--alpha", "1", "--left=1,0", "--right=1,0"],
        "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
}


@pytest.mark.parametrize("argv, digest", list(GOLDEN.values()), ids=list(GOLDEN))
def test_golden_output(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# `table` in all three formats for every family: block, bplus- and bplus+ each
# with a numeric and a symbolic centre (C1/C2 terms reached at W=2), and c/cbar
# at W=3 so the factorial regions occur; sha256 of stdout.
TABLE_FLAGS = {
    "vir": ["--family", "vir", "--alpha", "1/2", "--window", "2"],
    "d": ["--family", "d", "--alpha", "2/3", "--beta", "3/2", "--window", "2"],
    "block": ["--family", "block", "--alpha", "1", "--beta", "2",
              "--a1", "2", "--a2", "1/3", "--a2p=-3/2", "--window", "2"],
    "block-sym": ["--family", "block", "--alpha", "1", "--beta", "2",
                  "--a1", "sym", "--a2", "sym", "--a2p", "sym", "--window", "2"],
    "bplus-": ["--family", "bplus-", "--alpha", "1",
               "--a1=-1/2", "--a2", "3", "--a2p", "5/4", "--window", "2"],
    "bplus--sym": ["--family", "bplus-", "--alpha", "1",
                   "--a1", "sym", "--a2", "sym", "--a2p", "sym", "--window", "2"],
    "bplus+": ["--family", "bplus+", "--alpha", "1/2",
               "--a2", "2/7", "--a2p=-1", "--window", "2"],
    "bplus+-sym": ["--family", "bplus+", "--alpha", "1",
                   "--a1", "sym", "--a2", "sym", "--a2p", "sym", "--window", "2"],
    "c": ["--family", "c", "--alpha", "2/3", "--window", "3"],
    "cbar": ["--family", "cbar", "--alpha=-3/4", "--window", "3"],
}
TABLE_DIGESTS = {
    ("vir", "json"): "8b427c8801ab8fa092e2e585210e2109d62f66944e550677580d591677c1ced5",
    ("vir", "csv"): "abb837ed584ec3b28cac508bcd670897a1c3979641b7145b067c6a3ca179fbda",
    ("vir", "text"): "6471c088f30b43e3a78c2a23d5bd4e1dd7099a98b3299a87f211bcb18c7400e6",
    ("d", "json"): "48cb7da704019e4ec60f6b5851f62855cdf2bb70c7919981751066d37d155ea4",
    ("d", "csv"): "e4da8ac4c8a66c9e2d181742a49e2dc1c5e0ac22a2178620809c62855e52a70d",
    ("d", "text"): "dde1454a22559fb09ff47f32a1fc06113837c49d436ac89fb990b937ed1374dd",
    ("block", "json"): "5d53346d286f9654dfedbdf6e0e44e9c94603e60c9a321f2fd6d3a1889187648",
    ("block", "csv"): "1e543c3027606b98508844c853253a9a9984c3ee85cae5854b76804b349b578e",
    ("block", "text"): "b17a2765835ad87ba39e022d410805e016dd2b59843f6ccfa0b9da68d5179fe0",
    ("block-sym", "json"): "cf91214919ed5123aca1daa01b29ab26ae4a243eab48dcd4b6ff631e0f357afc",
    ("block-sym", "csv"): "ad85c5cf5a6fd044642a90c9af08ab8466998e0de18d53912f9ccfa871b5d951",
    ("block-sym", "text"): "ee2c68d648a87de107b6bc3813cc31ef2af785e3b0baa4c16f2e9f392c3ae777",
    ("bplus-", "json"): "4642afec11d66c9843cee406ef011e2877ddeb3f36c6c78de30fb0634ec88d1d",
    ("bplus-", "csv"): "89d3d7f30f70f1cc0602f5ab89482c6fe6c4f9a49a168f395273189514a801a4",
    ("bplus-", "text"): "67c54919d91ec484e449ec7515fa2b864c47f577c4b03637d1622aa72073ecfd",
    ("bplus--sym", "json"): "520ed948c3e3f53532ca7070b7600da0e10e6ffbb941ae661bda5ddca3c13add",
    ("bplus--sym", "csv"): "8248503cb0ccb6766b0c7262476b39d0cbc5b0bb26eb9d9dcf295c909666d4e1",
    ("bplus--sym", "text"): "956c4c7a4c058cb3eeac27a1cea23bef9fa734fb8bae281bb8c16779fcd407c0",
    ("bplus+", "json"): "c976796e245457728edeaa0f04cd6927115a122a075126f218515c4a17290e6e",
    ("bplus+", "csv"): "633d1e9e292bb78b5e44beb9dd08e6fbee5fee5ac7a4d4db65416fc55d196b27",
    ("bplus+", "text"): "a2f75d1b0c9c6ddb2c5cae2b513ba4e8482ba15a3d437caf822cf933fab9d9aa",
    ("bplus+-sym", "json"): "53f96cd774f42b2dcef77b853e86b5fd26f2b4d86ce1edccdca35f23f9d4f68b",
    ("bplus+-sym", "csv"): "af1f5d80281f0d15a6c7af0a2bf6f6406ca66c5acee60c4cc7b2a1a657ef79a0",
    ("bplus+-sym", "text"): "2c4044203aa3504906e8a80dafc34042e32a93e6b19c1e6cd1c9cd8db45b8655",
    ("c", "json"): "db9242174c858cec31ff95ee2cdb5683134d171982380772059be9e34d4fb7f2",
    ("c", "csv"): "a58cfe90270f6e3fe4fa1063fa8b485129fff6d82d9b514833dfd4a9b236788d",
    ("c", "text"): "d44489823c7a1845f7a4407c27cdc5a306550451256e9dc3661785d46fddc2e3",
    ("cbar", "json"): "1ae7fc306ce716980a21552265e29c768768c7791e3e741b65d6c49ed7cf2de7",
    ("cbar", "csv"): "b8380ddecae2f32e084f7292ec768c50e32a7ce94f17d5bb0f2148d9d28db920",
    ("cbar", "text"): "6c1442a400be438e962f750a71655709ae9968ced4972daa36788244a9050d0b",
}


@pytest.mark.parametrize(
    "name, fmt, digest",
    [(name, fmt, digest) for (name, fmt), digest in TABLE_DIGESTS.items()],
    ids=[f"{name}-{fmt}" for name, fmt in TABLE_DIGESTS],
)
def test_table_output_is_pinned(capsys, name, fmt, digest):
    code, out = run(capsys, "table", *TABLE_FLAGS[name], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
