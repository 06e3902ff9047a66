import hashlib
import json

import pytest

from zzlie.cli import main


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
    assert main(["nonsense"]) == 2


def test_table_formats_agree(capsys):
    args = ["table", "--family", "vir", "--alpha", "1", "--window", "1"]
    code, as_json = run(capsys, *args, "--format", "json")
    assert code == 0
    rows = json.loads(as_json)
    assert len(rows) == 81
    code, as_csv = run(capsys, *args, "--format", "csv")
    assert code == 0
    assert len(as_csv.splitlines()) == 82  # header + rows
    code, as_text = run(capsys, *args, "--format", "text")
    assert code == 0
    assert len(as_text.splitlines()) == 82


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
}


@pytest.mark.parametrize("argv, digest", list(GOLDEN.values()), ids=list(GOLDEN))
def test_golden_output(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
