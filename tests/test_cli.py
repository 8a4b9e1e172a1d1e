"""Command-line behavior: reports, determinism, exit codes, envelopes."""

import json
import subprocess
import sys

import pytest
from conftest import solid_rotation_csv

from maflow import cli


def run_cli(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args, "--json")
    return code, json.loads(out)


def test_selftest_passes_and_lists_every_vector(capsys):
    code, out = run_cli(capsys, "selftest", "--seed", "2", "--samples", "15")
    assert code == 0
    assert "PASS (15/15 checks)" in out
    for slug in (
        "flow-pfaffians",
        "triple-algebra",
        "stream-graph-invariants",
        "vortex-invariant",
        "vortex-tensor-matrix",
        "vortex-metric",
        "vortex-dual-split",
        "pair-relations",
        "laplace-reduction",
        "shear-reduction",
        "vortex-split",
        "stretched-vortex-solution",
        "vortex-metric-ricci-flat",
        "vortex-metric-flat-affine",
        "vortex-metric-curved-witness",
    ):
        assert f"PASS {slug}" in out


def test_selftest_injected_failure(capsys):
    code, out = run_cli(
        capsys, "selftest", "--inject-failure", "--seed", "2", "--samples", "15"
    )
    assert code == 1
    assert "FAIL flow-pfaffians" in out
    assert "FAIL (14/15 checks)" in out


def test_json_reports_are_byte_identical(capsys):
    args = ("triple", "--a", "1 + x1^2", "--seed", "3", "--samples", "25", "--json")
    code1, first = run_cli(capsys, *args)
    code2, second = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["report_version"] == 1
    assert payload["seed"] == 3
    assert payload["samples"] == 25
    assert payload["passed"] is True
    assert len(payload["checks"]) == 18


def test_classify_single_point(capsys):
    code, payload = run_json(capsys, "classify", "--a", "x1", "--at", "2,0")
    assert code == 0
    assert payload["data"]["points"][0]["class"] == "Elliptic"
    assert payload["data"]["counts"] == {"elliptic": 1, "hyperbolic": 0, "degenerate": 0}
    code, payload = run_json(capsys, "classify", "--psi", "x1^2 + x2^2")
    assert code == 0
    assert payload["data"]["points"][0]["a"] == pytest.approx(4.0)
    assert payload["data"]["points"][0]["class"] == "Elliptic"


def test_classify_grid_counts(capsys):
    code, payload = run_json(
        capsys, "classify", "--a", "x1^2 - x2^2", "--grid=-1:1:3,-1:1:3"
    )
    assert code == 0
    assert payload["data"]["counts"] == {"elliptic": 2, "hyperbolic": 2, "degenerate": 5}
    assert len(payload["data"]["points"]) == 9


def test_classify_flag_conflicts(capsys):
    code, out = run_cli(capsys, "classify", "--a", "x1", "--at", "0,0", "--grid=0:1:3")
    assert code == 2
    envelope = json.loads(out)["error"]
    assert envelope["stage"] == "input"
    assert "--at or --grid" in envelope["message"]
    code, out = run_cli(capsys, "classify", "--a", "x1", "--at", "1,2,3")
    assert code == 2
    assert "expected 2" in json.loads(out)["error"]["message"]


def test_parse_error_envelope_carries_offset(capsys):
    code, out = run_cli(capsys, "classify", "--a", "x1^1.5")
    assert code == 2
    envelope = json.loads(out)["error"]
    assert envelope["stage"] == "parse"
    assert envelope["offset"] == 2


def test_triple_skips_thin_zero_set_but_rejects_empty(capsys):
    code, payload = run_json(
        capsys, "triple", "--a", "x1", "--seed", "4", "--samples", "30"
    )
    assert code == 0
    assert payload["data"]["points_used"] + payload["data"]["points_skipped"] == 30
    code, out = run_cli(capsys, "triple", "--a", "0", "--samples", "10")
    assert code == 2
    assert "vanishes" in json.loads(out)["error"]["message"]


def test_hitchin_catalog_structures(capsys):
    code, payload = run_json(
        capsys,
        "hitchin",
        "--structure",
        "burgers-cy",
        "--a",
        "x1^2 + x2^2",
        "--samples",
        "20",
        "--seed",
        "1",
    )
    assert code == 0
    assert payload["data"]["invariant"] == pytest.approx(1.0)
    names = [c["name"] for c in payload["checks"]]
    assert names == ["metric-tensor-compatibility"]
    assert payload["checks"][0]["passed"]

    code, payload = run_json(
        capsys, "hitchin", "--structure", "hess1", "--samples", "10"
    )
    assert code == 0
    assert payload["data"]["invariant"] == pytest.approx(1.0)
    dual_line = [d for d in payload["data"]["display"] if d.startswith("dual form")]
    assert dual_line == ["dual form = dx1^dx2^dx3 + dxi1^dxi2^dxi3"]

    code, payload = run_json(
        capsys, "hitchin", "--structure", "speciallag", "--samples", "10"
    )
    assert code == 0
    assert payload["data"]["invariant"] == pytest.approx(-4.0)


@pytest.mark.parametrize("structure", ["hess1", "speciallag"])
def test_hitchin_tol_sets_the_tolerance_and_not_the_degeneracy_cut(capsys, structure):
    # |lambda| = 1 or 4 everywhere: a loose tolerance still has no degenerate point
    code, payload = run_json(
        capsys, "hitchin", "--structure", structure, "--tol", "1e3", "--samples", "100"
    )
    assert code == 0
    check = payload["checks"][0]
    assert check["passed"] and check["tolerance"] == 1e3
    assert check["detail"]["degenerate_points"] == 0


def test_hitchin_euler_pair(capsys):
    code, payload = run_json(
        capsys,
        "hitchin",
        "--structure",
        "euler-pair",
        "--a",
        "1 + x1^2",
        "--samples",
        "20",
        "--seed",
        "1",
    )
    assert code == 0
    names = sorted(c["name"] for c in payload["checks"])
    assert names == [
        "anticommutator",
        "commutator",
        "g_omega",
        "g_theta",
        "k_omega_square",
        "k_theta_square",
        "product",
    ]
    assert all(c["passed"] for c in payload["checks"])


def test_hitchin_needs_coefficient(capsys):
    code, out = run_cli(capsys, "hitchin", "--structure", "burgers-cy")
    assert code == 2
    assert "needs a coefficient" in json.loads(out)["error"]["message"]


def test_reduce_laplace(capsys):
    code, payload = run_json(capsys, "reduce", "--action", "laplace3d", "--samples", "10")
    assert code == 0
    assert payload["data"]["omega_c"] == "dx1^dxi2 - dx2^dxi1"
    assert payload["data"]["class"] == "Elliptic"
    assert payload["checks"][0]["name"] == "reduced-form-display"
    assert payload["checks"][0]["passed"]


def test_reduce_shear(capsys):
    code, payload = run_json(
        capsys,
        "reduce",
        "--action",
        "shear",
        "--a",
        "1",
        "--gamma",
        "1.0",
        "--samples",
        "15",
        "--seed",
        "6",
    )
    assert code == 0
    assert payload["data"]["omega_c"] == "dx1^dx2 - dx1^du2 + dx2^du1 - du1^du2"
    assert payload["data"]["theta_c"] == "dx1^dx2 + dx1^du2 - dx2^du1"
    assert payload["data"]["omega0"] == "1.75*dx1^dx2 - du1^du2"
    assert [c["name"] for c in payload["checks"]] == [
        "residual-tc",
        "residual-oc",
        "residual-o0",
    ]
    assert all(c["passed"] for c in payload["checks"])
    code, out = run_cli(capsys, "reduce", "--action", "shear", "--a", "1")
    assert code == 2
    assert "--a and --gamma" in json.loads(out)["error"]["message"]


def test_reduce_burgers_split(capsys):
    code, payload = run_json(
        capsys,
        "reduce",
        "--action",
        "burgers-split",
        "--a",
        "1 + x1^2",
        "--samples",
        "15",
        "--seed",
        "6",
    )
    assert code == 0
    assert len(payload["checks"]) == 5
    assert all(c["passed"] for c in payload["checks"])
    assert "-2a" in payload["data"]["note"]


def test_burgers_pass_and_fail(capsys):
    base = (
        "burgers",
        "--gamma",
        "2",
        "--psi",
        "x1^2 + x2^2",
        "--c",
        "0.5",
        "--samples",
        "15",
        "--seed",
        "8",
    )
    code, out = run_cli(capsys, *base, "--dp", "2")
    assert code == 0
    assert "stage (i): PASS (residual = 0.0)" in out
    assert "PASS (3/3 checks)" in out
    code, out = run_cli(capsys, *base, "--dp", "4")
    assert code == 1
    assert "FAIL stage-i" in out


@pytest.mark.parametrize("argv", [
    ["triple", "--a", "1 + x1^2"],
    ["hitchin", "--structure", "euler-pair", "--a", "1 + x1^2"],
    ["hitchin", "--structure", "burgers-cy", "--a", "1 + x1^2"],
    ["reduce", "--action", "laplace3d"],
    ["reduce", "--action", "shear", "--a", "x1^2 + x2", "--gamma", "1"],
    ["reduce", "--action", "burgers-split", "--a", "1 + x1^2"],
    ["burgers", "--gamma", "1", "--psi", "sin(x1)*cos(x2)", "--dp", "x1^2"],
], ids=lambda argv: " ".join(argv[:3]))
def test_every_check_is_judged_against_the_tol_override(capsys, argv):
    # under a zero tolerance no check could pass: it is an input error
    code, out = run_cli(capsys, *argv, "--samples", "20", "--tol", "0", "--json")
    assert code == 2 and json.loads(out)["error"]["stage"] == "input"
    # the smallest positive tolerance passes only an exactly zero residual
    code, payload = run_json(capsys, *argv, "--samples", "20", "--tol", "5e-324")
    assert payload["checks"]
    for check in payload["checks"]:
        assert check["tolerance"] == 5e-324
        assert check["passed"] is (check["residual"] == 0.0), check
    assert code == (0 if payload["passed"] else 1)


def test_curvature_command(capsys):
    code, payload = run_json(
        capsys,
        "curvature",
        "--metric",
        "burgers-cy",
        "--a",
        "x1^2 + x2^2",
        "--samples",
        "15",
        "--seed",
        "2",
    )
    assert code == 0
    assert payload["checks"][0]["name"] == "ricci-flat"
    assert payload["checks"][0]["passed"]
    assert payload["data"]["verdicts"] == {
        "flat": "NonFlat",
        "ricci_flat": "RicciFlat",
    }
    assert payload["data"]["witnesses"]["riemann"] is not None
    code, payload = run_json(
        capsys, "curvature", "--metric", "speciallag", "--samples", "10"
    )
    assert code == 0
    assert payload["data"]["verdicts"]["flat"] == "Flat"
    code, out = run_cli(capsys, "curvature", "--metric", "burgers-cy")
    assert code == 2
    assert "needs a coefficient" in json.loads(out)["error"]["message"]


def test_grid_command(tmp_path, capsys):
    path = solid_rotation_csv(tmp_path / "solid.csv")
    code, payload = run_json(capsys, "grid", "--input", path)
    assert code == 0
    assert payload["data"]["counts"] == {"elliptic": 144, "hyperbolic": 0, "degenerate": 0}
    assert payload["data"]["interior_nodes"] == 144
    code, out = run_cli(capsys, "grid", "--input", str(tmp_path / "missing.csv"))
    assert code == 2
    assert json.loads(out)["error"]["stage"] == "input"
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,oops\n0,0\n")
    code, out = run_cli(capsys, "grid", "--input", str(bad))
    assert code == 2
    assert "unrecognized header" in json.loads(out)["error"]["message"]


def test_output_file_matches_json_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    args = ("triple", "--a", "2", "--seed", "5", "--samples", "10")
    code, _ = run_cli(capsys, *args, "--output", str(target))
    assert code == 0
    code, stdout_json = run_cli(capsys, *args, "--json")
    assert code == 0
    assert target.read_text() == stdout_json


def test_text_header_names_command_and_seed(capsys):
    code, out = run_cli(capsys, "triple", "--a", "2", "--seed", "5", "--samples", "10")
    assert code == 0
    assert out.splitlines()[0] == "maflow triple (report version 1) seed=5"


def test_env_seed_respected_and_overridden(monkeypatch, capsys):
    monkeypatch.setenv("MAS_SEED", "7")
    code, payload = run_json(capsys, "triple", "--a", "2", "--samples", "10")
    assert code == 0
    assert payload["seed"] == 7
    code, payload = run_json(
        capsys, "triple", "--a", "2", "--samples", "10", "--seed", "3"
    )
    assert payload["seed"] == 3


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_action_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce", "--action", "bogus"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_kept_across_argparse_errors(capsys):
    assert cli._build_parser() is cli._build_parser()
    args = ("classify", "--a", "1 + x1^2", "--grid", "0:1:3,0:1:3", "--json")
    first = run_cli(capsys, *args)
    for bad in (["reduce", "--action", "bogus"], ["classify", "--a", "1", "--psi", "x1"]):
        with pytest.raises(SystemExit):
            cli.main(bad)
    capsys.readouterr()
    assert run_cli(capsys, *args) == first


def test_a_closed_pipe_exits_2_with_one_line_on_stderr():
    # the report is far larger than a pipe buffer, so closing the read end
    # after one line breaks the pipe mid-write, as `| head -1` does
    with subprocess.Popen(
        [sys.executable, "-m", "maflow.cli", "classify", "--a", "x1*x2",
         "--grid=-1:1:40,-1:1:40", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert stderr.splitlines() == ["maflow: stdout was closed before the report was written"]


def test_module_entrypoint():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "maflow.cli",
            "classify",
            "--a",
            "-3",
            "--at",
            "0,0",
            "--json",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["data"]["points"][0]["class"] == "Hyperbolic"
