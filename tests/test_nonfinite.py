"""Non-finite values: the sampled reduction, literals, verdicts, error stages."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from maflow import cli
from maflow.exterior import sup_norm
from maflow.fieldexpr import Chart, DomainError, ExprSyntaxError, parse_field
from maflow.fieldexpr.nodes import fmt_number
from maflow.ma4 import flow_structure
from maflow.sampling import sample_points


def run_cli(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def test_sup_norm_does_not_drop_nan():
    form = flow_structure("1e300*1e300 - 1e300*1e300").omega
    assert sup_norm(form, sample_points(4, 5, 0)) == math.inf


def test_number_formatter_handles_non_finite_values():
    assert fmt_number(math.inf) == "inf"
    assert fmt_number(-math.inf) == "-inf"
    assert fmt_number(math.nan) == "nan"
    assert fmt_number(3.0) == "3"
    assert fmt_number(1e16) == "1e+16"


@pytest.mark.parametrize("text, offset", [("1e400", 0), ("x1 + 2.5e999*x2", 5)])
def test_overflowing_literal_is_a_parse_error(text, offset):
    with pytest.raises(ExprSyntaxError) as info:
        parse_field(text, Chart(("x1", "x2")))
    assert info.value.offset == offset


def test_overflowing_literal_exits_with_parse_envelope(capsys):
    code, out = run_cli(capsys, "triple", "--a", "1e400")
    assert code == 2
    envelope = json.loads(out)["error"]
    assert envelope["stage"] == "parse"
    assert envelope["offset"] == 0


@pytest.mark.parametrize("coeff", ["log(x1)", "exp(1000*x1)"])
def test_evaluation_error_is_a_compute_error(capsys, coeff):
    code, out = run_cli(capsys, "triple", "--a", coeff)
    assert code == 2
    envelope = json.loads(out)["error"]
    assert envelope["stage"] == "compute"
    assert "offset" not in envelope


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_folded_overflow_fails_the_triple_algebra(capsys):
    code, out = run_cli(capsys, "triple", "--a", "1e300*1e300", "--samples", "10", "--json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    algebra = (
        "defines_product", "defines_complex", "defines_tangent", "product_square",
        "complex_square", "tangent_square", "ti_s", "it_s", "ts_i", "st_i", "is_t", "si_t",
    )
    for name in algebra:
        assert not checks[name]["passed"]
        assert checks[name]["residual"] == math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_folded_overflow_fails_the_euler_pair(capsys):
    code, out = run_cli(
        capsys, "hitchin", "--structure", "euler-pair", "--a", "1e300*1e300",
        "--samples", "10", "--json",
    )
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("k_omega_square", "g_omega"):
        assert not checks[name]["passed"]
        assert checks[name]["residual"] == math.inf


def test_folded_overflow_in_shear_reduction_leaves_through_the_envelope(capsys):
    code, out = run_cli(
        capsys, "reduce", "--action", "shear", "--a", "1e300*1e300", "--gamma", "1",
        "--samples", "10",
    )
    assert code == 2
    assert "residual inf" in json.loads(out)["error"]["message"]


def test_classify_rejects_an_infinite_coefficient(capsys):
    code, out = run_cli(capsys, "classify", "--a", "1e300*1e300", "--at", "0.1,0.2")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["stage"] == "compute"
    assert "(0.1, 0.2)" in error["message"]


def test_classify_rejects_a_coefficient_that_overflows_at_the_point(capsys):
    code, out = run_cli(capsys, "classify", "--a", "x1^2-x1", "--at", "1e300,0")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["stage"] == "compute"
    assert "(1e+300, 0.0)" in error["message"]


def test_structure_classify_rejects_a_nan_coefficient():
    s = flow_structure("x1*x1 - x1*x1")
    with pytest.raises(DomainError, match=r"nan at \(1e\+300, 0.0, 0.0, 0.0\)"):
        s.classify(np.array([1e300, 0.0, 0.0, 0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eigenvalue_failure_is_a_compute_error(capsys):
    code, out = run_cli(
        capsys, "hitchin", "--structure", "burgers-cy", "--a", "1e300*1e300",
        "--samples", "5",
    )
    assert code == 2
    assert json.loads(out)["error"]["stage"] == "compute"


@pytest.mark.parametrize("text", ["sin(1e300*1e300)", "x1^(-400)"])
def test_infinite_sine_and_underflowing_power_are_compute_errors(capsys, text):
    code, out = run_cli(capsys, "triple", "--a", text, "--samples", "20")
    assert code == 2
    assert json.loads(out)["error"]["stage"] == "compute"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infinite_metric_fails_instead_of_being_singular(capsys):
    code, out = run_cli(
        capsys, "curvature", "--metric", "burgers-cy", "--a", "1e300*1e300",
        "--samples", "5", "--json",
    )
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert not check["passed"]
    assert check["residual"] == math.inf


def test_compute_error_names_the_first_offending_sample_point(capsys):
    code, out = run_cli(capsys, "triple", "--a", "log(x1)", "--samples", "50")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["stage"] == "compute"
    first = next(p for p in sample_points(4, 50, 42) if p[0] <= 0.0)
    assert error["point"] == [float(c) for c in first]


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["triple", "--a", "1e300*1e300"], 1),
        (["hitchin", "--structure", "euler-pair", "--a", "1e300*1e300"], 1),
    ],
)
def test_non_finite_repros_print_nothing_on_stderr(args, exit_code):
    proc = subprocess.run(
        [sys.executable, "-m", "maflow.cli", *args, "--samples", "10", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == exit_code, proc.stdout
    assert proc.stderr == ""


def test_underflowing_log_derivative_is_a_domain_error_alone_and_in_a_batch():
    field = parse_field("log(x1)", Chart(("x1", "x2")))
    with pytest.raises(DomainError, match="overflow evaluating log"):
        field.jet((1e-200, 0.5), 2)
    with pytest.raises(DomainError, match="overflow evaluating log") as info:
        field.jet(np.array([[0.5, 0.5], [1e-200, 0.5]]), 2)
    assert info.value.point == (1e-200, 0.5)


def test_nan_coefficient_is_checked_not_called_vanishing(capsys):
    # inf - inf is NaN at every point: the triple is checked and fails
    code, out = run_cli(
        capsys, "triple", "--a", "1e300*1e300 - 1e300*1e300", "--samples", "10", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["data"]["points_used"] == 10
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert len(failed) == 16 and len(payload["checks"]) == 18
    assert all(c["residual"] == math.inf for c in failed)
    code, out = run_cli(capsys, "triple", "--a", "0", "--samples", "10")
    assert code == 2
    assert json.loads(out)["error"]["stage"] == "input"
