"""Non-finite values: the sampled reduction, literals, verdicts, error stages."""

import json
import math

import numpy as np
import pytest

from maflow import cli
from maflow.exterior import Peak, sampled_max, sup_norm
from maflow.fieldexpr import Chart, DomainError, ExprSyntaxError, parse_field
from maflow.fieldexpr.nodes import fmt_number
from maflow.ma4 import flow_structure
from maflow.sampling import sample_points

LINE = [(0.0,), (1.0,), (2.0,), (3.0,)]


def run_cli(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def test_sampled_max_of_numbers_and_witness():
    values = {0.0: -1.0, 1.0: 3.0, 2.0: -3.0, 3.0: 2.0}
    peak = sampled_max(LINE, lambda p: values[p[0]])
    assert peak == Peak(3.0, (1.0,), {})


def test_sampled_max_treats_nan_and_inf_as_failures():
    nan_at_two = sampled_max(LINE, lambda p: math.nan if p[0] == 2.0 else 5.0)
    assert nan_at_two.value == math.inf
    assert nan_at_two.witness == (2.0,)
    assert not nan_at_two.value < 1e300
    first_nan = sampled_max(LINE, lambda p: [math.nan, 1e300] if p[0] == 0.0 else [7.0])
    assert first_nan.value == math.inf and first_nan.witness == (0.0,)
    minus_inf = sampled_max(LINE, lambda p: np.array([[1.0, -math.inf], [0.0, 0.0]]))
    assert minus_inf.value == math.inf and minus_inf.witness == (0.0,)


def test_sampled_max_of_named_arrays():
    def residual(p):
        return {"a": np.array([p[0], -2.0 * p[0]]), "b": [] if p[0] < 3.0 else [math.nan]}

    peak = sampled_max(LINE, residual)
    assert peak.parts == {"a": Peak(6.0, (3.0,), {}), "b": Peak(math.inf, (3.0,), {})}
    assert peak.value == math.inf and peak.witness == (3.0,)


def test_sampled_max_of_zero_residual_and_empty_sample():
    assert sampled_max(LINE, lambda p: 0.0) == Peak(0.0, None, {})
    assert sampled_max([], lambda p: 1.0) == Peak(0.0, None, {})
    assert sampled_max([], lambda p: {"a": 1.0}) == Peak(0.0, None, {})


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
