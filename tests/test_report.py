"""The one verdict rule: a check passes when it holds and its residual is below the tolerance."""

import json
import math

import numpy as np
import pytest

from maflow.report import CheckResult, Report


@pytest.mark.parametrize("residual", [math.nan, math.inf, 1e-10], ids=["nan", "inf", "equal"])
def test_a_non_finite_residual_or_one_at_the_tolerance_fails(residual):
    assert CheckResult("c", residual, 1e-10).passed is False


def test_a_residual_just_below_the_tolerance_passes():
    assert CheckResult("c", math.nextafter(1e-10, 0.0), 1e-10).passed is True


def test_a_zero_residual_fails_a_zero_tolerance():
    assert CheckResult("c", 0.0, 0.0).passed is False


def test_a_check_that_does_not_hold_fails_whatever_its_residual():
    assert CheckResult("c", 0.0, 1e-10, holds=False).passed is False


@pytest.mark.parametrize("holds", [True, False])
def test_without_a_residual_the_verdict_is_holds(holds):
    assert CheckResult("c", holds=holds).passed is holds


def test_numpy_values_give_a_plain_bool():
    check = CheckResult("c", np.float64(0.5), 1.0, holds=np.bool_(True))
    assert check.passed is True
    assert json.dumps(check.to_dict())


def test_to_dict_emits_passed_and_the_report_needs_every_check():
    good = CheckResult("good", 0.0, 1e-12, {"k": 1})
    bad = CheckResult("bad", math.inf, 1e-12)
    assert good.to_dict() == {
        "name": "good", "passed": True, "residual": 0.0, "tolerance": 1e-12, "detail": {"k": 1}
    }
    assert bad.to_dict()["passed"] is False
    assert CheckResult("bare", holds=False).to_dict() == {"name": "bare", "passed": False}
    assert Report("x", checks=[good]).to_dict()["passed"] is True
    assert Report("x", checks=[good, bad]).to_dict()["passed"] is False
