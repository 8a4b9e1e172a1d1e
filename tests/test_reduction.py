"""Translation reduction: moment maps, quotient forms, straightening."""

import numpy as np
import pytest

from maflow import ma4, ma6, reduction
from maflow.exterior import (
    DifferentialForm,
    VectorField,
    differential,
    ext_derivative,
    interior_product,
    sup_norm,
)
from maflow.fieldexpr import Chart, ScalarField, parse_field
from maflow.sampling import sample_points

MOM = ma6.momentum_chart()
VEL = ma6.velocity_chart()
PTS6 = [tuple(p) for p in sample_points(6, 20, 9)]
PTS4 = [tuple(p) for p in sample_points(4, 20, 9)]


def test_moment_map_of_vertical_translation():
    big = ma6.canonical_symplectic(MOM)
    x = VectorField.basis(MOM, 2)
    mu = reduction.moment_map(big, x)
    for p in PTS6[:8]:
        assert mu.eval(p) == pytest.approx(-p[5], abs=1e-15)
    # defining identity: contraction is minus the differential of the moment
    defect = interior_product(x, big) + differential(mu)
    assert sup_norm(defect, PTS6[:8]) < 1e-15


def test_moment_map_rejects_varying_generator():
    big = ma6.canonical_symplectic(MOM)
    comps = [ScalarField.constant(MOM, 0.0)] * 5 + [parse_field("x1", MOM)]
    with pytest.raises(ValueError, match="constant generator"):
        reduction.moment_map(big, VectorField(MOM, tuple(comps)))


def test_action_guards():
    with pytest.raises(ValueError, match="nonzero"):
        reduction.TranslationAction(
            VectorField.from_constants(MOM, [0.0] * 6),
            ScalarField.constant(MOM, 0.0),
            0.0,
            reduction.laplace_action().slice_map,
        )
    action = reduction.shear_action(2.0, c=0.5)
    pulled = action.slice_map.pull_scalar(action.moment)
    for p in PTS4[:5]:
        assert pulled.eval(p) == pytest.approx(action.level, abs=1e-13)


def test_check_invariance_flags_drift():
    x = VectorField.basis(MOM, 2)
    good = ma6.laplace_threeform(MOM)
    out = reduction.check_invariance(good, x, PTS6)
    assert out["structural"] and out["max_residual"] < 1e-10
    drifting = DifferentialForm.build(
        MOM, 3, [((0, 1, 2), parse_field("x3", MOM))]
    )
    out = reduction.check_invariance(drifting, x, PTS6)
    assert not out["structural"]
    assert out["max_residual"] == pytest.approx(1.0, abs=1e-15)


def test_reduce_form_rejects_non_invariant_input():
    x = VectorField.basis(MOM, 2)
    action = reduction.laplace_action()
    drifting = DifferentialForm.build(
        MOM, 3, [((0, 1, 5), parse_field("x3^2", MOM))]
    )
    with pytest.raises(reduction.InvarianceError, match="not structurally invariant under"):
        reduction.reduce_form(drifting, action)
    assert interior_product(x, drifting).degree == 2


def test_laplace_reduction_is_elliptic():
    out = reduction.laplace_reduction()
    expected = DifferentialForm.build(
        out["structure"].chart, 2, [((0, 3), 1.0), ((1, 2), -1.0)]
    )
    assert sup_norm(out["omega_c"] - expected, PTS4) < 1e-15
    big_expected = DifferentialForm.build(
        out["structure"].chart, 2, [((0, 2), 1.0), ((1, 3), 1.0)]
    )
    assert sup_norm(out["big_omega_c"] - big_expected, PTS4) < 1e-15
    s = out["structure"]
    assert s.pfaffian.eval((0.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert s.classify((0.0, 0.0, 0.0, 0.0)) == ma4.ELLIPTIC


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
def test_shear_reduction_matches_hand_computation(gamma):
    a_text = "1 + x1*x2"
    out = reduction.shear_pair_reduction(a_text, gamma)
    chart = out["omega_c"].chart
    a = parse_field(a_text, chart)
    omega_expected = DifferentialForm.build(
        chart,
        2,
        [((0, 1), a), ((2, 3), -1.0), ((1, 2), gamma), ((0, 3), -gamma)],
    )
    theta_expected = DifferentialForm.build(
        chart, 2, [((0, 1), gamma), ((0, 3), 1.0), ((1, 2), -1.0)]
    )
    assert sup_norm(out["omega_c"] - omega_expected, PTS4) < 1e-14
    assert sup_norm(out["theta_c"] - theta_expected, PTS4) < 1e-14


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
def test_change_of_variables_straightens_pair(gamma):
    out = reduction.shear_pair_reduction("1 + x1*x2", gamma)
    fixed = reduction.change_variables_64(
        out["omega_c"], out["theta_c"], gamma, PTS4
    )
    assert fixed["residual_tc"] < 1e-13
    assert fixed["residual_oc"] < 1e-13
    assert fixed["residual_o0"] < 1e-13
    chart = out["omega_c"].chart
    canonical = DifferentialForm.build(chart, 2, [((0, 2), 1.0), ((1, 3), 1.0)])
    assert sup_norm(fixed["theta_prime"] - canonical, PTS4) < 1e-13
    coeff = fixed["display"].coeff((0, 1))
    p = PTS4[0]
    assert coeff.eval(p) == pytest.approx(
        1 + p[0] * p[1] + 0.75 * gamma**2, rel=1e-13
    )


def test_change_of_variables_detects_wrong_rate():
    out = reduction.shear_pair_reduction("2", 1.0)
    fixed = reduction.change_variables_64(out["omega_c"], out["theta_c"], 2.0, PTS4)
    assert max(fixed["residual_tc"], fixed["residual_oc"], fixed["residual_o0"]) >= 1e-10


def test_vortex_decomposition_residuals():
    out = reduction.burgers_decomposition("1 + x1^2", PTS6)
    assert out["max_residual"] < 1e-12, out
    for key in (
        "pairing_residual",
        "omega_split_residual",
        "pi_split_residual",
        "reduced_pfaffian_residual",
        "reduced_dual_residual",
    ):
        assert out[key] < 1e-12
    s = out["structure"]
    q = (0.4, -0.2, 1.1, 0.3)
    assert s.pfaffian.eval(q) == pytest.approx(1 + 0.4**2, rel=1e-14)


def test_vortex_decomposition_needs_nonvanishing_coefficient():
    bad = [(0.0,) * 6] + PTS6
    with pytest.raises(ValueError, match="vanishes at sample point"):
        reduction.burgers_decomposition("x1", bad)


def test_reduced_forms_stay_closed():
    out = reduction.shear_pair_reduction("3", 1.5)
    assert sup_norm(ext_derivative(out["omega_c"]), PTS4) < 1e-15
    assert sup_norm(ext_derivative(out["theta_c"]), PTS4) < 1e-15
