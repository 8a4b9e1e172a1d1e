"""Six-dimensional structures: tensor invariants, metrics, duals, pairs."""

import numpy as np
import pytest

from maflow import fluids, ma6
from maflow.exterior import DifferentialForm, VectorField, pullback, sampled_max, sup_norm, wedge
from maflow.fieldexpr import parse_field
from maflow.sampling import sample_points

MOM = ma6.momentum_chart()
VEL = ma6.velocity_chart()
PTS6 = [tuple(p) for p in sample_points(6, 25, 42)]
PTS3 = [tuple(p) for p in sample_points(3, 25, 42)]


def vortex_tensor_target(a):
    k = np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
    k[5, 2] = 2.0 * a
    return k


def vortex_metric_target(a):
    g = np.zeros((6, 6))
    g[0, 3] = g[3, 0] = 1.0
    g[1, 4] = g[4, 1] = 1.0
    g[2, 5] = g[5, 2] = -1.0
    g[2, 2] = 2.0 * a
    return g


def test_vortex_tensor_matrix():
    s = ma6.burgers_structure("x1^2 + x2^2")
    for p in PTS6[:10]:
        a = p[0] ** 2 + p[1] ** 2
        assert np.allclose(s.tensor.eval(p), vortex_tensor_target(a), atol=1e-13)


def test_vortex_invariant_is_one():
    s = ma6.burgers_structure("sin(x1) + 2*x2")
    for p in PTS6[:10]:
        assert s.pfaffian.eval(p) == pytest.approx(1.0, abs=1e-13)


def test_unit_hessian_and_special_lagrangian_invariants():
    h = ma6.hessian_one_structure()
    sl = ma6.special_lagrangian_structure()
    p = PTS6[0]
    assert h.pfaffian.eval(p) == pytest.approx(1.0, abs=1e-13)
    assert sl.pfaffian.eval(p) == pytest.approx(-4.0, abs=1e-13)
    assert np.allclose(
        h.tensor.eval(p), np.diag([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]), atol=1e-13
    )


def test_square_proportionality_guard():
    # K^2 = lambda Id at every sample point
    s = ma6.burgers_structure("1 + x1^2")
    defect = sampled_max(
        PTS6, lambda _, sq, lv: sq - lv[:, np.newaxis, np.newaxis] * np.eye(6),
        s.tensor @ s.tensor, s.pfaffian,
    )
    assert defect.value < 1e-12
    assert s.pfaffian.eval(PTS6[0]) == pytest.approx(1.0, abs=1e-13)


def test_vortex_metric_matrix_and_signature():
    s = ma6.burgers_structure("x1^2 + x2^2")
    g = s.metric
    for p in PTS6[:10]:
        a = p[0] ** 2 + p[1] ** 2
        assert np.allclose(g.eval(p), vortex_metric_target(a), atol=1e-13)
    assert g.signature(PTS6[0]) == (3, 3, 0)
    # the pairing block structure keeps the determinant away from zero
    for p in PTS6[:10]:
        assert abs(np.linalg.det(g.eval(p))) == pytest.approx(1.0, rel=1e-12)


def test_special_lagrangian_metric():
    sl = ma6.special_lagrangian_structure()
    g = sl.metric
    assert np.allclose(g.eval(PTS6[0]), 2.0 * np.eye(6), atol=1e-13)
    # normalized by sqrt(|lambda|) the pairing is the identity
    scale = np.sqrt(abs(sl.pfaffian.eval(PTS6[0])))
    assert np.allclose(g.eval(PTS6[0]) / scale, np.eye(6), atol=1e-13)


def test_compatibility_for_catalog_structures():
    for s in (
        ma6.hessian_one_structure(),
        ma6.special_lagrangian_structure(),
        ma6.burgers_structure("1 + x1^2"),
    ):
        out = s.compatibility(PTS6, tol=1e-10)
        assert out["max_residual"] < 1e-12, out
        assert not out["degenerate_points"]


def test_effectivity_of_catalog_forms():
    for s in (
        ma6.hessian_one_structure(),
        ma6.special_lagrangian_structure(),
        ma6.burgers_structure("x1*x2"),
    ):
        assert sup_norm(s.effectivity(), PTS6[:8]) < 1e-13


def test_vortex_dual_split():
    a_text = "1 + x1^2"
    s = ma6.burgers_structure(a_text)
    dual = s.dual()
    plus = s.omega + dual
    minus = s.omega - dual
    a = parse_field(a_text, MOM)
    expect_plus = DifferentialForm.build(MOM, 3, [((2, 3, 4), 2.0)])
    expect_minus = DifferentialForm.build(MOM, 3, [((0, 1, 5), 2.0), ((0, 1, 2), a * -2.0)])
    assert sup_norm(plus - expect_plus, PTS6) < 1e-12
    assert sup_norm(minus - expect_minus, PTS6) < 1e-12


def test_dual_needs_nonzero_invariant():
    pair = ma6.euler_pair("1")
    with pytest.raises(ma6.NondegeneracyViolation):
        ma6.hitchin_dual(pair.theta)


def test_integrability_of_vortex_family():
    s = ma6.burgers_structure("1 + x1^2 + x2^2")
    out = ma6.integrability6(s.omega, s.big_omega, PTS6[:6])
    assert out["closure_residual"] < 1e-12
    assert out["dual_closure_residual"] < 1e-12
    # nonlinear coefficient bends the metric, breaking flatness
    assert out["flatness"]["verdict"] == "NonFlat"
    c = ma6.burgers_structure("2")
    flat = ma6.integrability6(c.omega, c.big_omega, PTS6[:6])
    assert flat["closure_residual"] < 1e-10
    assert flat["dual_closure_residual"] < 1e-10
    assert flat["flatness"]["verdict"] == "Flat"


def test_euler_pair_block_matrices():
    pair = ma6.euler_pair("1 + x1^2")
    k_omega, k_theta = ma6.pair_tensors(pair)
    eye3 = np.eye(3)
    zero3 = np.zeros((3, 3))
    for p in PTS6[:8]:
        a = 1 + p[0] ** 2
        expect_omega = 2.0 * np.block([[zero3, -eye3], [a * eye3, zero3]])
        expect_theta = 2.0 * np.block([[zero3, zero3], [eye3, zero3]])
        assert np.allclose(k_omega.eval(p), expect_omega, atol=1e-13)
        assert np.allclose(k_theta.eval(p), expect_theta, atol=1e-13)
    lam = ma6.hitchin_pfaffian(pair.omega)
    lam_t = ma6.hitchin_pfaffian(pair.theta)
    for p in PTS6[:8]:
        assert lam.eval(p) == pytest.approx(-4.0 * (1 + p[0] ** 2), rel=1e-13)
        assert lam_t.eval(p) == pytest.approx(0.0, abs=1e-13)


def test_euler_pair_relations_and_product():
    for coeff in ("1", "1 + x1^2"):
        pair = ma6.euler_pair(coeff)
        out = ma6.euler_pair_relations(pair, PTS6)
        assert out["max_residual"] < 1e-12, out
    pair = ma6.euler_pair("x1*x2 - 3")
    assert sup_norm(pair.product_defect(), PTS6[:5]) < 1e-13
    assert sup_norm(wedge(pair.omega, pair.theta) + pair.vol * 3.0, PTS6[:5]) < 1e-13
    d1, d2 = pair.effectivity()
    assert sup_norm(d1, PTS6[:5]) < 1e-13
    assert sup_norm(d2, PTS6[:5]) < 1e-13


def test_laplace_threeform_restricts_to_laplacian():
    # graph of a gradient: pullback of the harmonic form is Laplacian(f) vol3
    base = fluids.space_chart()
    f = parse_field("x1^2 + 3*x2^2 - x3^2", base)
    u = VectorField(base, tuple(f.derivative(i) for i in range(3)))
    graph = ma6.velocity_graph(u, MOM)
    pulled = pullback(ma6.laplace_threeform(), graph)
    lap = f.derivative(0, 0) + f.derivative(1, 1) + f.derivative(2, 2)
    for p in PTS3[:8]:
        assert pulled.coeff((0, 1, 2)).eval(p) == pytest.approx(lap.eval(p), rel=1e-13)


def test_verify_bilagrangian_rotation():
    base = fluids.space_chart()
    u = VectorField(
        base,
        (
            parse_field("-x2", base),
            parse_field("x1", base),
            parse_field("0", base),
        ),
    )
    pair = ma6.euler_pair("1", VEL)
    out = ma6.verify_bilagrangian(pair, u, PTS3)
    assert max(out["omega_residual"], out["theta_residual"]) < 1e-10, out
    assert out["div_residual"] < 1e-14
    assert out["pressure_residual"] < 1e-13
    # wrong pressure coefficient shows up in the omega pullback
    bad = ma6.verify_bilagrangian(ma6.euler_pair("3", VEL), u, PTS3)
    assert bad["omega_residual"] == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("structure", [
    ["--structure", "burgers-cy", "--a", "sin(x1)*x2 + 2"], ["--structure", "hess1"],
    ["--structure", "speciallag"],
])
def test_hitchin_builds_the_tensor_and_the_metric_once(monkeypatch, capsys, structure):
    from maflow import cli

    argv = ["hitchin", *structure, "--samples", "40", "--json"]
    calls = {"hitchin_tensor": 0, "lr_metric6": 0}
    for name in calls:
        def counting(*args, _original=getattr(ma6, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ma6, name, counting)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert calls == {"hitchin_tensor": 1, "lr_metric6": 1}
    # the same report as when the dual and each metric read build their own
    monkeypatch.setattr(ma6.MAStructure6, "dual", lambda self: ma6.hitchin_dual(self.omega))
    monkeypatch.setattr(ma6.MAStructure6, "metric", property(lambda self:
                        ma6.lr_metric6(self.omega, self.big_omega)))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out
    assert calls == {"hitchin_tensor": 3, "lr_metric6": 3}
