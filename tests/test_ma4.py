"""Planar structures: pfaffian, classification, triple, induced metric."""

import numpy as np
import pytest

from maflow import ma4
from maflow.exterior import (
    DifferentialForm,
    NondegeneracyError,
    ext_derivative,
    sup_norm,
    wedge,
)
from maflow.fieldexpr import ScalarField, parse_field
from maflow.sampling import sample_points

PHASE = ma4.phase_chart()
BASE = ma4.base_chart()
PTS4 = [tuple(p) for p in sample_points(4, 30, 42)]
PTS2 = [tuple(p) for p in sample_points(2, 30, 42)]

LR_MATRIX = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)


def test_pfaffian_equals_coefficient():
    s = ma4.flow_structure("1 + x1^2")
    for p in PTS4:
        assert s.pfaffian.eval(p) == pytest.approx(1 + p[0] ** 2, rel=1e-14)


def test_dual_pfaffian_is_negated():
    s = ma4.flow_structure("sin(x1) + 2")
    d = s.dual_structure()
    for p in PTS4[:10]:
        assert d.pfaffian.eval(p) == pytest.approx(-s.pfaffian.eval(p), rel=1e-12)


def test_effectivity():
    s = ma4.flow_structure("x1*x2 + 3")
    assert sup_norm(s.effectivity(), PTS4) < 1e-14
    assert sup_norm(wedge(s.dual_form(), s.big_omega), PTS4) < 1e-12


def test_operator_square():
    s = ma4.flow_structure("2 + cos(x2)")
    for p in PTS4[:10]:
        a_val = s.operator.eval(p)
        pf = s.pfaffian.eval(p)
        assert np.allclose(a_val @ a_val, -pf * np.eye(4), atol=1e-13)
    normalized = s.triple().almost_complex
    for p in PTS4[:5]:
        m = normalized.eval(p)
        assert np.allclose(m @ m, -np.eye(4), atol=1e-13)


def test_classification():
    s = ma4.flow_structure("x1")
    assert s.classify((0.5, 0, 0, 0)) == ma4.ELLIPTIC
    assert s.classify((-0.5, 0, 0, 0)) == ma4.HYPERBOLIC
    assert s.classify((0.0, 0, 0, 0)) == ma4.DEGENERATE
    # the threshold scales with the magnitude of the value
    assert s.classify((1e-20, 0, 0, 0)) == ma4.DEGENERATE


def test_lr_metric_matches_frozen_matrix():
    s = ma4.flow_structure("1 + x1^2 + x2^2")
    g = ma4.lr_metric(s)
    for p in PTS4[:10]:
        assert np.allclose(g.eval(p), LR_MATRIX, atol=1e-14)
    assert g.signature(PTS4[0]) == (2, 2, 0)
    # the structure carries the same constant metric
    assert np.allclose(s.metric.eval(PTS4[0]), LR_MATRIX, atol=1e-15)


def test_lr_metric_needs_symplectic_square():
    chart = PHASE
    degenerate = DifferentialForm.build(chart, 2, [((0, 1), 1.0)])
    s = ma4.MAStructure4(chart, degenerate, degenerate)
    with pytest.raises(NondegeneracyError):
        ma4.lr_metric(s)


def test_gram_matrix():
    for coeff, eps in (("2", 1.0), ("-3", -1.0)):
        s = ma4.flow_structure(coeff)
        gram = s.gram_matrix()
        p = PTS4[0]
        vals = np.array([[gram[i][j].eval(p) for j in range(3)] for i in range(3)])
        assert np.allclose(vals, np.diag([1.0, eps, -eps]), atol=1e-13)


def test_triple_relations_for_three_coefficients():
    for coeff in ("1", "-2", "1 + x1^2"):
        s = ma4.flow_structure(coeff)
        residuals = ma4.triple_relations(s, PTS4)
        assert max(residuals.values()) < 1e-10, (coeff, residuals)


def test_triple_squares():
    s = ma4.flow_structure("-2")
    t = s.triple()
    p = PTS4[0]
    eps = t.epsilon.eval(p)
    assert eps == -1.0
    i_m = t.almost_complex.eval(p)
    t_m = t.tangent.eval(p)
    s_m = t.product.eval(p)
    assert np.allclose(i_m @ i_m, -eps * np.eye(4), atol=1e-14)
    assert np.allclose(t_m @ t_m, eps * np.eye(4), atol=1e-14)
    assert np.allclose(s_m @ s_m, np.eye(4), atol=1e-14)
    # operators pairwise anticommute
    assert np.allclose(i_m @ t_m + t_m @ i_m, 0.0, atol=1e-14)
    assert np.allclose(i_m @ s_m + s_m @ i_m, 0.0, atol=1e-14)
    assert np.allclose(t_m @ s_m + s_m @ t_m, 0.0, atol=1e-14)


def test_build_triple_names_degenerate_point():
    s = ma4.flow_structure("x1")
    bad = [(0.0, 0.3, 0.1, 0.2)]
    with pytest.raises(NondegeneracyError, match="0.0"):
        ma4.build_triple(s, bad)
    good = [(0.5, 0.3, 0.1, 0.2)]
    ma4.build_triple(s, good)


def test_integrability():
    const = ma4.integrability(ma4.flow_structure("4"), PTS4)
    assert const["integrable"]
    assert const["coefficient_constant"]
    assert const["max_residual"] < 1e-14
    varying = ma4.integrability(ma4.flow_structure("1 + x1^2"), PTS4)
    assert not varying["integrable"]
    assert not varying["coefficient_constant"]
    assert varying["max_residual"] > 1e-3
    assert "product" in varying["note"]


def test_normalized_omega_closed_iff_constant():
    s = ma4.flow_structure("9")
    assert sup_norm(ext_derivative(s.normalized_omega()), PTS4) < 1e-14
    v = ma4.flow_structure("2 + x1")
    assert sup_norm(v.integrability_form(), PTS4) > 1e-3


def test_hessian_utilities():
    psi = parse_field("x1^2*x2 + x2^3", BASE)
    assert ma4.hessian_det(psi).eval((1.0, 2.0)) == 4 * 12 - 4
    assert ma4.laplacian2(psi).eval((1.0, 2.0)) == 16.0


def test_stream_graph_map_components():
    psi = parse_field("x1^2 + x2^2", BASE)
    fmap = ma4.stream_graph_map(psi)
    p = (0.3, 0.7)
    assert np.allclose(fmap.eval(p), [0.3, 0.7, -1.4, 0.6])
    with pytest.raises(ValueError):
        ma4.stream_graph_map(parse_field("u1", PHASE))


def test_generalized_solution_elliptic():
    psi = parse_field("(x1^2 + x2^2)/2", BASE)
    s = ma4.flow_structure("1")
    out = ma4.verify_generalized_solution(s, psi, PTS2)
    assert out["passed"]
    assert out["omega_residual"] < 1e-14
    assert out["big_omega_residual"] < 1e-14
    assert out["det_identity_residual"] < 1e-13
    assert out["trace_identity_residual"] < 1e-13
    assert out["signature_dichotomy"]
    assert {tuple(s_["signature"]) for s_ in out["signatures"]} <= {(2, 0, 0), (0, 2, 0)}


def test_generalized_solution_hyperbolic():
    psi = parse_field("x1*x2", BASE)
    s = ma4.flow_structure("-1")
    out = ma4.verify_generalized_solution(s, psi, PTS2)
    assert out["passed"]
    assert out["signature_dichotomy"]
    assert {tuple(s_["signature"]) for s_ in out["signatures"]} == {(1, 1, 0)}


def test_generalized_solution_failure_residual():
    psi = parse_field("(x1^2 + x2^2)/2", BASE)
    s = ma4.flow_structure("5")
    out = ma4.verify_generalized_solution(s, psi, PTS2)
    assert not out["passed"]
    assert out["omega_residual"] == pytest.approx(4.0, rel=1e-13)
