"""Christoffel symbols, curvature tensors, sampled flatness verdicts."""

import numpy as np
import pytest

from maflow import cli, curvature
from maflow.exterior import SymmetricTensorField
from maflow.fieldexpr import Chart, parse_field
from maflow.sampling import sample_points

PLANE = Chart(("x1", "x2"))
SPACE = Chart(("x1", "x2", "x3"))
PTS6 = [tuple(p) for p in sample_points(6, 20, 3)]


def sphere_metric():
    return curvature.MetricField.from_rows(
        PLANE, [[1.0, 0.0], [0.0, parse_field("sin(x1)^2", PLANE)]]
    )


def half_plane_metric():
    inv_sq = parse_field("x2^-2", PLANE)
    return curvature.MetricField.from_rows(PLANE, [[inv_sq, 0.0], [0.0, inv_sq]])


def test_sphere_ricci_equals_metric():
    g = sphere_metric()
    p = (1.0, 0.3)
    ric = curvature.ricci(g, p)
    assert ric[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert ric[1, 1] == pytest.approx(0.7080734182735712, rel=1e-12)
    assert ric[0, 1] == pytest.approx(0.0, abs=1e-12)
    # sectional curvature one: R^1_{212} in the layout R[l][i][j][k] = R^l_{kij}
    full = curvature.riemann(g, p)
    assert full[0, 0, 1, 1] == pytest.approx(np.sin(1.0) ** 2, rel=1e-12)


def test_hyperbolic_plane_ricci():
    g = half_plane_metric()
    p = (0.4, 0.7)
    ric = curvature.ricci(g, p)
    expected = -1.0 / 0.7**2
    assert ric[0, 0] == pytest.approx(expected, rel=1e-12)
    assert ric[0, 0] == pytest.approx(-2.0408163265306127, rel=1e-13)
    assert ric[1, 1] == pytest.approx(expected, rel=1e-12)
    assert ric[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_christoffel_of_exponential_metric():
    g = curvature.MetricField.from_rows(
        SPACE,
        [
            [parse_field("exp(2*x1)", SPACE), 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ],
    )
    gamma = curvature.christoffel(g, (0.3, -0.5, 0.2))
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 0] = 1.0
    assert np.allclose(gamma, expected, atol=1e-13)


def test_vortex_metric_christoffel_table():
    g = curvature.burgers_metric("x1")
    gamma = curvature.christoffel(g, PTS6[0])
    expected = np.zeros((6, 6, 6))
    expected[5, 0, 2] = expected[5, 2, 0] = -1.0
    expected[3, 2, 2] = -1.0
    assert np.allclose(gamma, expected, atol=1e-13)


def test_christoffel_against_finite_differences():
    g = curvature.burgers_metric("sin(x1) * x2")
    p = np.asarray(PTS6[1])
    gamma = curvature.christoffel(g, p)
    h = 1e-6
    n = 6
    d1 = np.empty((n, n, n))
    for k in range(n):
        shift = np.zeros(n)
        shift[k] = h
        d1[k] = (g.g.eval(p + shift) - g.g.eval(p - shift)) / (2.0 * h)
    ginv = np.linalg.inv(g.eval(p))
    t = np.einsum("ijl->lij", d1) + np.einsum("jil->lij", d1) - d1
    gamma_fd = 0.5 * np.einsum("kl,lij->kij", ginv, t)
    assert np.max(np.abs(gamma - gamma_fd)) < 1e-8


def test_riemann_symmetries_and_bianchi():
    entries = [
        [parse_field("exp(2*x1)", SPACE), 0.0, 0.0],
        [0.0, parse_field("exp(2*x2)", SPACE), 0.0],
        [0.0, 0.0, parse_field("1 + x3^2", SPACE)],
    ]
    g = curvature.MetricField.from_rows(SPACE, entries)
    p = (0.2, -0.4, 0.6)
    r = curvature.riemann(g, p)
    assert np.max(np.abs(r + np.transpose(r, (0, 2, 1, 3)))) < 1e-12
    bianchi = (
        r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
    )
    assert np.max(np.abs(bianchi)) < 1e-12
    ric = curvature.ricci(g, p)
    assert np.max(np.abs(ric - ric.T)) < 1e-12
    lowered = np.einsum("lm,mijk->lijk", g.eval(p), r)
    pair_swapped = np.transpose(lowered, (1, 0, 3, 2))
    assert np.max(np.abs(lowered - pair_swapped)) < 1e-12


def test_vortex_metric_is_ricci_flat_for_any_coefficient():
    for text in ("x1^2 - 3*x2^2 + x1*x2", "sin(x1)*x2", "exp(x1)"):
        g = curvature.burgers_metric(text)
        out = curvature.ricci_flat_verdict(g, PTS6[:8])
        assert out["verdict"] == "RicciFlat"
        assert out["max_entry"] < 1e-12


def test_flatness_dichotomy():
    flat = curvature.flatness_verdict(curvature.burgers_metric("1 + 2*x1 - x2"), PTS6)
    assert flat["verdict"] == "Flat"
    assert flat["witness"] is None
    assert flat["points_checked"] == len(PTS6)
    bent = curvature.flatness_verdict(curvature.burgers_metric("x1^2"), PTS6)
    assert bent["verdict"] == "NonFlat"
    assert bent["max_entry"] == pytest.approx(2.0, abs=1e-12)
    assert bent["witness"] is not None


def test_curvature_report_contents():
    out = curvature.curvature_report(curvature.burgers_metric("x1^2"), PTS6[:10])
    assert out["verdicts"] == {"flat": "NonFlat", "ricci_flat": "RicciFlat"}
    assert out["riemann_max"] == pytest.approx(2.0, abs=1e-12)
    assert out["ricci_max"] < 1e-12
    assert out["witnesses"]["riemann"] is not None
    assert out["witnesses"]["ricci"] is None
    assert out["points_checked"] == 10
    assert out["singular_points"] == []


def test_singular_points_are_reported_and_skipped():
    g = curvature.MetricField.from_rows(
        PLANE, [[parse_field("x1", PLANE), 0.0], [0.0, 1.0]]
    )
    with pytest.raises(curvature.SingularMetricError, match="singular at"):
        g.eval((0.0, 1.0))
    points = [(0.0, 0.5), (1.0, 0.5), (2.0, -0.3)]
    out = curvature.flatness_verdict(g, points)
    assert out["points_checked"] == 2
    assert out["singular_points"] == [(0.0, 0.5)]
    with pytest.raises(curvature.SingularMetricError, match="every sample point"):
        curvature.flatness_verdict(g, [(0.0, 0.1), (0.0, 0.2)])


def test_metric_field_guards():
    tensor = SymmetricTensorField.from_rows(PLANE, [[1.0, 0.0], [0.0, 1.0]])
    assert curvature.MetricField.from_tensor(tensor).chart == PLANE
    with pytest.raises(ValueError, match="does not match"):
        curvature.MetricField(tensor, SPACE)


@pytest.mark.parametrize(
    "g",
    [
        curvature.burgers_metric("sin(x1)*x2 + x1^2"),
        curvature.MetricField.from_rows(
            SPACE,
            [
                [parse_field("exp(2*x1)", SPACE), parse_field("x1*x3", SPACE), 0.0],
                [parse_field("x1*x3", SPACE), parse_field("1 + x2^2", SPACE), 0.0],
                [0.0, 0.0, parse_field("cos(x1) + 3", SPACE)],
            ],
        ),
    ],
)
def test_metric_jets_match_derivative_fields_bit_for_bit(g):
    # Reference: one derivative field per entry and partial, evaluated alone.
    entries = g.g.entries
    n = g.chart.dim
    for p in sample_points(n, 5, 11):
        values, ginv, d1, d2 = curvature._jets_at(g.g, p)
        assert np.array_equal(values, g.eval(p))
        assert np.array_equal(ginv, np.linalg.inv(g.eval(p)))
        expect1 = [[[entries[i][j].derivative(k).eval(p) for j in range(n)]
                    for i in range(n)] for k in range(n)]
        assert np.array_equal(d1, np.array(expect1))
        expect2 = [[[[entries[i][j].derivative(k, m).eval(p) for j in range(n)]
                     for i in range(n)] for m in range(n)] for k in range(n)]
        assert np.array_equal(d2, np.array(expect2))


def test_unimodular_metric_with_large_entries_is_not_singular(capsys):
    # |det g| = 1 for burgers-cy, however large 2a grows.
    code = cli.main(["curvature", "--metric", "burgers-cy", "--a", "60", "--samples", "10"])
    assert code == 0, capsys.readouterr().out
    for a in ("100*x1", "1e6", "1e6*x1"):
        out = curvature.curvature_report(curvature.burgers_metric(a), PTS6)
        assert out["singular_points"] == []
        assert out["points_checked"] == len(PTS6)


def test_metric_whose_inverse_overflows_is_singular():
    # At x1 = 1e-3 the entry is ~1e-311, so g^-1 overflows and max|g g^-1 - I|
    # is NaN: that point is skipped as singular, the other two are flat.
    g = curvature.MetricField.from_rows(
        PLANE, [[parse_field("1e-305*x1^2 + 1e-320", PLANE), 0.0], [0.0, 1.0]]
    )
    points = [(1e-3, 0.2), (1.0, 0.2), (0.5, -0.3)]
    out = curvature.curvature_report(g, points)
    assert out["singular_points"] == [(1e-3, 0.2)]
    assert out["points_checked"] == 2
    assert out["verdicts"] == {"flat": "Flat", "ricci_flat": "RicciFlat"}
    assert np.isfinite(out["riemann_max"])
    with pytest.raises(curvature.SingularMetricError):
        g.eval(points[0])
    for one_point in (curvature.christoffel, curvature.riemann):
        with pytest.raises(curvature.SingularMetricError):
            one_point(g, points[0])


def test_metric_singular_everywhere_by_overflow_raises():
    g = curvature.MetricField.from_rows(
        PLANE, [[parse_field("1e-310*(2 + x2^2)", PLANE), 0.0], [0.0, 1.0]]
    )
    with pytest.raises(curvature.SingularMetricError, match="every sample point"):
        curvature.curvature_report(g, [(0.3, 0.5), (-0.2, 0.1)])
