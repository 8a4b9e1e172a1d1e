"""Acceptance gate: one test per advertised guarantee, tolerances inline.

Run with -v to get one pass/fail line per criterion. Each test encodes the
full strength of its guarantee; a failure here means the library broke, not
that the tolerance needs adjusting.
"""

from itertools import combinations

import numpy as np
import pytest
from conftest import solid_rotation_csv, taylor_green_csv, taylor_green_rhs

from maflow import curvature, fluids, ma4, ma6, reduction
from maflow.exterior import (
    DifferentialForm,
    GraphMap,
    VectorField,
    ext_derivative,
    lie_derivative,
    normalize_index,
    pullback,
    sup_norm,
    wedge,
)
from maflow.fieldexpr import Chart, ScalarField, parse_field
from maflow.sampling import sample_points

SEED = 42


def pts(dim, n, seed=SEED):
    return [tuple(p) for p in sample_points(dim, n, seed)]


def test_criterion_01_pfaffian_identities():
    for text in ("1 + x1^2", "sin(x1)*x2 - 2"):
        s = ma4.flow_structure(text)
        a = parse_field(text, s.chart)
        dual_pf = s.dual_structure().pfaffian
        worst = 0.0
        for p in pts(4, 100):
            worst = max(worst, abs(s.pfaffian.eval(p) - a.eval(p)))
            worst = max(worst, abs(dual_pf.eval(p) + a.eval(p)))
        assert worst < 1e-12


def test_criterion_02_triple_algebra():
    points = pts(4, 100)
    for text in ("1", "-2", "1 + x1^2"):
        s = ma4.flow_structure(text)
        kept = [p for p in points if abs(s.pfaffian.eval(p)) > 1e-6]
        residuals = ma4.triple_relations(s, kept)
        for name, residual in residuals.items():
            assert residual < 1e-10, (text, name, residual)


def test_criterion_03_induced_metric_invariants():
    rng = np.random.default_rng(SEED)
    chart = ma4.base_chart()
    x1 = ScalarField.coordinate(chart, 0)
    x2 = ScalarField.coordinate(chart, 1)
    points = pts(2, 30)
    done = 0
    while done < 50:
        alpha, beta, delta = rng.uniform(-2.0, 2.0, 3)
        a_val = 4.0 * alpha * delta - beta * beta
        if abs(a_val) < 0.2:
            continue
        psi = x1 * x1 * alpha + x1 * x2 * beta + x2 * x2 * delta
        s = ma4.flow_structure(repr(float(a_val)))
        out = ma4.verify_generalized_solution(s, psi, points)
        assert out["omega_residual"] < 1e-10
        assert out["big_omega_residual"] < 1e-10
        # induced metric: det equals twice the pressure Laplacian (= 4a),
        # trace equals twice the Laplacian of the stream function
        assert out["det_identity_residual"] < 1e-10
        assert out["trace_identity_residual"] < 1e-10
        assert out["signature_dichotomy"]
        done += 1


def test_criterion_04_six_dimensional_invariants():
    points = pts(6, 30)
    s = ma6.burgers_structure("x1^2 + x2^2")
    a = parse_field("x1^2 + x2^2", s.chart)
    g = s.metric
    worst = 0.0
    for p in points:
        av = a.eval(p)
        k_target = np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
        k_target[5, 2] = 2.0 * av
        g_target = np.zeros((6, 6))
        g_target[0, 3] = g_target[3, 0] = 1.0
        g_target[1, 4] = g_target[4, 1] = 1.0
        g_target[2, 5] = g_target[5, 2] = -1.0
        g_target[2, 2] = 2.0 * av
        worst = max(worst, abs(s.pfaffian.eval(p) - 1.0))
        worst = max(worst, float(np.max(np.abs(s.tensor.eval(p) - k_target))))
        worst = max(worst, float(np.max(np.abs(g.eval(p) - g_target))))
    assert worst < 1e-12
    for text in ("1", "1 + x1^2"):
        pair = ma6.euler_pair(text)
        rel = ma6.euler_pair_relations(pair, points)
        assert rel["max_residual"] < 1e-12, (text, rel["residuals"])
        product = wedge(pair.theta, pair.omega) - pair.vol * 3.0
        assert sup_norm(product, points) < 1e-12


def test_criterion_05_dual_form_split():
    points = pts(6, 30)
    chart = ma6.momentum_chart()
    a = parse_field("1 + x1^2", chart)
    s = ma6.burgers_structure(a, chart)
    dual = s.dual()
    expected_sum = DifferentialForm.build(chart, 3, [((2, 3, 4), 2.0)])
    expected_diff = DifferentialForm.build(
        chart, 3, [((0, 1, 5), 2.0), ((0, 1, 2), a * -2.0)]
    )
    assert sup_norm(s.omega + dual - expected_sum, points) < 1e-12
    assert sup_norm(s.omega - dual - expected_diff, points) < 1e-12


def test_criterion_06_reductions_and_straightening():
    points = pts(4, 30)
    red = reduction.laplace_reduction()
    chart = red["structure"].chart
    expected = DifferentialForm.build(chart, 2, [((1, 2), -1.0), ((0, 3), 1.0)])
    assert sup_norm(red["omega_c"] - expected, points) < 1e-12
    assert red["structure"].classify((0.0, 0.0, 0.0, 0.0)) == ma4.ELLIPTIC

    a_text = "sin(x1)*cos(x2)"
    for gamma in (0.0, 1.0, 2.0):
        out = reduction.shear_pair_reduction(a_text, gamma)
        chart_s = out["omega_c"].chart
        a = parse_field(a_text, chart_s)
        expected_omega = DifferentialForm.build(
            chart_s,
            2,
            [((0, 1), a), ((2, 3), -1.0), ((1, 2), gamma), ((0, 3), -gamma)],
        )
        expected_theta = DifferentialForm.build(
            chart_s, 2, [((0, 1), gamma), ((0, 3), 1.0), ((1, 2), -1.0)]
        )
        assert sup_norm(out["omega_c"] - expected_omega, points) < 1e-12
        assert sup_norm(out["theta_c"] - expected_theta, points) < 1e-12
        cv = reduction.change_variables_64(out["omega_c"], out["theta_c"], gamma, points)
        assert cv["residual_tc"] < 1e-12
        assert cv["residual_oc"] < 1e-12
        assert cv["residual_o0"] < 1e-12


def test_criterion_07_transverse_decomposition():
    points = pts(6, 30)
    for text in ("1", "1 + x1^2"):
        out = reduction.burgers_decomposition(text, points)
        assert out["max_residual"] < 1e-12, (text, out)
        assert out["pairing_residual"] < 1e-12
        assert out["omega_split_residual"] < 1e-12
        assert out["pi_split_residual"] < 1e-12
        assert out["reduced_pfaffian_residual"] < 1e-12
        assert out["reduced_dual_residual"] < 1e-12


def test_criterion_08_stretched_solution_pipeline():
    plane = fluids.plane_chart()
    psi = parse_field("x1^2 + x2^2", plane)
    points3 = pts(3, 30)
    good = fluids.stretched_solution_check(2.0, psi, 0.0, 1.0, points3)
    assert good["stages"] == {"i": 0.0, "ii": 0.0, "iii": 0.0}

    # zeroing the pressure Laplacian breaks stage (i); the residual is the
    # full coefficient gap, and the zero-stream variant leaves the shear term
    bad = fluids.stretched_solution_check(2.0, psi, 0.0, 0.0, points3)
    assert bad["stages"]["i"] == 1.0
    degenerate = fluids.stretched_solution_check(
        2.0, ScalarField.constant(plane, 0.0), 0.0, 0.0, points3
    )
    assert degenerate["stages"]["i"] == 3.0

    rng = np.random.default_rng(7)
    x1 = ScalarField.coordinate(plane, 0)
    x2 = ScalarField.coordinate(plane, 1)
    points2 = [(p[0], p[1]) for p in points3[:5]]
    small3 = points3[:5]
    for k in range(200):
        alpha, beta, delta = rng.uniform(-1.5, 1.5, 3)
        gamma = float(rng.uniform(-2.0, 2.0))
        psi_r = x1 * x1 * alpha + x1 * x2 * beta + x2 * x2 * delta
        hess = 4.0 * alpha * delta - beta * beta
        a_val = hess - 0.75 * gamma * gamma
        if k % 2:
            a_val += float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        a_field = ScalarField.constant(plane, float(a_val))
        r1 = max(
            abs(fluids.stretched_residual_field(psi_r, a_field, gamma).eval(q))
            for q in points2
        )
        flow = fluids.burgers_build(gamma, psi_r)
        gap = fluids.pressure_rhs_field(flow.velocity) - fluids.lift_plane_field(
            a_field
        ) * 2.0
        r2 = max(abs(gap.eval(p)) for p in small3)
        assert (r1 < 1e-10) == (r2 < 1e-10)
        assert abs(r2 - 2.0 * r1) < 1e-9


def test_criterion_09_curvature_of_the_vortex_metric():
    points50 = pts(6, 50)
    for text in ("x1^2 + x2^2", "sin(x1)"):
        out = curvature.ricci_flat_verdict(curvature.burgers_metric(text), points50)
        assert out["verdict"] == "RicciFlat", (text, out)
        assert out["max_entry"] < 1e-9
    rng = np.random.default_rng(3)
    points10 = pts(6, 10)
    for _ in range(20):
        c0, c1, c2 = rng.uniform(-3.0, 3.0, 3)
        text = f"{c0:.6f} + {c1:.6f}*x1 + {c2:.6f}*x2"
        flat = curvature.flatness_verdict(curvature.burgers_metric(text), points10)
        assert flat["verdict"] == "Flat", (text, flat)
    bent = curvature.flatness_verdict(curvature.burgers_metric("x1^2"), points10)
    assert bent["verdict"] == "NonFlat"
    assert bent["witness"] is not None


def _wedge_oracle(a, b, point, vectors):
    k = a.degree
    total = 0.0
    for combo in combinations(range(k + b.degree), k):
        rest = tuple(i for i in range(k + b.degree) if i not in combo)
        sign = normalize_index(combo + rest)[1]
        total += (
            sign
            * a.apply(point, *[vectors[i] for i in combo])
            * b.apply(point, *[vectors[i] for i in rest])
        )
    return total


def _rand_form(chart, degree, rng, bilinear=False):
    idxs = list(combinations(range(chart.dim), degree))
    items = []
    for _ in range(2):
        key = idxs[rng.integers(0, len(idxs))]
        c0, c1 = rng.uniform(-2.0, 2.0, 2)
        i = int(rng.integers(0, chart.dim))
        j = int(rng.integers(0, chart.dim))
        coeff = ScalarField.coordinate(chart, i) * c1 + c0
        if bilinear:
            coeff = coeff * ScalarField.coordinate(chart, j)
        items.append((key, coeff))
    return DifferentialForm.build(chart, degree, items)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(SEED)
    chart = Chart(("x1", "x2", "x3", "x4"))
    cases = 0

    for _ in range(200):
        p_deg = int(rng.integers(1, 3))
        q_deg = int(rng.integers(1, 3))
        alpha = _rand_form(chart, p_deg, rng)
        beta = _rand_form(chart, q_deg, rng)
        point = tuple(rng.uniform(-1.0, 1.0, 4))
        vectors = [rng.uniform(-1.0, 1.0, 4) for _ in range(p_deg + q_deg)]
        left = wedge(alpha, beta).apply(point, *vectors)
        sign = (-1.0) ** (p_deg * q_deg)
        right = wedge(beta, alpha).apply(point, *vectors)
        assert left == pytest.approx(sign * right, rel=1e-11, abs=1e-11)
        assert left == pytest.approx(
            _wedge_oracle(alpha, beta, point, vectors), rel=1e-11, abs=1e-11
        )
        cases += 2

    for _ in range(200):
        alpha = _rand_form(chart, int(rng.integers(1, 3)), rng, bilinear=True)
        point = tuple(rng.uniform(-1.0, 1.0, 4))
        assert sup_norm(ext_derivative(ext_derivative(alpha)), [point]) < 1e-12
        cases += 1

    for k in range(100):
        comps = tuple(
            ScalarField.coordinate(chart, int(rng.integers(0, 4)))
            * float(rng.uniform(-1.0, 1.0))
            + float(rng.uniform(-1.0, 1.0))
            for _ in range(4)
        )
        x = VectorField(chart, comps)
        alpha = _rand_form(chart, 1, rng)
        beta = _rand_form(chart, 1, rng)
        point = tuple(rng.uniform(-1.0, 1.0, 4))
        vectors = [rng.uniform(-1.0, 1.0, 4) for _ in range(2)]
        derivation_gap = (
            lie_derivative(x, wedge(alpha, beta))
            - wedge(lie_derivative(x, alpha), beta)
            - wedge(alpha, lie_derivative(x, beta))
        )
        assert derivation_gap.apply(point, *vectors) == pytest.approx(
            0.0, abs=1e-11
        )
        commute_gap = lie_derivative(x, ext_derivative(alpha)) - ext_derivative(
            lie_derivative(x, alpha)
        )
        assert sup_norm(commute_gap, [point]) < 1e-11
        cases += 2

    inner = Chart(("s", "t"))
    mid = Chart(("y1", "y2", "y3"))
    s, t = (ScalarField.coordinate(inner, i) for i in range(2))
    f_map = GraphMap(inner, mid, (s + t, s * t, s * s - t))
    y1, y2, y3 = (ScalarField.coordinate(mid, i) for i in range(3))
    g_map = GraphMap(mid, chart, (y1, y2 * y3, y1 * y2, y3))
    composed = GraphMap(
        inner, chart, tuple(f_map.pull_scalar(c) for c in g_map.components)
    )
    for _ in range(200):
        omega = _rand_form(chart, int(rng.integers(1, 3)), rng)
        point = tuple(rng.uniform(-1.0, 1.0, 2))
        stepwise = pullback(pullback(omega, g_map), f_map)
        direct = pullback(omega, composed)
        assert sup_norm(stepwise - direct, [point]) < 1e-11
        cases += 1

    assert cases >= 1000

    plane = Chart(("x1", "x2"))
    templates = (
        "sin({0:.6f}*x1 + {1:.6f}*x2) * exp({2:.6f}*x1*x2) + {3:.6f}*log(2 + x1^2)",
        "cos({0:.6f}*x1) * ({1:.6f} + x2^2) + sqrt(x1 + 3) * {2:.6f} + {3:.6f}*x2",
        "({0:.6f}*x1 + x2^3) / (2 + x1^2) + exp({1:.6f}*x2) + {2:.6f}*{3:.6f}",
    )
    worst = 0.0
    h1, h2 = 1e-6, 1e-4
    for k in range(1000):
        c = rng.uniform(-2.0, 2.0, 4)
        f = parse_field(templates[k % 3].format(*c), plane)
        p = tuple(rng.uniform(-0.8, 0.8, 2))
        axis = int(rng.integers(0, 2))
        lo, hi = list(p), list(p)
        lo[axis] -= h1
        hi[axis] += h1
        fd1 = (f.eval(tuple(hi)) - f.eval(tuple(lo))) / (2.0 * h1)
        ad1 = f.derivative(axis).eval(p)
        worst = max(worst, abs(ad1 - fd1) / max(1.0, abs(ad1)))
        lo, hi = list(p), list(p)
        lo[axis] -= h2
        hi[axis] += h2
        fd2 = (f.eval(tuple(hi)) - 2.0 * f.eval(p) + f.eval(tuple(lo))) / (h2 * h2)
        ad2 = f.derivative(axis, axis).eval(p)
        worst = max(worst, abs(ad2 - fd2) / max(1.0, abs(ad2)))
    assert worst < 1e-6


def test_criterion_11_grid_diagnostics(tmp_path):
    grid = fluids.grid_load(solid_rotation_csv(tmp_path / "solid.csv"))
    out = fluids.grid_analyze(grid, full=True)
    for node in out["nodes"]:
        assert abs(node["rhs"] - 2.0) < 1e-10
        assert abs(node["div"]) < 1e-10

    grid = fluids.grid_load(taylor_green_csv(tmp_path / "tg.csv", n=64))
    out = fluids.grid_analyze(grid, full=True)
    ax = np.linspace(0.0, 2.0 * np.pi, 64)
    worst = 0.0
    for node in out["nodes"]:
        i, j = node["index"]
        exact = taylor_green_rhs(ax[i], ax[j])
        worst = max(worst, abs(node["rhs"] - exact) / max(1.0, abs(exact)))
    assert worst < 1e-4
