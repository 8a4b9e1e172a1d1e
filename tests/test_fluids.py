"""Velocity diagnostics, the three-stage solution check, grid analysis."""

import numpy as np
import pytest
from conftest import (
    solid_rotation_csv,
    stretched_vortex_csv,
    taylor_green_csv,
    taylor_green_rhs,
    write_grid_csv,
)

from maflow import fluids, ma4
from maflow.exterior import VectorField
from maflow.fieldexpr import Chart, ChartError, parse_field
from maflow.sampling import sample_points

PLANE = fluids.plane_chart()
SPACE = fluids.space_chart()
PTS2 = [tuple(p) for p in sample_points(2, 30, 11)]
PTS3 = [tuple(p) for p in sample_points(3, 30, 11)]


def test_stream_flow_divergence_and_pressure_source():
    flow = fluids.Flow2D.from_stream("sin(x1)*x2^2 + x1*x2")
    div = fluids.divergence(flow.velocity)
    # -trace(M^2) = 2 det Hess(psi) for any stream function
    rhs = fluids.pressure_rhs_field(flow.velocity)
    hess2 = ma4.hessian_det(flow.psi) * 2.0
    for p in PTS2:
        assert div.eval(p) == pytest.approx(0.0, abs=1e-14)
        assert rhs.eval(p) == pytest.approx(hess2.eval(p), rel=1e-12, abs=1e-12)


def test_weiss_split_planar_identity():
    flow = fluids.Flow2D.from_stream("exp(x1) * sin(x2)")
    for p in PTS2[:10]:
        out = fluids.weiss_split(flow.velocity, p)
        assert out["rhs"] == pytest.approx(out["pressure_rhs"], rel=1e-12, abs=1e-12)
    rigid = fluids.Flow2D.from_stream("(x1^2 + x2^2) / 2")
    out = fluids.weiss_split(rigid.velocity, (0.3, -0.8))
    assert out["vorticity"] == pytest.approx(2.0, abs=1e-14)
    assert out["strain_sq"] == pytest.approx(0.0, abs=1e-14)
    assert out["rhs"] == pytest.approx(2.0, abs=1e-14)


def test_weiss_split_spatial():
    u = VectorField(
        SPACE,
        (
            parse_field("-x2", SPACE),
            parse_field("x1", SPACE),
            parse_field("0", SPACE),
        ),
    )
    out = fluids.weiss_split(u, (0.1, 0.2, 0.3))
    assert out["vorticity"] == pytest.approx((0.0, 0.0, 2.0), abs=1e-14)
    assert out["rhs"] is None
    assert out["pressure_rhs"] == pytest.approx(2.0, abs=1e-14)
    four = Chart(("x1", "x2", "x3", "x4"))
    bad = VectorField.from_constants(four, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ChartError):
        fluids.weiss_split(bad, (0.0,) * 4)


def test_vortex_flow_construction():
    psi = parse_field("sin(x1) + x2^2", PLANE)
    flow = fluids.burgers_build(1.5, psi, c=0.25)
    div = fluids.divergence(flow.velocity)
    for p in PTS3[:10]:
        assert div.eval(p) == pytest.approx(0.0, abs=1e-14)
        assert flow.velocity.components[2].eval(p) == pytest.approx(
            1.5 * p[2] - 0.25, rel=1e-14
        )
    # planar components carry no axial dependence
    assert flow.velocity.components[0].derivative(2).is_zero
    assert flow.velocity.components[1].derivative(2).is_zero
    with pytest.raises(ChartError):
        fluids.burgers_build(1.0, parse_field("x1", SPACE))


def test_three_stage_check_worked_example():
    psi = parse_field("x1^2 + x2^2", PLANE)
    out = fluids.stretched_solution_check(2.0, psi, 0.5, 1.0, PTS3)
    assert out["stages"] == {"i": 0.0, "ii": 0.0, "iii": 0.0}, out
    assert out["graph_report"]["div_residual"] == 0.0
    assert out["graph_report"]["pressure_residual"] == 0.0


def test_three_stage_check_flags_wrong_coefficient():
    psi = parse_field("x1^2 + x2^2", PLANE)
    out = fluids.stretched_solution_check(2.0, psi, 0.5, 2.0, PTS3)
    assert out["stages"]["i"] == pytest.approx(1.0, abs=1e-14)
    assert out["stages"]["ii"] == pytest.approx(2.0, abs=1e-14)
    assert not out["stages"]["iii"] < 1e-10


def test_three_stage_check_randomized():
    rng = np.random.default_rng(5)
    for _ in range(5):
        c1, c2, c3 = rng.uniform(-2.0, 2.0, 3)
        gamma = float(rng.uniform(-1.5, 1.5))
        psi = (
            parse_field("x1^2", PLANE) * c1
            + parse_field("x1*x2", PLANE) * c2
            + parse_field("x2^2", PLANE) * c3
            + parse_field("sin(x1)*sin(x2)", PLANE)
        )
        shear = 0.75 * gamma**2
        a = ma4.hessian_det(psi) - shear
        out = fluids.stretched_solution_check(gamma, psi, float(rng.normal()), a, PTS3)
        assert max(out["stages"].values()) < 1e-10, out


def test_solid_rotation_grid(tmp_path):
    grid = fluids.grid_load(solid_rotation_csv(tmp_path / "solid.csv"))
    assert grid.dim == 2 and grid.shape == (16, 16)
    assert grid.pressure is not None
    out = fluids.grid_analyze(grid)
    assert out["interior_nodes"] == 144
    assert abs(out["summary"]["div"]["max"]) < 1e-13
    assert abs(out["summary"]["div"]["min"]) < 1e-13
    assert out["summary"]["vorticity"]["mean"] == pytest.approx(2.0, rel=1e-12)
    assert out["summary"]["rhs"]["mean"] == pytest.approx(2.0, rel=1e-12)
    assert abs(out["summary"]["pressure_residual"]["max"]) < 1e-12
    assert out["counts"] == {ma4.ELLIPTIC: 144, ma4.HYPERBOLIC: 0, ma4.DEGENERATE: 0}


def test_taylor_green_grid_accuracy(tmp_path):
    grid = fluids.grid_load(taylor_green_csv(tmp_path / "tg.csv", n=32))
    out = fluids.grid_analyze(grid, full=True)
    ax = np.linspace(0.0, 2.0 * np.pi, 32)
    worst = 0.0
    for node in out["nodes"]:
        i, j = node["index"]
        exact = taylor_green_rhs(ax[i], ax[j])
        err = abs(node["rhs"] - exact) / max(1.0, abs(exact))
        worst = max(worst, err)
    assert worst < 1.5e-4
    assert abs(out["summary"]["div"]["max"]) < 1e-13
    assert abs(out["summary"]["pressure_residual"]["max"]) < 5e-4
    assert out["counts"][ma4.ELLIPTIC] > 0
    assert out["counts"][ma4.HYPERBOLIC] > 0


def test_stretched_vortex_grid(tmp_path):
    grid = fluids.grid_load(stretched_vortex_csv(tmp_path / "b3.csv", gamma=2.0))
    out = fluids.grid_analyze(grid)
    assert out["dim"] == 3
    assert out["interior_nodes"] == 8
    assert out["summary"]["neg_trace_m2"]["min"] == pytest.approx(-6.0, abs=1e-13)
    assert out["summary"]["neg_trace_m2"]["max"] == pytest.approx(-6.0, abs=1e-13)
    assert out["summary"]["div"]["max"] == pytest.approx(0.0, abs=1e-13)
    assert out["counts"][ma4.HYPERBOLIC] == 8
    assert "vorticity_x3" in out["summary"]


def test_grid_full_report_lists_nodes(tmp_path):
    grid = fluids.grid_load(solid_rotation_csv(tmp_path / "solid.csv", n=6))
    out = fluids.grid_analyze(grid, full=True)
    assert len(out["nodes"]) == out["interior_nodes"] == 4
    node = out["nodes"][0]
    assert node["index"] == [2, 2]
    assert node["rhs"] == pytest.approx(2.0, rel=1e-12)


def _write_rows(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_grid_load_skips_blank_and_whitespace_rows(tmp_path):
    clean = solid_rotation_csv(tmp_path / "solid.csv", n=6)
    lines = (tmp_path / "solid.csv").read_text().splitlines()
    padded = lines[:3] + ["", " , ,\t, "] + lines[3:] + [",,,", "  "]
    expected = fluids.grid_load(clean)
    grid = fluids.grid_load(_write_rows(tmp_path / "padded.csv", padded))
    assert grid.shape == expected.shape
    assert np.array_equal(grid.velocity, expected.velocity)
    assert np.array_equal(grid.pressure, expected.pressure)


def test_grid_load_rejects_malformed_input(tmp_path):
    cases = {
        "empty file": [],
        "unrecognized header": ["x1,y2,u1,u2", "0,0,0,0"],
        "expected 5": [
            "x1,x2,u1,u2,p",
            "0,0,0,0,0",
            "0,1,0,0",
        ],
        "row 3": ["x1,x2,u1,u2", "0,0,0,0", "0,1,0,oops"],
    }
    for match, lines in cases.items():
        target = tmp_path / f"{match.replace(' ', '_')}.csv"
        if lines:
            _write_rows(target, lines)
        else:
            target.write_text("")
        with pytest.raises(fluids.GridError, match=match):
            fluids.grid_load(str(target))


def test_grid_load_rejects_bad_lattices(tmp_path):
    uneven = [0.0, 1.0, 2.0, 4.0]
    even = [0.0, 1.0, 2.0, 3.0]
    path = write_grid_csv(
        tmp_path / "uneven.csv",
        [np.asarray(uneven), np.asarray(even)],
        [lambda x, y: x, lambda x, y: y],
    )
    with pytest.raises(fluids.GridError, match="not uniform"):
        fluids.grid_load(path)

    path = write_grid_csv(
        tmp_path / "short.csv",
        [np.asarray(even[:3]), np.asarray(even)],
        [lambda x, y: x, lambda x, y: y],
    )
    with pytest.raises(fluids.GridError, match="at least 4 distinct"):
        fluids.grid_load(path)

    good = write_grid_csv(
        tmp_path / "good.csv",
        [np.asarray(even), np.asarray(even)],
        [lambda x, y: x, lambda x, y: y],
    )
    lines = open(good).read().splitlines()
    _write_rows(tmp_path / "missing.csv", lines[:-1])
    with pytest.raises(fluids.GridError, match="do not fill"):
        fluids.grid_load(str(tmp_path / "missing.csv"))

    shuffled = lines[:1] + [lines[2], lines[1]] + lines[3:]
    _write_rows(tmp_path / "shuffled.csv", shuffled)
    with pytest.raises(fluids.GridError, match="row-major"):
        fluids.grid_load(str(tmp_path / "shuffled.csv"))


def test_grid_analyze_needs_interior(tmp_path):
    ax = np.linspace(0.0, 1.0, 4)
    path = write_grid_csv(
        tmp_path / "tiny.csv", [ax, ax], [lambda x, y: x, lambda x, y: -y]
    )
    with pytest.raises(fluids.GridError, match="no interior"):
        fluids.grid_analyze(fluids.grid_load(path))
