"""Velocity diagnostics, the three-stage solution check, grid analysis."""

import csv

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


def reference_table(path):
    """The csv.reader + float() loop that read lattice files before numpy's
    parser did, kept as the oracle of ``fluids._read_table``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise fluids.GridError("empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if not "".join(raw).strip():
                continue
            if len(raw) != len(header):
                raise fluids.GridError(f"row {lineno} has {len(raw)} cells, expected {len(header)}")
            try:
                rows.append([float(cell) for cell in raw])
            except ValueError as exc:
                raise fluids.GridError(f"row {lineno}: {exc}") from None
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def read_both(path):
    """(header, row bytes) or the GridError text, from the reader and its oracle."""
    out = []
    for read in (fluids._read_table, reference_table):
        try:
            header, data = read(str(path))
        except fluids.GridError as exc:
            out.append(str(exc))
        else:
            out.append((header, data.shape, data.tobytes()))
    return out


EDGE_CELLS = [
    '"1.5"', '" 2.5 "', '"1,5"', '"7"x', '"', '""', " 3 ", "\t4\t", "\u20035\u2003",
    "nan", "-NaN", "inf", "-Infinity", "1e400", "-0.0", "4.9e-324", "+.5", "1.", "1E+02",
    "1_000", "1__0", "\u0661\u0662", "\uff13", "#7", "1 # c", "abc", "", " ", "0x10",
    "1\x00", "\x1c1", "1\x1f", "1\x0b", "\x85", "1e5 x",
]


@pytest.mark.parametrize("cell", EDGE_CELLS)
def test_each_edge_cell_reads_as_the_csv_and_float_loop_reads_it(tmp_path, cell):
    path = tmp_path / "cell.csv"
    path.write_text(f"x1,x2,u1,u2\n0,0,0,0\n1,{cell},2,3\n4,5,6,7\n", newline="")
    ours, reference = read_both(path)
    assert ours == reference


EDGE_FILES = {
    "empty": "",
    "header only": "x1,x2,u1,u2\n",
    "header without newline": "x1,x2,u1,u2",
    "blank rows only": "x1,x2,u1,u2\n\n , ,\t, \n,,,\n  \n",
    "blank and whitespace rows": "x1,x2,u1,u2\n\n0,0,0,0\n , ,\t, \n1,2,3,4\n,,,\n\t\n",
    "padded cells": "x1,x2,u1,u2\n 0 , 0,0 ,\t0\n1,2,3,4\n",
    "quoted header": '"x1", x2 ,"u1",u2\n0,0,0,0\n',
    "quoted newline": 'x1,x2,u1,u2\n0,"1\n2",0,0\n',
    "short row": "x1,x2,u1,u2\n0,0,0,0\n1,2,3\n",
    "long row": "x1,x2,u1,u2\n0,0,0,0,0\n",
    "trailing comma": "x1,x2,u1,u2\n0,0,0,0,\n",
    "every row short": "x1,x2,u1,u2\n0,0,0\n1,1,1\n",
    "bad cell before short row": "x1,x2,u1,u2\n0,0,x,0\n1,2\n",
    "short row before bad cell": "x1,x2,u1,u2\n1,2\n0,0,x,0\n",
    "crlf": "x1,x2,u1,u2\r\n0,0,0,0\r\n1,2,3,4\r\n",
    "cr": "x1,x2,u1,u2\r0,0,0,0\r1,2,3,4\r",
    "empty header": "\n0,0\n",
    "blank header": "\n\n\n",
    "comment row": "x1,x2,u1,u2\n# note\n0,0,0,0\n",
    "non-ASCII blank row": "x1,x2,u1,u2\n\u2003,\x85,,\n0,0,0,0\n",
    "one column": "x1\n1\n2\n",
    # str.splitlines ends a line at these, a csv record does not
    "vertical tab": "x1,x2\n1,2\x0b3,4\n",
    "form feed": "x1,x2\n1,2\x0c3,4\n",
    "record separator": "x1,x2\n1,2\x1e3,4\n",
    "next line": "x1,x2\n1,2\x853,4\n",
}


@pytest.mark.parametrize("name", list(EDGE_FILES))
def test_each_edge_file_reads_as_the_csv_and_float_loop_reads_it(tmp_path, name):
    path = tmp_path / "edge.csv"
    path.write_text(EDGE_FILES[name], newline="")
    ours, reference = read_both(path)
    assert ours == reference


def test_a_lattice_reads_bit_for_bit_as_the_csv_and_float_loop_reads_it(tmp_path):
    path = taylor_green_csv(tmp_path / "tg.csv", n=32)
    ours, reference = read_both(path)
    assert ours == reference
    # the same lattice with its cells quoted, as csv.QUOTE_ALL writes them
    lines = open(path).read().splitlines()
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("\n".join(['"' + ln.replace(",", '","') + '"' for ln in lines]) + "\n")
    assert read_both(quoted)[0] == ours


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
