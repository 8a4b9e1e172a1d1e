"""Incompressible-flow layer: velocities, pressure sources, diagnostics.

Analytic velocity fields live on spatial charts as vector fields with
scalar-field components; every derivative is exact. The module covers the
velocity-gradient tensor and the pressure Poisson right-hand side, the
planar vorticity/strain split, stream-function flows, the Burgers vortex
family with its linear axial stretching, the three-stage solution check
that maps a planar stream function to a three-dimensional incompressible
flow, and finite-difference diagnostics over gridded velocity samples
loaded from CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# divergence and trace_m_squared live in exterior, below both ma6 and this
# module; they stay importable from here with the rest of the flow layer.
from .exterior import VectorField, divergence, sup_norm, trace_m_squared  # noqa: F401
from .fieldexpr import Chart, ChartError, ScalarField, eval_many
from .ma4 import DEGENERATE, ELLIPTIC, HYPERBOLIC, hessian_det
from .ma6 import coefficient_field, euler_pair, velocity_chart, verify_bilagrangian


def plane_chart() -> Chart:
    return Chart(("x1", "x2"))


def space_chart() -> Chart:
    return Chart(("x1", "x2", "x3"))


def velocity_gradient(u: VectorField) -> list[list[ScalarField]]:
    """Matrix of exact partials M[i][j] = du_i/dx_j."""
    n = u.chart.dim
    return [[u.components[i].derivative(j) for j in range(n)] for i in range(n)]


def pressure_rhs_field(u: VectorField) -> ScalarField:
    """Right-hand side of the pressure Poisson equation: -trace(M^2)."""
    return -trace_m_squared(u)


def vorticity2(u: VectorField) -> ScalarField:
    if u.chart.dim != 2:
        raise ChartError("scalar vorticity needs a planar velocity field")
    return u.components[1].derivative(0) - u.components[0].derivative(1)


def strain_trace_squared(u: VectorField) -> ScalarField:
    """trace(S^2) for the symmetric part S of the velocity gradient."""
    n = u.chart.dim
    grad = velocity_gradient(u)
    out = ScalarField.constant(u.chart, 0.0)
    for i in range(n):
        for j in range(n):
            s = (grad[i][j] + grad[j][i]) * 0.5
            if s.is_zero:
                continue
            out = out + s * s
    return out


def weiss_split(u: VectorField, point: Sequence[float]) -> dict:
    """Vorticity/strain split of the pressure source at a point.

    In two dimensions returns the scalar vorticity and the exact identity
    value zeta^2/2 - trace(S^2), which equals -trace(M^2) for divergence
    free fields. In three dimensions returns the vorticity vector and the
    strain trace; no pointwise identity is asserted.
    """
    dim = u.chart.dim
    if dim not in (2, 3):
        raise ChartError("split needs a planar or spatial velocity field")
    if dim == 2:
        spins = [vorticity2(u)]
    else:
        grad = velocity_gradient(u)
        spins = [g for j, k in ((1, 2), (2, 0), (0, 1)) for g in (grad[k][j], grad[j][k])]
    fields = [strain_trace_squared(u), pressure_rhs_field(u), *spins]
    strain, rhs, *spin = eval_many(fields, [point])[:, 0].tolist()
    if dim == 2:
        zeta = spin[0]
        rhs_split = zeta * zeta / 2.0 - strain
        return {"vorticity": zeta, "strain_sq": strain, "rhs": rhs_split, "pressure_rhs": rhs}
    zeta = tuple(a - b for a, b in zip(spin[::2], spin[1::2]))
    return {"vorticity": zeta, "strain_sq": strain, "rhs": None, "pressure_rhs": rhs}


def stream_velocity(psi: ScalarField) -> VectorField:
    """Divergence-free planar velocity (-psi_x2, psi_x1)."""
    if psi.chart.dim != 2:
        raise ChartError("stream function must live on a planar chart")
    return VectorField(psi.chart, (-psi.derivative(1), psi.derivative(0)))


@dataclass(frozen=True)
class Flow2D:
    """Planar flow generated by a stream function; solenoidal by construction."""

    psi: ScalarField
    velocity: VectorField

    @classmethod
    def from_stream(cls, psi: ScalarField | str, chart: Chart | None = None) -> "Flow2D":
        chart = chart if chart is not None else plane_chart()
        psi_field = coefficient_field(psi, chart)
        return cls(psi_field, stream_velocity(psi_field))


def lift_plane_field(field: ScalarField, chart3: Chart | None = None) -> ScalarField:
    """Extend a planar field to a spatial chart, constant in x3."""
    chart3 = chart3 if chart3 is not None else space_chart()
    x1 = ScalarField.coordinate(chart3, 0)
    x2 = ScalarField.coordinate(chart3, 1)
    return field.compose(chart3, (x1, x2))


@dataclass(frozen=True)
class BurgersFlow:
    """Planar stream sheared by linear axial stretching u3 = gamma x3 - c."""

    gamma: float
    c: float
    psi: ScalarField
    velocity: VectorField


def burgers_build(gamma: float, psi: ScalarField, c: float = 0.0) -> BurgersFlow:
    """Velocity (-g/2 x1 - psi_x2, -g/2 x2 + psi_x1, g x3 - c); solenoidal."""
    if psi.chart.dim != 2:
        raise ChartError("stream function must live on a planar chart")
    chart3 = space_chart()
    g = float(gamma)
    x1 = ScalarField.coordinate(chart3, 0)
    x2 = ScalarField.coordinate(chart3, 1)
    x3 = ScalarField.coordinate(chart3, 2)
    psi_1 = lift_plane_field(psi.derivative(0), chart3)
    psi_2 = lift_plane_field(psi.derivative(1), chart3)
    u1 = -(x1 * (g / 2.0)) - psi_2
    u2 = -(x2 * (g / 2.0)) + psi_1
    u3 = x3 * g - ScalarField.constant(chart3, float(c))
    return BurgersFlow(g, float(c), psi, VectorField(chart3, (u1, u2, u3)))


def stretched_residual_field(
    psi: ScalarField, a: ScalarField, gamma: float
) -> ScalarField:
    """Planar equation residual: hess(psi) - a - (3/4) gamma^2."""
    shear = 0.75 * float(gamma) ** 2
    return hessian_det(psi) - a - ScalarField.constant(psi.chart, shear)


def stretched_solution_check(
    gamma: float,
    psi: ScalarField,
    c: float,
    a: ScalarField | str | float,
    points: Sequence[Sequence[float]],
) -> dict:
    """Three-stage check that a planar stream lifts to a spatial solution.

    Stage (i): psi satisfies the sheared planar equation with coefficient
    a = (Laplacian p)/2. Stage (ii): the lifted velocity satisfies the
    pressure Poisson equation -trace(M^2) = 2a. Stage (iii): the velocity
    graph annihilates the divergence-form pair with the same coefficient.
    Points are spatial; their first two components sample the plane.
    ``stages`` maps each stage to its residual.
    """
    plane = psi.chart
    a_field = coefficient_field(a, plane)
    points2 = [(p[0], p[1]) for p in points]
    res_i = stretched_residual_field(psi, a_field, gamma)
    r1 = sup_norm(res_i, points2)
    flow = burgers_build(gamma, psi, c)
    res_ii = pressure_rhs_field(flow.velocity) - lift_plane_field(a_field) * 2.0
    r2 = sup_norm(res_ii, points)
    a6 = lift_plane_field(a_field, velocity_chart())
    pair = euler_pair(a6)
    graph_report = verify_bilagrangian(pair, flow.velocity, points)
    r3 = max(graph_report["omega_residual"], graph_report["theta_residual"])
    return {"stages": {"i": r1, "ii": r2, "iii": r3}, "flow": flow, "graph_report": graph_report}


class GridError(ValueError):
    """Malformed gridded-velocity input."""


@dataclass(frozen=True)
class GridField:
    """Uniform lattice of velocity samples, optionally with pressure."""

    dim: int
    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]
    velocity: np.ndarray
    pressure: np.ndarray | None = None


def grid_load(path: str) -> GridField:
    """Read a CSV lattice: header x1,x2[,x3],u1,u2[,u3][,p], row-major rows."""
    header, data = _read_table(path)
    for dim in (3, 2):
        coords = [f"x{i}" for i in range(1, dim + 1)]
        comps = [f"u{i}" for i in range(1, dim + 1)]
        if header[: 2 * dim] == coords + comps and len(header) <= 2 * dim + 1:
            has_pressure = len(header) == 2 * dim + 1
            if has_pressure and header[-1] != "p":
                break
            return _assemble_grid(data, dim, has_pressure)
    raise GridError(f"unrecognized header {header}")


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """The stripped header names and the data rows as an (n, width) array.

    A row is a csv record. A row whose cells are all blank is skipped, every
    other row has one cell per header name, and a cell reads as ``float()``
    reads it. A record that csv refuses, such as one with a cell over
    ``csv.field_size_limit()``, is a GridError.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise GridError("empty file") from None
        except csv.Error as exc:
            raise GridError(f"row 1: {exc}") from None
        body = handle.read()
    return [h.strip() for h in header], _parse_rows(body, len(header))


def _parse_rows(body: str, width: int) -> np.ndarray:
    """The data rows below the header, as an (n, width) float array.

    numpy's C parser reads a plain body in one call. It knows neither csv
    quoting nor rows of blank cells, it lacks ``float()``'s underscores and
    non-ASCII digits, and it strips the ASCII separators \\x1c-\\x1f as
    spaces where ``float()`` refuses them. Without those separators and
    \\v, \\f, ``splitlines`` ends a line where a csv record ends, at \\n,
    \\r or \\r\\n. A body with a non-ASCII character or one of those six, or
    one that numpy refuses, is read one csv record at a time; numpy converts
    a str cell with ``float()``, so the grammar and the error text are
    ``float()``'s.
    """
    if not body or body.isspace():
        return np.empty((0, width))
    if body.isascii() and not any(c in body for c in "\v\f\x1c\x1d\x1e\x1f"):
        try:
            data = np.loadtxt(body.splitlines(), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape[1] == width:
                return data
    rows = []
    lineno = 1
    try:
        for lineno, raw in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
            if not "".join(raw).strip():
                continue
            if len(raw) != width:
                raise GridError(f"row {lineno} has {len(raw)} cells, expected {width}")
            try:
                rows.append(np.array(raw, dtype=float))
            except ValueError as exc:
                raise GridError(f"row {lineno}: {exc}") from None
    except csv.Error as exc:
        raise GridError(f"row {lineno + 1}: {exc}") from None
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _assemble_grid(data: np.ndarray, dim: int, has_pressure: bool) -> GridField:
    if data.size == 0:
        raise GridError("no data rows")
    axes = []
    for k in range(dim):
        values = np.unique(data[:, k])
        if len(values) < 4:
            raise GridError(f"axis x{k + 1} needs at least 4 distinct values")
        steps = np.diff(values)
        if np.max(np.abs(steps - steps[0])) > 1e-9:
            raise GridError(f"axis x{k + 1} spacing is not uniform")
        axes.append(values)
    shape = tuple(len(v) for v in axes)
    count = int(np.prod(shape))
    if data.shape[0] != count:
        raise GridError(f"{data.shape[0]} rows do not fill a {shape} lattice")
    for k in range(dim):
        expected = axes[k][
            np.unravel_index(np.arange(count), shape)[k]
        ]
        if np.max(np.abs(data[:, k] - expected)) > 1e-9:
            raise GridError("rows are not in row-major lattice order")
    velocity = np.stack(
        [data[:, dim + i].reshape(shape) for i in range(dim)], axis=0
    )
    pressure = data[:, 2 * dim].reshape(shape) if has_pressure else None
    spacing = tuple(float(v[1] - v[0]) for v in axes)
    origin = tuple(float(v[0]) for v in axes)
    return GridField(dim, shape, spacing, origin, velocity, pressure)


def _stencil_first(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order centered first derivative; NaN on the 2-deep margin."""
    out = np.full_like(f, np.nan)
    inner = [slice(None)] * f.ndim
    inner[axis] = slice(2, -2)
    shifted = []
    for offset in (2, 1, -1, -2):
        sl = [slice(None)] * f.ndim
        sl[axis] = slice(2 + offset, f.shape[axis] - 2 + offset)
        shifted.append(f[tuple(sl)])
    out[tuple(inner)] = (
        -shifted[0] + 8.0 * shifted[1] - 8.0 * shifted[2] + shifted[3]
    ) / (12.0 * h)
    return out


def _stencil_second(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order centered second derivative; NaN on the 2-deep margin."""
    out = np.full_like(f, np.nan)
    inner = [slice(None)] * f.ndim
    inner[axis] = slice(2, -2)
    shifted = []
    for offset in (2, 1, 0, -1, -2):
        sl = [slice(None)] * f.ndim
        sl[axis] = slice(2 + offset, f.shape[axis] - 2 + offset)
        shifted.append(f[tuple(sl)])
    out[tuple(inner)] = (
        -shifted[0]
        + 16.0 * shifted[1]
        - 30.0 * shifted[2]
        + 16.0 * shifted[3]
        - shifted[4]
    ) / (12.0 * h * h)
    return out


def grid_analyze(grid: GridField, full: bool = False) -> dict:
    """Finite-difference flow diagnostics at interior lattice nodes.

    Computes the velocity-gradient tensor with fourth-order centered
    stencils, then divergence, vorticity, strain, the planar split
    zeta^2/2 - trace(S^2), the pressure source -trace(M^2), and a
    classification count by the sign of the pressure source. With a
    pressure column, also the residual of Laplacian(p) against the source.
    """
    dim = grid.dim
    grad = [
        [_stencil_first(grid.velocity[i], j, grid.spacing[j]) for j in range(dim)]
        for i in range(dim)
    ]
    div = sum(grad[i][i] for i in range(dim))
    trace_m2 = sum(grad[i][j] * grad[j][i] for i in range(dim) for j in range(dim))
    strain_sq = sum(
        ((grad[i][j] + grad[j][i]) / 2.0) ** 2 for i in range(dim) for j in range(dim)
    )
    fields = {
        "div": div,
        "strain_sq": strain_sq,
        "neg_trace_m2": -trace_m2,
    }
    if dim == 2:
        zeta = grad[1][0] - grad[0][1]
        fields["vorticity"] = zeta
        fields["rhs"] = zeta * zeta / 2.0 - strain_sq
        candidate = fields["rhs"]
    else:
        fields["vorticity_x1"] = grad[2][1] - grad[1][2]
        fields["vorticity_x2"] = grad[0][2] - grad[2][0]
        fields["vorticity_x3"] = grad[1][0] - grad[0][1]
        candidate = fields["neg_trace_m2"]
    if grid.pressure is not None:
        lap_p = sum(
            _stencil_second(grid.pressure, k, grid.spacing[k]) for k in range(dim)
        )
        fields["pressure_residual"] = lap_p - candidate
    interior = ~np.isnan(div)
    if not np.any(interior):
        raise GridError("grid has no interior nodes; need at least 5 per axis")
    summary = {}
    for name, values in fields.items():
        inside = values[interior]
        summary[name] = {
            "min": float(np.min(inside)),
            "max": float(np.max(inside)),
            "mean": float(np.mean(inside)),
        }
    scale = max(1.0, float(np.max(np.abs(candidate[interior]))))
    threshold = 1e-8 * scale
    counts = {
        ELLIPTIC: int(np.sum(candidate[interior] > threshold)),
        HYPERBOLIC: int(np.sum(candidate[interior] < -threshold)),
        DEGENERATE: int(np.sum(np.abs(candidate[interior]) <= threshold)),
    }
    report = {
        "dim": dim,
        "shape": list(grid.shape),
        "spacing": list(grid.spacing),
        "interior_nodes": int(np.sum(interior)),
        "summary": summary,
        "counts": counts,
    }
    if full:
        nodes = []
        for flat in np.flatnonzero(interior.ravel()):
            idx = np.unravel_index(flat, grid.shape)
            entry = {"index": [int(i) for i in idx]}
            for name, values in fields.items():
                entry[name] = float(values[idx])
            nodes.append(entry)
        report["nodes"] = nodes
    return report
