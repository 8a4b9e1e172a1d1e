"""Pseudo-Riemannian curvature of coordinate metrics.

Christoffel symbols, Riemann and Ricci tensors come from one exact order-2
jet per metric entry, with the inverse-metric derivative folded in through
d(g^-1) = -g^-1 (dg) g^-1. The sampled checks work on the (N, dim) slices
that ``sampled_max`` hands them: one batched jet walk per slice for all the
non-constant entries, one stacked inverse and stacked matrix products per
``CONTRACT`` points. The functions at a single point run the same code on a
one-point sample.
Flatness is sampled, not proven: a NonFlat verdict is exact because the
derivatives are, while a Flat verdict holds on the sampled points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exterior import Peak, SymmetricTensorField, sampled_max
from .fieldexpr import Chart, ScalarField, jets
from .fieldexpr.nodes import const_value
from .ma6 import coefficient_field, momentum_chart


class SingularMetricError(ValueError):
    """Metric determinant vanishes at an evaluation point."""


@dataclass(frozen=True)
class MetricField:
    """Nondegenerate symmetric tensor; determinant checked at each point."""

    g: SymmetricTensorField
    chart: Chart

    def __post_init__(self):
        if self.g.chart != self.chart:
            raise ValueError("tensor chart does not match metric chart")

    @classmethod
    def from_tensor(cls, g: SymmetricTensorField) -> "MetricField":
        return cls(g, g.chart)

    @classmethod
    def from_rows(cls, chart: Chart, rows) -> "MetricField":
        return cls(SymmetricTensorField.from_rows(chart, rows), chart)

    def eval(self, point: Sequence[float]) -> np.ndarray:
        values = self.g.eval(point)
        _inverse(values, point)
        return values


def _tensor_of(g: MetricField | SymmetricTensorField) -> SymmetricTensorField:
    return g.g if isinstance(g, MetricField) else g


def _inverse(values: np.ndarray, point: Sequence[float]) -> np.ndarray:
    """Inverse metric at a point; raises SingularMetricError (see _inverses)."""
    inverse, singular = _inverses(values[np.newaxis])
    if singular[0]:
        raise SingularMetricError(
            f"metric is singular at {tuple(float(c) for c in point)}"
        )
    return inverse[0]


def _inverses(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metrics of an (N, n, n) stack, and which of them are singular.

    A metric is singular when inversion fails or leaves max|g g^-1 - I|
    above 1e-8 or NaN (an inverse that overflows). The residual bounds the
    relative error of the inverse and does not change when g is scaled, so
    a unimodular metric with large entries passes. A non-finite metric gets
    a NaN inverse and is left to fail the checks.
    """
    finite = np.isfinite(g).all(axis=(1, 2))
    inverse = np.full_like(g, np.nan)
    singular = np.zeros(len(g), dtype=bool)
    rows = np.flatnonzero(finite)
    try:
        inverse[rows] = np.linalg.inv(g[rows])
    except np.linalg.LinAlgError:
        # one exactly singular matrix fails the whole stack: invert one at a time
        for r in rows:
            try:
                inverse[r] = np.linalg.inv(g[r])
            except np.linalg.LinAlgError:
                singular[r] = True
    eye = np.eye(g.shape[-1])
    with np.errstate(all="ignore"):
        residual = np.max(np.abs(g[rows] @ inverse[rows] - eye), axis=(1, 2))
    singular[rows] |= ~(residual <= 1e-8)
    return inverse, singular


def burgers_metric(a: ScalarField | str | float) -> MetricField:
    """Pseudo-metric of the stretched-vortex 3-form on the momentum chart.

    Equals 2a dx3@dx3 + dx1@dxi1 + dxi1@dx1 + dx2@dxi2 + dxi2@dx2
    - dx3@dxi3 - dxi3@dx3 with a = a(x1, x2); signature (3, 3) wherever
    the coefficient is finite.
    """
    chart = momentum_chart()
    if isinstance(a, ScalarField) and a.chart != chart and a.chart.dim == 2:
        x1 = ScalarField.coordinate(chart, 0)
        x2 = ScalarField.coordinate(chart, 1)
        a = a.compose(chart, (x1, x2))
    a_field = coefficient_field(a, chart)
    zero = ScalarField.constant(chart, 0.0)
    one = ScalarField.constant(chart, 1.0)
    rows = [[zero] * 6 for _ in range(6)]
    rows[0][3] = rows[3][0] = one
    rows[1][4] = rows[4][1] = one
    rows[2][5] = rows[5][2] = -one
    rows[2][2] = a_field * 2.0
    return MetricField.from_rows(chart, rows)


def _metric_jets(tensor: SymmetricTensorField, sample: np.ndarray):
    """The metric's constant part and the jets of its other entries over a sample.

    Returns the (n, n) matrix of the constant entries and, for each
    non-constant entry on or above the diagonal, (i, j, value, gradient,
    Hessian) with the point on axis 0. The order-2 jets of those entries
    come from one batched walk.
    """
    n = tensor.chart.dim
    base = np.zeros((n, n))
    slots, fields = [], []
    for i in range(n):
        for j in range(i, n):
            entry = tensor.entries[i][j]
            value = const_value(entry.ast)
            if value is None:
                slots.append((i, j))
                fields.append(entry)
            else:
                base[i, j] = base[j, i] = value
    found = jets(fields, sample, 2)
    varying = [(i, j, jet.value, jet.gradient(), jet.hessian()) for (i, j), jet in zip(slots, found)]
    return base, varying


def _stacks(base: np.ndarray, varying: list, rows: slice):
    """g, d1 and d2 at the rows of the sample: d1[:, k] = d_k g, d2[:, k, m] = d_k d_m g."""
    size, n = rows.stop - rows.start, len(base)
    g = np.repeat(base[np.newaxis], size, axis=0)
    d1 = np.zeros((size, n, n, n))
    d2 = np.zeros((size, n, n, n, n))
    for i, j, value, gradient, hessian in varying:
        g[:, i, j] = g[:, j, i] = value[rows]
        d1[:, :, i, j] = d1[:, :, j, i] = gradient[rows]
        d2[:, :, :, i, j] = d2[:, :, :, j, i] = hessian[rows]
    return g, d1, d2


def _jets_at(tensor: SymmetricTensorField, point: Sequence[float]):
    """Metric, its inverse, and its first and second partials at a point."""
    g, d1, d2 = _stacks(*_metric_jets(tensor, np.array([point], dtype=float)), slice(0, 1))
    return g[0], _inverse(g[0], point), d1[0], d2[0]


def _lowered(d1: np.ndarray) -> np.ndarray:
    # t[:, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    return d1.transpose(0, 3, 1, 2) + d1.transpose(0, 3, 2, 1) - d1


def _christoffel(ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    # gamma[:, k, i, j] = 1/2 g^kl t[:, l, i, j]
    size, n = ginv.shape[:2]
    return 0.5 * (ginv @ t.reshape(size, n, n * n)).reshape(t.shape)


def _riemann(ginv: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """R[:, l, i, j, k] over a stack, contracted as stacked matrix products."""
    size, n = ginv.shape[:2]
    t = _lowered(d1)
    gamma = _christoffel(ginv, t)
    # dginv[:, m] = d_m g^-1 = -g^-1 (d_m g) g^-1
    dginv = -(ginv[:, np.newaxis] @ d1 @ ginv[:, np.newaxis])
    # dt[:, m, l, i, j] = d_m t[:, l, i, j]
    dt = d2.transpose(0, 1, 4, 2, 3) + d2.transpose(0, 1, 4, 3, 2)
    dt -= d2
    # dgamma[:, m, k, i, j] = d_m gamma[:, k, i, j]
    dgamma = dginv @ t.reshape(size, 1, n, n * n)
    dgamma += ginv[:, np.newaxis] @ dt.reshape(size, n, n, n * n)
    dgamma *= 0.5
    dgamma = dgamma.reshape(dt.shape)
    # gg[:, l, i, j, k] = gamma[:, l, i, m] gamma[:, m, j, k]
    gg = (gamma.reshape(size, n * n, n) @ gamma.reshape(size, n, n * n)).reshape(dt.shape)
    full = dgamma.transpose(0, 2, 1, 3, 4) - dgamma.transpose(0, 2, 3, 1, 4)
    full += gg
    full -= gg.transpose(0, 1, 3, 2, 4)
    return full


def _ricci(full: np.ndarray) -> np.ndarray:
    return np.einsum("niijk->njk", full)


def christoffel(
    g: MetricField | SymmetricTensorField, point: Sequence[float]
) -> np.ndarray:
    """Levi-Civita symbols Gamma[k][i][j] at a point, symmetric in (i, j)."""
    _, ginv, d1, _ = _jets_at(_tensor_of(g), point)
    return _christoffel(ginv[np.newaxis], _lowered(d1[np.newaxis]))[0]


def riemann(
    g: MetricField | SymmetricTensorField, point: Sequence[float]
) -> np.ndarray:
    """Curvature R[l][i][j][k], antisymmetric in (i, j), first-Bianchi clean."""
    _, ginv, d1, d2 = _jets_at(_tensor_of(g), point)
    return _riemann(ginv[np.newaxis], d1[np.newaxis], d2[np.newaxis])[0]


def ricci(
    g: MetricField | SymmetricTensorField, point: Sequence[float]
) -> np.ndarray:
    """Contraction Ricci[j][k] = R[i][i][j][k]; symmetric."""
    return _ricci(riemann(g, point)[np.newaxis])[0]


# points per stacked contraction. Each point carries a dozen n^4 temporaries;
# over a 20 s curvature-6d benchmark run (2-vCPU x86 VM) 8, 16 and 32 points
# ran at the same speed and raised the peak RSS by 0.2, 0.8 and 2.2 MB
CONTRACT = 16


def _curvature_pass(
    g: MetricField | SymmetricTensorField, points: Sequence[Sequence[float]]
) -> tuple[Peak, Peak, dict]:
    """Riemann and Ricci peaks over the sample in one pass.

    Singular sample points are skipped and reported. The threshold is 1e-9
    times the metric scale, the largest metric entry but at least 1.
    """
    tensor = _tensor_of(g)
    singular = []

    def residual(sample):
        # per point, the largest entry of each tensor; a singular point adds zeros
        base, varying = _metric_jets(tensor, sample)
        peaks = np.zeros((len(sample), 3))
        for start in range(0, len(sample), CONTRACT):
            rows = slice(start, min(start + CONTRACT, len(sample)))
            g, d1, d2 = _stacks(base, varying, rows)
            ginv, skip = _inverses(g)
            singular.extend(tuple(p) for p in sample[rows][skip].tolist())
            if skip.all():
                continue
            keep = ~skip
            full = _riemann(ginv[keep], d1[keep], d2[keep])
            for k, part in enumerate((g[keep], full, _ricci(full))):
                peaks[rows, k][keep] = np.max(np.abs(part).reshape(len(part), -1), axis=1)
        return {"metric": peaks[:, 0], "riemann": peaks[:, 1], "ricci": peaks[:, 2]}

    peaks = sampled_max(points, residual).parts
    if len(singular) == len(points):
        raise SingularMetricError("metric is singular at every sample point")
    common = {
        "threshold": 1e-9 * max(1.0, peaks["metric"].value),
        "mode": "sampled flatness",
        "points_checked": len(points) - len(singular),
        "singular_points": singular,
    }
    return peaks["riemann"], peaks["ricci"], common


def _verdict(peak: Peak, common: dict, labels: tuple[str, str]) -> dict:
    ok = peak.value < common["threshold"]
    return {
        "verdict": labels[0] if ok else labels[1],
        "max_entry": peak.value,
        "witness": None if ok else peak.witness,
        **common,
    }


_FLAT = ("Flat", "NonFlat")
_RICCI_FLAT = ("RicciFlat", "NonRicciFlat")


def flatness_verdict(
    g: MetricField | SymmetricTensorField, points: Sequence[Sequence[float]]
) -> dict:
    """Sampled verdict on the full curvature tensor.

    Flat iff max |Riemann| over the sample is below 1e-9 times the metric
    scale. Singular sample points are skipped and reported.
    """
    riemann_peak, _, common = _curvature_pass(g, points)
    return _verdict(riemann_peak, common, _FLAT)


def ricci_flat_verdict(
    g: MetricField | SymmetricTensorField, points: Sequence[Sequence[float]]
) -> dict:
    """Sampled verdict on the Ricci contraction, same thresholds as flatness."""
    _, ricci_peak, common = _curvature_pass(g, points)
    return _verdict(ricci_peak, common, _RICCI_FLAT)


def curvature_report(
    g: MetricField | SymmetricTensorField, points: Sequence[Sequence[float]]
) -> dict:
    """Riemann and Ricci maxima with both sampled verdicts, for reporting."""
    riemann_peak, ricci_peak, common = _curvature_pass(g, points)
    flat = _verdict(riemann_peak, common, _FLAT)
    ricci_flat = _verdict(ricci_peak, common, _RICCI_FLAT)
    return {
        "riemann_max": riemann_peak.value,
        "ricci_max": ricci_peak.value,
        **common,
        "verdicts": {"flat": flat["verdict"], "ricci_flat": ricci_flat["verdict"]},
        "witnesses": {"riemann": flat["witness"], "ricci": ricci_flat["witness"]},
    }
