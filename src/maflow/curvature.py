"""Pseudo-Riemannian curvature of coordinate metrics.

Christoffel symbols, Riemann and Ricci tensors are evaluated pointwise
from one exact order-2 jet per metric entry, with the inverse-metric
derivative folded in through d(g^-1) = -g^-1 (dg) g^-1.
Flatness is sampled, not proven: a NonFlat verdict is exact because the
derivatives are, while a Flat verdict holds on the sampled points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exterior import Peak, SymmetricTensorField, sampled_max
from .fieldexpr import Chart, ScalarField
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
    """Inverse metric; singular when inversion fails or leaves max|g g^-1 - I| > 1e-8.

    The residual bounds the relative error of the inverse and does not change
    when g is scaled, so a unimodular metric with large entries passes. A
    non-finite metric is left to fail the checks.
    """
    if not np.isfinite(values).all():
        return np.full_like(values, np.nan)
    try:
        inverse = np.linalg.inv(values)
    except np.linalg.LinAlgError:
        inverse = None
    if inverse is None or np.max(np.abs(values @ inverse - np.eye(len(values)))) > 1e-8:
        raise SingularMetricError(
            f"metric is singular at {tuple(float(c) for c in point)}"
        )
    return inverse


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


def _jets_at(tensor: SymmetricTensorField, point: Sequence[float]):
    """Metric, its inverse, and its first and second partials at a point.

    One order-2 jet per non-constant entry on or above the diagonal carries
    the value and every partial; d1[k] = d_k g and d2[k, m] = d_k d_m g.
    """
    n = tensor.chart.dim
    g = np.zeros((n, n))
    d1 = np.zeros((n, n, n))
    d2 = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(i, n):
            entry = tensor.entries[i][j]
            value = const_value(entry.ast)
            if value is not None:
                g[i, j] = g[j, i] = value
                continue
            partials = entry.jet(point, 2).partials
            g[i, j] = g[j, i] = partials[()]
            for k in range(n):
                d1[k, i, j] = d1[k, j, i] = partials[(k,)]
                for m in range(k, n):
                    v = partials[(k, m)]
                    d2[k, m, i, j] = d2[k, m, j, i] = d2[m, k, i, j] = d2[m, k, j, i] = v
    return g, _inverse(g, point), d1, d2


def _lowered(d1: np.ndarray) -> np.ndarray:
    # t[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    return (
        np.einsum("ijl->lij", d1)
        + np.einsum("jil->lij", d1)
        - d1
    )


def _riemann(ginv: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    t = _lowered(d1)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, t)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, d1, ginv)
    # dt[m, l, i, j] = d_m t[l, i, j]
    dt = np.einsum("mijl->mlij", d2) + np.einsum("mjil->mlij", d2) - d2
    dgamma = 0.5 * (
        np.einsum("mkl,lij->mkij", dginv, t)
        + np.einsum("kl,mlij->mkij", ginv, dt)
    )
    return (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )


def christoffel(
    g: MetricField | SymmetricTensorField, point: Sequence[float]
) -> np.ndarray:
    """Levi-Civita symbols Gamma[k][i][j] at a point, symmetric in (i, j)."""
    _, ginv, d1, _ = _jets_at(_tensor_of(g), point)
    return 0.5 * np.einsum("kl,lij->kij", ginv, _lowered(d1))


def riemann(
    g: MetricField | SymmetricTensorField, point: Sequence[float]
) -> np.ndarray:
    """Curvature R[l][i][j][k], antisymmetric in (i, j), first-Bianchi clean."""
    _, ginv, d1, d2 = _jets_at(_tensor_of(g), point)
    return _riemann(ginv, d1, d2)


def ricci(
    g: MetricField | SymmetricTensorField, point: Sequence[float]
) -> np.ndarray:
    """Contraction Ricci[j][k] = R[i][i][j][k]; symmetric."""
    return np.einsum("iijk->jk", riemann(g, point))


def _curvature_pass(
    g: MetricField | SymmetricTensorField, points: Sequence[Sequence[float]]
) -> tuple[Peak, Peak, dict]:
    """Riemann and Ricci peaks over the sample in one pass.

    Singular sample points are skipped and reported. The threshold is 1e-9
    times the metric scale, the largest metric entry but at least 1.
    """
    tensor = _tensor_of(g)
    singular = []

    def residual(p):
        try:
            values, ginv, d1, d2 = _jets_at(tensor, p)
        except SingularMetricError:
            singular.append(tuple(float(c) for c in p))
            return {}
        full = _riemann(ginv, d1, d2)
        return {"metric": values, "riemann": full, "ricci": np.einsum("iijk->jk", full)}

    peaks = sampled_max(points, residual).parts
    if not peaks:
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
