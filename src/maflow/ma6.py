"""Three-form structures on six-dimensional symplectic charts.

A degree-3 form omega on a 6-dimensional chart induces an endomorphism K
of the tangent space through the pairing

    e^j wedge i_{e_i}(omega) wedge omega = K[j][i] * vol,

a scalar invariant lambda = trace(K^2)/6, a symmetric pairing

    g(X, Y) = -(i_X(omega) wedge i_Y(omega) wedge Omega) / vol,

and a companion 3-form obtained by feeding K into the first slot of omega
and rescaling by |lambda|^(-1/2). Nondegenerate forms satisfy the operator
identity K^2 = lambda * Id; lambda > 0 gives an almost-product structure,
lambda < 0 an almost-complex one. The pairing slot order and the sign of g
are pinned by the catalog structures below and are used consistently by
every consumer in the package.

The module also carries the catalog: the unit-Hessian form, the special
Lagrangian form, the Burgers vortex family parameterized by a coefficient
a(x1, x2), the harmonic 3-form whose graph restriction is the Laplacian,
and the divergence-form pair (omega, theta) on the velocity chart whose
common vanishing on a velocity graph encodes an incompressible flow with
prescribed pressure Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .exterior import (
    DifferentialForm,
    GraphMap,
    OperatorField,
    SymmetricTensorField,
    VectorField,
    divergence,
    ext_derivative,
    interior_product,
    pullback,
    sampled_max,
    sup_norms,
    trace_m_squared,
    volume_form,
    wedge,
)
from .fieldexpr import Chart, ChartError, ScalarField, absval, sqrt
from .fieldexpr.nodes import const_value
from .fieldexpr.parse import parse_field

# |lambda| below this is a degenerate point of ``MAStructure6.compatibility``
DEGENERATE_CUT = 1e-10


class NondegeneracyViolation(ValueError):
    """The operator square of a 3-form is not a multiple of the identity,
    or a vanishing invariant blocks the requested construction."""


def momentum_chart() -> Chart:
    return Chart(("x1", "x2", "x3", "xi1", "xi2", "xi3"))


def velocity_chart() -> Chart:
    return Chart(("x1", "x2", "x3", "u1", "u2", "u3"))


def canonical_symplectic(chart: Chart) -> DifferentialForm:
    """dq1^dp1 + dq2^dp2 + dq3^dp3 with fibers in the last three slots."""
    if chart.dim != 6:
        raise ChartError("canonical symplectic form needs a 6-dimensional chart")
    return DifferentialForm.build(chart, 2, [((i, i + 3), 1.0) for i in range(3)])


def coefficient_field(a: ScalarField | str | float, chart: Chart) -> ScalarField:
    """Coerce a coefficient given as field, expression text, or number."""
    if isinstance(a, ScalarField):
        if a.chart != chart:
            raise ChartError("coefficient lives on a different chart")
        return a
    if isinstance(a, str):
        return parse_field(a, chart)
    return ScalarField.constant(chart, float(a))


def hitchin_tensor(omega: DifferentialForm) -> OperatorField:
    """Endomorphism K with e^j ^ i_{e_i}(omega) ^ omega = K[j][i] vol, where
    vol is the coordinate volume form of the chart.

    The probe covector sits in front; this slot order is what reproduces
    the catalog block matrices, and flipping it negates K globally.
    """
    chart = omega.chart
    if chart.dim != 6 or omega.degree != 3:
        raise ValueError("tensor construction needs a 3-form on a 6-dimensional chart")
    full = tuple(range(6))
    one = ScalarField.constant(chart, 1.0)
    zero = ScalarField.constant(chart, 0.0)
    rows = [[zero for _ in range(6)] for _ in range(6)]
    for i in range(6):
        five = wedge(interior_product(VectorField.basis(chart, i), omega), omega)
        if five.is_zero:
            continue
        for j in range(6):
            probe = DifferentialForm(chart, 1, {(j,): one})
            entry = wedge(probe, five).coeff(full)
            if not entry.is_zero:
                rows[j][i] = entry
    return OperatorField(chart, tuple(tuple(r) for r in rows))


def hitchin_pfaffian(omega: DifferentialForm) -> ScalarField:
    """Scalar invariant lambda = trace(K^2)/6.

    lambda = 0 is legal here (degenerate form) and only blocks downstream
    constructions that divide by it.
    """
    return _pfaffian_of(hitchin_tensor(omega))


def _pfaffian_of(tensor: OperatorField) -> ScalarField:
    return (tensor @ tensor).trace() * (1.0 / 6.0)


def _inv_sqrt_abs(field: ScalarField) -> ScalarField:
    """1/sqrt(|f|), folded to an exact constant when f is constant."""
    value = const_value(field.ast)
    if value is not None:
        return ScalarField.constant(field.chart, 1.0 / math.sqrt(abs(value)))
    return ScalarField.constant(field.chart, 1.0) / sqrt(absval(field))


def lr_metric6(omega: DifferentialForm, big_omega: DifferentialForm) -> SymmetricTensorField:
    """Symmetric pairing g(X, Y) = -(i_X(omega) ^ i_Y(omega) ^ Omega)/vol.

    The leading minus is part of the convention of record: it makes the
    unit-Hessian structure produce the off-diagonal identity pairing and
    the vortex family produce signature (3, 3).
    """
    chart = omega.chart
    if chart.dim != 6 or omega.degree != 3:
        raise ValueError("metric construction needs a 3-form on a 6-dimensional chart")
    if big_omega.chart != chart or big_omega.degree != 2:
        raise ValueError("the symplectic companion must be a 2-form on the same chart")
    full = tuple(range(6))
    zero = ScalarField.constant(chart, 0.0)
    slots = [interior_product(VectorField.basis(chart, i), omega) for i in range(6)]
    rows = [[zero for _ in range(6)] for _ in range(6)]
    for i in range(6):
        if slots[i].is_zero:
            continue
        for j in range(i, 6):
            entry = wedge(wedge(slots[i], slots[j]), big_omega).coeff(full)
            if entry.is_zero:
                continue
            entry = -entry
            rows[i][j] = entry
            rows[j][i] = entry
    return SymmetricTensorField(chart, tuple(tuple(r) for r in rows))


def lr_compatibility(
    omega: DifferentialForm,
    big_omega: DifferentialForm,
    points: Sequence[Sequence[float]],
) -> dict:
    """``compatibility`` of the structure (omega, big_omega)."""
    return MAStructure6(omega.chart, omega, big_omega).compatibility(points)


def hitchin_dual(omega: DifferentialForm) -> DifferentialForm:
    """Companion 3-form |lambda|^(-1/2) * omega(K X, Y, Z).

    K acts on the first slot only. For the vortex family this splits the
    form into two decomposable pieces via sum and difference.
    """
    tensor = hitchin_tensor(omega)
    return _dual_of(omega, tensor, _pfaffian_of(tensor))


def _dual_of(omega: DifferentialForm, tensor: OperatorField, lam: ScalarField) -> DifferentialForm:
    chart = omega.chart
    if lam.is_zero:
        raise NondegeneracyViolation("invariant vanishes identically; no dual form")
    scale = _inv_sqrt_abs(lam)
    items = []
    for key in combinations(range(6), 3):
        i, j, k = key
        acc = ScalarField.constant(chart, 0.0)
        for m in range(6):
            entry = tensor.rows[m][i]
            if entry.is_zero:
                continue
            base = omega.coeff((m, j, k))
            if base.is_zero:
                continue
            acc = acc + entry * base
        if not acc.is_zero:
            items.append((key, acc * scale))
    return DifferentialForm.build(chart, 3, items)


def integrability6(
    omega: DifferentialForm,
    big_omega: DifferentialForm,
    points: Sequence[Sequence[float]],
) -> dict:
    """Closure of the rescaled form and of its dual, plus metric flatness.

    The form is rescaled by |lambda|^(-1/4) before both closure checks.
    Flatness of the metric is sampled through the curvature module and
    reported with its own verdict.
    """
    from .curvature import flatness_verdict

    lam = hitchin_pfaffian(omega)
    if lam.is_zero:
        raise NondegeneracyViolation("invariant vanishes identically")
    quarter = _inv_sqrt_abs(lam)
    value = const_value(quarter.ast)
    if value is not None:
        scale = ScalarField.constant(omega.chart, math.sqrt(value))
    else:
        scale = sqrt(quarter)
    omega_n = omega * scale
    dual_n = hitchin_dual(omega_n)
    closure, dual_closure = sup_norms(
        points, ext_derivative(omega_n), ext_derivative(dual_n)
    )
    return {
        "closure_residual": closure,
        "dual_closure_residual": dual_closure,
        "flatness": flatness_verdict(lr_metric6(omega, big_omega), points),
    }


@dataclass(frozen=True)
class MAStructure6:
    """Effective 3-form together with the ambient symplectic form."""

    chart: Chart
    omega: DifferentialForm
    big_omega: DifferentialForm

    def __post_init__(self):
        if self.omega.chart != self.chart or self.big_omega.chart != self.chart:
            raise ChartError("forms must live on the structure chart")
        if self.omega.degree != 3 or self.big_omega.degree != 2:
            raise ValueError("structure needs a 3-form and a 2-form")

    def effectivity(self) -> DifferentialForm:
        """omega ^ Omega; identically zero exactly when omega is effective."""
        return wedge(self.omega, self.big_omega)

    @cached_property
    def tensor(self) -> OperatorField:
        return hitchin_tensor(self.omega)

    @cached_property
    def pfaffian(self) -> ScalarField:
        return _pfaffian_of(self.tensor)

    @cached_property
    def metric(self) -> SymmetricTensorField:
        return lr_metric6(self.omega, self.big_omega)

    def dual(self) -> DifferentialForm:
        return _dual_of(self.omega, self.tensor, self.pfaffian)

    def compatibility(self, points: Sequence[Sequence[float]]) -> dict:
        """Residual of g(A X, Y) = Omega(X, Y) with A = -sign(lambda) K/sqrt(|lambda|).

        The metric enters normalized by sqrt(|lambda|); the single sign
        constant is frozen against the unit-Hessian structure. Equivalent
        polynomial-exact statement: g(K X, Y) = -lambda * Omega(X, Y). Points
        where |lambda| falls below ``DEGENERATE_CUT`` are skipped and listed
        in ``degenerate_points``.
        """
        degenerate = []

        def residual(sample, lv, kmat, gmat, bmat):
            skip = np.abs(lv) < DEGENERATE_CUT
            degenerate.extend(tuple(float(c) for c in p) for p in sample[skip])
            root = np.sqrt(np.abs(lv))[:, np.newaxis, np.newaxis]
            amat = -np.copysign(1.0, lv)[:, np.newaxis, np.newaxis] * kmat / root
            gnorm = gmat / root
            out = np.swapaxes(amat, 1, 2) @ gnorm - bmat
            out[skip] = 0.0
            return out

        worst = sampled_max(
            points, residual, self.pfaffian, self.tensor, self.metric, self.big_omega
        ).value
        return {
            "max_residual": worst,
            "samples": len(points),
            "degenerate_points": degenerate,
        }


def hessian_one_structure(chart: Chart | None = None) -> MAStructure6:
    """dxi1^dxi2^dxi3 - dx1^dx2^dx3; graph restriction is hess(f) = 1."""
    chart = chart if chart is not None else momentum_chart()
    omega = DifferentialForm.build(chart, 3, [((3, 4, 5), 1.0), ((0, 1, 2), -1.0)])
    return MAStructure6(chart, omega, canonical_symplectic(chart))


def special_lagrangian_structure(chart: Chart | None = None) -> MAStructure6:
    """Imaginary part of (dx1+i dxi1)^(dx2+i dxi2)^(dx3+i dxi3)."""
    chart = chart if chart is not None else momentum_chart()
    omega = DifferentialForm.build(
        chart,
        3,
        [((1, 2, 3), 1.0), ((0, 2, 4), -1.0), ((0, 1, 5), 1.0), ((3, 4, 5), -1.0)],
    )
    return MAStructure6(chart, omega, canonical_symplectic(chart))


def burgers_threeform(a: ScalarField | str | float, chart: Chart | None = None) -> DifferentialForm:
    """dxi1^dxi2^dx3 + dx1^dx2^dxi3 - a dx1^dx2^dx3 with a = a(x1, x2)."""
    chart = chart if chart is not None else momentum_chart()
    coeff = coefficient_field(a, chart)
    return DifferentialForm.build(
        chart, 3, [((2, 3, 4), 1.0), ((0, 1, 5), 1.0), ((0, 1, 2), -coeff)]
    )


def burgers_structure(a: ScalarField | str | float, chart: Chart | None = None) -> MAStructure6:
    chart = chart if chart is not None else momentum_chart()
    return MAStructure6(chart, burgers_threeform(a, chart), canonical_symplectic(chart))


def laplace_threeform(chart: Chart | None = None) -> DifferentialForm:
    """Harmonic 3-form: restriction to a gradient graph is the Laplacian."""
    chart = chart if chart is not None else momentum_chart()
    return DifferentialForm.build(
        chart, 3, [((1, 2, 3), 1.0), ((0, 2, 4), -1.0), ((0, 1, 5), 1.0)]
    )


@dataclass(frozen=True)
class EulerPair6:
    """Pair of 3-forms on the velocity chart encoding incompressible flow.

    omega carries the pressure coefficient a = (Laplacian p)/2; theta is the
    divergence form. A velocity graph annihilating both is an incompressible
    flow whose pressure satisfies the prescribed Poisson equation.
    """

    chart: Chart
    a: ScalarField
    omega: DifferentialForm
    theta: DifferentialForm
    big_omega: DifferentialForm

    @property
    def vol(self) -> DifferentialForm:
        return volume_form(self.chart)

    def product_defect(self) -> DifferentialForm:
        """theta ^ omega - 3 vol; zero for every coefficient a.

        Odd-degree forms anticommute, so the reversed product carries the
        opposite sign: omega ^ theta = -3 vol.
        """
        return wedge(self.theta, self.omega) - self.vol * 3.0

    def effectivity(self) -> tuple[DifferentialForm, DifferentialForm]:
        return (
            wedge(self.omega, self.big_omega),
            wedge(self.theta, self.big_omega),
        )


def euler_pair(a: ScalarField | str | float, chart: Chart | None = None) -> EulerPair6:
    chart = chart if chart is not None else velocity_chart()
    coeff = coefficient_field(a, chart)
    omega = DifferentialForm.build(
        chart,
        3,
        [((0, 1, 2), coeff), ((2, 3, 4), -1.0), ((1, 3, 5), 1.0), ((0, 4, 5), -1.0)],
    )
    theta = DifferentialForm.build(
        chart, 3, [((1, 2, 3), 1.0), ((0, 2, 4), -1.0), ((0, 1, 5), 1.0)]
    )
    return EulerPair6(chart, coeff, omega, theta, canonical_symplectic(chart))


def pair_tensors(pair: EulerPair6) -> tuple[OperatorField, OperatorField]:
    return hitchin_tensor(pair.omega), hitchin_tensor(pair.theta)


def pair_metrics(pair: EulerPair6) -> tuple[SymmetricTensorField, SymmetricTensorField]:
    return (
        lr_metric6(pair.omega, pair.big_omega),
        lr_metric6(pair.theta, pair.big_omega),
    )


def euler_pair_relations(pair: EulerPair6, points: Sequence[Sequence[float]]) -> dict:
    """Pointwise residuals of the block-matrix algebra of the pair.

    Checks K_omega^2 = -4a Id, K_theta^2 = 0, the anticommutator -4 Id,
    the commutator 4 diag(-Id, Id), the two metrics diag(2a Id, 2 Id) and
    diag(2 Id, 0), and the product identity theta ^ omega = 3 vol.
    """
    k_omega, k_theta = pair_tensors(pair)
    g_omega, g_theta = pair_metrics(pair)
    ko2 = k_omega @ k_omega
    kt2 = k_theta @ k_theta
    anti = k_omega @ k_theta + k_theta @ k_omega
    comm = k_omega @ k_theta - k_theta @ k_omega
    eye3 = np.eye(3)
    zero3 = np.zeros((3, 3))
    comm_target = 4.0 * np.block([[-eye3, zero3], [zero3, eye3]])
    anti_target = -4.0 * np.eye(6)
    product = pair.product_defect()

    g_theta_target = np.block([[2.0 * eye3, zero3], [zero3, zero3]])

    def residual(sample, av, ko2_v, kt2_v, anti_v, comm_v, g_omega_v, g_theta_v, product_v):
        av = av[:, np.newaxis, np.newaxis]
        ko2_target = -4.0 * av * np.eye(6)
        g_omega_target = np.zeros((len(sample), 6, 6))
        g_omega_target[:, :3, :3] = 2.0 * av * eye3
        g_omega_target[:, 3:, 3:] = 2.0 * eye3
        return {
            "k_omega_square": ko2_v - ko2_target,
            "k_theta_square": kt2_v,
            "anticommutator": anti_v - anti_target,
            "commutator": comm_v - comm_target,
            "g_omega": g_omega_v - g_omega_target,
            "g_theta": g_theta_v - g_theta_target,
            "product": product_v,
        }

    peak = sampled_max(
        points, residual, pair.a, ko2, kt2, anti, comm, g_omega, g_theta,
        list(product.terms.values()),
    )
    residuals = {name: part.value for name, part in peak.parts.items()}
    return {"residuals": residuals, "max_residual": peak.value}


def velocity_graph(u: VectorField, phase: Chart | None = None) -> GraphMap:
    """Section x -> (x, u(x)) of the velocity chart over the spatial base."""
    base = u.chart
    if base.dim != 3:
        raise ChartError("velocity graph needs a 3-dimensional base chart")
    phase = phase if phase is not None else velocity_chart()
    coords = tuple(ScalarField.coordinate(base, i) for i in range(3))
    return GraphMap(base, phase, coords + tuple(u.components))


def verify_bilagrangian(
    pair: EulerPair6,
    u: VectorField,
    points: Sequence[Sequence[float]],
) -> dict:
    """Pull the pair back along the velocity graph; both pullbacks should vanish.

    Cross-checks the fluid-dynamic reading: the theta pullback equals
    div(u) times the base volume, and for divergence-free u the omega
    pullback vanishes exactly when trace(M^2) = -2a for the velocity
    gradient M.
    """
    graph = velocity_graph(u, pair.chart)
    omega_pull = pullback(pair.omega, graph)
    theta_pull = pullback(pair.theta, graph)
    pressure = graph.pull_scalar(pair.a) * 2.0 + trace_m_squared(u)
    div = divergence(u)
    omega_residual, theta_residual, div_residual, pressure_residual = sup_norms(
        points, omega_pull, theta_pull, div, pressure
    )
    return {
        "omega_residual": omega_residual,
        "theta_residual": theta_residual,
        "div_residual": div_residual,
        "pressure_residual": pressure_residual,
    }
