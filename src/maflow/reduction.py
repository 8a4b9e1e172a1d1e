"""Symmetry reduction of phase-space structures along translation actions.

A constant vector field X on a 6-dimensional symplectic chart generates a
translation flow. Forms invariant under the flow drop to the 4-dimensional
quotient: the reduced form is the interior product with X pulled back along
a slice embedding of the quotient chart into a level set of the moment map.
The module covers the harmonic 3-form (reducing to the planar Laplace
structure), the sheared translation acting on the divergence-form pair,
the straightening change of variables on the reduced pair, and the
decomposition of the Burgers vortex 3-form transverse to its own tensor
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exterior import (
    DifferentialForm,
    GraphMap,
    SymmetricTensorField,
    VectorField,
    interior_product,
    lie_derivative,
    pullback,
    sampled_max,
    sup_norm,
    wedge,
)
from .fieldexpr import Chart, ChartError, ScalarField, eval_many
from .fieldexpr.nodes import const_value
from .ma4 import MAStructure4, phase_chart
from .ma6 import (
    burgers_threeform,
    canonical_symplectic,
    coefficient_field,
    euler_pair,
    hitchin_tensor,
    laplace_threeform,
    momentum_chart,
    velocity_chart,
)


class InvarianceError(ValueError):
    """A form fed to the reduction is not invariant under the action."""


_PROBE_POINTS = ((0.0, 0.0, 0.0, 0.0), (1.0, -1.0, 0.5, 2.0), (0.3, 0.7, -1.2, 0.9))


def moment_map(big_omega: DifferentialForm, x: VectorField) -> ScalarField:
    """Linear moment mu with i_X(Omega) = -d(mu), additive constant zero."""
    if big_omega.chart != x.chart:
        raise ChartError("vector field and form live on different charts")
    chart = x.chart
    for comp in x.components:
        if const_value(comp.ast) is None:
            raise ValueError("moment map needs a constant generator")
    contraction = interior_product(x, big_omega)
    moment = ScalarField.constant(chart, 0.0)
    for (i,), coeff in contraction.terms.items():
        value = const_value(coeff.ast)
        if value is None:
            raise ValueError("contraction is not constant; no linear moment map")
        moment = moment - ScalarField.coordinate(chart, i) * value
    return moment


@dataclass(frozen=True)
class TranslationAction:
    """Constant generator, its moment map, and a slice of a level set."""

    generator: VectorField
    moment: ScalarField
    level: float
    slice_map: GraphMap

    def __post_init__(self):
        if all(c.is_zero for c in self.generator.components):
            raise ValueError("generator must be nonzero")
        if self.slice_map.codomain != self.generator.chart:
            raise ChartError("slice must land in the chart of the generator")
        pulled = eval_many([self.slice_map.pull_scalar(self.moment)], _PROBE_POINTS)[0]
        if np.any(np.abs(pulled - self.level) > 1e-12):
            raise ValueError("slice does not sit inside the moment level set")

    @property
    def reduced_chart(self) -> Chart:
        return self.slice_map.domain


def _level_slice(reduced: Chart, chart: Chart, fiber: float) -> GraphMap:
    """Embed the 4-d quotient chart in the 6-d chart at x3 = 0, last coordinate = fiber."""
    coords = [ScalarField.coordinate(reduced, i) for i in range(4)]
    zero = ScalarField.constant(reduced, 0.0)
    last = ScalarField.constant(reduced, fiber)
    return GraphMap(reduced, chart, (coords[0], coords[1], zero, coords[2], coords[3], last))


def laplace_action(c: float = 0.0) -> TranslationAction:
    """Translation along x3 on the momentum chart; slice xi3 = -c at x3 = 0."""
    chart = momentum_chart()
    x = VectorField.basis(chart, 2)
    slice_map = _level_slice(Chart(("x1", "x2", "xi1", "xi2")), chart, -c)
    return TranslationAction(x, moment_map(canonical_symplectic(chart), x), c, slice_map)


def shear_action(gamma: float, c: float = 0.0) -> TranslationAction:
    """Translation along x3 sheared into u3 with rate gamma; slice u3 = -c."""
    chart = velocity_chart()
    comps = [0.0, 0.0, 1.0, 0.0, 0.0, float(gamma)]
    x = VectorField.from_constants(chart, comps)
    slice_map = _level_slice(phase_chart(), chart, -c)
    return TranslationAction(x, moment_map(canonical_symplectic(chart), x), c, slice_map)


def check_invariance(
    form: DifferentialForm, x: VectorField, points: Sequence[Sequence[float]]
) -> dict:
    """Residual of the Lie derivative of the form along the generator."""
    lie = lie_derivative(x, form)
    structural = lie.is_zero
    residual = 0.0 if structural else sup_norm(lie, points)
    return {"structural": structural, "max_residual": residual, "passed": residual < 1e-10}


def reduce_form(
    form: DifferentialForm,
    action: TranslationAction,
    points: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-10,
) -> DifferentialForm:
    """Reduced form on the quotient chart: pullback of i_X(form) to the slice."""
    lie = lie_derivative(action.generator, form)
    if not lie.is_zero:
        if points is None:
            raise InvarianceError("form is not structurally invariant; supply sample points")
        peak = sampled_max(points, lambda sample: eval_many(list(lie.terms.values()), sample).T)
        if peak.value >= tol:
            raise InvarianceError(
                f"form is not invariant: residual {peak.value:.3e} at {peak.witness}"
            )
    return pullback(interior_product(action.generator, form), action.slice_map)


def laplace_reduction(c: float = 0.0) -> dict:
    """Drop the harmonic 3-form to the plane; the result is elliptic."""
    action = laplace_action(c)
    chart6 = action.generator.chart
    omega_c = reduce_form(laplace_threeform(chart6), action)
    big_omega_c = pullback(canonical_symplectic(chart6), action.slice_map)
    structure = MAStructure4(action.reduced_chart, omega_c, big_omega_c)
    return {
        "action": action,
        "omega_c": omega_c,
        "big_omega_c": big_omega_c,
        "structure": structure,
    }


def shear_pair_reduction(
    a: ScalarField | str | float, gamma: float, c: float = 0.0
) -> dict:
    """Reduce the divergence-form pair along the sheared translation."""
    action = shear_action(gamma, c)
    pair = euler_pair(a, action.generator.chart)
    omega_c = reduce_form(pair.omega, action)
    theta_c = reduce_form(pair.theta, action)
    return {"action": action, "pair": pair, "omega_c": omega_c, "theta_c": theta_c}


def change_variables_64(
    omega_c: DifferentialForm,
    theta_c: DifferentialForm,
    gamma: float,
    points: Sequence[Sequence[float]],
    tol: float = 1e-10,
) -> dict:
    """Straighten the reduced pair by a linear fiber shear.

    The substitution keeps the base coordinates and maps the fibers by
    u1 -> -(gamma/2) x1 - u2, u2 -> u1 - (gamma/2) x2. It turns theta_c into
    the canonical symplectic form and omega_c into
    (a + 3 gamma^2/4) dx1^dx2 - du1^du2 minus gamma/2 times the new theta.
    """
    chart = omega_c.chart
    if theta_c.chart != chart:
        raise ChartError("the two reduced forms live on different charts")
    x1 = ScalarField.coordinate(chart, 0)
    x2 = ScalarField.coordinate(chart, 1)
    u1 = ScalarField.coordinate(chart, 2)
    u2 = ScalarField.coordinate(chart, 3)
    half = 0.5 * float(gamma)
    phi = GraphMap(chart, chart, (x1, x2, -(x1 * half) - u2, u1 - (x2 * half)))
    theta_prime = pullback(theta_c, phi)
    canonical = DifferentialForm.build(chart, 2, [((0, 2), 1.0), ((1, 3), 1.0)])
    omega_pull = pullback(omega_c, phi)
    omega0 = omega_pull + theta_prime * half
    a_field = phi.pull_scalar(omega_c.coeff((0, 1)))
    display = DifferentialForm.build(
        chart,
        2,
        [((0, 1), a_field + 0.75 * float(gamma) ** 2), ((2, 3), -1.0)],
    )
    residual_tc = sup_norm(theta_prime - canonical, points)
    residual_oc = sup_norm(omega_pull - (display - canonical * half), points)
    residual_o0 = sup_norm(omega0 - display, points)
    worst = max(residual_tc, residual_oc, residual_o0)
    if worst >= tol:
        raise ValueError(f"change of variables failed: residual {worst:.3e}")
    return {
        "theta_prime": theta_prime,
        "omega0": omega0,
        "display": display,
        "residual_tc": residual_tc,
        "residual_oc": residual_oc,
        "residual_o0": residual_o0,
    }


def burgers_decomposition(
    a: ScalarField | str | float,
    points: Sequence[Sequence[float]],
    tol: float = 1e-12,
) -> dict:
    """Split the vortex 3-form transverse to X = d/dx3 and Y = K(X).

    Verifies Omega(X, Y) = 2a, the splitting of the symplectic form as
    Omega_c - (1/2a) i_Y(Omega) ^ i_X(Omega), the splitting of the 3-form
    as pi1 ^ i_Y(Omega) + pi2 ^ i_X(Omega), and that the transverse pieces
    rescaled by -2a reproduce the planar structure with coefficient a and
    its companion under the reduced pairing.
    """
    chart = momentum_chart()
    a_field = coefficient_field(a, chart)
    vanishing = np.abs(eval_many([a_field], points)[0]) < 1e-12
    if vanishing.any():
        p = points[int(vanishing.argmax())]
        raise ValueError(f"coefficient vanishes at sample point {tuple(p)}")
    pi_form = burgers_threeform(a_field, chart)
    big_omega = canonical_symplectic(chart)
    x = VectorField.basis(chart, 2)
    tensor = hitchin_tensor(pi_form)
    y = tensor.apply(x)
    pairing = interior_product(y, interior_product(x, big_omega)).coeff(())
    def pairing_defect(sample):
        pairing_values, a_values = eval_many([pairing, a_field], sample)
        return pairing_values - 2.0 * a_values

    pairing_residual = sampled_max(points, pairing_defect).value
    i_x = interior_product(x, big_omega)
    i_y = interior_product(y, big_omega)
    half = ScalarField.constant(chart, 0.5)
    inv_2a = half / a_field
    omega_c6 = DifferentialForm.build(chart, 2, [((0, 3), 1.0), ((1, 4), 1.0)])
    pi1 = DifferentialForm.build(chart, 2, [((3, 4), -inv_2a), ((0, 1), half)])
    pi2 = DifferentialForm.build(chart, 2, [((3, 4), inv_2a), ((0, 1), half)])
    omega_split = big_omega - (omega_c6 - wedge(i_y, i_x) * inv_2a)
    pi_split = pi_form - (wedge(pi1, i_y) + wedge(pi2, i_x))
    omega_split_residual = sup_norm(omega_split, points)
    pi_split_residual = sup_norm(pi_split, points)

    reduced_chart = Chart(("x1", "x2", "xi1", "xi2"))
    slice_map = _level_slice(reduced_chart, chart, 0.0)
    a4 = slice_map.pull_scalar(a_field)
    omega_r = DifferentialForm.build(reduced_chart, 2, [((2, 3), 1.0), ((0, 1), -a4)])
    omega_hat_r = DifferentialForm.build(
        reduced_chart, 2, [((2, 3), -1.0), ((0, 1), -a4)]
    )
    big_omega_r = DifferentialForm.build(reduced_chart, 2, [((0, 2), 1.0), ((1, 3), 1.0)])
    metric_r = SymmetricTensorField.from_rows(
        reduced_chart,
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ],
    )
    structure = MAStructure4(reduced_chart, omega_r, big_omega_r, metric=metric_r)
    points4 = [(p[0], p[1], p[3], p[4]) for p in points]

    def pfaffian_defect(sample):
        pf_values, a_values = eval_many([structure.pfaffian, a4], sample)
        return pf_values - a_values

    pf_residual = sampled_max(points4, pfaffian_defect).value
    dual_residual = sup_norm(structure.dual_form() - omega_hat_r, points4)
    worst = max(
        pairing_residual,
        omega_split_residual,
        pi_split_residual,
        pf_residual,
        dual_residual,
    )
    return {
        "pairing_residual": pairing_residual,
        "omega_split_residual": omega_split_residual,
        "pi_split_residual": pi_split_residual,
        "reduced_pfaffian_residual": pf_residual,
        "reduced_dual_residual": dual_residual,
        "structure": structure,
        "max_residual": worst,
        "passed": worst < tol,
    }
