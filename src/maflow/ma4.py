"""Monge-Ampere structures on four-dimensional phase space.

A structure is a pair (big_omega, omega): a constant-coefficient symplectic
form and an effective 2-form. The pfaffian splits the phase space into
elliptic, hyperbolic and degenerate loci; away from the degenerate locus the
normalized pair generates an almost complex or almost product triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exterior import (
    GraphMap,
    DifferentialForm,
    NondegeneracyError,
    OperatorField,
    SymmetricTensorField,
    VectorField,
    dcoord,
    differential,
    ext_derivative,
    interior_product,
    matmul_fields,
    matrix_to_form,
    operator_from_pair,
    pullback,
    pullback_symmetric,
    sampled_max,
    signatures,
    stacked,
    sup_norm,
    wedge,
)
from .fieldexpr import Chart, DomainError, ScalarField, absval, eval_many, sqrt
from .fieldexpr.nodes import const_value
from .fieldexpr.parse import parse_field

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
DEGENERATE = "degenerate"


def classify_value(value: float, point: Sequence[float], tol: float | None = None) -> str:
    """Type from the sign of the coefficient's value at a point; the default
    tolerance is 1e-10, relative above 1. A non-finite value has no type."""
    if not math.isfinite(value):
        where = tuple(float(c) for c in point)
        error = DomainError(f"coefficient is {value} at {where}, which has no type")
        error.point = where
        raise error
    if tol is None:
        tol = 1e-10 * max(1.0, abs(value))
    if value > tol:
        return ELLIPTIC
    if value < -tol:
        return HYPERBOLIC
    return DEGENERATE


def phase_chart() -> Chart:
    """Chart for the two-dimensional flow: base coordinates and velocities."""
    return Chart(("x1", "x2", "u1", "u2"))


def base_chart() -> Chart:
    return Chart(("x1", "x2"))


def flow_symplectic(chart: Chart) -> DifferentialForm:
    """dx1^du2 + du1^dx2; squares to minus the identity as a matrix."""
    return wedge(dcoord(chart, "x1"), dcoord(chart, "u2")) + wedge(
        dcoord(chart, "u1"), dcoord(chart, "x2")
    )


def flow_metric(chart: Chart) -> SymmetricTensorField:
    """Constant split metric pairing base directions with velocity directions."""
    i_x1, i_x2 = chart.index("x1"), chart.index("x2")
    i_u1, i_u2 = chart.index("u1"), chart.index("u2")
    zero = ScalarField.constant(chart, 0.0)
    one = ScalarField.constant(chart, 1.0)
    rows = [[zero for _ in range(4)] for _ in range(4)]
    rows[i_x1][i_u2] = one
    rows[i_u2][i_x1] = one
    rows[i_x2][i_u1] = -one
    rows[i_u1][i_x2] = -one
    return SymmetricTensorField(chart, tuple(tuple(r) for r in rows))


def top_coefficient(form: DifferentialForm) -> ScalarField:
    key = tuple(range(form.chart.dim))
    f = form.terms.get(key)
    if f is None:
        return ScalarField.constant(form.chart, 0.0)
    return f


@dataclass(frozen=True)
class Triple:
    """Normalized generators and the endomorphisms they induce."""

    tilde: DifferentialForm
    omega: DifferentialForm
    omega_hat: DifferentialForm
    epsilon: ScalarField
    almost_complex: OperatorField
    tangent: OperatorField
    product: OperatorField


@dataclass(frozen=True)
class MAStructure4:
    chart: Chart
    omega: DifferentialForm
    big_omega: DifferentialForm
    metric: SymmetricTensorField | None = None

    def __post_init__(self):
        if self.chart.dim != 4:
            raise ValueError("structure needs a four-dimensional chart")
        if self.omega.degree != 2 or self.big_omega.degree != 2:
            raise ValueError("both forms must have degree 2")

    @cached_property
    def pfaffian(self) -> ScalarField:
        """omega^omega = pfaffian * big_omega^big_omega."""
        num = top_coefficient(wedge(self.omega, self.omega))
        den = top_coefficient(wedge(self.big_omega, self.big_omega))
        if den.is_zero:
            raise NondegeneracyError("symplectic form has vanishing square")
        value = const_value(den.ast)
        if value is not None:
            return num * (1.0 / value)
        return num / den

    def effectivity(self) -> DifferentialForm:
        return wedge(self.omega, self.big_omega)

    @cached_property
    def operator(self) -> OperatorField:
        """A with omega(X, Y) = big_omega(A X, Y); A^2 = -pfaffian * Id."""
        return operator_from_pair(self.omega, self.big_omega)

    def classify(self, point: Sequence[float], tol: float | None = None) -> str:
        return classify_value(self.pfaffian.eval(point), point, tol)

    def normalized_omega(self) -> DifferentialForm:
        """omega / sqrt(|pfaffian|); closed iff the structure is integrable."""
        scale = 1.0 / sqrt(absval(self.pfaffian))
        return self.omega * scale

    def integrability_form(self) -> DifferentialForm:
        return ext_derivative(self.normalized_omega())

    def dual_form(self) -> DifferentialForm:
        """Conjugate 2-form -metric(A ., .); its pfaffian is minus ours."""
        if self.metric is None:
            raise ValueError("dual form needs the structure metric")
        a_rows = self.operator.rows
        at = tuple(tuple(a_rows[j][i] for j in range(4)) for i in range(4))
        prod = matmul_fields(at, self.metric.entries, self.chart)
        neg = tuple(tuple(-e for e in row) for row in prod)
        return matrix_to_form(self.chart, neg)

    def dual_structure(self) -> "MAStructure4":
        return MAStructure4(self.chart, self.dual_form(), self.big_omega, self.metric)

    def triple(self) -> Triple:
        """Normalized triple away from the degenerate locus.

        tilde = sqrt(|pf|) big_omega, epsilon = sign(pf). The three
        endomorphisms square to -epsilon, epsilon and 1 and anticommute
        pairwise, closing into a quaternion-like algebra.
        """
        pf = self.pfaffian
        root = sqrt(absval(pf))
        tilde = self.big_omega * root
        omega_hat = self.dual_form()
        eps = pf / absval(pf)
        almost_complex = self.operator * (1.0 / root)
        tangent = operator_from_pair(omega_hat, tilde)
        product = operator_from_pair(omega_hat, self.omega)
        return Triple(
            tilde=tilde,
            omega=self.omega,
            omega_hat=omega_hat,
            epsilon=eps,
            almost_complex=almost_complex,
            tangent=tangent,
            product=product,
        )

    def gram_matrix(self) -> list[list[ScalarField]]:
        """Pairings (alpha_i ^ alpha_j) / (tilde ^ tilde) for the triple
        (tilde, omega, omega_hat); diagonal (1, epsilon, -epsilon)."""
        t = self.triple()
        alphas = (t.tilde, t.omega, t.omega_hat)
        den = top_coefficient(wedge(t.tilde, t.tilde))
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                num = top_coefficient(wedge(alphas[i], alphas[j]))
                row.append(num / den)
            out.append(row)
        return out


def flow_structure(coeff: ScalarField | str, chart: Chart | None = None) -> MAStructure4:
    """Structure of the two-dimensional flow equations.

    omega = du1^du2 - coeff * dx1^dx2; the pfaffian equals the coefficient.
    """
    if chart is None:
        chart = phase_chart()
    if isinstance(coeff, str):
        coeff = parse_field(coeff, chart)
    if coeff.chart != chart:
        raise ValueError("coefficient must live on the structure chart")
    omega = wedge(dcoord(chart, "u1"), dcoord(chart, "u2")) - wedge(
        dcoord(chart, "x1"), dcoord(chart, "x2")
    ) * coeff
    return MAStructure4(chart, omega, flow_symplectic(chart), flow_metric(chart))


def stream_graph_map(psi: ScalarField, phase: Chart | None = None) -> GraphMap:
    """Section of the phase chart induced by a stream function.

    Sends (x1, x2) to (x1, x2, -psi_x2, psi_x1), the velocity components of
    the divergence-free field with stream function psi.
    """
    base = psi.chart
    if tuple(base) != ("x1", "x2"):
        raise ValueError("stream function must live on the chart (x1, x2)")
    if phase is None:
        phase = phase_chart()
    x1 = ScalarField.coordinate(base, "x1")
    x2 = ScalarField.coordinate(base, "x2")
    return GraphMap(base, phase, (x1, x2, -psi.derivative("x2"), psi.derivative("x1")))


def hessian_det(psi: ScalarField) -> ScalarField:
    p11 = psi.derivative(0, 0)
    p22 = psi.derivative(1, 1)
    p12 = psi.derivative(0, 1)
    return p11 * p22 - p12 * p12


def laplacian2(psi: ScalarField) -> ScalarField:
    return psi.derivative(0, 0) + psi.derivative(1, 1)


def structure_tensor(structure: MAStructure4, normalized: bool = False) -> OperatorField:
    """A with omega = big_omega(A ., .); normalized, A / sqrt(|pfaffian|)."""
    if not normalized:
        return structure.operator
    scale = 1.0 / sqrt(absval(structure.pfaffian))
    return structure.operator * scale


def lr_metric(structure: MAStructure4) -> SymmetricTensorField:
    """Symmetric pairing attached to the effective form.

    g(X, Y) = 2 (i_X omega ^ i_Y Omega + i_Y omega ^ i_X Omega) ^ dx1 ^ dx2
    divided by the coefficient of Omega ^ Omega. For the flow structure this
    is the constant split metric pairing base with velocity directions.
    """
    chart = structure.chart
    den = top_coefficient(wedge(structure.big_omega, structure.big_omega))
    value = const_value(den.ast)
    if value is None or value == 0.0:
        raise NondegeneracyError("symplectic square must be a nonzero constant")
    scale = 2.0 / value
    base = wedge(dcoord(chart, 0), dcoord(chart, 1))
    basis = [VectorField.basis(chart, i) for i in range(4)]
    i_omega = [interior_product(x, structure.omega) for x in basis]
    i_big = [interior_product(x, structure.big_omega) for x in basis]
    rows: list[list[ScalarField]] = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            pair = wedge(i_omega[i], i_big[j]) + wedge(i_omega[j], i_big[i])
            entry = top_coefficient(wedge(pair, base)) * scale
            rows[i][j] = entry
            rows[j][i] = entry
    return SymmetricTensorField.from_rows(chart, rows)


def build_triple(
    structure: MAStructure4, points: Sequence[Sequence[float]] | None = None
) -> Triple:
    """Normalized triple, guarded against the degenerate locus.

    When sample points are given, the pfaffian must not vanish at any of
    them; the first offending point is named in the error.
    """
    if points is not None:
        vanishing = np.abs(eval_many([structure.pfaffian], points)[0]) <= 1e-12
        if vanishing.any():
            p = points[int(vanishing.argmax())]
            raise NondegeneracyError(f"pfaffian vanishes at {tuple(float(c) for c in p)}")
    return structure.triple()


def triple_relations(
    structure: MAStructure4,
    points: Sequence[Sequence[float]],
    tol: float = 1e-10,
) -> dict:
    """Pointwise residuals of the full triple algebra.

    Checks the six wedge identities relating the squares and cross products
    of the normalized symplectic form, the effective form and its dual; the
    three defining relations of the induced operators; and the nine product
    rules of the split-quaternion algebra they generate.
    """
    t = build_triple(structure, points)
    eps = t.epsilon
    w2 = top_coefficient(wedge(t.omega, t.omega))
    h2 = top_coefficient(wedge(t.omega_hat, t.omega_hat))
    t2 = top_coefficient(wedge(t.tilde, t.tilde))
    wedge_fields = {
        "square_sum": w2 + h2,
        "square_vs_tilde": w2 - eps * t2,
        "dual_square_vs_tilde": h2 + eps * t2,
        "cross_effective_dual": top_coefficient(wedge(t.omega, t.omega_hat)),
        "cross_effective_tilde": top_coefficient(wedge(t.omega, t.tilde)),
        "cross_dual_tilde": top_coefficient(wedge(t.omega_hat, t.tilde)),
    }
    identity = np.eye(4)

    def residual(sample):
        wedges, m_s, m_i, m_t, e, w_m, h_m, t_m = stacked(
            sample, list(wedge_fields.values()), t.product, t.almost_complex, t.tangent,
            eps, t.omega, t.omega_hat, t.tilde,
        )
        e = e[:, np.newaxis, np.newaxis]
        return dict(zip(wedge_fields, wedges.T)) | {
            "defines_product": np.swapaxes(m_s, 1, 2) @ w_m - h_m,
            "defines_complex": np.swapaxes(m_i, 1, 2) @ t_m - w_m,
            "defines_tangent": np.swapaxes(m_t, 1, 2) @ t_m - h_m,
            "product_square": m_s @ m_s - identity,
            "complex_square": m_i @ m_i + e * identity,
            "tangent_square": m_t @ m_t - e * identity,
            "ti_s": m_t @ m_i - e * m_s,
            "it_s": m_i @ m_t + e * m_s,
            "ts_i": m_t @ m_s - m_i,
            "st_i": m_s @ m_t + m_i,
            "is_t": m_i @ m_s - m_t,
            "si_t": m_s @ m_i + m_t,
        }

    peak = sampled_max(points, residual)
    residuals = {name: part.value for name, part in peak.parts.items()}
    return {"residuals": residuals, "max_residual": peak.value, "passed": peak.value < tol}


def integrability(
    structure: MAStructure4,
    points: Sequence[Sequence[float]],
    tol: float = 1e-9,
) -> dict:
    """Closedness of the normalized effective form, sampled pointwise.

    The structure is integrable exactly when omega / sqrt(|pfaffian|) is
    closed; that holds iff the coefficient is locally constant. The product
    operator is integrable regardless, which is reported as a note.
    """
    residual = sup_norm(structure.integrability_form(), points)
    d_coeff = sup_norm(differential(structure.pfaffian), points)
    return {
        "max_residual": residual,
        "integrable": residual < tol,
        "coefficient_constant": d_coeff < tol,
        "note": "the product operator is integrable for any coefficient",
    }


def verify_generalized_solution(
    structure: MAStructure4,
    psi: ScalarField,
    points: Sequence[Sequence[float]],
    tol: float = 1e-10,
) -> dict:
    """Check that a stream-function graph annihilates both structure forms.

    Pulls the symplectic and effective forms back along the section
    (x1, x2) -> (x1, x2, -psi_x2, psi_x1) and measures both residuals on
    the planar sample. Also returns the induced metric together with its
    determinant and trace identities (4 a and twice the Laplacian of psi,
    the first holding on solutions only) and the signature dichotomy by
    the sign of the coefficient at each point.
    """
    fmap = stream_graph_map(psi, structure.chart)
    omega_res = sup_norm(pullback(structure.omega, fmap), points)
    big_res = sup_norm(pullback(structure.big_omega, fmap), points)
    metric = structure.metric if structure.metric is not None else lr_metric(structure)
    h = pullback_symmetric(metric, fmap)
    det_h = h.entries[0][0] * h.entries[1][1] - h.entries[0][1] * h.entries[0][1]
    tr_h = h.entries[0][0] + h.entries[1][1]
    a_pull = fmap.pull_scalar(structure.pfaffian)
    det_field = det_h - a_pull * 4.0
    trace_field = tr_h - laplacian2(psi) * 2.0
    det_residual = sup_norm(det_field, points)
    trace_residual = sup_norm(trace_field, points)
    a_values, h_values = stacked(points, a_pull, h)
    rows = []
    dichotomy = True
    for p, av, sig in zip(points, a_values.tolist(), signatures(h_values).tolist()):
        sig = tuple(sig)
        rows.append({"point": tuple(float(c) for c in p), "a": av, "signature": sig})
        if av > 1e-10 and sig not in ((2, 0, 0), (0, 2, 0)):
            dichotomy = False
        if av < -1e-10 and sig != (1, 1, 0):
            dichotomy = False
    passed = omega_res < tol and big_res < tol
    return {
        "omega_residual": omega_res,
        "big_omega_residual": big_res,
        "passed": passed,
        "induced_metric": h,
        "det_identity_residual": det_residual,
        "trace_identity_residual": trace_residual,
        "signatures": rows,
        "signature_dichotomy": dichotomy,
    }
