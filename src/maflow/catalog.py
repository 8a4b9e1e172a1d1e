"""Built-in structures and the library self-check suite.

The catalog names the structures the command line can build without user
supplied forms, and defines the self-check vectors: small, deterministic
verifications of the identities the library is built around, each with a
frozen expectation and tolerance. The first vector supports an injected
wrong sign so the harness's failure path can be exercised.
"""

from __future__ import annotations

import numpy as np

from . import curvature, fluids, ma4, ma6, reduction
from .exterior import DifferentialForm, sampled_max, sup_norm, sup_norms
from .fieldexpr import ScalarField
from .fieldexpr.parse import parse_field
from .report import CheckResult, Report
from .sampling import RunConfig, run_points

STRUCTURE_NAMES_6D = ("hess1", "speciallag", "burgers-cy", "euler-pair")
METRIC_NAMES = ("burgers-cy", "hess1", "speciallag")


def structure6(name: str, a: ScalarField | str | float | None = None):
    """A named 6-dimensional structure; euler-pair returns the form pair."""
    if name == "hess1":
        return ma6.hessian_one_structure()
    if name == "speciallag":
        return ma6.special_lagrangian_structure()
    if name == "burgers-cy":
        if a is None:
            raise ValueError("structure burgers-cy needs a coefficient")
        return ma6.burgers_structure(a)
    if name == "euler-pair":
        if a is None:
            raise ValueError("structure euler-pair needs a coefficient")
        return ma6.euler_pair(a)
    raise ValueError(f"unknown 6d structure {name!r}")


def metric6(name: str, a: ScalarField | str | float | None = None) -> curvature.MetricField:
    if name == "burgers-cy":
        if a is None:
            raise ValueError("metric burgers-cy needs a coefficient")
        return curvature.burgers_metric(a)
    if name in ("hess1", "speciallag"):
        return curvature.MetricField.from_tensor(structure6(name).metric)
    raise ValueError(f"unknown metric {name!r}")


def _vec_flow_pfaffians(config: RunConfig, inject: bool) -> CheckResult:
    s = ma4.flow_structure("1 + x1^2")
    points = run_points(4, config)
    a = parse_field("1 + x1^2", s.chart)
    sign = -1.0 if inject else 1.0
    pf = s.pfaffian
    pf_dual = s.dual_structure().pfaffian

    def residual(sample, pf_v, a_v, dual_v):
        return np.stack([pf_v - sign * a_v, dual_v + sign * a_v], axis=1)

    worst = sampled_max(points, residual, pf, a, pf_dual).value
    return CheckResult("flow-pfaffians", worst, 1e-12)


def _vec_triple_algebra(config: RunConfig, inject: bool) -> CheckResult:
    points = run_points(4, config)
    worst = max(
        max(ma4.triple_relations(ma4.flow_structure(coeff), points).values())
        for coeff in ("-2", "1 + x1^2")
    )
    return CheckResult("triple-algebra", worst, 1e-10)


def _vec_stream_graph(config: RunConfig, inject: bool) -> CheckResult:
    psi = parse_field("0.75*x1^2 + 0.5*x1*x2 + 0.5*x2^2", ma4.base_chart())
    s = ma4.flow_structure("1.25")
    points = run_points(2, config)
    out = ma4.verify_generalized_solution(s, psi, points)
    worst = max(
        out["omega_residual"],
        out["big_omega_residual"],
        out["det_identity_residual"],
        out["trace_identity_residual"],
    )
    return CheckResult("stream-graph-invariants", worst, 1e-10, holds=out["signature_dichotomy"])


def _vec_vortex_invariant(config: RunConfig, inject: bool) -> CheckResult:
    s = ma6.burgers_structure("x1^2 + x2^2")
    points = run_points(6, config)
    lam = s.pfaffian
    worst = sampled_max(points, lambda sample, lam_v: lam_v - 1.0, lam).value
    return CheckResult("vortex-invariant", worst, 1e-12)


def _vec_vortex_tensor(config: RunConfig, inject: bool) -> CheckResult:
    s = ma6.burgers_structure("x1^2 + x2^2")
    a = parse_field("x1^2 + x2^2", s.chart)
    points = run_points(6, config)

    def residual(sample, a_v, tensor):
        expected = np.tile(np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0]), (len(sample), 1, 1))
        expected[:, 5, 2] = 2.0 * a_v
        return tensor - expected

    worst = sampled_max(points, residual, a, s.tensor).value
    return CheckResult("vortex-tensor-matrix", worst, 1e-12)


def _vec_vortex_metric(config: RunConfig, inject: bool) -> CheckResult:
    s = ma6.burgers_structure("x1^2 + x2^2")
    a = parse_field("x1^2 + x2^2", s.chart)
    g = s.metric
    points = run_points(6, config)

    def residual(sample, a_v, metric):
        expected = np.zeros((len(sample), 6, 6))
        expected[:, 0, 3] = expected[:, 3, 0] = 1.0
        expected[:, 1, 4] = expected[:, 4, 1] = 1.0
        expected[:, 2, 5] = expected[:, 5, 2] = -1.0
        expected[:, 2, 2] = 2.0 * a_v
        return metric - expected

    worst = sampled_max(points, residual, a, g).value
    sig = g.signature((0.5, 0.25, 0.0, 0.0, 0.0, 0.0))
    return CheckResult("vortex-metric", worst, 1e-12, {"signature": list(sig)}, sig == (3, 3, 0))


def _vec_vortex_dual(config: RunConfig, inject: bool) -> CheckResult:
    chart = ma6.momentum_chart()
    a = parse_field("x1^2 + x2^2", chart)
    s = ma6.burgers_structure(a, chart)
    dual = s.dual()
    points = run_points(6, config)
    expected_sum = DifferentialForm.build(chart, 3, [((2, 3, 4), 2.0)])
    expected_diff = DifferentialForm.build(
        chart, 3, [((0, 1, 5), 2.0), ((0, 1, 2), a * -2.0)]
    )
    worst = max(
        sup_norms(points, s.omega + dual - expected_sum, s.omega - dual - expected_diff)
    )
    return CheckResult("vortex-dual-split", worst, 1e-12)


def _vec_pair_relations(config: RunConfig, inject: bool) -> CheckResult:
    pair = ma6.euler_pair("1 + x1^2")
    points = run_points(6, config)
    rel = ma6.euler_pair_relations(pair, points)
    return CheckResult("pair-relations", rel["max_residual"], 1e-12)


def _vec_laplace_reduction(config: RunConfig, inject: bool) -> CheckResult:
    red = reduction.laplace_reduction()
    chart = red["structure"].chart
    expected = DifferentialForm.build(chart, 2, [((1, 2), -1.0), ((0, 3), 1.0)])
    points = run_points(4, config)
    worst = sup_norm(red["omega_c"] - expected, points)
    elliptic = red["structure"].classify((0.0, 0.0, 0.0, 0.0)) == ma4.ELLIPTIC
    return CheckResult("laplace-reduction", worst, 1e-12, holds=elliptic)


def _vec_shear_reduction(config: RunConfig, inject: bool) -> CheckResult:
    points = run_points(4, config)
    chart = ma4.phase_chart()
    a_r = parse_field("sin(x1)*cos(x2)", chart)
    residuals = []
    for gamma in (0.0, 1.0, 2.0):
        red = reduction.shear_pair_reduction("sin(x1)*cos(x2)", gamma)
        expected_omega = DifferentialForm.build(
            chart,
            2,
            [((0, 1), a_r), ((2, 3), -1.0), ((1, 2), gamma), ((0, 3), -gamma)],
        )
        expected_theta = DifferentialForm.build(
            chart, 2, [((1, 2), -1.0), ((0, 3), 1.0), ((0, 1), gamma)]
        )
        residuals += sup_norms(
            points, red["omega_c"] - expected_omega, red["theta_c"] - expected_theta
        )
        cv = reduction.change_variables_64(red["omega_c"], red["theta_c"], gamma, points)
        residuals += [cv["residual_tc"], cv["residual_oc"], cv["residual_o0"]]
    worst = max(residuals)
    return CheckResult("shear-reduction", worst, 1e-12)


def _vec_vortex_split(config: RunConfig, inject: bool) -> CheckResult:
    points = run_points(6, config)
    out = reduction.burgers_decomposition("1 + x1^2", points)
    return CheckResult("vortex-split", out["max_residual"], 1e-12)


def _vec_stretched_vortex(config: RunConfig, inject: bool) -> CheckResult:
    psi = parse_field("x1^2 + x2^2", fluids.plane_chart())
    points = run_points(3, config)
    stages = fluids.stretched_solution_check(2.0, psi, 0.0, 1.0, points)["stages"]
    return CheckResult("stretched-vortex-solution", max(stages.values()), 1e-10)


def _vec_ricci_flat(config: RunConfig, inject: bool) -> CheckResult:
    g = curvature.burgers_metric("x1^2 + x2^2")
    points = run_points(6, config, count=50)
    verdict = curvature.ricci_flat_verdict(g, points)
    return CheckResult("vortex-metric-ricci-flat", verdict["max_entry"], verdict["threshold"])


def _vec_flat_affine(config: RunConfig, inject: bool) -> CheckResult:
    g = curvature.burgers_metric("2*x1 + 3*x2 + 1")
    points = run_points(6, config, count=20)
    verdict = curvature.flatness_verdict(g, points)
    return CheckResult("vortex-metric-flat-affine", verdict["max_entry"], verdict["threshold"])


def _vec_curved_witness(config: RunConfig, inject: bool) -> CheckResult:
    g = curvature.burgers_metric("x1^2")
    points = run_points(6, config, count=20)
    verdict = curvature.flatness_verdict(g, points)
    detail = {"max_entry": verdict["max_entry"], "witness": verdict["witness"]}
    holds = verdict["verdict"] == "NonFlat"
    return CheckResult("vortex-metric-curved-witness", detail=detail, holds=holds)


# The self-check vectors in report order: one-line summary, runner.
SELFTEST = (
    ("effective form squares to a times the symplectic square; dual to minus", _vec_flow_pfaffians),
    ("wedge identities, defining relations and operator products of the triple", _vec_triple_algebra),
    ("stream graphs annihilate both forms; induced metric det and trace", _vec_stream_graph),
    ("cubic invariant of the stretched-vortex 3-form equals one", _vec_vortex_invariant),
    ("structure tensor of the vortex form, entrywise", _vec_vortex_tensor),
    ("metric of the vortex form, entrywise, signature (3,3)", _vec_vortex_metric),
    ("sum and difference with the dual form decompose into products", _vec_vortex_dual),
    ("block algebra and metrics of the divergence-form pair", _vec_pair_relations),
    ("harmonic 3-form reduces to the planar harmonic form, elliptic", _vec_laplace_reduction),
    ("sheared translation reduces the pair to the displayed planar forms", _vec_shear_reduction),
    ("transverse decomposition of the vortex form and symplectic form", _vec_vortex_split),
    ("planar stream with axial stretching solves the full system", _vec_stretched_vortex),
    ("vortex metric is Ricci-flat for a curved coefficient", _vec_ricci_flat),
    ("vortex metric is flat for an affine coefficient", _vec_flat_affine),
    ("nonzero curvature witness for a strictly convex coefficient", _vec_curved_witness),
)


def run_selftest(config: RunConfig, inject_failure: bool = False) -> Report:
    """Run every self-check vector; the report carries one check per vector."""
    report = Report("selftest", seed=config.seed, samples=config.samples)
    report.inputs = {"inject_failure": bool(inject_failure)}
    for i, (summary, run) in enumerate(SELFTEST):
        result = run(config, inject_failure and i == 0)
        result.detail = dict(result.detail)
        result.detail["summary"] = summary
        report.add(result)
    return report
