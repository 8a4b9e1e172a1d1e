"""Batch evaluation: every value over a whole sample is bit-identical to the
value at the point alone, and the array reduction ``sampled_max`` agrees
with the point-by-point loop it replaced."""

import math
import sys

import numpy as np
import pytest

from maflow import catalog, curvature, exterior, fluids, ma4
from maflow.exterior import (
    DifferentialForm,
    OperatorField,
    Peak,
    SymmetricTensorField,
    sampled_max,
    sup_norm,
    sup_norms,
    volume_form,
    zero_form,
)
from maflow.fieldexpr import Chart, DomainError, ScalarField, eval_many, parse_field
from maflow.fieldexpr import field as field_module
from maflow.fieldexpr.field import BATCH
from maflow.fieldexpr.nodes import const_value
from maflow.sampling import sample_points

PLANE = Chart(("x1", "x2"))
SPACE = Chart(("x1", "x2", "x3"))
LINE = [(0.0,), (1.0,), (2.0,), (3.0,)]
# coordinates of either sign of zero, where a Taylor coefficient can vanish exactly
SIGNED_ZEROS = [(0.0, -1.0), (-0.0, 0.5), (-0.0, -0.0), (0.5, -0.0)]


def same_bytes(batch, single):
    batch = np.broadcast_to(np.asarray(batch, dtype=float), np.shape(single))
    return np.asarray(single, dtype=float).tobytes() == np.ascontiguousarray(batch).tobytes()


def test_batches_match_points_on_drawn_expressions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # the expression grammar of the derivative oracle: exp, log, sqrt, quotients, powers
    grammar = pytest.importorskip("test_oracle")

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None)
    @hypothesis.given(
        text=grammar.EXPRESSIONS, seed=st.integers(0, 2**32 - 1), order=st.integers(0, 4)
    )
    def check(text, seed, order):
        field = parse_field(text, PLANE)
        drawn = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(12, 2))
        sample = np.concatenate([SIGNED_ZEROS, drawn])
        values = eval_many([field], sample)[0]
        assert same_bytes(values, [field.eval(p) for p in sample]), text
        jets = field.jet(sample, order)
        singles = [field.jet(p, order) for p in sample]
        assert set(jets.partials) == set(singles[0].partials)
        for axes, column in jets.partials.items():
            assert same_bytes(column, [j.partials[axes] for j in singles]), (text, axes)

    for text in ("x1*x2", "-x1*x2", "sin(x1)*x2", "x1/(x2+2)*(-1)"):
        for order in range(4):
            check = hypothesis.example(text=text, seed=0, order=order)(check)
    check()


def test_the_error_is_the_one_the_point_by_point_loop_meets_first():
    fields = [parse_field("log(x1)", PLANE), parse_field("sqrt(x2)", PLANE)]
    sample = np.ones((10, 2))
    sample[7, 0] = -1.0  # the first field fails at point 7
    sample[3, 1] = -1.0  # the second fails earlier, at point 3
    with pytest.raises(DomainError, match="sqrt") as info:
        eval_many(fields, sample)
    assert info.value.point == (1.0, -1.0) and info.value.index == 3


def test_the_error_names_its_point_in_a_later_slice():
    sample = np.ones((3 * BATCH, 2))
    sample[BATCH + 5, 0] = -1.0
    sample[2 * BATCH, 0] = 0.0
    with pytest.raises(DomainError, match="log") as info:
        eval_many([parse_field("x2 + log(x1)", PLANE)], sample)
    assert info.value.point == (-1.0, 1.0) and info.value.index == BATCH + 5


@pytest.fixture
def recorded(monkeypatch):
    """Every (fields, sample) that maflow hands to eval_many while the test runs."""
    calls = []
    original = field_module.eval_many

    def recording(fields, points):
        calls.append((list(fields), np.array(points, dtype=float)))
        return original(fields, points)

    for name, module in list(sys.modules.items()):
        if name.startswith("maflow") and getattr(module, "eval_many", None) is original:
            monkeypatch.setattr(module, "eval_many", recording)
    return calls


def assert_batches_match_points(calls):
    assert calls
    for fields, sample in calls:
        batch = eval_many(fields, sample)
        for field, row in zip(fields, batch):
            assert same_bytes(row, [field.eval(p) for p in sample]), field.render()


@pytest.mark.parametrize("coeff", ["1", "-2", "1 + x1^2", "sin(x1)*exp(x2) - u1*x2"])
def test_triple_relations_fields_match_points(recorded, coeff):
    points = [tuple(p) for p in np.random.default_rng(3).uniform(-1.0, 1.0, size=(20, 4))]
    residuals = ma4.triple_relations(ma4.flow_structure(coeff), points)
    assert max(residuals.values()) < 1e-10
    assert_batches_match_points(recorded)


def test_generalized_solution_fields_match_points(recorded):
    chart = ma4.base_chart()
    x1, x2 = ScalarField.coordinate(chart, 0), ScalarField.coordinate(chart, 1)
    psi = x1 * x1 * 0.75 + x1 * x2 * 0.5 + x2 * x2 * 0.5
    points = np.random.default_rng(4).uniform(-1.0, 1.0, size=(20, 2))
    out = ma4.verify_generalized_solution(ma4.flow_structure("1.25"), psi, points)
    assert out["passed"] and out["signature_dichotomy"]
    assert_batches_match_points(recorded)


@pytest.mark.parametrize("psi, dp", [("x1^2 + x2^2", "2"), ("sin(x1)*cos(x2)", "x1^2")])
def test_stretched_solution_fields_match_points(recorded, psi, dp):
    plane = fluids.plane_chart()
    points = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 3))
    a = parse_field(dp, plane) * 0.5
    fluids.stretched_solution_check(2.0, parse_field(psi, plane), 0.0, a, points)
    assert_batches_match_points(recorded)


# -- the array reduction against the per-point loop -------------------------


def per_point_max(points, residual_at) -> Peak:
    """The reduction as it ran before batches: one residual call per point."""
    peaks: dict = {}
    for p in points:
        r = residual_at(p)
        for name, part in r.items() if isinstance(r, dict) else ((None, r),):
            v = float(np.max(np.abs(part), initial=0.0))
            if not math.isfinite(v):
                v = math.inf
            if v > peaks.setdefault(name, (0.0, None))[0]:
                peaks[name] = (v, tuple(float(c) for c in p))
    value, witness = max(peaks.values(), key=lambda peak: peak[0], default=(0.0, None))
    parts = {} if None in peaks else {k: Peak(v, w, {}) for k, (v, w) in peaks.items()}
    return Peak(value, witness, parts)


def batched(residual_at):
    """The same residual over a whole sample, the point on axis 0."""

    def residual(sample):
        rows = [residual_at(tuple(p)) for p in sample]
        if isinstance(rows[0], dict):
            return {name: np.array([r[name] for r in rows], dtype=float) for name in rows[0]}
        return np.array(rows, dtype=float)

    return residual


# a sample that sampled_max hands to the residual in several slices
LONG = [(float(i),) for i in range(2 * BATCH + 5)]
CRAFTED = {
    "tied maximum": (LINE, lambda p: [3.0, -1.0] if p[0] in (1.0, 3.0) else [0.5, 0.0]),
    "nan": (LINE, lambda p: math.nan if p[0] == 2.0 else 5.0),
    "inf after a finite peak": (LINE, lambda p: [7.0, 0.0] if p[0] < 2.0 else [-math.inf, 1.0]),
    "all zeros": (LINE, lambda p: np.zeros((2, 2))),
    "dict parts": (LINE, lambda p: {
        "a": np.array([[p[0], -2.0 * p[0]], [0.0, 1.0]]),
        "b": [0.0] if p[0] < 3.0 else [math.nan],
        "zero": [0.0],
    }),
    "dict parts tied": (LINE, lambda p: {"a": [2.0 - p[0]], "b": [-2.0 if p[0] == 0.0 else 0.0]}),
    "tie across slices": (LONG, lambda p: 3.0 if p[0] in (BATCH + 2.0, 2 * BATCH + 1.0) else 1.0),
    "nan in a later slice": (LONG, lambda p: math.nan if p[0] == BATCH + 7.0 else p[0] % 7.0),
    "dict parts across slices": (LONG, lambda p: {
        "a": [p[0] if p[0] < BATCH + 3.0 else 0.0],
        "b": [-1e300 if p[0] == 2 * BATCH + 4.0 else 0.0],
    }),
}


@pytest.mark.parametrize("name", list(CRAFTED))
def test_sampled_max_matches_the_per_point_loop(name):
    points, residual_at = CRAFTED[name]
    expected = per_point_max(points, residual_at)
    assert sampled_max(points, batched(residual_at)) == expected
    assert sampled_max(np.array(points), batched(residual_at)) == expected


def test_sampled_max_of_numbers_and_witness():
    values = {0.0: -1.0, 1.0: 3.0, 2.0: -3.0, 3.0: 2.0}
    peak = sampled_max(LINE, lambda s: np.array([values[x] for x in s[:, 0]]))
    assert peak == Peak(3.0, (1.0,), {})


def test_sampled_max_treats_nan_and_inf_as_failures():
    nan_at_two = sampled_max(LINE, lambda s: np.where(s[:, 0] == 2.0, math.nan, 5.0))
    assert nan_at_two.value == math.inf
    assert nan_at_two.witness == (2.0,)
    assert not nan_at_two.value < 1e300
    first_nan = sampled_max(LINE, lambda s: np.where(s == 0.0, [math.nan, 1e300], [7.0, 7.0]))
    assert first_nan.value == math.inf and first_nan.witness == (0.0,)
    minus_inf = sampled_max(LINE, lambda s: np.tile([[1.0, -math.inf], [0.0, 0.0]], (len(s), 1, 1)))
    assert minus_inf.value == math.inf and minus_inf.witness == (0.0,)


def test_sampled_max_of_named_arrays():
    def residual(s):
        x = s[:, 0]
        return {"a": np.stack([x, -2.0 * x], axis=1), "b": np.where(x < 3.0, 0.0, math.nan)}

    peak = sampled_max(LINE, residual)
    assert peak.parts == {"a": Peak(6.0, (3.0,), {}), "b": Peak(math.inf, (3.0,), {})}
    assert peak.value == math.inf and peak.witness == (3.0,)


def test_sampled_max_of_zero_residual_and_empty_sample():
    assert sampled_max(LINE, lambda s: np.zeros(len(s))) == Peak(0.0, None, {})
    assert sampled_max([], lambda s: np.ones(len(s))) == Peak(0.0, None, {})
    assert sampled_max([], lambda s: {"a": np.ones(len(s))}) == Peak(0.0, None, {})


def reference_sup(item, points):
    """The point-by-point sup of a field or of a form's coefficients; NaN counts as inf."""
    fields = [item] if isinstance(item, ScalarField) else list(item.terms.values())
    best = 0.0
    for p in points:
        for f in fields:
            value = abs(f.eval(p))
            best = max(best, value if math.isfinite(value) else math.inf)
    return best


def test_sup_norms_match_each_items_own_sup_norm():
    points = sample_points(3, 2 * BATCH + 44, 5)  # three slices
    points[:, 2] = 0.0
    points[BATCH + 72, 2] = 0.5  # the overflowing item is NaN here only
    f = parse_field("sin(x1)*exp(x2) + x3", SPACE)
    g = parse_field("x1^2 - 3*x2*x3", SPACE)
    items = [
        DifferentialForm.build(SPACE, 2, [((0, 1), f), ((1, 2), f * g)]),
        volume_form(SPACE, g - f),
        f * g,
        zero_form(SPACE, 2),
        parse_field("x3*1e300*1e300 - x3*1e300*1e300", SPACE),
    ]
    expected = [reference_sup(item, points) for item in items]
    assert expected[3] == 0.0 and expected[4] == math.inf
    assert sup_norms(points, *items) == expected
    assert [sup_norm(item, points) for item in items] == expected
    assert sup_norms(points[:0], *items) == [0.0] * len(items)


def test_sup_norms_raise_the_error_of_the_first_failing_item():
    sample = np.ones((3 * BATCH, 2))
    sample[2 * BATCH + 5, 0] = -1.0  # the first item fails in the last slice
    sample[5, 1] = -1.0  # the second fails earlier, in the first
    first = DifferentialForm.build(PLANE, 2, [((0, 1), parse_field("log(x1)", PLANE))])
    second = parse_field("sqrt(x2)", PLANE)
    with pytest.raises(DomainError) as alone:
        sup_norm(first, sample)
    with pytest.raises(DomainError) as joint:
        sup_norms(sample, first, second)
    assert str(joint.value) == str(alone.value)
    assert joint.value.point == alone.value.point == (-1.0, 1.0)


def test_a_one_item_domain_error_is_raised_after_one_walk(monkeypatch):
    calls = []
    stacked = exterior.stacked

    def counting(*args):
        calls.append(len(args[0]))
        return stacked(*args)

    monkeypatch.setattr(exterior, "stacked", counting)
    sample = np.ones((3 * BATCH, 2))
    sample[5, 1] = -1.0
    with pytest.raises(DomainError, match="sqrt"):
        sup_norms(sample, parse_field("sqrt(x2)", PLANE))
    assert calls == [BATCH]


# -- one slicer: an error's index counts from the start of the sample --------


def test_a_sup_norm_error_names_its_sample_index():
    sample = np.ones((3 * BATCH, 2))
    sample[BATCH + 5, 0] = -1.0
    with pytest.raises(DomainError, match="log") as info:
        sup_norm(parse_field("log(x1)", PLANE), sample)
    assert info.value.index == BATCH + 5 and info.value.point == (-1.0, 1.0)


def test_a_joint_sup_norms_error_names_its_sample_index():
    sample = np.ones((3 * BATCH, 2))
    sample[2 * BATCH + 9, 1] = -1.0  # the second item fails in the third slice
    with pytest.raises(DomainError, match="sqrt") as info:
        sup_norms(sample, parse_field("x1^2", PLANE), parse_field("sqrt(x2)", PLANE))
    assert info.value.index == 2 * BATCH + 9 and info.value.point == (1.0, -1.0)


def test_a_curvature_error_names_its_sample_index():
    points = [(1.0,) * 6] * (3 * BATCH)
    points[BATCH + 5] = (-1.0,) + (1.0,) * 5
    with pytest.raises(DomainError, match="log") as info:
        curvature.curvature_report(curvature.burgers_metric("log(x1)+3"), points)
    assert info.value.index == BATCH + 5 and info.value.point == points[BATCH + 5]


def test_sampled_max_hands_the_residual_the_stacked_values_of_its_items():
    f = parse_field("sin(x1)*exp(x2) + x3", SPACE)
    g = parse_field("x1^2 - 3*x2*x3", SPACE)
    items = (
        f,
        [f * g, g - 1.0],
        OperatorField.from_rows(SPACE, [[f, 1.0, 0.0], [0.0, g, f], [g, 0.0, 2.0]]),
        SymmetricTensorField.from_rows(SPACE, [[f, g, 0.0], [g, 1.0, f], [0.0, f, g]]),
        DifferentialForm.build(SPACE, 2, [((0, 1), f), ((1, 2), f * g)]),
    )
    points = sample_points(3, 2 * BATCH + 7, 6)
    seen = []

    def residual(sample, *values):
        seen.append((sample, values))
        return values[0]

    assert sampled_max(points, residual, *items).value == reference_sup(f, points)
    assert [len(sample) for sample, _ in seen] == [BATCH, BATCH, 7]
    assert np.concatenate([sample for sample, _ in seen]).tobytes() == points.tobytes()
    for sample, values in seen:
        expected = exterior.stacked(sample, *items)
        assert len(values) == len(expected)
        for value, want in zip(values, expected):
            assert value.shape == want.shape and value.tobytes() == want.tobytes()


# -- the batched curvature pass against the per-point one ---------------------


def reference_inverse(values, point):
    """The per-point inverse with its singularity test."""
    if not np.isfinite(values).all():
        return np.full_like(values, np.nan)
    try:
        inverse = np.linalg.inv(values)
    except np.linalg.LinAlgError:
        inverse = None
    if inverse is None or np.max(np.abs(values @ inverse - np.eye(len(values)))) > 1e-8:
        raise curvature.SingularMetricError(
            f"metric is singular at {tuple(float(c) for c in point)}"
        )
    return inverse


def reference_jets_at(tensor, point):
    """The per-point jets: one ScalarField.jet per non-constant entry."""
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
    return g, reference_inverse(g, point), d1, d2


def reference_riemann(ginv, d1, d2):
    """The per-point Riemann tensor, one einsum per term."""
    t = np.einsum("ijl->lij", d1) + np.einsum("jil->lij", d1) - d1
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, t)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, d1, ginv)
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


def reference_pass(g, points):
    """The curvature pass as it ran before batches: one jet and one Riemann per point."""
    tensor = g.g if isinstance(g, curvature.MetricField) else g
    singular = []

    def residual(sample):
        peaks = np.zeros((len(sample), 3))
        for row, p in zip(peaks, sample):
            try:
                values, ginv, d1, d2 = reference_jets_at(tensor, tuple(p.tolist()))
            except curvature.SingularMetricError:
                singular.append(tuple(p.tolist()))
                continue
            full = reference_riemann(ginv, d1, d2)
            for k, part in enumerate((values, full, np.einsum("iijk->jk", full))):
                row[k] = np.max(np.abs(part))
        return {"metric": peaks[:, 0], "riemann": peaks[:, 1], "ricci": peaks[:, 2]}

    peaks = sampled_max(points, residual).parts
    if len(singular) == len(points):
        raise curvature.SingularMetricError("metric is singular at every sample point")
    common = {
        "threshold": 1e-9 * max(1.0, peaks["metric"].value),
        "mode": "sampled flatness",
        "points_checked": len(points) - len(singular),
        "singular_points": singular,
    }
    return peaks["riemann"], peaks["ricci"], common


def reference_report(monkeypatch, g, points):
    with monkeypatch.context() as patch:
        patch.setattr(curvature, "_curvature_pass", reference_pass)
        return curvature.curvature_report(g, points)


# a 6-d sample that sampled_max hands to the pass in three slices
SLICES6 = [tuple(p) for p in sample_points(6, 2 * BATCH + 37, 8)]
SINGULAR_AT = (0, 5, BATCH - 1, BATCH + 17, 2 * BATCH + 36)


def plane_sample(size, seed):
    return [tuple(p) for p in np.random.default_rng(seed).uniform(-1.0, 1.0, size=(size, 2))]


@pytest.mark.parametrize("metric", [
    pytest.param(lambda: curvature.burgers_metric("sin(x1)*x2 + x1^2*exp(x2)"), id="generic"),
    pytest.param(lambda: curvature.burgers_metric("1 + 2*x1 - x2"), id="affine"),
    pytest.param(lambda: curvature.burgers_metric("x1^2 - 3*x2^2 + x1*x2"), id="quadratic"),
    pytest.param(lambda: catalog.metric6("hess1"), id="hess1"),
])
def test_curvature_report_matches_the_per_point_pass(monkeypatch, metric):
    g = metric()
    out = curvature.curvature_report(g, SLICES6)
    assert out == reference_report(monkeypatch, g, SLICES6)
    assert out["points_checked"] == len(SLICES6)


def test_stacked_riemann_and_ricci_match_the_per_point_contractions():
    # the dense metric of test_curvature's jet test: every entry of d1 and d2 is used
    g = curvature.MetricField.from_rows(
        SPACE,
        [
            [parse_field("exp(2*x1)", SPACE), parse_field("x1*x3", SPACE), 0.0],
            [parse_field("x1*x3", SPACE), parse_field("1 + x2^2", SPACE), 0.0],
            [0.0, 0.0, parse_field("cos(x1) + 3", SPACE)],
        ],
    )
    sample = sample_points(3, 40, 11)
    stacked = []
    for p in sample:
        values, ginv, d1, d2 = reference_jets_at(g.g, p)
        expected = reference_riemann(ginv, d1, d2)
        full = curvature.riemann(g, p)
        ricci = curvature.ricci(g, p)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(full - expected)) <= 1e-14 * scale
        assert np.max(np.abs(ricci - np.einsum("iijk->jk", expected))) <= 1e-14 * scale
        stacked.append(expected)
    base, varying = curvature._metric_jets(g.g, np.asarray(sample))
    metric, d1, d2 = curvature._stacks(base, varying, slice(0, len(sample)))
    ginv, singular = curvature._inverses(metric)
    assert not singular.any()
    full = curvature._riemann(ginv, d1, d2)
    assert np.max(np.abs(full - np.array(stacked))) <= 1e-14 * np.max(np.abs(stacked))


def singular_plane_metric():
    return curvature.MetricField.from_rows(
        PLANE, [[parse_field("x1", PLANE), 0.0], [0.0, parse_field("1 + x2^2", PLANE)]]
    )


def test_singular_points_are_skipped_and_reported_in_order(monkeypatch):
    points = plane_sample(2 * BATCH + 37, 12)
    for i in SINGULAR_AT:
        points[i] = (0.0, points[i][1])
    g = singular_plane_metric()
    out = curvature.curvature_report(g, points)
    assert out == reference_report(monkeypatch, g, points)
    assert out["singular_points"] == [points[i] for i in SINGULAR_AT]
    assert out["points_checked"] == len(points) - len(SINGULAR_AT)


def test_an_all_singular_sample_raises():
    points = [(0.0, y) for y in np.linspace(-1.0, 1.0, BATCH + 3)]
    with pytest.raises(curvature.SingularMetricError, match="every sample point"):
        curvature.curvature_report(singular_plane_metric(), points)


def test_a_non_finite_metric_fails_with_residual_inf(monkeypatch):
    g = curvature.burgers_metric("1e300*1e300")
    points = SLICES6[: BATCH + 3]
    out = curvature.curvature_report(g, points)
    assert out == reference_report(monkeypatch, g, points)
    assert out["riemann_max"] == math.inf and out["ricci_max"] == math.inf
    assert out["verdicts"] == {"flat": "NonFlat", "ricci_flat": "NonRicciFlat"}
    assert out["witnesses"]["riemann"] == points[0]


@pytest.mark.parametrize("fail_a, fail_b, expected", [
    (BATCH + 7, BATCH + 3, "sqrt"),  # entry B fails first in sample order
    (BATCH + 3, BATCH + 3, "log"),  # both at one point: the first entry
    (4, 2 * BATCH + 1, "log"),
])
def test_the_curvature_error_names_the_first_failing_point(monkeypatch, fail_a, fail_b, expected):
    # entry A = g[0][0] comes before entry B = g[1][1] in entry order
    g = curvature.MetricField.from_rows(
        PLANE,
        [[parse_field("2 + log(x1)", PLANE), 0.0], [0.0, parse_field("2 + sqrt(x2)", PLANE)]],
    )
    points = [(1.0, 1.0)] * (2 * BATCH + 5)
    points[fail_a] = (-1.0, points[fail_a][1])
    points[fail_b] = (points[fail_b][0], -1.0)
    with pytest.raises(DomainError, match=expected) as info:
        curvature.curvature_report(g, points)
    with pytest.raises(DomainError) as reference:
        reference_report(monkeypatch, g, points)
    assert info.value.point == reference.value.point == points[min(fail_a, fail_b)]
    assert str(info.value) == str(reference.value)
