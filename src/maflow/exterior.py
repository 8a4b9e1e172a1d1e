"""Exterior calculus on coordinate charts.

Differential forms carry scalar-field coefficients indexed by strictly
increasing index tuples. All operations are exact on coefficients: wedge,
exterior derivative, interior product, Lie derivative, pullback. Numbers
only appear when a form is evaluated at a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .fieldexpr import Chart, ChartError, ScalarField, eval_many
from .fieldexpr.field import BATCH


class NondegeneracyError(ValueError):
    """A form or matrix that must be nondegenerate is structurally singular."""


def normalize_index(idx: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort an index tuple, returning (sorted, parity sign); None if repeated."""
    work = list(idx)
    sign = 1
    for i in range(1, len(work)):
        j = i
        while j > 0 and work[j - 1] > work[j]:
            work[j - 1], work[j] = work[j], work[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(work, work[1:]):
        if a == b:
            return None
    return tuple(work), sign


@dataclass(frozen=True)
class DifferentialForm:
    """Exterior form of fixed degree with scalar-field coefficients."""

    chart: Chart
    degree: int
    terms: dict[tuple[int, ...], ScalarField]

    def __post_init__(self):
        for key, coeff in self.terms.items():
            if len(key) != self.degree:
                raise ValueError(f"index {key} has wrong length for degree {self.degree}")
            if any(not 0 <= i < self.chart.dim for i in key):
                raise ValueError(f"index {key} out of range for chart of dim {self.chart.dim}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"index {key} is not strictly increasing")
            if coeff.chart != self.chart:
                raise ChartError("coefficient lives on a different chart")

    @classmethod
    def build(
        cls,
        chart: Chart,
        degree: int,
        items: Iterable[tuple[Sequence[int], ScalarField | float]],
    ) -> "DifferentialForm":
        """Assemble from possibly unsorted, repeated index tuples."""
        acc: dict[tuple[int, ...], ScalarField] = {}
        for idx, coeff in items:
            norm = normalize_index(tuple(idx))
            if norm is None:
                continue
            key, sign = norm
            f = coeff if isinstance(coeff, ScalarField) else ScalarField.constant(chart, coeff)
            if sign < 0:
                f = -f
            if key in acc:
                acc[key] = acc[key] + f
            else:
                acc[key] = f
        acc = {k: v for k, v in acc.items() if not v.is_zero}
        return cls(chart, degree, acc)

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.terms.values())

    def coeff(self, idx: Sequence[int]) -> ScalarField:
        norm = normalize_index(tuple(idx))
        if norm is None:
            return ScalarField.constant(self.chart, 0.0)
        key, sign = norm
        f = self.terms.get(key)
        if f is None:
            return ScalarField.constant(self.chart, 0.0)
        return f if sign > 0 else -f

    def coeffs_at(self, point: Sequence[float]) -> dict[tuple[int, ...], float]:
        return {k: f.eval(point) for k, f in self.terms.items()}

    def apply(self, point: Sequence[float], *vectors: Sequence[float]) -> float:
        """Evaluate on concrete vectors at a point."""
        if len(vectors) != self.degree:
            raise ValueError(f"degree {self.degree} form needs {self.degree} vectors")
        vecs = [np.asarray(v, dtype=float) for v in vectors]
        total = 0.0
        for key, f in self.terms.items():
            c = f.eval(point)
            if c == 0.0:
                continue
            minor = [[vecs[b][key[a]] for b in range(self.degree)] for a in range(self.degree)]
            total += c * _det_floats(minor)
        return total

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compatible(other)
        out = dict(self.terms)
        for k, f in other.terms.items():
            s = out.get(k)
            out[k] = f if s is None else s + f
        out = {k: v for k, v in out.items() if not v.is_zero}
        return DifferentialForm(self.chart, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.chart, self.degree, {k: -f for k, f in self.terms.items()})

    def __mul__(self, factor) -> "DifferentialForm":
        if isinstance(factor, (int, float)):
            factor = ScalarField.constant(self.chart, float(factor))
        if not isinstance(factor, ScalarField):
            return NotImplemented
        out = {k: f * factor for k, f in self.terms.items()}
        out = {k: v for k, v in out.items() if not v.is_zero}
        return DifferentialForm(self.chart, self.degree, out)

    def __rmul__(self, factor) -> "DifferentialForm":
        return self.__mul__(factor)

    def _check_compatible(self, other: "DifferentialForm") -> None:
        if self.chart != other.chart:
            raise ChartError("forms live on different charts")
        if self.degree != other.degree:
            raise ValueError("forms have different degrees")

    def to_dict(self) -> dict:
        terms = [
            {"index": list(k), "coeff": f.render()}
            for k, f in sorted(self.terms.items())
            if not f.is_zero
        ]
        return {
            "degree": self.degree,
            "chart": list(self.chart),
            "terms": terms,
        }


def _det_floats(rows: list[list[float]]) -> float:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        return (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
    total = 0.0
    for perm in permutations(range(n)):
        sign = normalize_index(perm)[1]
        prod = 1.0
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += sign * prod
    return total


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def dcoord(chart: Chart, axis: int | str) -> DifferentialForm:
    idx = axis if isinstance(axis, int) else chart.index(axis)
    if idx < 0 or idx >= chart.dim:
        raise ChartError(f"coordinate axis {axis!r} out of range")
    return DifferentialForm(chart, 1, {(idx,): ScalarField.constant(chart, 1.0)})


def volume_form(chart: Chart, coeff: ScalarField | float = 1.0) -> DifferentialForm:
    if isinstance(coeff, (int, float)):
        coeff = ScalarField.constant(chart, float(coeff))
    return DifferentialForm(chart, chart.dim, {tuple(range(chart.dim)): coeff})


def scalar_form(f: ScalarField) -> DifferentialForm:
    return DifferentialForm(f.chart, 0, {(): f})


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.chart != b.chart:
        raise ChartError("forms live on different charts")
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return DifferentialForm(a.chart, degree, {})
    items = []
    for ka, fa in a.terms.items():
        for kb, fb in b.terms.items():
            items.append((ka + kb, fa * fb))
    return DifferentialForm.build(a.chart, degree, items)


def wedge_many(forms: Sequence[DifferentialForm]) -> DifferentialForm:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def differential(f: ScalarField) -> DifferentialForm:
    items = []
    for i in range(f.chart.dim):
        df = f.derivative(i)
        if not df.is_zero:
            items.append(((i,), df))
    return DifferentialForm.build(f.chart, 1, items)


def ext_derivative(form: DifferentialForm) -> DifferentialForm:
    items = []
    for key, f in form.terms.items():
        for i in range(form.chart.dim):
            if i in key:
                continue
            df = f.derivative(i)
            if df.is_zero:
                continue
            items.append(((i,) + key, df))
    return DifferentialForm.build(form.chart, form.degree + 1, items)


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ChartError("component count does not match chart dimension")
        for c in self.components:
            if c.chart != self.chart:
                raise ChartError("component lives on a different chart")

    @classmethod
    def from_constants(cls, chart: Chart, values: Sequence[float]) -> "VectorField":
        return cls(chart, tuple(ScalarField.constant(chart, v) for v in values))

    @classmethod
    def basis(cls, chart: Chart, index: int) -> "VectorField":
        vals = [0.0] * chart.dim
        vals[index] = 1.0
        return cls.from_constants(chart, vals)

    def eval(self, point: Sequence[float]) -> np.ndarray:
        return np.array([c.eval(point) for c in self.components])

    def apply(self, f: ScalarField) -> ScalarField:
        """Directional derivative X(f)."""
        out = ScalarField.constant(self.chart, 0.0)
        for i, comp in enumerate(self.components):
            if comp.is_zero:
                continue
            out = out + comp * f.derivative(i)
        return out


def divergence(u: VectorField) -> ScalarField:
    out = ScalarField.constant(u.chart, 0.0)
    for i in range(u.chart.dim):
        out = out + u.components[i].derivative(i)
    return out


def trace_m_squared(u: VectorField) -> ScalarField:
    """Sum of du_i/dx_j * du_j/dx_i over all index pairs."""
    n = u.chart.dim
    out = ScalarField.constant(u.chart, 0.0)
    for i in range(n):
        for j in range(n):
            gij = u.components[i].derivative(j)
            gji = u.components[j].derivative(i)
            if gij.is_zero or gji.is_zero:
                continue
            out = out + gij * gji
    return out


def interior_product(x: VectorField, form: DifferentialForm) -> DifferentialForm:
    if x.chart != form.chart:
        raise ChartError("vector field and form live on different charts")
    if form.degree == 0:
        raise ValueError("interior product needs a form of degree at least 1")
    items = []
    for key, f in form.terms.items():
        for pos, idx in enumerate(key):
            comp = x.components[idx]
            if comp.is_zero:
                continue
            rest = key[:pos] + key[pos + 1 :]
            coeff = f * comp
            if pos % 2 == 1:
                coeff = -coeff
            items.append((rest, coeff))
    return DifferentialForm.build(form.chart, form.degree - 1, items)


def lie_derivative(x: VectorField, form: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L_X = i_X d + d i_X."""
    if form.degree == 0:
        f = form.terms.get((), ScalarField.constant(form.chart, 0.0))
        return scalar_form(x.apply(f))
    a = interior_product(x, ext_derivative(form))
    b = ext_derivative(interior_product(x, form))
    return a + b


@dataclass(frozen=True)
class GraphMap:
    """Map between charts given by component fields on the domain chart."""

    domain: Chart
    codomain: Chart
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.codomain.dim:
            raise ChartError("need one component per codomain coordinate")
        for c in self.components:
            if c.chart != self.domain:
                raise ChartError("components must live on the domain chart")

    def pull_scalar(self, f: ScalarField) -> ScalarField:
        if f.chart != self.codomain:
            raise ChartError("field lives on a different chart than the codomain")
        return f.compose(self.domain, self.components)

    def jacobian(self) -> list[list[ScalarField]]:
        return [
            [self.components[i].derivative(a) for a in range(self.domain.dim)]
            for i in range(self.codomain.dim)
        ]

    def eval(self, point: Sequence[float]) -> np.ndarray:
        return np.array([c.eval(point) for c in self.components])


def pullback(form: DifferentialForm, chart_map: GraphMap) -> DifferentialForm:
    if form.chart != chart_map.codomain:
        raise ChartError("form lives on a different chart than the codomain")
    if form.degree == 0:
        f = form.terms.get((), ScalarField.constant(form.chart, 0.0))
        return scalar_form(chart_map.pull_scalar(f))
    dcomp = [differential(c) for c in chart_map.components]
    out = zero_form(chart_map.domain, form.degree)
    for key, f in form.terms.items():
        pulled = chart_map.pull_scalar(f)
        if pulled.is_zero:
            continue
        block = wedge_many([dcomp[i] for i in key])
        out = out + block * pulled
    return out


def pullback_symmetric(tensor: "SymmetricTensorField", chart_map: GraphMap) -> "SymmetricTensorField":
    if tensor.chart != chart_map.codomain:
        raise ChartError("tensor lives on a different chart than the codomain")
    n = chart_map.domain.dim
    m = chart_map.codomain.dim
    jac = chart_map.jacobian()
    zero = ScalarField.constant(chart_map.domain, 0.0)
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            acc = zero
            for i in range(m):
                if jac[i][a].is_zero:
                    continue
                for j in range(m):
                    g = tensor.entries[i][j]
                    if g.is_zero or jac[j][b].is_zero:
                        continue
                    acc = acc + chart_map.pull_scalar(g) * jac[i][a] * jac[j][b]
            rows[a][b] = acc
            rows[b][a] = acc
    return SymmetricTensorField(chart_map.domain, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class SymmetricTensorField:
    """Symmetric 0,2-tensor with scalar-field entries."""

    chart: Chart
    entries: tuple[tuple[ScalarField, ...], ...]

    def __post_init__(self):
        n = self.chart.dim
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entries must form a square matrix matching the chart")

    @classmethod
    def from_rows(cls, chart: Chart, rows: Sequence[Sequence[ScalarField | float]]) -> "SymmetricTensorField":
        n = chart.dim
        conv = [
            [
                e if isinstance(e, ScalarField) else ScalarField.constant(chart, float(e))
                for e in row
            ]
            for row in rows
        ]
        for i in range(n):
            for j in range(i + 1, n):
                if conv[i][j].ast != conv[j][i].ast:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        return cls(chart, tuple(tuple(r) for r in conv))

    def eval(self, point: Sequence[float]) -> np.ndarray:
        return stacked([point], self)[0][0]

    def signature(self, point: Sequence[float], tol: float = 1e-9) -> tuple[int, int, int]:
        """Counts of (positive, negative, zero) eigenvalues at the point."""
        pos, neg, zero = signatures(stacked([point], self)[0], tol)[0]
        return int(pos), int(neg), int(zero)

    def to_dict(self) -> dict:
        return {
            "chart": list(self.chart),
            "entries": [[e.render() for e in row] for row in self.entries],
        }


@dataclass(frozen=True)
class OperatorField:
    """Endomorphism field: rows of scalar-field entries, acting on vectors."""

    chart: Chart
    rows: tuple[tuple[ScalarField, ...], ...]

    def __post_init__(self):
        n = self.chart.dim
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("rows must form a square matrix matching the chart")

    @classmethod
    def from_rows(cls, chart: Chart, rows: Sequence[Sequence[ScalarField | float]]) -> "OperatorField":
        conv = tuple(
            tuple(
                e if isinstance(e, ScalarField) else ScalarField.constant(chart, float(e))
                for e in row
            )
            for row in rows
        )
        return cls(chart, conv)

    @classmethod
    def identity(cls, chart: Chart) -> "OperatorField":
        n = chart.dim
        return cls.from_rows(chart, [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])

    def eval(self, point: Sequence[float]) -> np.ndarray:
        return stacked([point], self)[0][0]

    def __matmul__(self, other: "OperatorField") -> "OperatorField":
        if self.chart != other.chart:
            raise ChartError("operators live on different charts")
        return OperatorField(self.chart, matmul_fields(self.rows, other.rows, self.chart))

    def __add__(self, other: "OperatorField") -> "OperatorField":
        if self.chart != other.chart:
            raise ChartError("operators live on different charts")
        n = self.chart.dim
        return OperatorField(
            self.chart,
            tuple(
                tuple(self.rows[i][j] + other.rows[i][j] for j in range(n)) for i in range(n)
            ),
        )

    def __sub__(self, other: "OperatorField") -> "OperatorField":
        return self + (-other)

    def __neg__(self) -> "OperatorField":
        return OperatorField(self.chart, tuple(tuple(-e for e in row) for row in self.rows))

    def __mul__(self, factor) -> "OperatorField":
        if isinstance(factor, (int, float)):
            factor = ScalarField.constant(self.chart, float(factor))
        if not isinstance(factor, ScalarField):
            return NotImplemented
        return OperatorField(self.chart, tuple(tuple(e * factor for e in row) for row in self.rows))

    def __rmul__(self, factor) -> "OperatorField":
        return self.__mul__(factor)

    def apply(self, x: VectorField) -> VectorField:
        if x.chart != self.chart:
            raise ChartError("operator and vector live on different charts")
        n = self.chart.dim
        comps = []
        for i in range(n):
            acc = ScalarField.constant(self.chart, 0.0)
            for j in range(n):
                acc = acc + self.rows[i][j] * x.components[j]
            comps.append(acc)
        return VectorField(self.chart, tuple(comps))

    def trace(self) -> ScalarField:
        acc = ScalarField.constant(self.chart, 0.0)
        for i in range(self.chart.dim):
            acc = acc + self.rows[i][i]
        return acc


def signatures(matrices: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """(positive, negative, zero) eigenvalue counts of each matrix in an
    (N, n, n) stack of symmetric matrices; a count is significant above
    tol times the largest eigenvalue magnitude, but at least tol."""
    vals = np.linalg.eigvalsh(matrices)
    bound = tol * np.maximum(np.max(np.abs(vals), axis=-1), 1.0)[:, np.newaxis]
    pos = np.sum(vals > bound, axis=-1)
    neg = np.sum(vals < -bound, axis=-1)
    return np.stack([pos, neg, matrices.shape[-1] - pos - neg], axis=-1)


def matmul_fields(
    a: Sequence[Sequence[ScalarField]],
    b: Sequence[Sequence[ScalarField]],
    chart: Chart,
) -> tuple[tuple[ScalarField, ...], ...]:
    n = len(a)
    zero = ScalarField.constant(chart, 0.0)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                if a[i][k].is_zero or b[k][j].is_zero:
                    continue
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def det_field(rows: Sequence[Sequence[ScalarField]], chart: Chart) -> ScalarField:
    """Determinant by Laplace expansion, skipping structural zeros."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ScalarField.constant(chart, 0.0)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [
            [rows[i][k] for k in range(n) if k != j]
            for i in range(1, n)
        ]
        term = entry * det_field(minor, chart)
        if j % 2 == 1:
            term = -term
        acc = acc + term
    return acc


def invert_field_matrix(
    rows: Sequence[Sequence[ScalarField]], chart: Chart
) -> tuple[tuple[tuple[ScalarField, ...], ...], ScalarField]:
    """Cramer inverse; exact for constant matrices via the same folding path."""
    n = len(rows)
    det = det_field(rows, chart)
    if det.is_zero:
        raise NondegeneracyError("matrix is structurally singular")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = det_field(minor, chart) if n > 1 else ScalarField.constant(chart, 1.0)
            if (i + j) % 2 == 1:
                cof = -cof
            row.append(cof / det)
        out.append(tuple(row))
    return tuple(out), det


def form_to_matrix(form: DifferentialForm) -> list[list[ScalarField]]:
    """Matrix of a 2-form: entry (i, j) is the value on basis vectors e_i, e_j."""
    if form.degree != 2:
        raise ValueError("matrix representation needs a 2-form")
    n = form.chart.dim
    zero = ScalarField.constant(form.chart, 0.0)
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), f in form.terms.items():
        mat[i][j] = f
        mat[j][i] = -f
    return mat


def matrix_to_form(chart: Chart, mat: Sequence[Sequence[ScalarField]]) -> DifferentialForm:
    items = []
    n = chart.dim
    for i in range(n):
        for j in range(i + 1, n):
            items.append(((i, j), mat[i][j]))
    return DifferentialForm.build(chart, 2, items)


def operator_from_pair(omega: DifferentialForm, big_omega: DifferentialForm) -> OperatorField:
    """Endomorphism A with omega(X, Y) = big_omega(A X, Y) for all X, Y.

    With antisymmetric matrices in the basis-value convention, A is the
    matrix product inv(big_omega) @ omega.
    """
    if omega.chart != big_omega.chart:
        raise ChartError("forms live on different charts")
    if omega.degree != 2 or big_omega.degree != 2:
        raise ValueError("both forms must have degree 2")
    chart = omega.chart
    om = form_to_matrix(omega)
    bo = form_to_matrix(big_omega)
    inv, _ = invert_field_matrix(bo, chart)
    return OperatorField(chart, matmul_fields(inv, om, chart))


class Peak(NamedTuple):
    """Sup of a sampled residual and the first sample point attaining it.

    ``parts`` holds one Peak per name when the residual is a dict; the
    overall value is then the largest of them.
    """

    value: float
    witness: tuple[float, ...] | None
    parts: dict[str, "Peak"]


def sampled_max(
    points: Sequence[Sequence[float]] | np.ndarray, residual: Callable[[np.ndarray], object]
) -> Peak:
    """Largest absolute residual over the sample points and where it peaks.

    ``residual(sample)`` receives the sample as an (N, dim) array, in
    consecutive slices of at most ``BATCH`` points (as ``eval_many`` walks
    them, so that a check's memory does not grow with N), and returns an array
    with the point on axis 0, or a dict of them by name. It runs under
    ``np.errstate(all="ignore")``: overflow and invalid arithmetic show up
    as non-finite residuals, not as warnings. A non-finite value counts as
    inf, so it cannot pass a ``< tol`` test. The witness is the first point
    attaining the maximum, when that is above zero; an empty sample gives
    0.0 with no witness and no named parts.
    """
    sample = np.asarray(points, dtype=float)
    maxima: dict = {}
    with np.errstate(all="ignore"):
        for start in range(0, len(sample), BATCH):
            batch = sample[start : start + BATCH]
            r = residual(batch)
            for name, part in r.items() if isinstance(r, dict) else ((None, r),):
                part = np.abs(np.asarray(part, dtype=float)).reshape(len(batch), -1)
                maxima.setdefault(name, []).append(part.max(axis=1, initial=0.0))
    peaks: dict = {}
    for name, parts in maxima.items():
        per_point = np.concatenate(parts)
        per_point[~np.isfinite(per_point)] = math.inf
        i = int(np.argmax(per_point))
        value = float(per_point[i])
        peaks[name] = (value, tuple(float(c) for c in sample[i]) if value > 0.0 else None)
    value, witness = max(peaks.values(), key=lambda peak: peak[0], default=(0.0, None))
    parts = {} if None in peaks else {k: Peak(v, w, {}) for k, (v, w) in peaks.items()}
    return Peak(value, witness, parts)


def stacked(points: Sequence[Sequence[float]] | np.ndarray, *items) -> list[np.ndarray]:
    """Values of fields, operators, symmetric tensors and 2-forms over a sample.

    Every entry of every item goes into one ``eval_many`` call, in item
    order, so subexpressions the items share run once. A ScalarField gives
    shape (N,), a list of fields (N, k), an OperatorField or a
    SymmetricTensorField (N, n, n) and a 2-form its matrix (N, n, n), each
    bit-identical to its per-point values.
    """
    fields: list[ScalarField] = []
    spans = []
    for item in items:
        start = len(fields)
        if isinstance(item, ScalarField):
            fields.append(item)
        elif isinstance(item, OperatorField):
            fields.extend(e for row in item.rows for e in row)
        elif isinstance(item, SymmetricTensorField):
            n = item.chart.dim
            fields.extend(item.entries[i][j] for i in range(n) for j in range(i, n))
        elif isinstance(item, DifferentialForm):
            if item.degree != 2:
                raise ValueError("matrix representation needs a 2-form")
            fields.extend(item.terms.values())
        else:
            fields.extend(item)
        spans.append((item, start, len(fields)))
    values = eval_many(fields, points)
    size = values.shape[1]
    out = []
    for item, start, stop in spans:
        rows = values[start:stop]
        if isinstance(item, ScalarField):
            out.append(rows[0])
        elif isinstance(item, OperatorField):
            n = item.chart.dim
            out.append(rows.T.reshape(size, n, n))
        elif isinstance(item, SymmetricTensorField):
            n = item.chart.dim
            i, j = np.triu_indices(n)
            m = np.empty((size, n, n))
            m[:, i, j] = rows.T
            m[:, j, i] = rows.T
            out.append(m)
        elif isinstance(item, DifferentialForm):
            n = item.chart.dim
            m = np.zeros((size, n, n))
            for (i, j), row in zip(item.terms, rows):
                m[:, i, j] = row
                m[:, j, i] = -row
            out.append(m)
        else:
            out.append(rows.T)
    return out


def sup_norm(
    item: DifferentialForm | ScalarField, points: Sequence[Sequence[float]]
) -> float:
    """Largest absolute value of a field, or of a form's coefficients, over the sample points."""
    fields = [item] if isinstance(item, ScalarField) else list(item.terms.values())
    return sampled_max(points, lambda sample: eval_many(fields, sample).T).value


def operator_sup_diff(
    a: OperatorField, b: OperatorField, points: Sequence[Sequence[float]]
) -> float:
    def residual(sample):
        a_values, b_values = stacked(sample, a, b)
        return a_values - b_values

    return sampled_max(points, residual).value
