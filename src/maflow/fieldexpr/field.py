"""Scalar fields: expression ASTs bound to a coordinate chart."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chart import Chart, ChartError
from .errors import DomainError, OrderLimitError
from .jet import Jet, jet_from_series
from .nodes import (
    Call,
    Compose,
    Deriv,
    Lit,
    Node,
    Var,
    free_vars,
    is_zero,
    mk_add,
    mk_div,
    mk_mul,
    mk_neg,
    mk_sub,
    render,
)
from .nodes import Pow as PowNode
from .taylor import MAX_ORDER, Series, evaluate


@dataclass(frozen=True)
class ScalarField:
    """A scalar-valued field on a chart, evaluated and differentiated exactly."""

    chart: Chart
    ast: Node

    @classmethod
    def constant(cls, chart: Chart, value: float) -> "ScalarField":
        return cls(chart, Lit(float(value)))

    @classmethod
    def coordinate(cls, chart: Chart, axis: int | str) -> "ScalarField":
        idx = axis if isinstance(axis, int) else chart.index(axis)
        if idx < 0 or idx >= chart.dim:
            raise ChartError(f"coordinate axis {axis!r} out of range")
        return cls(chart, Var(idx, chart.names[idx]))

    @property
    def is_zero(self) -> bool:
        return is_zero(self.ast)

    def eval(self, point: Sequence[float]) -> float:
        """The value at a point, walked as a one-row sample."""
        return _item(_at_point(self, point, 0))

    def jet(self, point: Sequence[float] | np.ndarray, order: int) -> Jet:
        """Value and partials up to the order at a point, walked as a one-row sample.

        Given an (N, dim) array instead, the jet of the whole sample: every
        partial is a column.
        """
        if isinstance(point, np.ndarray) and point.ndim == 2:
            return jets([self], point, order)[0]
        _check_order(order)
        jet = _jet_of(_at_point(self, point, order), self.chart.dim, order)
        jet.partials = {k: _item(v) for k, v in jet.partials.items()}
        return jet

    def derivative(self, *axes: int | str) -> "ScalarField":
        idx = tuple(a if isinstance(a, int) else self.chart.index(a) for a in axes)
        if not idx:
            return self
        if any(i < 0 or i >= self.chart.dim for i in idx):
            raise ChartError(f"derivative axis out of range for chart of dim {self.chart.dim}")
        if not set(idx) <= free_vars(self.ast):
            return ScalarField.constant(self.chart, 0.0)
        if isinstance(self.ast, Var):
            if len(idx) == 1 and idx[0] == self.ast.index:
                return ScalarField.constant(self.chart, 1.0)
            return ScalarField.constant(self.chart, 0.0)
        if isinstance(self.ast, Deriv):
            return ScalarField(self.chart, Deriv(self.ast.operand, self.ast.axes + idx))
        return ScalarField(self.chart, Deriv(self.ast, idx))

    def compose(self, host: Chart, parts: Sequence["ScalarField"]) -> "ScalarField":
        """Substitute one field per coordinate of this field's chart.

        All parts must live on the host chart; the result does too.
        """
        if len(parts) != self.chart.dim:
            raise ChartError(
                f"need {self.chart.dim} component fields, got {len(parts)}"
            )
        for p in parts:
            if p.chart != host:
                raise ChartError("component fields must share the host chart")
        if isinstance(self.ast, Lit):
            return ScalarField(host, self.ast)
        return ScalarField(host, Compose(self.ast, self.chart, tuple(p.ast for p in parts)))

    def render(self) -> str:
        return render(self.ast)

    def _coerce(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            if other.chart != self.chart:
                raise ChartError("fields live on different charts")
            return other
        if isinstance(other, (int, float)):
            return ScalarField.constant(self.chart, float(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, mk_add(self.ast, o.ast))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, mk_sub(self.ast, o.ast))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, mk_sub(o.ast, self.ast))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, mk_mul(self.ast, o.ast))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, mk_div(self.ast, o.ast))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarField(self.chart, mk_div(o.ast, self.ast))

    def __neg__(self):
        return ScalarField(self.chart, mk_neg(self.ast))

    def __pow__(self, power):
        if not isinstance(power, int):
            return NotImplemented
        if is_zero(self.ast) and power > 0:
            return ScalarField.constant(self.chart, 0.0)
        return ScalarField(self.chart, PowNode(self.ast, power))


# points per walk over the expression trees: enough to amortize the walk,
# few enough that the memory of an evaluation or a check stays flat in N
BATCH = 128


def per_slice(run: Callable[[slice], None], size: int) -> None:
    """``run(rows)`` for each consecutive slice of at most ``BATCH`` of ``size`` points.

    A DomainError raised inside gets its ``index``, when set, moved from the
    slice to the sample, so it names the sample point whatever the slice.
    """
    for start in range(0, size, BATCH):
        try:
            run(slice(start, start + BATCH))
        except DomainError as exc:
            if exc.index is not None:
                exc.index += start
            raise


def eval_many(fields: Sequence[ScalarField], points) -> np.ndarray:
    """Values of the fields over a sample: one row per field, one column per point.

    ``points`` is an (N, dim) array or a sequence of points on the fields'
    chart. Each tree is walked once per ``BATCH`` points, with one memo for
    all the fields, so a node that several fields share runs once. Every
    value equals ``field.eval(point)``, a walk over a one-point sample. A
    DomainError is the one that evaluating the fields in order, point by
    point, raises first; its ``point`` and ``index`` name that sample point.
    """
    out = np.empty((len(fields), len(points)))
    if not len(fields) or not len(points):
        return out
    sample = _shared_sample(fields, points)
    asts = [f.ast for f in fields]

    def walk(rows):
        for row, value in zip(out[:, rows], _evaluate_batch(asts, sample[rows], 0)):
            row[:] = value

    per_slice(walk, len(sample))
    return out


def jets(fields: Sequence[ScalarField], points, order: int) -> list[Jet]:
    """Jets of the fields over a sample, in one walk with one memo.

    ``points`` is an (N, dim) array or a sequence of points on the fields'
    chart. Every partial is a column, whose entries equal the partials of
    ``field.jet(point, order)`` by construction. A DomainError is the one
    that the jets of the fields, in order, point by point, raise first; its
    ``point`` and ``index`` name that sample point.
    """
    _check_order(order)
    if not len(fields):
        return []
    sample = _shared_sample(fields, points)
    n, dim = sample.shape
    out = []
    for series in _evaluate_batch([f.ast for f in fields], sample, order):
        jet = _jet_of(series, dim, order)
        jet.partials = {k: np.broadcast_to(v, (n,)) for k, v in jet.partials.items()}
        out.append(jet)
    return out


def _at_point(field: ScalarField, point: Sequence[float], order: int):
    """The tree's value or series at one point, walked as a one-row sample."""
    return _evaluate_batch([field.ast], np.array([field.chart.point(point)]), order)[0]


def _item(value) -> float:
    """A one-entry column, or the float of a part that no coordinate reaches."""
    return float(value[0]) if isinstance(value, np.ndarray) else float(value)


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise OrderLimitError(f"jet order {order} exceeds the supported maximum {MAX_ORDER}")


def _jet_of(series, dim: int, order: int) -> Jet:
    if not isinstance(series, Series):
        series = Series.constant(dim, order, series)
    return jet_from_series(series, order)


def _shared_sample(fields: Sequence[ScalarField], points) -> np.ndarray:
    """The sample as an (N, dim) float array on the chart dimension the fields share."""
    dim = fields[0].chart.dim
    sample = np.asarray(points, dtype=float)
    if sample.ndim != 2 or sample.shape[1] != dim:
        raise ChartError(f"sample of shape {sample.shape} does not fit chart of dim {dim}")
    for field in fields:
        if field.chart.dim != dim:
            raise ChartError("fields evaluated together must share a chart dimension")
    return sample


def _walk(asts: list[Node], sample: np.ndarray, order: int) -> list:
    point = tuple(np.ascontiguousarray(sample[:, i]) for i in range(sample.shape[1]))
    memo: dict = {}
    with np.errstate(all="ignore"):
        return [evaluate(ast, point, order, memo) for ast in asts]


def _evaluate_batch(asts: list[Node], sample: np.ndarray, order: int) -> list:
    """evaluate() of each tree over the whole sample, with one memo."""
    try:
        return _walk(asts, sample, order)
    except DomainError as exc:
        raise _first_failure(asts, sample, order, exc) from None


def _first_failure(
    asts: list[Node], sample: np.ndarray, order: int, exc: DomainError
) -> DomainError:
    """The error the point-by-point loop meets first, with its point.

    A failing guard reports the first point where it fails, but a guard
    later in the walk may fail at an earlier point: shrink the sample to
    the points before the failure until it evaluates, then walk the trees
    in order over the next point, as a one-row sample.
    """
    stop = exc.index or 0
    while stop > 0:
        try:
            _walk(asts, sample[:stop], order)
            break
        except DomainError as earlier:
            stop = min(earlier.index or 0, stop - 1)
    row = sample[stop : stop + 1]
    try:
        _walk(asts, row, order)
    except DomainError as first:
        exc = first
    exc.point, exc.index = tuple(float(c) for c in row[0]), stop
    return exc


def _call(fn: str, f: ScalarField) -> ScalarField:
    return ScalarField(f.chart, Call(fn, f.ast))


def sin(f: ScalarField) -> ScalarField:
    return _call("sin", f)


def cos(f: ScalarField) -> ScalarField:
    return _call("cos", f)


def exp(f: ScalarField) -> ScalarField:
    return _call("exp", f)


def log(f: ScalarField) -> ScalarField:
    return _call("log", f)


def sqrt(f: ScalarField) -> ScalarField:
    return _call("sqrt", f)


def absval(f: ScalarField) -> ScalarField:
    return _call("abs", f)


def coordinates(chart: Chart) -> tuple[ScalarField, ...]:
    return tuple(ScalarField.coordinate(chart, name) for name in chart)
