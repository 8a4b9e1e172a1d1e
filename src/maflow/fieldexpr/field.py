"""Scalar fields: expression ASTs bound to a coordinate chart."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .chart import Chart, ChartError
from .errors import OrderLimitError
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
        return evaluate(self.ast, self.chart.point(point), 0)

    def jet(self, point: Sequence[float], order: int) -> Jet:
        if order > MAX_ORDER:
            raise OrderLimitError(
                f"jet order {order} exceeds the supported maximum {MAX_ORDER}"
            )
        pt = self.chart.point(point)
        series = evaluate(self.ast, pt, order)
        if not isinstance(series, Series):
            series = Series.constant(len(pt), order, series)
        return jet_from_series(series, order)

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
