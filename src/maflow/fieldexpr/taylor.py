"""Truncated multivariate Taylor arithmetic and the one expression evaluator.

A :class:`Series` stores Taylor coefficients of a function around a point,
indexed by exponent multi-index. Coefficients carry the 1/alpha! factor, so
the partial derivative for a multi-index is coefficient times alpha!.
Derivatives are exact in the sense that every stored coefficient up to the
series order is the true Taylor coefficient of the (piecewise analytic)
expression; nothing is approximated by differencing.

:func:`evaluate` walks an expression once, with one rule per node type.
Constants stay plain floats at every order and become a series only when an
operator meets one, and coordinates are plain floats at order 0, so an
order-0 evaluation is float arithmetic by construction: a value does not
depend on whether it was asked for alone or as part of a jet's evaluation.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from .errors import DomainError, OrderLimitError
from .nodes import (
    Add,
    Call,
    Compose,
    Deriv,
    Div,
    Lit,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    Var,
    render,
)

MAX_ORDER = 4

_FACTORIAL = tuple(math.factorial(k) for k in range(MAX_ORDER + 1))


def multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices with total degree <= order, graded lex."""
    out: list[tuple[int, ...]] = []
    for total in range(order + 1):
        block = set()
        for combo in combinations_with_replacement(range(dim), total):
            alpha = [0] * dim
            for axis in combo:
                alpha[axis] += 1
            block.add(tuple(alpha))
        out.extend(sorted(block))
    return out


def _ipow(x, n: int):
    """x**n for n >= 1 by binary exponentiation, for floats and series alike."""
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


class Series:
    """Truncated Taylor series: dict from exponent tuple to coefficient.

    Absent keys are zero. All coefficients with total degree <= order are
    trustworthy; nothing of higher degree is stored. The operators ``+ - * /``
    accept a float on either side and lift it through :meth:`constant`.
    """

    __slots__ = ("dim", "order", "c")

    def __init__(self, dim: int, order: int, c: dict[tuple[int, ...], float]):
        self.dim = dim
        self.order = order
        self.c = c

    @classmethod
    def constant(cls, dim: int, order: int, value: float) -> "Series":
        return cls(dim, order, {(0,) * dim: value} if value != 0.0 else {})

    @classmethod
    def coordinate(cls, dim: int, order: int, index: int, value: float) -> "Series":
        c: dict[tuple[int, ...], float] = {}
        if value != 0.0:
            c[(0,) * dim] = value
        if order >= 1:
            unit = tuple(1 if i == index else 0 for i in range(dim))
            c[unit] = 1.0
        return cls(dim, order, c)

    @property
    def value(self) -> float:
        return self.c.get((0,) * self.dim, 0.0)

    def partial(self, axes: tuple[int, ...]) -> float:
        """Mixed partial for repeated axes, e.g. (0, 0, 1) for d^3/dx0^2 dx1."""
        alpha = [0] * self.dim
        for axis in axes:
            alpha[axis] += 1
        fact = 1
        for a in alpha:
            fact *= _FACTORIAL[a]
        return self.c.get(tuple(alpha), 0.0) * fact

    def _lift(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        return Series.constant(self.dim, self.order, other)

    def __neg__(self) -> "Series":
        return Series(self.dim, self.order, {k: -v for k, v in self.c.items()})

    def __add__(self, other) -> "Series":
        other = self._lift(other)
        out = dict(self.c)
        for k, v in other.c.items():
            if k in out:
                out[k] = out[k] + v
            else:
                out[k] = v
        return Series(self.dim, min(self.order, other.order), out)

    def __radd__(self, other) -> "Series":
        return self._lift(other) + self

    def __sub__(self, other) -> "Series":
        other = self._lift(other)
        out = dict(self.c)
        for k, v in other.c.items():
            if k in out:
                out[k] = out[k] - v
            else:
                out[k] = -v
        return Series(self.dim, min(self.order, other.order), out)

    def __rsub__(self, other) -> "Series":
        return self._lift(other) - self

    def scale(self, factor: float) -> "Series":
        return Series(self.dim, self.order, {k: v * factor for k, v in self.c.items()})

    def __mul__(self, other) -> "Series":
        other = self._lift(other)
        order = min(self.order, other.order)
        out: dict[tuple[int, ...], float] = {}
        for ka, va in self.c.items():
            da = sum(ka)
            for kb, vb in other.c.items():
                if da + sum(kb) > order:
                    continue
                key = tuple(a + b for a, b in zip(ka, kb))
                if key in out:
                    out[key] = out[key] + va * vb
                else:
                    out[key] = va * vb
        return Series(self.dim, order, out)

    def __rmul__(self, other) -> "Series":
        return self._lift(other) * self

    def __truediv__(self, other) -> "Series":
        """Long division; the divisor's value must not vanish.

        The order-0 quotient is the exact float quotient.
        """
        other = self._lift(other)
        b0 = other.value
        order = min(self.order, other.order)
        zero = (0,) * self.dim
        quot: dict[tuple[int, ...], float] = {}
        for gamma in multi_indices(self.dim, order):
            s = self.c.get(gamma, 0.0)
            for beta, vb in other.c.items():
                if beta == zero:
                    continue
                diff = tuple(g - b for g, b in zip(gamma, beta))
                if any(d < 0 for d in diff):
                    continue
                cv = quot.get(diff)
                if cv is not None:
                    s = s - vb * cv
            val = s / b0
            if val != 0.0 or gamma == zero:
                quot[gamma] = val
        return Series(self.dim, order, quot)

    def __rtruediv__(self, other) -> "Series":
        return self._lift(other) / self

    def shift_deriv(self, axis: int) -> "Series":
        """Series of the partial derivative along one axis."""
        out: dict[tuple[int, ...], float] = {}
        for alpha, v in self.c.items():
            k = alpha[axis]
            if k == 0:
                continue
            beta = alpha[:axis] + (k - 1,) + alpha[axis + 1 :]
            out[beta] = v * k
        return Series(self.dim, max(self.order - 1, 0), out)

    def drop_constant(self) -> "Series":
        zero = (0,) * self.dim
        out = {k: v for k, v in self.c.items() if k != zero}
        return Series(self.dim, self.order, out)


def compose_many(outer: Series, parts: list[Series], dim: int, order: int) -> Series:
    """Substitute inner series (with constant terms removed) into outer."""
    zero_inner = (0,) * outer.dim
    result = Series.constant(dim, order, outer.c.get(zero_inner, 0.0))
    powers: list[list[Series]] = []
    for u in parts:
        powers.append([Series.constant(dim, order, 1.0), u])
    for alpha in sorted(outer.c, key=lambda a: (sum(a), a)):
        if alpha == zero_inner:
            continue
        coeff = outer.c[alpha]
        term: Series | None = None
        for j, k in enumerate(alpha):
            if k == 0:
                continue
            while len(powers[j]) <= k:
                powers[j].append(powers[j][-1] * powers[j][1])
            pw = powers[j][k]
            term = pw if term is None else term * pw
        if term is None:
            continue
        result = result + term.scale(coeff)
    return result


def _domain_error(message: str, node: Node) -> DomainError:
    """The error for a failed check, naming the offending subexpression."""
    try:
        text = render(node)
    except Exception:
        return DomainError(message)
    if len(text) > 48:
        text = text[:45] + "..."
    return DomainError(f"{message} in '{text}'")


def _value(x: float | Series) -> float:
    return x.value if isinstance(x, Series) else x


def _library_coefficients(node: Call, x0: float, order: int) -> list[float]:
    """Taylor coefficients of the node's function around x0, up to the order only."""
    fn = node.fn
    try:
        if fn in ("sin", "cos"):
            if math.isinf(x0):
                raise _domain_error(f"{fn} of an infinite value", node)
            if order == 0:
                return [math.sin(x0) if fn == "sin" else math.cos(x0)]
            s, c = math.sin(x0), math.cos(x0)
            cycle = (s, c, -s, -c) if fn == "sin" else (c, -s, -c, s)
            return [cycle[j % 4] / _FACTORIAL[j] for j in range(order + 1)]
        if fn == "exp":
            v = math.exp(x0)
            return [v / _FACTORIAL[j] for j in range(order + 1)]
        if fn == "log":
            if x0 <= 0.0:
                raise _domain_error("log of a non-positive value", node)
            out = [math.log(x0)]
            power = x0
            for j in range(1, order + 1):
                out.append(((-1.0) ** (j - 1)) / (j * power))
                power *= x0
            return out
        if fn == "sqrt":
            if x0 < 0.0:
                raise _domain_error("sqrt of a negative value", node)
            if x0 == 0.0 and order >= 1:
                raise _domain_error("derivative of sqrt at zero", node)
            out = [math.sqrt(x0)]
            for j in range(1, order + 1):
                out.append(out[j - 1] * (1.5 - j) / (j * x0))
            return out
        if fn == "abs":
            if x0 == 0.0 and order >= 1:
                raise _domain_error("derivative of abs at zero", node)
            out = [abs(x0)] + [0.0] * order
            if order >= 1:
                out[1] = 1.0 if x0 > 0.0 else -1.0
            return out
    except OverflowError:
        raise _domain_error(f"overflow evaluating {fn}", node) from None
    raise DomainError(f"unknown function {fn}")


def _var(node: Var, point, order):
    if order == 0:
        return point[node.index]
    return Series.coordinate(len(point), order, node.index, point[node.index])


def _neg(node: Neg, point, order):
    return -evaluate(node.arg, point, order)


def _add(node: Add, point, order):
    return evaluate(node.lhs, point, order) + evaluate(node.rhs, point, order)


def _sub(node: Sub, point, order):
    return evaluate(node.lhs, point, order) - evaluate(node.rhs, point, order)


def _mul(node: Mul, point, order):
    return evaluate(node.lhs, point, order) * evaluate(node.rhs, point, order)


def _div(node: Div, point, order):
    num = evaluate(node.lhs, point, order)
    den = evaluate(node.rhs, point, order)
    if _value(den) == 0.0:
        raise _domain_error("division by a coefficient that vanishes at the point", node)
    return num / den


def _pow(node: Pow, point, order):
    base = evaluate(node.base, point, order)
    if node.power == 0:
        return 1.0
    if node.power > 0:
        return _ipow(base, node.power)
    denom = _ipow(base, -node.power)
    if _value(denom) == 0.0:
        raise _domain_error("negative power of a vanishing or underflowing base", node)
    return 1.0 / denom


def _call(node: Call, point, order):
    inner = evaluate(node.arg, point, order)
    if not isinstance(inner, Series):
        return _library_coefficients(node, inner, 0)[0]
    coeffs = _library_coefficients(node, inner.value, order)
    outer = Series(1, order, {(j,): coeffs[j] for j in range(order + 1) if coeffs[j] != 0.0 or j == 0})
    return compose_many(outer, [inner.drop_constant()], len(point), order)


def _deriv(node: Deriv, point, order):
    need = order + len(node.axes)
    if need > MAX_ORDER:
        raise OrderLimitError(
            f"jet order {order} of a derivative of order {len(node.axes)} "
            f"needs operand order {need}, above the supported maximum {MAX_ORDER}"
        )
    s = evaluate(node.operand, point, need)
    if not isinstance(s, Series):
        return 0.0
    if order == 0:
        return s.partial(node.axes)
    for axis in node.axes:
        s = s.shift_deriv(axis)
    return s


def _compose(node: Compose, point, order):
    parts = [evaluate(p, point, order) for p in node.parts]
    outer = evaluate(node.outer, tuple(_value(p) for p in parts), order)
    if not isinstance(outer, Series):
        return outer
    dim = len(point)
    us = [p.drop_constant() if isinstance(p, Series) else Series(dim, order, {}) for p in parts]
    return compose_many(outer, us, dim, order)


_RULES = {
    Lit: lambda node, point, order: node.value,
    Var: _var, Neg: _neg, Add: _add, Sub: _sub, Mul: _mul, Div: _div,
    Pow: _pow, Call: _call, Deriv: _deriv, Compose: _compose,
}


def evaluate(node: Node, point: tuple[float, ...], order: int) -> float | Series:
    """Value (order 0) or Taylor series (order >= 1) of the expression at the point.

    A subexpression that does not depend on the coordinates evaluates to a
    float at every order. The caller checks ``order <= MAX_ORDER``.
    """
    return _RULES[type(node)](node, point, order)
