"""Truncated multivariate Taylor arithmetic and the one expression evaluator.

A :class:`Series` stores Taylor coefficients of a function around a point,
indexed by exponent multi-index. Coefficients carry the 1/alpha! factor, so
the partial derivative for a multi-index is coefficient times alpha!.
Derivatives are exact in the sense that every stored coefficient up to the
series order is the true Taylor coefficient of the (piecewise analytic)
expression; nothing is approximated by differencing.

:func:`evaluate` walks an expression once, with one rule per node type.
A point is a tuple of float64 columns of shape (N,), one per coordinate, so
the rules carry values and series coefficients for a whole sample at once;
a single point is a sample of one. Constants stay plain floats at every
order and become a series only when an operator meets one, and a coordinate
is its bare column at order 0, so an order-0 evaluation is column arithmetic
by construction: a value does not depend on whether it was asked for alone
or as part of a jet's evaluation. Elementwise ``+ - * /`` and ``sqrt`` are
correctly rounded, and ``sin``, ``cos``, ``exp`` and ``log`` go through
``math`` element by element, so no element depends on the rest of its
sample. The float branches of the guards and library rules serve the
subexpressions that no coordinate reaches. A guard that fails raises a
:class:`DomainError` whose ``index`` is the first failing position.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

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


def _kept(value) -> bool:
    """Whether a coefficient is stored: a float when nonzero, a column always."""
    return isinstance(value, np.ndarray) or value != 0.0


class Series:
    """Truncated Taylor series: dict from exponent tuple to coefficient.

    Absent keys are zero. All coefficients with total degree <= order are
    trustworthy; nothing of higher degree is stored. A coefficient is a
    float or a column over the sample. The operators ``+ - * /`` accept a
    float on either side and lift it through :meth:`constant`.
    """

    __slots__ = ("dim", "order", "c")

    def __init__(self, dim: int, order: int, c: dict[tuple[int, ...], float]):
        self.dim = dim
        self.order = order
        self.c = c

    @classmethod
    def constant(cls, dim: int, order: int, value: float) -> "Series":
        return cls(dim, order, {(0,) * dim: value} if _kept(value) else {})

    @classmethod
    def coordinate(cls, dim: int, order: int, index: int, value: float) -> "Series":
        c: dict[tuple[int, ...], float] = {}
        if _kept(value):
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
            if gamma == zero or (_kept(s) and _kept(val)):
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


def _domain_error(message: str, node: Node, index: int | None = None) -> DomainError:
    """The error for a failed check, naming the offending subexpression."""
    try:
        text = render(node)
    except Exception:
        error = DomainError(message)
    else:
        if len(text) > 48:
            text = text[:45] + "..."
        error = DomainError(f"{message} in '{text}'")
    error.index = index
    return error


def _guard(bad, message: str, node: Node) -> None:
    """Raise the domain error where ``bad`` holds: a bool, or a mask over the sample."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise _domain_error(message, node, int(bad.argmax()))
    elif bad:
        raise _domain_error(message, node)


def _math(fn, x, node: Call):
    """``fn`` from ``math`` of a float, or of each element of a column."""
    if not isinstance(x, np.ndarray):
        try:
            return fn(x)
        except OverflowError:
            raise _domain_error(f"overflow evaluating {node.fn}", node) from None
    out: list[float] = []
    try:
        for v in x.tolist():
            out.append(fn(v))
    except OverflowError:
        raise _domain_error(f"overflow evaluating {node.fn}", node, len(out)) from None
    return np.array(out)


def _value(x):
    return x.value if isinstance(x, Series) else x


def _library_coefficients(node: Call, x0, order: int) -> list:
    """Taylor coefficients of the node's function around x0, up to the order only."""
    fn = node.fn
    batch = isinstance(x0, np.ndarray)
    if fn in ("sin", "cos"):
        _guard(np.isinf(x0) if batch else math.isinf(x0), f"{fn} of an infinite value", node)
        if order == 0:
            return [_math(math.sin if fn == "sin" else math.cos, x0, node)]
        s, c = _math(math.sin, x0, node), _math(math.cos, x0, node)
        cycle = (s, c, -s, -c) if fn == "sin" else (c, -s, -c, s)
        return [cycle[j % 4] / _FACTORIAL[j] for j in range(order + 1)]
    if fn == "exp":
        v = _math(math.exp, x0, node)
        return [v / _FACTORIAL[j] for j in range(order + 1)]
    if fn == "log":
        _guard(x0 <= 0.0, "log of a non-positive value", node)
        out = [_math(math.log, x0, node)]
        power = x0
        for j in range(1, order + 1):
            _guard(power == 0.0, "overflow evaluating log", node)
            out.append(((-1.0) ** (j - 1)) / (j * power))
            power = power * x0
        return out
    if fn == "sqrt":
        _guard(x0 < 0.0, "sqrt of a negative value", node)
        if order >= 1:
            _guard(x0 == 0.0, "derivative of sqrt at zero", node)
        out = [np.sqrt(x0) if batch else math.sqrt(x0)]
        for j in range(1, order + 1):
            out.append(out[j - 1] * (1.5 - j) / (j * x0))
        return out
    if fn == "abs":
        if order >= 1:
            _guard(x0 == 0.0, "derivative of abs at zero", node)
        out = [abs(x0)] + [0.0] * order
        if order >= 1:
            out[1] = np.where(x0 > 0.0, 1.0, -1.0) if batch else (1.0 if x0 > 0.0 else -1.0)
        return out
    raise DomainError(f"unknown function {fn}")


def _var(node: Var, point, order, memo):
    if order == 0:
        return point[node.index]
    return Series.coordinate(len(point), order, node.index, point[node.index])


def _neg(node: Neg, point, order, memo):
    return -evaluate(node.arg, point, order, memo)


def _add(node: Add, point, order, memo):
    return evaluate(node.lhs, point, order, memo) + evaluate(node.rhs, point, order, memo)


def _sub(node: Sub, point, order, memo):
    return evaluate(node.lhs, point, order, memo) - evaluate(node.rhs, point, order, memo)


def _mul(node: Mul, point, order, memo):
    return evaluate(node.lhs, point, order, memo) * evaluate(node.rhs, point, order, memo)


def _div(node: Div, point, order, memo):
    num = evaluate(node.lhs, point, order, memo)
    den = evaluate(node.rhs, point, order, memo)
    _guard(_value(den) == 0.0, "division by a coefficient that vanishes at the point", node)
    return num / den


def _pow(node: Pow, point, order, memo):
    base = evaluate(node.base, point, order, memo)
    if node.power == 0:
        return 1.0
    if node.power > 0:
        return _ipow(base, node.power)
    denom = _ipow(base, -node.power)
    _guard(_value(denom) == 0.0, "negative power of a vanishing or underflowing base", node)
    return 1.0 / denom


def _call(node: Call, point, order, memo):
    inner = evaluate(node.arg, point, order, memo)
    if not isinstance(inner, Series):
        return _library_coefficients(node, inner, 0)[0]
    coeffs = _library_coefficients(node, inner.value, order)
    kept = {(j,): coeffs[j] for j in range(order + 1) if j == 0 or _kept(coeffs[j])}
    outer = Series(1, order, kept)
    return compose_many(outer, [inner.drop_constant()], len(point), order)


def _deriv(node: Deriv, point, order, memo):
    need = order + len(node.axes)
    if need > MAX_ORDER:
        raise OrderLimitError(
            f"jet order {order} of a derivative of order {len(node.axes)} "
            f"needs operand order {need}, above the supported maximum {MAX_ORDER}"
        )
    s = evaluate(node.operand, point, need, memo)
    if not isinstance(s, Series):
        return 0.0
    if order == 0:
        return s.partial(node.axes)
    for axis in node.axes:
        s = s.shift_deriv(axis)
    return s


def _compose(node: Compose, point, order, memo):
    parts = [evaluate(p, point, order, memo) for p in node.parts]
    # the outer tree lives on another chart and runs at another point
    outer = evaluate(node.outer, tuple(_value(p) for p in parts), order, {})
    if not isinstance(outer, Series):
        return outer
    dim = len(point)
    us = [p.drop_constant() if isinstance(p, Series) else Series(dim, order, {}) for p in parts]
    return compose_many(outer, us, dim, order)


_RULES = {
    Lit: lambda node, point, order, memo: node.value,
    Var: _var, Neg: _neg, Add: _add, Sub: _sub, Mul: _mul, Div: _div,
    Pow: _pow, Call: _call, Deriv: _deriv, Compose: _compose,
}


def evaluate(node: Node, point: tuple, order: int, memo: dict | None = None):
    """Value (order 0) or Taylor series (order >= 1) of the expression at the point.

    The point is a tuple of float64 columns, one per coordinate. A
    subexpression that does not depend on the coordinates evaluates to a
    float at every order, and a Compose passes such a part on as a float.
    ``memo`` maps (id(node), order) to what this point already computed, so
    a node shared within a tree, or by several trees evaluated with one
    memo, runs once; it must not outlive the trees. The caller checks
    ``order <= MAX_ORDER``.
    """
    if memo is None:
        memo = {}
    key = (id(node), order)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _RULES[type(node)](node, point, order, memo)
    return out
