"""Jets against an independent oracle: sympy derivatives of generated expressions.

Expressions are drawn over the parser grammar, shaped so that every
subexpression stays inside its differentiable domain: divisors, log
arguments and bases of negative powers are bounded away from zero.
"""

from itertools import combinations_with_replacement

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from maflow.fieldexpr import Chart, parse_field  # noqa: E402

PLANE = Chart(("x1", "x2"))
SYMBOLS = sympy.symbols("x1 x2")
NAMES = {"x1": SYMBOLS[0], "x2": SYMBOLS[1], "pi": sympy.pi, "e": sympy.E}

LEAVES = st.one_of(
    st.sampled_from(["x1", "x2"]),
    st.sampled_from(["x2", "x1"]),
    st.sampled_from(["pi", "e", "3", "0.5", "1.25", "2.5e-1"]),
)


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})/(2+sin({t[1]}))"),
        inner.map(lambda a: f"-({a})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda a: f"(2+cos({a}))^(-2)"),
        st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda a: f"exp(sin({a}))"),
        inner.map(lambda a: f"log(2+sin({a}))"),
        inner.map(lambda a: f"sqrt(1+({a})^2)"),
    )


TERMS = st.recursive(LEAVES, _extend, max_leaves=3)
OPERATORS = st.sampled_from(["+", "-", "*"])
# three terms joined at the top, so that every example mixes precedences
EXPRESSIONS = st.tuples(TERMS, OPERATORS, TERMS, OPERATORS, TERMS).map("".join)
COORD = st.integers(-64, 64).map(lambda k: k / 64)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(text=EXPRESSIONS, point=st.tuples(COORD, COORD), order=st.integers(0, 4).map(lambda k: 4 - k))
def test_jets_match_sympy_derivatives(text, point, order):
    jet = parse_field(text, PLANE).jet(point, order)
    expr = sympy.sympify(text.replace("^", "**"), locals=NAMES, rational=True)
    subs = dict(zip(SYMBOLS, (sympy.Rational(c) for c in point)))
    derivatives = {(): expr}
    for k in range(order + 1):
        want = {}
        for axes in combinations_with_replacement(range(2), k):
            if axes not in derivatives:
                derivatives[axes] = sympy.diff(derivatives[axes[:-1]], SYMBOLS[axes[-1]])
            want[axes] = float(derivatives[axes].evalf(30, subs=subs))
        scale = max(1.0, max(abs(v) for v in want.values()))
        for axes, value in want.items():
            assert abs(jet.partials[axes] - value) <= 1e-9 * scale, (text, point, axes)
