"""Expression depth limits: deep input is a parse error, never a crash."""

import gc
import json
import math
import time

import pytest

from maflow import cli
from maflow.fieldexpr import Chart, ExprSyntaxError, parse_expression, parse_field
from maflow.fieldexpr.parse import MAX_DEPTH, MAX_NESTING

PLANE = Chart(("x1", "x2"))


def run_cli(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def parse_error(capsys, *args):
    code, out = run_cli(capsys, *args)
    assert code == 2, out
    return json.loads(out)["error"]


def test_deep_parentheses_are_a_parse_error_at_the_crossing(capsys):
    text = "(" * 400 + "x1" + ")" * 400
    error = parse_error(capsys, "triple", "--a", text)
    assert error["stage"] == "parse"
    assert error["offset"] == MAX_NESTING


def test_long_sum_is_a_parse_error_at_the_crossing(capsys):
    text = "+".join(["1"] + ["x1"] * 1999)
    error = parse_error(capsys, "triple", "--a", text)
    assert error["stage"] == "parse"
    # the '+' that would make the tree MAX_DEPTH + 1 levels high
    assert error["offset"] == 1 + 3 * (MAX_DEPTH - 1)


def test_300_term_sum_runs(capsys):
    text = "+".join(["1"] + ["x1"] * 299)
    code, out = run_cli(capsys, "triple", "--a", text, "--samples", "5")
    assert code == 0, out


@pytest.mark.parametrize(
    "text",
    [
        "+".join(["1"] + ["x1"] * (MAX_DEPTH - 1)),
        "sin(" * MAX_NESTING + "x1" + ")" * MAX_NESTING,
        "(1+x2-x2)*(" * (MAX_NESTING - 1)
        + "+".join(["1"] + ["x1"] * (MAX_DEPTH - MAX_NESTING))
        + ")" * (MAX_NESTING - 1),
    ],
    ids=["sum", "calls", "products-of-sums"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["triple"],
        ["hitchin", "--structure", "burgers-cy"],
        ["curvature", "--metric", "burgers-cy"],
    ],
    ids=lambda c: c[0],
)
def test_deepest_accepted_expressions_run(capsys, command, text):
    code, out = run_cli(capsys, *command, "--a", text, "--samples", "3")
    assert code in (0, 1), out


def test_limits_hold_in_the_parser():
    parse_expression("-" * 5000 + "x1", PLANE)
    parse_expression("x1" + "^1" * MAX_NESTING, PLANE)
    with pytest.raises(ExprSyntaxError, match="nest deeper"):
        parse_expression("x1" + "^1" * (MAX_NESTING + 1), PLANE)
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse_expression("*".join(["x1"] * (MAX_DEPTH + 1)), PLANE)


def test_rendering_the_derivative_of_a_deep_product():
    def product(n):
        return parse_field("*".join(["(1+x1)"] * n), PLANE).derivative(0)

    # d(P*f) = dP*f + P for a product P of n - 1 factors and f = 1 + x1
    assert product(300).render().endswith(")*(1 + x1) + " + "*".join(["(1 + x1)"] * 299))
    # the work is linear in the distinct nodes, so doubling the factors
    # about doubles the time; the best of several alternating runs
    best = {100: math.inf, 200: math.inf}
    fields = {n: product(n) for n in best}
    gc.disable()
    try:
        for _ in range(9):
            for n, field in fields.items():
                start = time.perf_counter()
                field.render()
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[200] < 2.5 * best[100], best
