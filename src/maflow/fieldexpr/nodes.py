"""Expression AST nodes.

Nodes are immutable and compare structurally; source offsets are carried for
error reporting but do not take part in equality. Two node kinds never come
out of the parser: ``Deriv`` marks an exact partial derivative of its operand
(evaluated through truncated Taylor arithmetic, never by rewriting the
operand), and ``Compose`` marks substitution of component expressions into a
field on another chart. Both are produced by geometric operations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .chart import Chart

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
# 'abs' is internal: geometric code needs |f| for normalizations, but the
# input grammar only admits sin, cos, exp, log, sqrt.
PARSEABLE_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Node:
    offset: int | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Lit(Node):
    """A constant; a named one (pi, e) renders by name and never folds."""

    value: float = 0.0
    name: str = ""


@dataclass(frozen=True)
class Var(Node):
    index: int = 0
    name: str = ""


@dataclass(frozen=True)
class Neg(Node):
    arg: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Add(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Sub(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Mul(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Div(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Pow(Node):
    base: Node = None  # type: ignore[assignment]
    power: int = 1


@dataclass(frozen=True)
class Call(Node):
    fn: str = ""
    arg: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Deriv(Node):
    """Exact partial derivative marker: d^k operand / d(axes)."""

    operand: Node = None  # type: ignore[assignment]
    axes: tuple[int, ...] = ()


@dataclass(frozen=True)
class Compose(Node):
    """Substitution marker: outer lives on inner_chart, parts on the host chart."""

    outer: Node = None  # type: ignore[assignment]
    inner_chart: Chart = None  # type: ignore[assignment]
    parts: tuple[Node, ...] = ()


def is_zero(node: Node) -> bool:
    return isinstance(node, Lit) and node.value == 0.0


def is_one(node: Node) -> bool:
    return isinstance(node, Lit) and node.value == 1.0


def const_value(node: Node) -> float | None:
    """Value of a constant leaf, or None."""
    return node.value if isinstance(node, Lit) else None


def _number(node: Node) -> float | None:
    """Value of an unnamed constant, the only kind that folds."""
    return node.value if isinstance(node, Lit) and not node.name else None


def free_vars(node: Node) -> frozenset[int]:
    if isinstance(node, Lit):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.index,))
    if isinstance(node, Neg):
        return free_vars(node.arg)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return free_vars(node.lhs) | free_vars(node.rhs)
    if isinstance(node, Pow):
        return free_vars(node.base)
    if isinstance(node, Call):
        return free_vars(node.arg)
    if isinstance(node, Deriv):
        return free_vars(node.operand)
    if isinstance(node, Compose):
        out: frozenset[int] = frozenset()
        for part in node.parts:
            out |= free_vars(part)
        return out
    raise TypeError(f"unhandled node {node!r}")


# Smart constructors with constant folding. They keep combined coefficient
# fields small and let structurally zero terms drop out of forms.

def mk_neg(a: Node) -> Node:
    if _number(a) is not None:
        return Lit(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mk_add(a: Node, b: Node) -> Node:
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    if _number(a) is not None and _number(b) is not None:
        return Lit(a.value + b.value)
    return Add(a, b)


def mk_sub(a: Node, b: Node) -> Node:
    if is_zero(b):
        return a
    if is_zero(a):
        return mk_neg(b)
    if _number(a) is not None and _number(b) is not None:
        return Lit(a.value - b.value)
    if a == b:
        return Lit(0.0)
    return Sub(a, b)


def mk_mul(a: Node, b: Node) -> Node:
    if is_zero(a) or is_zero(b):
        return Lit(0.0)
    if is_one(a):
        return b
    if is_one(b):
        return a
    if _number(a) is not None and _number(b) is not None:
        return Lit(a.value * b.value)
    return Mul(a, b)


def mk_div(a: Node, b: Node) -> Node:
    if is_zero(a):
        return Lit(0.0)
    if is_one(b):
        return a
    if _number(a) is not None and _number(b) is not None and b.value != 0.0:
        return Lit(a.value / b.value)
    return Div(a, b)


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(node: Node) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_UNARY
    if _number(node) is not None and node.value < 0:
        return _PREC_UNARY
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def fmt_number(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def render(node: Node) -> str:
    """Render a plain AST back to source text.

    Parsing the result reproduces the AST (offsets aside). Deriv and Compose
    markers are expanded through :func:`to_plain` first; note that expansions
    involving ``abs`` are not re-parseable, since ``abs`` is not part of the
    input grammar.
    """
    return _render_plain(to_plain(node))


def _children(node: Node) -> tuple[Node, ...]:
    """Operands of a plain node."""
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.lhs, node.rhs)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _postorder(root: Node, step):
    """step(node, results for its operands) for each distinct node of a plain
    tree, operands first, in a loop rather than by recursion, so that the
    height of the tree is no limit and a shared subtree is visited once.
    Returns the result for the root."""
    done: dict[int, object] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        operands = _children(node)
        pending = [k for k in operands if id(k) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        done[id(node)] = step(node, [done[id(k)] for k in operands])
    return done[id(root)]


def _render_plain(root: Node) -> str:
    """Source text of a plain AST, without recursion.

    A subtree used more than once gets its text built once and copied where
    it occurs; every other node is written straight into the text of its
    nearest such ancestor. The work is linear in the distinct nodes plus
    the text of the shared ones, however tall the tree.
    """
    order: list[Node] = []
    _postorder(root, lambda node, _: order.append(node))
    uses = Counter(id(k) for node in order for k in _children(node))
    texts: dict[int, str] = {}
    for node in order:
        if uses[id(node)] > 1 or node is root:
            texts[id(node)] = _text(node, texts)
    return texts[id(root)]


def _text(top: Node, texts: dict[int, str]) -> str:
    out: list[str] = []
    stack: list = [top]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is not top and id(item) in texts:
            out.append(texts[id(item)])
        else:
            stack.extend(reversed(_pieces(item)))
    return "".join(out)


_INFIX = {
    Add: (" + ", _PREC_ADD), Sub: (" - ", _PREC_ADD), Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL),
}


def _paren(node: Node, minimum: int) -> list:
    return ["(", node, ")"] if _prec(node) < minimum else [node]


def _pieces(node: Node) -> list:
    """The text of a node as strings and operand nodes, in order."""
    infix = _INFIX.get(type(node))
    if infix is not None:
        op, prec = infix
        return [*_paren(node.lhs, prec), op, *_paren(node.rhs, prec + 1)]
    if isinstance(node, Lit):
        return [node.name or fmt_number(node.value)]
    if isinstance(node, Var):
        return [node.name]
    if isinstance(node, Neg):
        return ["-", *_paren(node.arg, _PREC_UNARY)]
    if isinstance(node, Pow):
        power = f"^({node.power})" if node.power < 0 else f"^{node.power}"
        return [*_paren(node.base, _PREC_ATOM), power]
    if isinstance(node, Call):
        return [f"{node.fn}(", node.arg, ")"]
    raise TypeError(f"cannot render {node!r}")


def to_plain(node: Node, parts: tuple[Node, ...] | None = None) -> Node:
    """Expand Deriv and Compose markers into the plain grammar.

    With ``parts``, the plain result has ``parts[i]`` substituted for each
    coordinate ``Var`` of index i. Used only for rendering and
    serialization; evaluation goes through the Taylor machinery and never
    rewrites operands.
    """
    if isinstance(node, Var) and parts is not None:
        return parts[node.index]
    if isinstance(node, (Lit, Var)):
        return node
    if isinstance(node, Neg):
        return mk_neg(to_plain(node.arg, parts))
    if isinstance(node, Add):
        return mk_add(to_plain(node.lhs, parts), to_plain(node.rhs, parts))
    if isinstance(node, Sub):
        return mk_sub(to_plain(node.lhs, parts), to_plain(node.rhs, parts))
    if isinstance(node, Mul):
        return mk_mul(to_plain(node.lhs, parts), to_plain(node.rhs, parts))
    if isinstance(node, Div):
        return mk_div(to_plain(node.lhs, parts), to_plain(node.rhs, parts))
    if isinstance(node, Pow):
        return Pow(to_plain(node.base, parts), node.power)
    if isinstance(node, Call):
        return Call(node.fn, to_plain(node.arg, parts))
    if isinstance(node, Deriv):
        out = to_plain(node.operand)
        for axis in node.axes:
            out = _diff_plain(out, axis)
    elif isinstance(node, Compose):
        out = to_plain(to_plain(node.outer), tuple(to_plain(p) for p in node.parts))
    else:
        raise TypeError(f"unhandled node {node!r}")
    return out if parts is None else to_plain(out, parts)


def _diff_plain(root: Node, axis: int) -> Node:
    """Symbolic derivative of a plain AST, for rendering only.

    One pass over the distinct nodes, operands first, carries each node's
    free variables along with its derivative; a node free of the axis has
    derivative zero.
    """

    def step(node: Node, operands: list[tuple[frozenset, Node]]) -> tuple[frozenset, Node]:
        if isinstance(node, Var):
            free = frozenset((node.index,))
        else:
            free = frozenset().union(*(f for f, _ in operands))
        if axis not in free:
            return free, Lit(0.0)
        return free, _diff_rule(node, axis, [d for _, d in operands])

    return _postorder(root, step)[1]


def _diff_rule(node: Node, axis: int, d: list[Node]) -> Node:
    """Derivative of a node that depends on the axis, from its operands' derivatives."""
    if isinstance(node, Var):
        return Lit(1.0)
    if isinstance(node, Neg):
        return mk_neg(d[0])
    if isinstance(node, Add):
        return mk_add(d[0], d[1])
    if isinstance(node, Sub):
        return mk_sub(d[0], d[1])
    if isinstance(node, Mul):
        return mk_add(mk_mul(d[0], node.rhs), mk_mul(node.lhs, d[1]))
    if isinstance(node, Div):
        num = mk_sub(mk_mul(d[0], node.rhs), mk_mul(node.lhs, d[1]))
        return mk_div(num, Pow(node.rhs, 2))
    if isinstance(node, Pow):
        if node.power == 0:
            return Lit(0.0)
        lead = mk_mul(Lit(float(node.power)), Pow(node.base, node.power - 1))
        return mk_mul(lead, d[0])
    if isinstance(node, Call):
        a = node.arg
        if node.fn == "sin":
            outer: Node = Call("cos", a)
        elif node.fn == "cos":
            outer = mk_neg(Call("sin", a))
        elif node.fn == "exp":
            outer = Call("exp", a)
        elif node.fn == "log":
            outer = mk_div(Lit(1.0), a)
        elif node.fn == "sqrt":
            outer = mk_div(Lit(1.0), mk_mul(Lit(2.0), Call("sqrt", a)))
        elif node.fn == "abs":
            # valid away from zeros of a, which is where abs gets evaluated
            outer = mk_div(a, Call("abs", a))
        else:
            raise TypeError(f"no derivative rule for {node.fn}")
        return mk_mul(outer, d[0])
    raise TypeError(f"cannot differentiate {node!r}")
