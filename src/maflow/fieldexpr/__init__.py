"""Scalar fields on coordinate charts with exact jet evaluation."""

from .chart import Chart, ChartError
from .errors import (
    ArityError,
    DomainError,
    ExponentError,
    ExpressionError,
    ExprSyntaxError,
    OrderLimitError,
    UnknownIdentifierError,
)
from .field import ScalarField, absval, cos, coordinates, eval_many, exp, jets, log, sin, sqrt
from .jet import Jet
from .parse import parse_expression, parse_field
from .taylor import MAX_ORDER

__all__ = [
    "ArityError",
    "Chart",
    "ChartError",
    "DomainError",
    "ExponentError",
    "ExpressionError",
    "ExprSyntaxError",
    "Jet",
    "MAX_ORDER",
    "OrderLimitError",
    "ScalarField",
    "UnknownIdentifierError",
    "absval",
    "coordinates",
    "cos",
    "eval_many",
    "exp",
    "jets",
    "log",
    "parse_expression",
    "parse_field",
    "sin",
    "sqrt",
]
