"""Errors raised while parsing or evaluating coefficient expressions."""

from __future__ import annotations


class ExpressionError(ValueError):
    """Base class for expression failures.

    ``offset`` is a 0-based byte offset into the source string, or None for
    fields that were built programmatically.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)


class ExprSyntaxError(ExpressionError):
    pass


class UnknownIdentifierError(ExpressionError):
    pass


class ArityError(ExpressionError):
    pass


class ExponentError(ExprSyntaxError):
    """Exponent of ^ does not fold to an integer constant."""


class DomainError(ExpressionError):
    """Evaluation hit a singularity.

    Raised for log or sqrt of values outside their differentiable domain and
    for division by zero. The message names the offending subexpression;
    ``point`` is the point where it failed, when known, and ``index`` that
    point's position in the sample evaluated as a batch.
    """

    point: tuple[float, ...] | None = None
    index: int | None = None


class OrderLimitError(ExpressionError):
    """A jet of order above the supported maximum was requested."""
