"""Structured check results and deterministic JSON reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape

REPORT_VERSION = 1
_INF = float("inf")


@dataclass
class CheckResult:
    """One named numeric check with its residual and tolerance.

    This is the one place a verdict is made: the check passes when
    ``holds`` and its residual, if it has one, is below the tolerance. A
    NaN or inf residual is never below it, so it fails. ``holds`` carries
    the conditions that are not a residual, such as a signature.
    """

    name: str
    residual: float | None = None
    tolerance: float | None = None
    detail: dict = field(default_factory=dict)
    holds: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.holds and (self.residual is None or self.residual < self.tolerance))

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    """A command's full output: inputs echoed, results, derived data."""

    command: str
    inputs: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    seed: int | None = None
    samples: int | None = None

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        out: dict = {
            "report_version": REPORT_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
            "passed": self.all_passed,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.samples is not None:
            out["samples"] = self.samples
        return out

    def to_json(self) -> str:
        return dumps(self.to_dict())


def error_envelope(
    stage: str,
    message: str,
    offset: int | None = None,
    point: tuple[float, ...] | None = None,
) -> str:
    out: dict = {"error": {"stage": stage, "message": message}}
    if offset is not None:
        out["error"]["offset"] = offset
    if point is not None:
        out["error"]["point"] = [float(c) for c in point]
    return dumps(out)


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    The standard library writes an indented document with a pure-Python
    generator per container; this writer appends to one list and writes the
    str and finite float leaves of a dict or list in the container's own
    loop. NaN and the infinities are the bare tokens ``NaN``, ``Infinity``
    and ``-Infinity``, a float (or a subclass such as ``np.float64``) is its
    ``float.__repr__``, and anything else raises ``TypeError``. There is no
    cycle check: a self-containing list recurses until ``RecursionError``.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    if isinstance(value, dict):
        _write_dict(value, newline, out)
    elif isinstance(value, (list, tuple)):
        _write_list(value, newline, out)
    elif isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_list(value, newline: str, out: list[str]) -> None:
    if not value:
        out.append("[]")
        return
    append = out.append
    inner = newline + "  "
    sep = "[" + inner
    for item in value:
        cls = item.__class__
        if cls is str:
            append(sep + _escape(item))
        elif cls is float and -_INF < item < _INF:
            append(f"{sep}{item!r}")
        else:
            append(sep)
            _write(item, inner, out)
        sep = "," + inner
    append(newline + "]")


def _write_dict(value, newline: str, out: list[str]) -> None:
    if not value:
        out.append("{}")
        return
    append = out.append
    inner = newline + "  "
    sep = "{" + inner
    for key, item in sorted(value.items()):
        if key.__class__ is not str:
            key = _key_text(key)
        cls = item.__class__
        if cls is str:
            append(f"{sep}{_escape(key)}: {_escape(item)}")
        elif cls is float and -_INF < item < _INF:
            append(f"{sep}{_escape(key)}: {item!r}")
        else:
            append(f"{sep}{_escape(key)}: ")
            _write(item, inner, out)
        sep = "," + inner
    append(newline + "}")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A non-str dict key as ``json`` writes it, before escaping."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
