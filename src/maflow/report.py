"""Structured check results and deterministic JSON reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

REPORT_VERSION = 1


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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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
    return json.dumps(out, sort_keys=True, indent=2)
