"""Running one op against maflow and scoring it against its expectation.

An op is a dict made by ``gen.py``. ``kind == "cli"`` ops call
``maflow.cli.main(argv)`` in-process and capture the JSON report it prints;
``kind == "verify"`` ops call ``ma4.verify_generalized_solution`` directly.
Only numpy and maflow are imported here, so the measured process stays free
of sympy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

LATTICE_N = 64


def write_lattice(path: Path, params: dict) -> None:
    """Row-major CSV of u = (psi_x2, -psi_x1) + (u0, v0) on [0, 2 pi]^2.

    psi = amp sin(k x1 + p1) sin(k x2 + p2), as in gen._lattice_source.
    """
    amp, k, p1, p2 = params["amp"], params["k"], params["p1"], params["p2"]
    ax = np.linspace(0.0, 2.0 * math.pi, LATTICE_N)
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    u = amp * k * np.sin(k * x1 + p1) * np.cos(k * x2 + p2) + params["u0"]
    v = -amp * k * np.cos(k * x1 + p1) * np.sin(k * x2 + p2) + params["v0"]
    table = np.column_stack([x1.ravel(), x2.ravel(), u.ravel(), v.ravel()])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="x1,x2,u1,u2", comments="")


def prepare(op: dict, lattice_path: str) -> dict:
    """Resolve inputs that live on disk; called before the op is timed."""
    if "lattice" in op:
        write_lattice(Path(lattice_path), op["lattice"])
        argv = [a.replace("=LATTICE", "=" + lattice_path) for a in op["argv"]]
        op = dict(op, argv=argv)
    return op


class Runner:
    """Executes ops in this process; ``maflow`` is the imported package."""

    def __init__(self, maflow_modules: dict):
        self.cli = maflow_modules["cli"]
        self.ma4 = maflow_modules["ma4"]
        self.parse_field = maflow_modules["parse_field"]

    def run(self, op: dict, clock) -> tuple[float, int | None, str, str | None]:
        """Return (latency_s, exit_code, output, error) for one op.

        ``output`` is the JSON text to digest and score; ``error`` is the
        repr of an uncaught exception, in which case exit_code is None.
        """
        if op["kind"] == "verify":
            return self._verify(op, clock)
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejected the argv
            return clock() - t0, exc.code, buf.getvalue(), None
        except Exception as exc:  # an uncaught exception is a failed op
            return clock() - t0, None, buf.getvalue(), repr(exc)
        return clock() - t0, code, buf.getvalue(), None

    def _verify(self, op: dict, clock):
        rng = np.random.default_rng(op["point_seed"])
        points = rng.uniform(-1.0, 1.0, size=(op["samples"], 2))
        ma4 = self.ma4
        t0 = clock()
        try:
            structure = ma4.flow_structure(op["a"])
            psi = self.parse_field(op["psi"], ma4.base_chart())
            out = ma4.verify_generalized_solution(structure, psi, points)
        except Exception as exc:
            return clock() - t0, None, "", repr(exc)
        latency = clock() - t0
        keep = {k: v for k, v in out.items() if k != "induced_metric"}
        return latency, None, json.dumps(keep, sort_keys=True, default=_plain), None


def _plain(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def score(op: dict, code: int | None, output: str, error: str | None) -> list[str]:
    """Problems with one op's outcome; an empty list means it is correct."""
    if error is not None:
        return [f"uncaught exception {error}"]
    expect = op["expect"]
    problems = []
    if op["kind"] == "cli" and code != expect["exit"]:
        problems.append(f"exit code {code}, expected {expect['exit']}")
    try:
        doc = json.loads(output)
    except ValueError:
        return problems + ["output is not one JSON document"]
    try:
        problems += _score_doc(expect, doc)
    except (KeyError, IndexError, TypeError) as exc:
        problems.append(f"report lacks an expected field: {exc!r}")
    return problems


def _score_doc(expect: dict, doc) -> list[str]:
    problems = []
    checks = {c["name"]: c for c in doc["checks"]} if "checks" in doc else {}
    if "all_checks" in expect:
        if not checks:
            problems.append("report has no checks")
        for name, check in checks.items():
            if check["passed"] != expect["all_checks"]:
                problems.append(f"check {name} passed={check['passed']}")
    if "n_checks" in expect and len(checks) != expect["n_checks"]:
        problems.append(f"{len(checks)} checks, expected {expect['n_checks']}")
    for name, passed in expect.get("checks", {}).items():
        if name not in checks:
            problems.append(f"check {name} missing")
        elif checks[name]["passed"] != passed:
            problems.append(f"check {name} passed={checks[name]['passed']}, expected {passed}")
    for name, (value, tol) in expect.get("residuals", {}).items():
        got = checks[name]["residual"]
        if not abs(got - value) <= tol:
            problems.append(f"check {name} residual {got}, expected {value} +- {tol}")
    for path, value in expect.get("equal", []):
        got = _get(doc, path)
        if got != value:
            problems.append(f"{'.'.join(path)} = {got!r}, expected {value!r}")
    for path, value, tol in expect.get("close", []):
        got = _get(doc, path)
        if not abs(got - value) <= tol:
            problems.append(f"{'.'.join(path)} = {got!r}, expected {value!r} +- {tol}")
    for path, bound in expect.get("below", []):
        got = _get(doc, path)
        if not abs(got) < bound:
            problems.append(f"{'.'.join(path)} = {got!r}, expected below {bound}")
    for path in expect.get("nonnull", []):
        if _get(doc, path) is None:
            problems.append(f"{'.'.join(path)} is null")
    if "classes" in expect:
        rows = doc["data"]["points"]
        labels = expect["classes"]
        if len(rows) != len(labels):
            problems.append(f"{len(rows)} classified points, expected {len(labels)}")
        for row, label in zip(rows, labels):
            if label != "?" and row["class"][0] != label:
                problems.append(f"point {row['point']} is {row['class']}, expected {label}")
                break
    return problems
