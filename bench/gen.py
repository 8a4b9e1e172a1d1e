"""Seeded op streams for the benchmark workloads, with expected outcomes.

Every op carries the argv (or library arguments) the program receives and an
``expect`` block the oracle in ``ops.py`` scores against. Expectations come
from the construction of the input or from sympy, never from maflow: a
passing ``burgers`` op, for example, gets ``DP = 2*(det Hess PSI - 0.75*G^2)``
differentiated by sympy.

Ops are grouped in rounds; round ``r`` of a workload depends only on
``(seed, workload, r)``, so a stream can be generated in chunks. run.py calls
this file in a child process, which keeps sympy out of the measured process:

    python3 bench/gen.py --workload planar-1k --seed 7 --start 0 --rounds 4

prints the ops of rounds 0..3 as one JSON list.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np
import sympy as sp

WORKLOADS = ("planar-1k", "curvature-6d", "cold-mix")
X1, X2 = sp.symbols("x1 x2")
# maflow's classify labels a value degenerate within 1e-10 of zero; inside
# this wider band the oracle accepts any label.
AMBIGUOUS = 1e-7
GRID_N = 40
LATTICE_N = 64


# -- the coefficient grammar -------------------------------------------------
#
# An expression is a fixed-shape template (kind, F, G) plus its numbers, so
# that every op of a kind costs about the same. The text maflow receives is
# rendered from the numbers directly; sympy differentiates and evaluates the
# template once per shape.

FUNCTIONS = ("sin", "cos", "exp")
P = sp.symbols("p0:6")


def _q(rng, lo: float, hi: float, signed: bool = False) -> float:
    """A 3-decimal number in [lo, hi], with a random sign if signed."""
    value = round(float(rng.uniform(lo, hi)), 3)
    return -value if signed and rng.random() < 0.5 else value


def _terms(kind: str, f: str, g: str, vals) -> list[tuple[float, str]]:
    if kind == "affine":
        return [(vals[0], ""), (vals[1], "x1"), (vals[2], "x2")]
    if kind == "generic":
        return [(vals[0], ""), (vals[1], "x1^2"), (vals[2], "x1*x2"),
                (vals[3], f"{f}({vals[4]!r}*x1)*{g}({vals[5]!r}*x2)")]
    return [(vals[0], ""), (vals[1], "x1^2"), (vals[2], "x1*x2"), (vals[3], "x2^2"),
            (vals[4], "x1"), (vals[5], "x2")]


def _symbolic(kind: str, f: str, g: str):
    fn = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp}
    if kind == "affine":
        return P[0] + P[1] * X1 + P[2] * X2
    if kind == "generic":
        return P[0] + P[1] * X1**2 + P[2] * X1 * X2 + P[3] * fn[f](P[4] * X1) * fn[g](P[5] * X2)
    return P[0] + P[1] * X1**2 + P[2] * X1 * X2 + P[3] * X2**2 + P[4] * X1 + P[5] * X2


class Expr:
    """One generated expression: a template shape and its numbers."""

    def __init__(self, kind: str, vals, f: str = "sin", g: str = "sin"):
        self.kind, self.f, self.g, self.vals = kind, f, g, list(vals)

    def text(self) -> str:
        """Infix text in maflow's syntax, numbers as Python reprs."""
        out = ""
        for value, body in _terms(self.kind, self.f, self.g, self.vals):
            if value == 0.0:
                continue
            mag = repr(abs(value)) if body == "" else f"{abs(value)!r}*{body}"
            if not out:
                out = mag if value >= 0 else "-" + mag
            else:
                out += (" - " if value < 0 else " + ") + mag
        return out or "0.0"

    def symbolic(self):
        return _symbolic(self.kind, self.f, self.g)

    def numbers(self) -> dict:
        return {P[i]: sp.Rational(repr(v)) for i, v in enumerate(self.vals)}

    def at(self, x1, x2, which: str = "value"):
        """Value (or Hessian determinant) at points, from the sympy template."""
        return _lambdified(self.kind, self.f, self.g, which)(x1, x2, *self.vals)


@lru_cache(maxsize=None)
def _lambdified(kind: str, f: str, g: str, which: str):
    expr = _symbolic(kind, f, g)
    if which == "hessian_det":
        expr = hessian_det(expr)
    size = 3 if kind == "affine" else 6
    return sp.lambdify((X1, X2) + P[:size], expr, modules="numpy")


def coefficient(rng, kind: str = "generic", c0: float | None = None) -> Expr:
    """Pressure coefficient a(x1, x2) of a fixed shape.

    ``generic`` is c0 + c1 x1^2 + c2 x1 x2 + c3 F(k1 x1) G(k2 x2), with F, G
    in {sin, cos, exp}; on the box [-1, 1]^2 everything but c0 stays below
    0.5 + 0.25 e < 1.5 in size, so with |c0| >= 2 the coefficient keeps one
    sign and |a| > 0.5. ``quadratic`` has |c1| >= 0.1, so its metric is not
    flat, and ``affine`` is c0 + c1 x1 + c2 x2.
    """
    if c0 is None:
        c0 = _q(rng, 2.0, 3.0, True)
    if kind == "affine":
        return Expr(kind, [c0, _q(rng, 0.1, 0.5, True), _q(rng, 0.1, 0.5, True)])
    c1, c2 = _q(rng, 0.1, 0.25, True), _q(rng, 0.02, 0.25, True)
    if kind == "quadratic":
        return Expr(kind, [c0, c1, c2, _q(rng, 0.02, 0.25, True), 0.0, 0.0])
    f, g = FUNCTIONS[int(rng.integers(3))], FUNCTIONS[int(rng.integers(3))]
    product = [_q(rng, 0.05, 0.25, True), _q(rng, 0.2, 0.5), _q(rng, 0.2, 0.5)]
    return Expr(kind, [c0, c1, c2] + product, f, g)


def stream_function(rng) -> Expr:
    """A quadratic polynomial in x1 and x2, without constant term."""
    return Expr("quadratic", [0.0] + [_q(rng, 0.2, 1.5, True) for _ in range(5)])


def hessian_det(psi):
    return sp.diff(psi, X1, 2) * sp.diff(psi, X2, 2) - sp.diff(psi, X1, X2) ** 2


def pressure_source_text(psi: Expr, gamma: float, delta: float = 0.0) -> str:
    """DP = 2 (det Hess psi - (3/4) gamma^2) + delta, exact in rationals.

    psi is quadratic, so DP is a constant."""
    hess = hessian_det(psi.symbolic()).xreplace(psi.numbers())
    gamma_q = sp.Rational(repr(gamma))
    return repr(float(2 * (hess - sp.Rational(3, 4) * gamma_q**2) + sp.Rational(repr(delta))))


def _labels(values) -> str:
    return "".join("?" if abs(v) < AMBIGUOUS else ("E" if v > 0 else "H") for v in values)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _cli(argv, samples, points, expect, op_seed=None):
    argv = list(argv)
    if samples is not None:
        argv += ["--samples", str(samples)]
    if op_seed is not None:
        argv += ["--seed", str(op_seed)]
    return {"kind": "cli", "argv": argv + ["--json"], "points": points, "expect": expect}


ALL_PASS = {"exit": 0, "all_checks": True}


# -- ops of each kind ------------------------------------------------------------

def op_triple(rng, samples):
    a = coefficient(rng)
    expect = dict(ALL_PASS, equal=[
        [["data", "points_used"], samples],
        [["data", "integrability", "integrable"], False],
        [["data", "integrability", "coefficient_constant"], False],
    ])
    return _cli(["triple", "--a=" + a.text()], samples, samples, expect, _seed(rng))


def op_burgers(rng, samples):
    psi = stream_function(rng)
    gamma = _q(rng, 0.2, 2.0, True)
    if rng.random() < 0.2:
        # a nonzero constant in the pressure source breaks all three stages;
        # stage (i) misses by delta/2 and stage (ii) by delta everywhere
        delta = _q(rng, 0.5, 2.0, True)
        d = abs(delta)
        expect = {"exit": 1, "checks": {"stage-i": False, "stage-ii": False, "stage-iii": False},
                  "residuals": {"stage-i": [d / 2, 1e-9], "stage-ii": [d, 1e-9]}}
    else:
        delta = 0.0
        expect = {"exit": 0, "checks": {"stage-i": True, "stage-ii": True, "stage-iii": True}}
    argv = ["burgers", "--gamma=" + repr(gamma), "--psi=" + psi.text(),
            "--dp=" + pressure_source_text(psi, gamma, delta)]
    return _cli(argv, samples, samples, expect, _seed(rng))


def op_shear(rng, samples):
    argv = ["reduce", "--action", "shear", "--a=" + coefficient(rng).text(),
            "--gamma=" + repr(_q(rng, 0.2, 1.5, True))]
    return _cli(argv, samples, samples, dict(ALL_PASS), _seed(rng))


def op_verify(rng, samples):
    """psi = al x1^2 + be x1 x2 + de x2^2 solves the planar equation with
    a = 4 al de - be^2; the structure's coefficient is that constant."""
    a = _q(rng, 0.2, 4.0, True)
    al = _q(rng, 0.3, 1.5, True)
    be = _q(rng, 0.0, 1.5, True)
    psi = Expr("quadratic", [0.0, al, be, (a + be * be) / (4.0 * al), 0.0, 0.0])
    below = [[[key], 1e-10] for key in (
        "omega_residual", "big_omega_residual", "det_identity_residual", "trace_identity_residual")]
    expect = {"equal": [[["passed"], True], [["signature_dichotomy"], True]], "below": below}
    return {"kind": "verify", "a": repr(a), "psi": psi.text(), "samples": samples,
            "point_seed": _seed(rng), "points": samples, "expect": expect}


def op_curvature(rng, samples, kind):
    """burgers-cy is Ricci-flat for every a and flat exactly for affine a."""
    flat = "Flat" if kind == "affine" else "NonFlat"
    expect = dict(ALL_PASS, equal=[
        [["data", "verdicts", "ricci_flat"], "RicciFlat"],
        [["data", "verdicts", "flat"], flat],
    ])
    if flat == "NonFlat":
        expect["nonnull"] = [["data", "witnesses", "riemann"]]
    argv = ["curvature", "--metric", "burgers-cy", "--a=" + coefficient(rng, kind).text()]
    return _cli(argv, samples, samples, expect, _seed(rng))


def op_hitchin(rng, samples, structure):
    argv = ["hitchin", "--structure", structure]
    if structure in ("euler-pair", "burgers-cy"):
        argv.append("--a=" + coefficient(rng).text())
    return _cli(argv, samples, samples, dict(ALL_PASS), _seed(rng))


def op_split(rng, samples):
    argv = ["reduce", "--action", "burgers-split", "--a=" + coefficient(rng).text()]
    return _cli(argv, samples, samples, dict(ALL_PASS), _seed(rng))


def op_laplace(rng, samples):
    argv = ["reduce", "--action", "laplace3d", "--level=" + repr(_q(rng, 0.0, 2.0, True))]
    expect = dict(ALL_PASS, equal=[[["data", "class"], "Elliptic"]])
    return _cli(argv, samples, samples, expect, _seed(rng))


def op_classify_at(rng, use_psi: bool):
    x, y = _q(rng, 0.0, 1.0, True), _q(rng, 0.0, 1.0, True)
    if use_psi:
        psi = coefficient(rng, c0=0.0)
        argv = ["classify", "--psi=" + psi.text()]
        value = psi.at(x, y, "hessian_det")
    else:
        coeff = coefficient(rng, c0=_q(rng, 0.0, 0.5, True))
        argv = ["classify", "--a=" + coeff.text()]
        value = coeff.at(x, y)
    expect = {"exit": 0, "classes": _labels([value])}
    return _cli(argv + [f"--at={x!r},{y!r}"], None, 1, expect)


def op_classify_grid(rng):
    """A sign-changing coefficient on a GRID_N x GRID_N lattice, row-major."""
    coeff = coefficient(rng, c0=_q(rng, 0.0, 0.5, True))
    lo = [-_q(rng, 0.5, 1.5), -_q(rng, 0.5, 1.5)]
    hi = [_q(rng, 0.5, 1.5), _q(rng, 0.5, 1.5)]
    spec = ",".join(f"{lo[k]!r}:{hi[k]!r}:{GRID_N}" for k in range(2))
    axes = [np.linspace(lo[k], hi[k], GRID_N) for k in range(2)]
    mx, my = np.meshgrid(*axes, indexing="ij")
    values = np.broadcast_to(coeff.at(mx.ravel(), my.ravel()), (mx.size,))
    expect = {"exit": 0, "classes": _labels(values)}
    return _cli(["classify", "--a=" + coeff.text(), "--grid=" + spec], None, mx.size, expect)


@lru_cache(maxsize=None)
def _lattice_source():
    """zeta^2/2 - trace(S^2) of u = (psi_x2, -psi_x1) for the lattice mode
    psi = amp sin(k x1 + p1) sin(k x2 + p2), see ops.write_lattice."""
    amp, k, p1, p2 = sp.symbols("amp k p1 p2")
    psi = amp * sp.sin(k * X1 + p1) * sp.sin(k * X2 + p2)
    u, v = sp.diff(psi, X2), -sp.diff(psi, X1)
    ux, uy, vx, vy = sp.diff(u, X1), sp.diff(u, X2), sp.diff(v, X1), sp.diff(v, X2)
    rhs = (vx - uy) ** 2 / 2 - (ux**2 + vy**2 + (uy + vx) ** 2 / 2)
    return sp.lambdify((X1, X2, amp, k, p1, p2), rhs, modules="numpy")


def op_grid(rng):
    """A seeded single-mode vortex on [0, 2 pi]^2, written by ops.write_lattice.

    The oracle is the sympy pressure source at the interior nodes against the
    report's fourth-order stencil summary.
    """
    params = {
        "amp": _q(rng, 0.5, 1.5), "k": int(rng.integers(1, 3)),
        "p1": _q(rng, 0.0, math.pi), "p2": _q(rng, 0.0, math.pi),
        "u0": _q(rng, 0.0, 1.0, True), "v0": _q(rng, 0.0, 1.0, True),
    }
    ax = np.linspace(0.0, 2.0 * math.pi, LATTICE_N)[2:-2]
    mx, my = np.meshgrid(ax, ax, indexing="ij")
    values = _lattice_source()(mx, my, params["amp"], params["k"], params["p1"], params["p2"])
    scale = float(np.max(np.abs(values)))
    tol = 2e-3 * scale
    close = [
        [["data", "summary", "rhs", "max"], float(np.max(values)), tol],
        [["data", "summary", "rhs", "min"], float(np.min(values)), tol],
        [["data", "summary", "rhs", "mean"], float(np.mean(values)), tol],
        [["data", "summary", "div", "max"], 0.0, 1e-8 * scale],
        [["data", "summary", "div", "min"], 0.0, 1e-8 * scale],
    ]
    expect = {"exit": 0, "equal": [[["data", "interior_nodes"], values.size]], "close": close}
    op = _cli(["grid", "--input=LATTICE"], None, values.size, expect)
    op["lattice"] = params
    return op


def op_selftest(samples):
    return _cli(["selftest"], samples, samples, dict(ALL_PASS, n_checks=15))


# -- workloads -------------------------------------------------------------------

CURVATURE_KINDS = ("generic", "affine", "quadratic")


def round_ops(workload: str, seed: int, r: int, samples: int | None = None) -> list[dict]:
    """The ops of round r, in the order they run."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    if workload == "planar-1k":
        n = samples or 1000
        # two ops cost less than triple and two cost more, so the median
        # latency is the middle of three triples on every seed
        ops = [op_triple(rng, n), op_burgers(rng, n), op_shear(rng, n), op_triple(rng, n),
               op_verify(rng, n), op_burgers(rng, n), op_triple(rng, n)]
    elif workload == "curvature-6d":
        n = samples or 1000
        ops = [op_curvature(rng, n, "generic"), op_hitchin(rng, n, "euler-pair"),
               op_hitchin(rng, n, "burgers-cy"), op_curvature(rng, n, "affine"),
               op_split(rng, n), op_hitchin(rng, n, "euler-pair"),
               op_curvature(rng, n, "quadratic"), op_hitchin(rng, n, "burgers-cy")]
    elif workload == "cold-mix":
        n = samples or 10
        ops = [op_classify_at(rng, False), op_classify_at(rng, True), op_classify_grid(rng),
               op_triple(rng, n), op_hitchin(rng, n, "hess1"), op_hitchin(rng, n, "speciallag"),
               op_laplace(rng, n), op_curvature(rng, n, CURVATURE_KINDS[r % 3]), op_grid(rng)]
        if r % 4 == 3:
            ops.append(op_selftest(n))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for pos, op in enumerate(ops):
        op["id"] = f"{r}.{pos}"
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--samples", type=int, default=None, help="override the sample count")
    args = parser.parse_args(argv)
    ops = []
    for r in range(args.start, args.start + args.rounds):
        ops.extend(round_ops(args.workload, args.seed, r, args.samples))
    json.dump(ops, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
