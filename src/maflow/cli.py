"""Command-line front end for the verification suites.

Every subcommand assembles a deterministic JSON report (schema version 1):
identical flags and seed produce byte-identical output. Human-readable
summaries go to stdout by default; --json switches stdout to the report
itself and --output writes the report to a file in either mode. Exit codes:
0 when every check passes, 1 when a check fails (a non-finite residual
always fails), 2 on input or compute errors, which are printed as a JSON
envelope {stage, message, offset?, point?}, and 2 when stdout is closed
before the report is written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Sequence

import numpy as np

from . import catalog, curvature, fluids, ma4, ma6, reduction
from .exterior import DifferentialForm, NondegeneracyError, sup_norm
from .fieldexpr import ChartError, DomainError, ExpressionError, eval_many, parse_field
from .fieldexpr.nodes import const_value, fmt_number, to_plain
from .ma6 import NondegeneracyViolation
from .reduction import InvarianceError
from .report import CheckResult, Report, error_envelope
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, SEED_ENV, RunConfig, run_points


class InputSpecError(ValueError):
    """Malformed flag values: points, grid ranges, missing coefficients."""


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != dim:
        raise InputSpecError(f"expected {dim} comma-separated coordinates, got {len(parts)}")
    try:
        return tuple(float(t) for t in parts)
    except ValueError:
        raise InputSpecError(f"point {text!r} has a non-numeric coordinate") from None


def _parse_grid_spec(text: str) -> list[tuple[float, ...]]:
    """Lattice points from 'min:max:n' ranges, one per axis, row-major."""
    axes = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise InputSpecError(f"grid axis {part!r} is not min:max:n")
        try:
            lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError:
            raise InputSpecError(f"grid axis {part!r} has a bad number") from None
        if n < 1:
            raise InputSpecError("grid axis needs at least one sample")
        if n > 1 and hi <= lo:
            raise InputSpecError(f"grid axis {part!r} needs max > min")
        axes.append(np.linspace(lo, hi, n))
    mesh = np.meshgrid(*axes, indexing="ij")
    stacked = np.stack([m.ravel() for m in mesh], axis=-1)
    return list(map(tuple, stacked.tolist()))


def render_form(form: DifferentialForm) -> str:
    """Sorted-index text rendering with coordinate names, e.g. dx1^dxi2."""
    parts = []
    for idx in sorted(form.terms):
        coeff = form.terms[idx]
        basis = "^".join("d" + form.chart.names[i] for i in idx)
        value = const_value(to_plain(coeff.ast))
        if value == 0.0:
            continue
        if value == 1.0:
            term = basis
        elif value == -1.0:
            term = f"-{basis}"
        elif value is not None:
            term = f"{fmt_number(value)}*{basis}"
        else:
            term = f"({coeff.render()})*{basis}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _config(args: argparse.Namespace) -> RunConfig:
    """The run's settings; without --seed, the MAS_SEED environment variable."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV)
        seed = int(raw) if raw is not None else DEFAULT_SEED
    samples = args.samples if args.samples is not None else DEFAULT_SAMPLES
    return RunConfig(seed, samples, tol=args.tol, output=args.output, json_output=args.json)


def cmd_selftest(args: argparse.Namespace, config: RunConfig) -> Report:
    return catalog.run_selftest(config, inject_failure=args.inject_failure)


def cmd_classify(args: argparse.Namespace, config: RunConfig) -> Report:
    chart = ma4.base_chart()
    if args.psi is not None:
        coeff = ma4.hessian_det(parse_field(args.psi, chart))
        source = {"psi": args.psi}
    else:
        coeff = parse_field(args.a, chart)
        source = {"a": args.a}
    if args.at is not None and args.grid is not None:
        raise InputSpecError("use --at or --grid, not both")
    if args.grid is not None:
        points = _parse_grid_spec(args.grid)
        if points and len(points[0]) != 2:
            raise InputSpecError("classification grid must have two axes")
    else:
        points = [_parse_point(args.at if args.at is not None else "0,0", 2)]
    report = Report("classify", seed=config.seed)
    report.inputs = dict(source)
    if args.at is not None:
        report.inputs["at"] = args.at
    if args.grid is not None:
        report.inputs["grid"] = args.grid
    rows = []
    counts = {ma4.ELLIPTIC: 0, ma4.HYPERBOLIC: 0, ma4.DEGENERATE: 0}
    display = []
    failure = None
    try:
        values = eval_many([coeff], points)[0]
    except DomainError as exc:
        # the points before the failing one are classified first
        failure = exc
        values = eval_many([coeff], points[: exc.index])[0]
    for p, v in zip(points, values.tolist()):
        kind = ma4.classify_value(v, p)
        counts[kind] += 1
        label = kind.capitalize()
        rows.append({"point": list(p), "a": v, "class": label})
        display.append(f"({p[0]}, {p[1]}) -> {label} (a = {v})")
    if failure is not None:
        raise failure
    report.data = {"points": rows, "counts": counts, "display": display}
    return report


def cmd_triple(args: argparse.Namespace, config: RunConfig) -> Report:
    structure = ma4.flow_structure(parse_field(args.a, ma4.phase_chart()))
    points = run_points(4, config)
    # a NaN coefficient does not vanish: it is kept, and fails the checks
    nonzero = ~(np.abs(eval_many([structure.pfaffian], points)[0]) <= 1e-6)
    kept = [p for p, keep in zip(points, nonzero) if keep]
    if not kept:
        raise InputSpecError("coefficient vanishes on the whole sample; nothing to check")
    tol = config.tol if config.tol is not None else 1e-10
    residuals = ma4.triple_relations(structure, kept)
    report = Report("triple", seed=config.seed, samples=config.samples)
    report.inputs = {"a": args.a}
    for name in sorted(residuals):
        report.add(CheckResult(name, residuals[name], tol))
    note = ma4.integrability(structure, kept)
    report.data = {
        "points_used": len(kept),
        "points_skipped": len(points) - len(kept),
        "integrability": {
            "max_residual": note["max_residual"],
            "integrable": note["integrable"],
            "coefficient_constant": note["coefficient_constant"],
            "note": note["note"],
        },
        "display": [
            f"triple algebra max residual = {max(residuals.values())}",
            f"integrable: {note['integrable']} ({note['note']})",
        ],
    }
    return report


def cmd_hitchin(args: argparse.Namespace, config: RunConfig) -> Report:
    report = Report("hitchin", seed=config.seed, samples=config.samples)
    report.inputs = {"structure": args.structure, "a": args.a}
    points = run_points(6, config)
    if args.structure == "euler-pair":
        pair = catalog.structure6("euler-pair", args.a)
        tol = config.tol if config.tol is not None else 1e-12
        rel = ma6.euler_pair_relations(pair, points)
        for name in sorted(rel["residuals"]):
            report.add(CheckResult(name, rel["residuals"][name], tol))
        report.data = {
            "display": [f"pair relations max residual = {rel['max_residual']}"]
        }
        return report
    s = catalog.structure6(args.structure, args.a)
    tol = config.tol if config.tol is not None else 1e-10
    lam = s.pfaffian
    lam_value = const_value(lam.ast)
    compat = s.compatibility(points)
    report.add(
        CheckResult(
            "metric-tensor-compatibility",
            compat["max_residual"],
            tol,
            {"degenerate_points": len(compat["degenerate_points"])},
            holds=not compat["degenerate_points"],
        )
    )
    base_point = points[0]
    display = [
        f"invariant = {lam_value if lam_value is not None else lam.render()}",
        f"metric signature at first sample = {s.metric.signature(base_point)}",
        f"dual form = {render_form(s.dual())}",
    ]
    report.data = {
        "invariant": lam_value if lam_value is not None else lam.render(),
        "display": display,
    }
    return report


def cmd_reduce(args: argparse.Namespace, config: RunConfig) -> Report:
    report = Report("reduce", seed=config.seed, samples=config.samples)
    report.inputs = {
        "action": args.action,
        "a": args.a,
        "gamma": args.gamma,
        "level": args.level,
    }
    tol = config.tol if config.tol is not None else 1e-12
    if args.action == "laplace3d":
        red = reduction.laplace_reduction(args.level)
        chart = red["structure"].chart
        expected = DifferentialForm.build(chart, 2, [((1, 2), -1.0), ((0, 3), 1.0)])
        points = run_points(4, config)
        residual = sup_norm(red["omega_c"] - expected, points)
        report.add(CheckResult("reduced-form-display", residual, tol))
        label = red["structure"].classify((0.0, 0.0, 0.0, 0.0)).capitalize()
        report.data = {
            "omega_c": render_form(red["omega_c"]),
            "class": label,
            "display": [f"omega_c = {render_form(red['omega_c'])}", f"class: {label}"],
        }
        return report
    if args.action == "shear":
        if args.a is None or args.gamma is None:
            raise InputSpecError("shear reduction needs --a and --gamma")
        red = reduction.shear_pair_reduction(args.a, args.gamma, args.level)
        points = run_points(4, config)
        cv = reduction.change_variables_64(red["omega_c"], red["theta_c"], args.gamma, points)
        for key in ("residual_tc", "residual_oc", "residual_o0"):
            report.add(CheckResult(key.replace("_", "-"), cv[key], tol))
        report.data = {
            "omega_c": render_form(red["omega_c"]),
            "theta_c": render_form(red["theta_c"]),
            "omega0": render_form(cv["omega0"]),
            "display": [
                f"omega_c = {render_form(red['omega_c'])}",
                f"theta_c = {render_form(red['theta_c'])}",
                f"omega0 = {render_form(cv['omega0'])}",
            ],
        }
        return report
    if args.action == "burgers-split":
        if args.a is None:
            raise InputSpecError("the transverse split needs --a")
        points = run_points(6, config)
        out = reduction.burgers_decomposition(args.a, points)
        for key in (
            "pairing_residual",
            "omega_split_residual",
            "pi_split_residual",
            "reduced_pfaffian_residual",
            "reduced_dual_residual",
        ):
            report.add(CheckResult(key.replace("_", "-"), out[key], tol))
        report.data = {
            "note": "transverse pieces rescaled by -2a to match the planar pair",
            "display": [
                f"transverse split max residual = {out['max_residual']}",
                "normalization: transverse pieces rescaled by -2a",
            ],
        }
        return report
    raise InputSpecError(f"unknown action {args.action!r}")


def cmd_burgers(args: argparse.Namespace, config: RunConfig) -> Report:
    chart = fluids.plane_chart()
    psi = parse_field(args.psi, chart)
    a_field = parse_field(args.dp, chart) * 0.5
    points = run_points(3, config)
    tol = config.tol if config.tol is not None else 1e-10
    stages = fluids.stretched_solution_check(args.gamma, psi, args.c, a_field, points)["stages"]
    report = Report("burgers", seed=config.seed, samples=config.samples)
    report.inputs = {"gamma": args.gamma, "psi": args.psi, "dp": args.dp, "c": args.c}
    display = []
    for name in ("i", "ii", "iii"):
        check = report.add(CheckResult(f"stage-{name}", stages[name], tol))
        verdict = "PASS" if check.passed else "FAIL"
        display.append(f"stage ({name}): {verdict} (residual = {stages[name]})")
    report.data = {"display": display}
    return report


def cmd_curvature(args: argparse.Namespace, config: RunConfig) -> Report:
    g = catalog.metric6(args.metric, args.a)
    points = run_points(g.chart.dim, config)
    out = curvature.curvature_report(g, points)
    report = Report("curvature", seed=config.seed, samples=config.samples)
    report.inputs = {"metric": args.metric, "a": args.a}
    report.add(CheckResult("ricci-flat", out["ricci_max"], out["threshold"]))
    flat = out["verdicts"]["flat"]
    witness = out["witnesses"]["riemann"]
    line = f"sampled flatness: {flat}"
    if flat == "NonFlat":
        line += f" (max entry {out['riemann_max']} at {witness})"
    report.data = {
        "ricci_max": out["ricci_max"],
        "riemann_max": out["riemann_max"],
        "verdicts": out["verdicts"],
        "witnesses": {
            k: (list(v) if v is not None else None) for k, v in out["witnesses"].items()
        },
        "mode": out["mode"],
        "display": [
            f"Ricci-flat: {out['verdicts']['ricci_flat'] == 'RicciFlat'}",
            line,
        ],
    }
    return report


def cmd_grid(args: argparse.Namespace, config: RunConfig) -> Report:
    grid = fluids.grid_load(args.input)
    out = fluids.grid_analyze(grid, full=args.full)
    report = Report("grid")
    report.inputs = {"input": args.input, "full": bool(args.full)}
    counts = out["counts"]
    report.data = dict(out)
    report.data["display"] = [
        f"{grid.dim}d grid {tuple(grid.shape)}, {out['interior_nodes']} interior nodes",
        "counts: "
        + ", ".join(f"{k} {counts[k]}" for k in (ma4.ELLIPTIC, ma4.HYPERBOLIC, ma4.DEGENERATE)),
        f"max |div| = {out['summary']['div']['max']}",
    ]
    return report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="sampling seed")
    common.add_argument("--samples", type=int, default=None, help="sample count")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--json", action="store_true", help="print the JSON report")
    common.add_argument("--output", default=None, help="write the JSON report to a file")

    parser = argparse.ArgumentParser(
        prog="maflow",
        description="Verify the geometric structure of incompressible flows.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("selftest", parents=[common], help="run the built-in vectors")
    p.add_argument(
        "--inject-failure",
        action="store_true",
        help="flip one frozen sign to exercise the failure path",
    )
    p.set_defaults(handler=cmd_selftest)

    p = sub.add_parser("classify", parents=[common], help="classify a planar equation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--psi", help="stream function over x1, x2")
    group.add_argument("--a", help="coefficient over x1, x2")
    p.add_argument("--at", help="point 'x1,x2'")
    p.add_argument("--grid", help="lattice 'min:max:n,min:max:n'")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("triple", parents=[common], help="verify the triple algebra")
    p.add_argument("--a", required=True, help="coefficient over the phase chart")
    p.set_defaults(handler=cmd_triple)

    p = sub.add_parser("hitchin", parents=[common], help="3-form invariants in 6d")
    p.add_argument(
        "--structure",
        required=True,
        choices=list(catalog.STRUCTURE_NAMES_6D),
        help="catalog structure",
    )
    p.add_argument("--a", help="coefficient, required by parameterized structures")
    p.set_defaults(handler=cmd_hitchin)

    p = sub.add_parser("reduce", parents=[common], help="symmetry reductions")
    p.add_argument(
        "--action",
        required=True,
        choices=["laplace3d", "shear", "burgers-split"],
    )
    p.add_argument("--a", help="coefficient expression")
    p.add_argument("--gamma", type=float, help="shear rate")
    p.add_argument("--level", type=float, default=0.0, help="moment level c")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("burgers", parents=[common], help="verify a stretched solution")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--psi", required=True, help="stream function over x1, x2")
    p.add_argument("--dp", required=True, help="pressure Laplacian over x1, x2")
    p.add_argument("--c", type=float, default=0.0, help="axial velocity offset")
    p.set_defaults(handler=cmd_burgers)

    p = sub.add_parser("curvature", parents=[common], help="curvature of a catalog metric")
    p.add_argument(
        "--metric", required=True, choices=list(catalog.METRIC_NAMES)
    )
    p.add_argument("--a", help="coefficient, required by parameterized metrics")
    p.set_defaults(handler=cmd_curvature)

    p = sub.add_parser("grid", parents=[common], help="finite-difference diagnostics")
    p.add_argument("--input", required=True, help="CSV lattice path")
    p.add_argument("--full", action="store_true", help="include per-node values")
    p.set_defaults(handler=cmd_grid)

    return parser


def _render_text(report: Report) -> str:
    lines = [f"maflow {report.command} (report version 1)"]
    if report.seed is not None:
        lines[0] += f" seed={report.seed}"
    for line in report.data.get("display", []):
        lines.append(line)
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        line = f"{verdict} {check.name}"
        if check.residual is not None:
            line += f" (residual = {check.residual}"
            if check.tolerance is not None:
                line += f", tolerance = {check.tolerance}"
            line += ")"
        lines.append(line)
    if report.checks:
        n_pass = sum(1 for c in report.checks if c.passed)
        overall = "PASS" if report.all_passed else "FAIL"
        lines.append(f"{overall} ({n_pass}/{len(report.checks)} checks)")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`| head`): devnull keeps the exit flush from raising
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("maflow: stdout was closed before the report was written", file=sys.stderr)
        return 2
    return code


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 2
    try:
        config = _config(args)
        report = args.handler(args, config)
    except (
        DomainError,
        np.linalg.LinAlgError,
        NondegeneracyError,
        NondegeneracyViolation,
        curvature.SingularMetricError,
    ) as exc:
        print(error_envelope("compute", str(exc), point=getattr(exc, "point", None)))
        return 2
    except ExpressionError as exc:
        print(error_envelope("parse", str(exc), exc.offset))
        return 2
    except FileNotFoundError as exc:
        print(error_envelope("input", str(exc)))
        return 2
    except (InputSpecError, ChartError, fluids.GridError, InvarianceError, ValueError) as exc:
        print(error_envelope("input", str(exc)))
        return 2
    if config.json_output:
        print(report.to_json())
    else:
        print(_render_text(report))
    if config.output:
        with open(config.output, "w") as handle:
            handle.write(report.to_json() + "\n")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
