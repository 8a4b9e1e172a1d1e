"""Layered benchmark of maflow: seeded verification workloads, in-process.

    python3 bench/run.py --workload planar-1k --seed 1 --seconds 20 --trace 0

runs one workload through ``maflow.cli.main(argv)`` (and one library call)
from this single process, one closed-loop client, BLAS threads pinned to 1.
It keeps starting rounds of ops until the ops have taken ``--seconds`` in
total, scores every op against the oracle built by ``gen.py``, and prints
the result as the last line of stdout. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs every op both untraced and traced (alternating
which goes first) and reports per-layer metrics from the traced copy. See
README.md next to this file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from ops import Runner, prepare, score  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from speed import NOMINAL_S, SpeedTrack  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# rounds generated per call of gen.py, and rounds that every run completes;
# the report digest and the *.calls counts cover exactly those first rounds
WORKLOADS = {
    "planar-1k": {"chunk": 3, "fixed_rounds": 1},
    "curvature-6d": {"chunk": 4, "fixed_rounds": 1},
    "cold-mix": {"chunk": 40, "fixed_rounds": 4},
}
SETUP_RUNS = 7  # spread evenly over the measured op time, between ops
WARMUP_ROUND = 1_000_000  # a round index no measured run reaches
WALL_LIMIT_S = 150.0  # stop starting rounds after this much wall time

END_TO_END = {
    "points_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_latency_p50_s": "s",
    "op_latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CALL_LAYERS = ("fieldexpr.parse", "fieldexpr.eval", "fieldexpr.jet")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_maflow() -> dict:
    if not (SRC / "maflow" / "__init__.py").is_file():
        raise BenchError(f"no maflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import maflow
    from maflow import cli, ma4
    from maflow.fieldexpr import parse_field

    if SRC not in Path(maflow.__file__).resolve().parents:
        raise BenchError(f"imported maflow from {maflow.__file__}, not from {SRC}")
    return {"cli": cli, "ma4": ma4, "parse_field": parse_field}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_s() -> float:
    """Wall time of a fresh interpreter that imports maflow.cli and builds its parser.

    Not speed-scaled: process start and imports do not follow the speed
    kernel, and scaling widened their spread (README)."""
    code = "import maflow.cli as c\ntry:\n    c.main([])\nexcept SystemExit:\n    pass\n"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"setup child failed: {proc.stderr.decode()[-400:]}")
    return elapsed


def generate(workload: str, seed: int, start: int, rounds: int, samples=None) -> list[dict]:
    argv = [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
            "--start", str(start), "--rounds", str(rounds)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"op generation failed: {proc.stderr[-400:]}")
    return json.loads(proc.stdout)


def rounds_of(workload: str, seed: int):
    """Yield (round index, ops), generating chunks on demand."""
    chunk = WORKLOADS[workload]["chunk"]
    start = 0
    while True:
        ops = generate(workload, seed, start, chunk)
        by_round: dict[int, list] = {}
        for op in ops:
            by_round.setdefault(int(op["id"].split(".")[0]), []).append(op)
        for r in sorted(by_round):
            yield r, by_round[r]
        start += chunk


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """One measured run of a workload: ops, outcomes, digest, optional trace."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, modules: dict):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.runner = Runner(modules)
        self.tracer = Tracer() if traced else None
        self.lattice = str(OUT.relative_to(ROOT) / f"lattice-{workload}-s{seed}.csv")
        self.latency: list[float] = []
        self.traced_latency: list[float] = []
        self.points = 0
        self.failed: list[dict] = []
        self.digest = hashlib.sha256()
        self.fixed_ids: list[str] = []
        self.rounds = 0
        self.speed = SpeedTrack()
        self.setup: list[float] = []

    def warm_up(self) -> None:
        """One round at 10 samples, unscored: imports, caches, numpy set-up."""
        for op in generate(self.workload, self.seed, WARMUP_ROUND, 1, samples=10):
            self.runner.run(self._prepare(op), time.perf_counter)

    def _prepare(self, op: dict) -> dict:
        return prepare(op, self.lattice)

    def measure(self) -> None:
        fixed = WORKLOADS[self.workload]["fixed_rounds"]
        measured = 0.0
        wall0 = time.perf_counter()
        for r, ops in rounds_of(self.workload, self.seed):
            if r >= fixed and (measured >= self.seconds
                               or time.perf_counter() - wall0 > WALL_LIMIT_S):
                break
            for op in ops:
                op = self._prepare(op)
                due = len(self.setup) * self.seconds / SETUP_RUNS
                if len(self.setup) < SETUP_RUNS and measured >= due:
                    self.setup.append(setup_s())
                self.speed.before_op()
                spent = self._one(op, in_fixed=r < fixed)
                self.speed.after_op(spent)
                measured += spent
            self.rounds += 1
        self.speed.close()

    def _one(self, op: dict, in_fixed: bool) -> float:
        clock = time.perf_counter
        if not self.traced:
            latency, code, output, error = self.runner.run(op, clock)
            problems = score(op, code, output, error)
            spent = latency
        else:
            def traced():
                return self.tracer.run_op(op["id"], lambda: self.runner.run(op, clock))

            def plain():
                return self.runner.run(op, clock)

            # alternate which copy runs first, so neither always finds warm caches
            first, second = (traced, plain) if len(self.latency) % 2 == 0 else (plain, traced)
            a, b = first(), second()
            t_out, u_out = (a, b) if first is traced else (b, a)
            latency, code, output, error = u_out
            problems = score(op, code, output, error)
            if t_out[1:] != u_out[1:]:
                problems.append("traced run gave a different outcome or report")
            self.traced_latency.append(self.tracer.op_time[op["id"]])
            spent = latency + t_out[0]
        self.latency.append(latency)
        self.points += op["points"]
        if in_fixed:
            self.fixed_ids.append(op["id"])
            self.digest.update(output.encode())
            self.digest.update(b"\0")
        if problems:
            self.failed.append({"id": op["id"], "argv": op.get("argv", op), "problems": problems})
        return spent

    # -- results ----------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        """Every end-to-end metric with op times speed-scaled, and unscaled."""
        factors = self.speed.factors()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scaled = [t * f for t, f in zip(self.latency, factors)]
        return self._summary(scaled, rss), self._summary(self.latency, rss)

    def _summary(self, latency: list[float], rss: float) -> dict:
        total = sum(latency)
        values = {
            "points_per_s": self.points / total,
            "ops_per_s": len(latency) / total,
            "op_latency_p50_s": statistics.median(latency),
            "op_latency_p90_s": statistics.quantiles(latency, n=10, method="inclusive")[8],
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": rss,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        """Per-layer metrics of the traced copies; self times speed-scaled."""
        tracer = self.tracer
        factor = dict(zip(tracer.op_time, self.speed.factors()))
        every = {name: 0.0 for name in LAYERS}
        for op_id, (_, self_s) in tracer.stats.items():
            for i, name in enumerate(LAYERS):
                every[name] += self_s[i] * factor[op_id]
        fixed = tracer.totals(self.fixed_ids)
        unscaled = tracer.totals(tracer.op_time)
        out = {}
        for name in CALL_LAYERS:
            out[f"{name}.calls"] = (fixed[name][0], "count")
        for name in LAYERS:
            out[f"{name}.self_s"] = (every[name] / len(tracer.op_time), "s")
        eval_share = unscaled["fieldexpr.eval"][1] / sum(tracer.op_time.values())
        out["fieldexpr.eval.share"] = (eval_share, "ratio")
        out["trace.overhead_ratio"] = (sum(self.traced_latency) / sum(self.latency), "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        modules = load_maflow()
        OUT.mkdir(exist_ok=True)
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), modules)
        run.warm_up()
        run.measure()
    except (BenchError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    attempted = len(run.latency)
    if run.traced:
        metrics, raw = run.per_layer(), None
    else:
        metrics, raw = run.end_to_end()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rounds": run.rounds,
        "ops": attempted,
        "report_digest": run.digest.hexdigest(),
        "digest_ops": len(run.fixed_ids),
        "failed_op_ratio": len(run.failed) / attempted,
        "failed_ops": run.failed,
        "setup_samples_s": run.setup,
        "speed_kernel_s": run.speed.samples,
        "op_latency_s": run.latency,
        "op_speed_factor": run.speed.factors(),
        "speed_nominal_s": NOMINAL_S,
        "metrics": metrics,
        "unscaled_metrics": raw,
    }
    if run.traced:
        details["unresolved_spans"] = run.tracer.unresolved
        run.tracer.write_spans(OUT / f"spans-{args.workload}-s{args.seed}.csv")
    stem = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / stem).write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(details, sort_keys=True))
    result = {"correct": not run.failed, "attempted": attempted,
              "failed": len(run.failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
