"""Run every workload once, untraced or traced, and print each metric by name.

    python3 bench/all.py --seed 1 --seconds 20 [--trace 1]

Each workload runs in its own ``run.py`` process, so ``peak_rss_mb`` stays
per workload. Exits 1 if any op failed its oracle check, 2 if a workload
could not run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{workload}: could not run\n{proc.stderr}", file=sys.stderr)
            status = 2
            continue
        details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        print(f"{workload}: {result['attempted']} ops, {result['failed']} failed, "
              f"correct={result['correct']}, digest {details['report_digest'][:16]}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28} {metric['value']:.6g} {metric['unit']}")
        for op in details["failed_ops"]:
            print(f"  FAILED {op['id']}: {op['argv']}: {'; '.join(op['problems'])}")
        if result["failed"] and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
