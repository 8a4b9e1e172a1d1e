"""Machine-speed reference that op times are scaled by.

On a shared virtual machine the same op can take half as long again from one
minute to the next, with the same inputs. A fixed kernel timed between the
ops tracks that drift: it has the shape of maflow's jet arithmetic (products
of truncated bivariate Taylor series kept as dicts keyed by multi-indices),
and it lives here, so no change to maflow can change it. Each op time is
multiplied by ``(NOMINAL_S / kernel time around the op) ** EXPONENT``: the
result estimates the time the op would take with the machine at its usual
speed.
"""

from __future__ import annotations

import time

KEYS = tuple((i, j) for i in range(5) for j in range(5 - i))
KERNEL_ROUNDS = 70
# median kernel time on the machine the benchmark was defined on (README)
NOMINAL_S = 0.0037
# op times swing less than the kernel's: there, regressing log(op time) on
# log(kernel time) within each op kind gave slopes 0.59 to 0.70 (README)
EXPONENT = 0.65
EVERY_S = 0.25  # op time between kernel samples


def kernel_s(repeats: int = 3) -> float:
    """Best of a few back-to-back runs of the fixed kernel, in seconds.

    The best of three short runs ignores a single interrupted run; the op
    times it scales span many such runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a = {k: 1.0 / (1 + k[0] + k[1]) for k in KEYS}
        b = {k: 0.5 ** (k[0] + 2 * k[1]) for k in KEYS}
        for _ in range(KERNEL_ROUNDS):
            out: dict = {}
            for ka, va in a.items():
                for kb, vb in b.items():
                    k = (ka[0] + kb[0], ka[1] + kb[1])
                    if k[0] + k[1] <= 4:
                        out[k] = out.get(k, 0.0) + va * vb
            a = {k: v * 0.5 for k, v in out.items()}
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedTrack:
    """Kernel samples taken between ops, at most every EVERY_S of op time."""

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[int] = []
        self._since = float("inf")

    def before_op(self) -> None:
        if self._since >= EVERY_S:
            self.samples.append(kernel_s())
            self._since = 0.0
        self.marks.append(len(self.samples) - 1)

    def after_op(self, spent: float) -> None:
        self._since += spent

    def close(self) -> None:
        self.samples.append(kernel_s())

    def factors(self) -> list[float]:
        """Scale factor of each op, from the samples just before and after it."""
        return [(2.0 * NOMINAL_S / (self.samples[k] + self.samples[k + 1])) ** EXPONENT
                for k in self.marks]
