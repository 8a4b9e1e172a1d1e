"""Deterministic sample points for numeric verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 100
SEED_ENV = "MAS_SEED"


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    tol: float | None = None
    output: str | None = None
    json_output: bool = False

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tolerance must be positive")


def sample_points(dim: int, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniform points in the box [-1, 1]^dim, reproducible for a given seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(count, dim))


def run_points(dim: int, config: RunConfig, count: int | None = None) -> list[tuple[float, ...]]:
    """The run's seeded sample, at most count points, as tuples of floats."""
    n = config.samples if count is None else min(config.samples, count)
    return [tuple(p) for p in sample_points(dim, n, config.seed).tolist()]
