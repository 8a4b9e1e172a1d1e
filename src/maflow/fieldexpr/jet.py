"""Jets: a value together with exact mixed partials at a point."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .taylor import Series


@dataclass(eq=False)
class Jet:
    """All mixed partials up to the given order at one point, or as columns
    over a sample of points.

    Keys of ``partials`` are sorted axis tuples: () is the value, (0,) is
    d/dx0, (0, 1) is the mixed second partial, (1, 1) the pure one. Every
    key up to the order is present, including zeros.
    """

    dim: int
    order: int
    partials: dict[tuple[int, ...], float]

    @property
    def value(self) -> float:
        return self.partials[()]

    def partial(self, *axes: int) -> float:
        key = tuple(sorted(axes))
        if key not in self.partials:
            raise KeyError(f"partial {key} is outside this jet of order {self.order}")
        return self.partials[key]

    def gradient(self) -> np.ndarray:
        """Shape (dim,), or (N, dim) for a jet of N points."""
        return np.stack([self.partials[(i,)] for i in range(self.dim)], axis=-1)

    def hessian(self) -> np.ndarray:
        """Shape (dim, dim), or (N, dim, dim) for a jet of N points."""
        rows = [
            np.stack([self.partials[tuple(sorted((i, j)))] for j in range(self.dim)], axis=-1)
            for i in range(self.dim)
        ]
        return np.stack(rows, axis=-2)


def jet_from_series(series: Series, order: int) -> Jet:
    partials: dict[tuple[int, ...], float] = {}
    for k in range(order + 1):
        for axes in combinations_with_replacement(range(series.dim), k):
            partials[axes] = series.partial(axes)
    return Jet(series.dim, order, partials)
