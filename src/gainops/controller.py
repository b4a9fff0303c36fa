"""Boundary feedback from gain data and the state transformations it induces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numerics import IntervalGrid, row_weights

if TYPE_CHECKING:  # pragma: no cover
    from .kernel_solver import KernelSet
    from .plant_sim import PlantState


@dataclass(frozen=True, eq=False)
class GainVector:
    """Samples of the two feedback gains k1(1, xi), k2(1, xi) over xi."""

    grid: IntervalGrid
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        m = self.grid.n + 1
        if self.g1.shape != (m,) or self.g2.shape != (m,):
            raise ValueError("gain arrays must match their grid")
        if not (np.isfinite(self.g1).all() and np.isfinite(self.g2).all()):
            raise ValueError("gains must be finite")

    def resample(self, grid: IntervalGrid) -> "GainVector":
        if grid.n == self.grid.n:
            return self
        x, nodes = grid.points, self.grid.points
        return GainVector(grid, np.interp(x, nodes, self.g1), np.interp(x, nodes, self.g2))


def forward_transform(state: "PlantState", kernels: "KernelSet") -> np.ndarray:
    """Transformed state beta(x) = v(x) - int_0^x (k1 u + k2 v) dxi per node."""
    n = kernels.grid.n
    if state.grid.n != n:
        raise ValueError("state and kernels must share one grid resolution")
    w = row_weights(n, state.grid.h)
    return state.v - (kernels.k1.matrix * w) @ state.u - (kernels.k2.matrix * w) @ state.v


def inverse_transform(u: np.ndarray, beta: np.ndarray, kernels: "KernelSet") -> np.ndarray:
    """Recover v(x) = beta(x) + int_0^x (l1 u + l2 beta) dxi per node."""
    n = kernels.grid.n
    if u.shape != (n + 1,) or beta.shape != (n + 1,):
        raise ValueError("state arrays must match the kernel grid")
    w = row_weights(n, kernels.grid.h)
    return beta + (kernels.l1.matrix * w) @ u + (kernels.l2.matrix * w) @ beta
