"""Boundary feedback from gain data and the state transformations it induces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numerics import IntervalGrid, interp_linear, row_weights, trapezoid_weights

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
        if not (np.all(np.isfinite(self.g1)) and np.all(np.isfinite(self.g2))):
            raise ValueError("gains must be finite")

    def resample(self, grid: IntervalGrid) -> "GainVector":
        if grid.n == self.grid.n:
            return self
        x = grid.points
        return GainVector(grid, np.asarray(interp_linear(self.g1, x)), np.asarray(interp_linear(self.g2, x)))


def control_value(gains: GainVector, state: "PlantState") -> float:
    """U = integral of g1*u + g2*v by the shared trapezoid rule."""
    gains = gains.resample(state.grid)
    w = trapezoid_weights(state.grid.n + 1, state.grid.h)
    return float(w @ (gains.g1 * state.u) + w @ (gains.g2 * state.v))


def forward_transform(state: "PlantState", kernels: "KernelSet") -> np.ndarray:
    """Transformed state beta(x) = v(x) - int_0^x (k1 u + k2 v) dxi per node."""
    n = kernels.grid.n
    if state.grid.n != n:
        raise ValueError("state and kernels must share one grid resolution")
    w = row_weights(n, state.grid.h)
    return state.v - (kernels.k1.as_matrix() * w) @ state.u - (kernels.k2.as_matrix() * w) @ state.v


def inverse_transform(u: np.ndarray, beta: np.ndarray, kernels: "KernelSet") -> np.ndarray:
    """Recover v(x) = beta(x) + int_0^x (l1 u + l2 beta) dxi per node."""
    if kernels.l1 is None or kernels.l2 is None:
        raise ValueError("kernels lack l1/l2; run solve_inverse_kernels first")
    n = kernels.grid.n
    if u.shape != (n + 1,) or beta.shape != (n + 1,):
        raise ValueError("state arrays must match the kernel grid")
    w = row_weights(n, kernels.grid.h)
    return beta + (kernels.l1.as_matrix() * w) @ u + (kernels.l2.as_matrix() * w) @ beta
