"""Uniform grids, quadrature and interpolation primitives shared by every solver,
and the exact-length read that both binary file readers use."""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IntervalGrid:
    """Uniform grid on [0, 1] with ``n`` cells and ``n + 1`` nodes x_i = i/n."""

    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"{type(self).__name__} needs n >= 2 cells, got {self.n}")
        object.__setattr__(self, "points", np.arange(self.n + 1) / self.n)

    @property
    def h(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True)
class TriangularGrid(IntervalGrid):
    """Nodes (x_i, xi_j) with 0 <= j <= i <= n on the triangle 0 <= xi <= x <= 1.

    ``points`` are the interval grid's nodes on either axis.  Canonical
    flattening: i outer ascending, j inner ascending (the order of
    ``np.tril_indices``), so node (i, j) sits at flat index i*(i+1)/2 + j.
    A triangular grid never equals an interval grid of the same n.
    """

    @property
    def node_count(self) -> int:
        return (self.n + 1) * (self.n + 2) // 2

    def node_indices(self):
        """Row and column indices of every node in canonical order."""
        return np.nonzero(lower_mask(self.n + 1))

    def node_coordinates(self):
        """(x, xi) of every node in canonical order."""
        i, j = self.node_indices()
        return self.points[i], self.points[j]


@functools.lru_cache(maxsize=32)
def lower_mask(size: int) -> np.ndarray:
    """``np.tri(size, dtype=bool)``, the lower triangle and its diagonal, built once per size and read-only.

    A boolean mask selects in row-major order, which is the canonical order
    of ``np.tril_indices(size)``, and indexes about three times faster than
    that index pair.
    """
    mask = np.tri(size, dtype=bool)
    mask.flags.writeable = False
    return mask


def flatten_lower(dense: np.ndarray) -> np.ndarray:
    """Canonical flattening of a dense (n+1, n+1) array's lower triangle, through :func:`lower_mask`."""
    return dense[lower_mask(dense.shape[0])]


def unflatten_lower(values: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`flatten_lower` through the same mask; entries above the diagonal are zero."""
    if values.size != (n + 1) * (n + 2) // 2:
        raise ValueError("flattened length does not match grid size")
    dense = np.zeros((n + 1, n + 1))
    dense[lower_mask(n + 1)] = values
    return dense


def trapezoid_integral(values, h: float) -> float:
    """Composite trapezoid rule for samples with uniform spacing ``h``.

    A single-node segment integrates to 0; an empty segment is an error.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("trapezoid_integral expects a 1-d array")
    if v.size == 0:
        raise ValueError("cannot integrate an empty segment")
    if v.size == 1:
        return 0.0
    return float(h * (0.5 * v[0] + v[1:-1].sum() + 0.5 * v[-1]))


def trapezoid_weights(m: int, h: float) -> np.ndarray:
    """Weights w such that w @ values == trapezoid_integral(values, h)."""
    if m == 0:
        raise ValueError("cannot integrate an empty segment")
    if m == 1:
        return np.zeros(1)
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    return w


@functools.lru_cache(maxsize=32)
def row_weights(n: int, h: float) -> np.ndarray:
    """Dense (n+1, n+1) lower-triangular trapezoid weights, row i over nodes 0..i.

    Row i equals ``trapezoid_weights(i + 1, h)`` and row 0 is zero, so
    ``(K * row_weights(n, h)) @ u`` is int_0^x K(x, s) u(s) ds at every node.
    Built once per (n, h) and returned read-only.
    """
    w = np.tril(np.full((n + 1, n + 1), h))
    w[:, 0] = 0.5 * h
    np.fill_diagonal(w, 0.5 * h)
    w[0, 0] = 0.0
    w.flags.writeable = False
    return w


def tri_quad_weights(grid: TriangularGrid) -> np.ndarray:
    """Flat canonical weights realizing the double trapezoid integral over T.

    Inner rule runs along each constant-x row, outer rule over x.  Row 0 is a
    single point and carries weight zero.
    """
    wx = trapezoid_weights(grid.n + 1, grid.h)
    return flatten_lower(wx[:, None] * row_weights(grid.n, grid.h))


def read_exact(f, nbytes: int, what: str, kind: str) -> bytes:
    """Read exactly ``nbytes`` from the binary file ``f``, or raise ValueError.

    A request for more bytes than the file has left is refused before any
    buffer is allocated; ``kind`` names the file in the message ("dataset
    file", "model file").
    """
    if nbytes <= os.fstat(f.fileno()).st_size - f.tell():
        buf = f.read(nbytes)
        if len(buf) == nbytes:
            return buf
    raise ValueError(f"{kind} truncated while reading {what}")
