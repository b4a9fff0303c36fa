"""Uniform grids, quadrature and interpolation primitives shared by every solver,
and the exact-length read that both binary file readers use."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# Points this close to a boundary are treated as on it (no extrapolation beyond).
MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class IntervalGrid:
    """Uniform grid on [0, 1] with ``n`` cells and ``n + 1`` nodes x_i = i/n."""

    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"IntervalGrid needs n >= 2 cells, got {self.n}")
        object.__setattr__(self, "points", np.arange(self.n + 1) / self.n)

    @property
    def h(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True)
class TriangularGrid:
    """Nodes (x_i, xi_j) with 0 <= j <= i <= n on the triangle 0 <= xi <= x <= 1.

    Canonical flattening: i outer ascending, j inner ascending (the order of
    ``np.tril_indices``), so node (i, j) sits at flat index i*(i+1)/2 + j.
    """

    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"TriangularGrid needs n >= 2, got {self.n}")
        object.__setattr__(self, "points", np.arange(self.n + 1) / self.n)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def node_count(self) -> int:
        return (self.n + 1) * (self.n + 2) // 2

    def flat_index(self, i, j):
        return i * (i + 1) // 2 + j

    def node_indices(self):
        """Row and column indices of every node in canonical order."""
        return np.tril_indices(self.n + 1)

    def node_coordinates(self):
        """(x, xi) of every node in canonical order."""
        i, j = self.node_indices()
        return self.points[i], self.points[j]


def flatten_lower(dense: np.ndarray) -> np.ndarray:
    """Canonical flattening of a dense (n+1, n+1) array's lower triangle."""
    return dense[np.tril_indices(dense.shape[0])]


def unflatten_lower(values: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`flatten_lower`; entries above the diagonal are zero."""
    if values.size != (n + 1) * (n + 2) // 2:
        raise ValueError("flattened length does not match grid size")
    dense = np.zeros((n + 1, n + 1))
    dense[np.tril_indices(n + 1)] = values
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


def row_weights(n: int, h: float) -> np.ndarray:
    """Dense (n+1, n+1) lower-triangular trapezoid weights, row i over nodes 0..i.

    Row i equals ``trapezoid_weights(i + 1, h)`` and row 0 is zero, so
    ``(K * row_weights(n, h)) @ u`` is int_0^x K(x, s) u(s) ds at every node.
    """
    w = np.tril(np.full((n + 1, n + 1), h))
    w[:, 0] = 0.5 * h
    np.fill_diagonal(w, 0.5 * h)
    w[0, 0] = 0.0
    return w


def compose(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid rule for int_xi^x a(x, s) b(s, xi) ds on lower-triangular a, b.

    Entry (i, j) integrates over the nodes j..i; the diagonal is zero.
    """
    ends = a * np.diagonal(b) + np.diagonal(a)[:, None] * b
    return np.tril(h * (a @ b) - 0.5 * h * ends)


def interp_linear(grid_values, x):
    """Piecewise-linear interpolation of samples on the uniform [0, 1] grid.

    Exact at nodes.  Queries outside [0, 1] (beyond MEMBERSHIP_TOL) raise;
    there is no extrapolation.  ``x`` may be a scalar or an array.
    """
    v = np.asarray(grid_values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("interp_linear expects >= 2 grid values")
    xq = np.asarray(x, dtype=float)
    if np.any(xq < -MEMBERSHIP_TOL) or np.any(xq > 1.0 + MEMBERSHIP_TOL):
        raise ValueError(f"query outside [0, 1]: {x}")
    xq = np.clip(xq, 0.0, 1.0)
    out = np.interp(xq, np.arange(v.size) / (v.size - 1), v)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def tri_quad_weights(grid: TriangularGrid) -> np.ndarray:
    """Flat canonical weights realizing the double trapezoid integral over T.

    Inner rule runs along each constant-x row, outer rule over x.  Row 0 is a
    single point and carries weight zero.
    """
    wx = trapezoid_weights(grid.n + 1, grid.h)
    return flatten_lower(wx[:, None] * row_weights(grid.n, grid.h))


def tri_interp(field, x: float, xi: float) -> float:
    """Evaluate a KernelField at an off-grid point of the triangle.

    Bilinear on interior cells; cells cut by the diagonal use barycentric
    interpolation on the lower triangle half.  Points with xi > x by at most
    MEMBERSHIP_TOL are clamped onto the diagonal; anything further outside T
    raises.
    """
    grid = field.grid
    n, h = grid.n, grid.h
    if xi > x + MEMBERSHIP_TOL or xi < -MEMBERSHIP_TOL or x > 1.0 + MEMBERSHIP_TOL:
        raise ValueError(f"point ({x}, {xi}) lies outside the triangle")
    x = min(max(x, 0.0), 1.0)
    xi = min(max(xi, 0.0), x)

    i0 = min(int(x * n), n - 1)
    j0 = min(int(xi * n), i0)
    a = x * n - i0
    b = xi * n - j0
    vals = field.values
    idx = grid.flat_index
    if j0 < i0:
        # interior cell: all four corners are grid nodes
        v00 = vals[idx(i0, j0)]
        v10 = vals[idx(i0 + 1, j0)]
        v01 = vals[idx(i0, j0 + 1)]
        v11 = vals[idx(i0 + 1, j0 + 1)]
        return float((1 - a) * ((1 - b) * v00 + b * v01) + a * ((1 - b) * v10 + b * v11))
    # diagonal cell: triangle (i0,i0), (i0+1,i0), (i0+1,i0+1)
    b = min(b, a)
    va = vals[idx(i0, i0)]
    vb = vals[idx(i0 + 1, i0)]
    vc = vals[idx(i0 + 1, i0 + 1)]
    return float((1 - a) * va + (a - b) * vb + b * vc)


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
