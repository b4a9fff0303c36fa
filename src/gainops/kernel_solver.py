"""Solvers for the coupled gain-kernel equations on the triangular domain.

The pair (k1, k2) satisfies a coupled Goursat-form first-order system

    mu(x) dk1/dx - lam(xi) dk1/dxi = (lam'(xi) + sigma(xi)) k1 + theta(xi) k2
    mu(x) dk2/dx + mu(xi)  dk2/dxi = -mu'(xi) k2 + omega(xi) k1

on T = {0 <= xi <= x <= 1}, with data on the diagonal for k1,

    k1(x, x) = -theta(x) / (lam(x) + mu(x)),

and on the bottom edge for k2,

    mu(0) k2(x, 0) = q lam(0) k1(x, 0).

The auxiliary fields kappa, c and the inverse kernels l1, l2 solve Volterra
equations of the second kind driven by (k1, k2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet, resample
from .controller import GainVector
from .numerics import IntervalGrid, TriangularGrid, flatten_lower, trapezoid_weights, unflatten_lower

PIVOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KernelField:
    """Scalar field on a TriangularGrid, stored in canonical flat order."""

    grid: TriangularGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.node_count,):
            raise ValueError("field length does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel field contains non-finite values")

    @classmethod
    def from_matrix(cls, grid: TriangularGrid, dense: np.ndarray) -> "KernelField":
        return cls(grid, flatten_lower(dense))

    def as_matrix(self) -> np.ndarray:
        return unflatten_lower(self.values, self.grid.n)

    def row(self, i: int) -> np.ndarray:
        start = i * (i + 1) // 2
        return self.values[start : start + i + 1]

    def sup(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True, eq=False)
class KernelSet:
    """Solved kernels on one grid; kappa, c, l1, l2 are filled on demand."""

    k1: KernelField
    k2: KernelField
    kappa: KernelField | None = None
    c: KernelField | None = None
    l1: KernelField | None = None
    l2: KernelField | None = None

    def __post_init__(self):
        for f in (self.kappa, self.c, self.l1, self.l2):
            if f is not None and f.grid.n != self.grid.n:
                raise ValueError("all kernel fields must share one grid")
        if self.k1.grid.n != self.k2.grid.n:
            raise ValueError("k1 and k2 must share one grid")

    @property
    def grid(self) -> TriangularGrid:
        return self.k1.grid


class PlantError(ValueError):
    """A plant of a batch that cannot be solved; ``index`` is its place in the batch."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"plant {index}: {reason}")
        self.index = index


# Rows of the stacked coefficient table.  The k1 foot reads rows 2:5, the
# diagonal crossing rows 0:5 and the k2 foot rows 5:7.
_TABLE = ("lam", "mu", "dlam", "sigma", "theta", "dmu", "omega")


def _lerp(table: np.ndarray, flat: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Linear interpolation of every row of ``table`` between flat and flat + 1."""
    return table.take(flat, axis=1) * (1.0 - frac) + table.take(flat + 1, axis=1) * frac


def solve_kernels(coeffs: CoefficientSet, grid: TriangularGrid) -> KernelSet:
    """Kernels of one plant: the batch of one of :func:`solve_kernels_batch`."""
    return solve_kernels_batch([coeffs], grid)[0]


def solve_kernels_batch(coeffs: Sequence[CoefficientSet], grid: TriangularGrid) -> list[KernelSet]:
    """March the coupled Goursat system in x with a semi-Lagrangian step.

    At level i every node traces its characteristic back one step to level
    i-1.  The k1 characteristic has slope -lam(xi)/mu(x); a foot beyond the
    previous diagonal means the characteristic entered through the diagonal,
    so the diagonal data is evaluated at the crossing point and the source is
    integrated over the remaining arc.  The k2 characteristic (slope
    +mu(xi)/mu(x)) can only leave through the bottom edge; its crossing uses
    the bottom data, interpolating the current k1 bottom values in x.  Both
    boundary conditions are imposed exactly on their nodes.  Source terms use
    values at the foot, which makes the scheme first-order and keeps all
    updates functions of the previous level only.

    All plants march together, one level at a time.  Every operation is
    elementwise, so each plant's kernels are bit-identical however the batch
    is composed.  A plant with lam + mu <= 0 somewhere or non-finite kernels
    raises :class:`PlantError` naming its index.
    """
    n, h = grid.n, grid.h
    fields = [resample(c, n) for c in coeffs]
    table = np.stack([np.stack([f[name] for f in fields]) for name in _TABLE])
    lam, mu, dlam, sig, tht, dmu, omg = table
    bad = np.flatnonzero(np.any(lam + mu <= 0, axis=1))
    if bad.size:
        raise PlantError(int(bad[0]), "lam + mu must be positive on the whole grid")
    flat = table.reshape(len(_TABLE), -1)
    # flat offset of each plant's row, so one index gathers from every plant
    off = np.arange(len(coeffs))[:, None] * (n + 1)
    x = grid.points
    bc_ratio = np.array([c.q for c in coeffs])[:, None] * lam[:, :1] / mu[:, :1]
    diag_bc = -tht / (lam + mu)
    h_lam, h_mu = h * lam, h * mu

    # (k1, k2) of every plant in flat order; two contiguous buffers hold the last two levels
    values = np.empty((2, len(coeffs), grid.node_count))
    prev, cur = np.zeros((2, 2, len(coeffs), n + 1))
    prev[0, :, 0] = diag_bc[:, 0]
    prev[1, :, :1] = bc_ratio * prev[0, :, :1]
    values[:, :, 0] = prev[:, :, 0]

    for i in range(1, n + 1):
        mu_i = mu[:, i : i + 1]
        tau = h / mu_i  # characteristic time back to the previous level
        prev_flat = prev.reshape(2, -1)
        x_prev = x[i - 1]
        k1, k2 = cur

        # --- k1: interior nodes j = 0..i-1, diagonal node imposed ---
        foot = x[:i] + h_lam[:, :i] / mu_i
        crossed = foot > x_prev
        if i >= 2:
            t = np.minimum(np.maximum(foot, 0.0), x_prev) / h
            ic = np.minimum(t.astype(int), n - 1)
            ik = np.minimum(ic, i - 2)
            k1f, k2f = _lerp(prev_flat, ik + off, t - ik)
            dlam_f, sig_f, tht_f = _lerp(flat[2:5], ic + off, t - ic)
            regular = k1f + tau * ((dlam_f + sig_f) * k1f + tht_f * k2f)
        else:
            regular = 0.0
        # diagonal crossing: data at (xc, xc), source over the remaining arc
        slope = lam[:, :i] / mu_i
        xc = (x[:i] + slope * x[i]) / (1.0 + slope)
        t = xc / h
        ic = np.minimum(t.astype(int), n - 1)
        lam_c, mu_c, dlam_c, sig_c, tht_c = _lerp(flat[:5], ic + off, t - ic)
        bc = -tht_c / (lam_c + mu_c)
        k2c = prev[1, :, i - 1 : i]  # nearest available value for the coupling term
        src_c = (dlam_c + sig_c) * bc + tht_c * k2c
        from_bc = bc + ((x[i] - xc) / mu_i) * src_c
        k1[:, :i] = np.where(crossed, from_bc, regular)
        k1[:, i] = diag_bc[:, i]

        # --- k2: nodes j = 1..i, bottom node imposed from this level's k1 ---
        foot = x[1 : i + 1] - h_mu[:, 1 : i + 1] / mu_i
        crossed = foot < 0.0
        t = np.minimum(np.maximum(foot, 0.0), x_prev) / h
        ic = np.minimum(t.astype(int), n - 1)
        if i >= 2:
            ik = np.minimum(ic, i - 2)
            k1f, k2f = _lerp(prev_flat, ik + off, t - ik)
        else:
            k1f, k2f = prev[:, :, :1]
        dmu_f, omg_f = _lerp(flat[5:7], ic + off, t - ic)
        regular = k2f + tau * (-dmu_f * k2f + omg_f * k1f)

        xc = x[i] - x[1 : i + 1] * mu_i / mu[:, 1 : i + 1]
        frac = np.minimum(np.maximum((xc - x_prev) / h, 0.0), 1.0)
        k1b = prev[0, :, :1] * (1.0 - frac) + k1[:, :1] * frac
        bc = bc_ratio * k1b
        src_c = -dmu[:, :1] * bc + omg[:, :1] * k1b
        from_bc = bc + ((x[i] - xc) / mu_i) * src_c
        k2[:, 1 : i + 1] = np.where(crossed, from_bc, regular)
        k2[:, :1] = bc_ratio * k1[:, :1]
        values[:, :, i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] = cur[:, :, : i + 1]
        prev, cur = cur, prev

    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=(0, 2)))
    if bad.size:
        raise PlantError(int(bad[0]), "kernel marching produced non-finite values")
    return [KernelSet(k1=KernelField(grid, v1), k2=KernelField(grid, v2)) for v1, v2 in zip(*values)]


def check_boundary_conditions(coeffs: CoefficientSet, ks: KernelSet):
    """Max residual of the diagonal and bottom-edge identities."""
    n = ks.grid.n
    cf = resample(coeffs, n)
    k1m, k2m = ks.k1.as_matrix(), ks.k2.as_matrix()
    diag = np.array([k1m[i, i] for i in range(n + 1)])
    r_diag = np.abs(diag + cf["theta"] / (cf["lam"] + cf["mu"]))
    r_bottom = np.abs(cf["mu"][0] * k2m[:, 0] - coeffs.q * cf["lam"][0] * k1m[:, 0])
    return float(r_diag.max()), float(r_bottom.max())


def solve_kappa_c(coeffs: CoefficientSet, ks: KernelSet) -> KernelSet:
    """Fill kappa and c by row-wise Volterra solves.

    Per row (fixed x) kappa satisfies

        kappa(x, xi) = omega(x) k2(x, xi) + int_xi^x kappa(x, s) k2(s, xi) ds

    which back-substitution in xi turns into a lower-triangular solve with
    trapezoid weights.  c uses k1 with kappa in the integrand.
    """
    n, h = ks.grid.n, ks.grid.h
    cf = resample(coeffs, n)
    omg = cf["omega"]
    k1m, k2m = ks.k1.as_matrix(), ks.k2.as_matrix()
    kap = np.zeros((n + 1, n + 1))
    cm = np.zeros((n + 1, n + 1))

    for i in range(n + 1):
        kap[i, i] = omg[i] * k2m[i, i]
        for j in range(i - 1, -1, -1):
            pivot = 1.0 - 0.5 * h * k2m[j, j]
            if abs(pivot) < PIVOT_TOL:
                raise ZeroDivisionError(f"singular Volterra pivot at row {i}, xi index {j}")
            w = trapezoid_weights(i - j + 1, h)
            acc = w[1:] @ (kap[i, j + 1 : i + 1] * k2m[j + 1 : i + 1, j])
            kap[i, j] = (omg[i] * k2m[i, j] + acc) / pivot
        for j in range(i, -1, -1):
            w = trapezoid_weights(i - j + 1, h)
            acc = w @ (kap[i, j : i + 1] * k1m[j : i + 1, j])
            cm[i, j] = omg[i] * k1m[i, j] + acc

    grid = ks.grid
    return replace(
        ks,
        kappa=KernelField.from_matrix(grid, kap),
        c=KernelField.from_matrix(grid, cm),
    )


def solve_inverse_kernels(ks: KernelSet) -> KernelSet:
    """Fill the inverse-transformation kernels l1, l2.

    For each fixed xi the pair satisfies

        l_i(x, xi) = k_i(x, xi) + int_xi^x k2(x, s) l_i(s, xi) ds,

    marched in x; the newest node enters its own integral through the
    trapezoid endpoint, giving a scalar implicit equation per step.
    """
    n, h = ks.grid.n, ks.grid.h
    k1m, k2m = ks.k1.as_matrix(), ks.k2.as_matrix()
    l1 = np.zeros((n + 1, n + 1))
    l2 = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        l1[j, j] = k1m[j, j]
        l2[j, j] = k2m[j, j]
        for m in range(j + 1, n + 1):
            pivot = 1.0 - 0.5 * h * k2m[m, m]
            if abs(pivot) < PIVOT_TOL:
                raise ZeroDivisionError(f"singular inverse-kernel pivot at x index {m}")
            w = trapezoid_weights(m - j + 1, h)
            row_k2 = k2m[m, j:m]
            l1[m, j] = (k1m[m, j] + w[:-1] @ (row_k2 * l1[j:m, j])) / pivot
            l2[m, j] = (k2m[m, j] + w[:-1] @ (row_k2 * l2[j:m, j])) / pivot
    grid = ks.grid
    return replace(
        ks,
        l1=KernelField.from_matrix(grid, l1),
        l2=KernelField.from_matrix(grid, l2),
    )


def gain_slice(ks: KernelSet) -> GainVector:
    """Feedback gains: the top row x = 1 of both kernels over xi in [0, 1]."""
    n = ks.grid.n
    return GainVector(
        grid=IntervalGrid(n),
        g1=ks.k1.row(n).copy(),
        g2=ks.k2.row(n).copy(),
    )
