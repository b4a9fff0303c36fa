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
from .numerics import IntervalGrid, TriangularGrid, compose, flatten_lower, unflatten_lower

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
GEOMETRY_NODES = 2048  # node-plant pairs of march geometry computed at a time; bounds memory only


def _lerp(table: np.ndarray, at: np.ndarray, frac: np.ndarray, stride: int) -> np.ndarray:
    """Linear interpolation of every row of ``table`` between flat indices at and at + stride."""
    out = table.take(at, axis=1)
    out *= 1.0 - frac
    right = table.take(at + stride, axis=1)
    right *= frac
    out += right
    return out


def _level_groups(n: int, plants: int):
    """Runs [a, b) of levels 1..n whose nodes times plants stay within GEOMETRY_NODES."""
    a = 1
    while a <= n:
        b, size = a + 1, a
        while b <= n and (size + b) * plants <= GEOMETRY_NODES:
            size += b
            b += 1
        yield a, b
        a = b


def _geometry(table: np.ndarray, x: np.ndarray, h: float, a: int, b: int):
    """Everything levels a..b-1 of the march compute without the previous level.

    ``table`` is the node-major (7, n+1, B) coefficient table.  Level i owns
    rows o..o+i-1 of every returned (rows, B) array, o being the sum of the
    levels before it in the run: the k1 nodes j = 0..i-1 and the k2 nodes
    j = 1..i.  The lerps of the previous level at the k1 and the k2 feet are
    returned as ``at``, the flat indices ``node * B + plant`` of their left
    and right values, and ``weight``, both (left/right, k1/k2, rows, B);
    level 1 has no such lerp, and its entries are not used.
    """
    _, m, plants = table.shape
    n = m - 1
    flat = table.reshape(len(_TABLE), -1)
    lam, mu = table[:2]
    levels = np.arange(a, b)
    level = np.repeat(levels, levels)
    j = np.arange(level.size) - np.repeat(np.cumsum(levels) - levels, levels)
    col = np.arange(plants)
    mu_i = mu[level]
    x_i, x_prev = x[level][:, None], x[level - 1][:, None]

    def coeff_lerp(rows, t):
        ic = np.minimum(t.astype(int), n - 1)
        return _lerp(flat[rows], ic * plants + col, t - ic, plants)

    at = np.empty((2, 2, level.size, plants), dtype=int)
    weight = np.empty((2, 2, level.size, plants))

    def foot_lerp(foot, rows, k):
        """Coefficients at the foot; the lerp of the previous level there goes to at, weight [:, k]."""
        t = np.minimum(np.maximum(foot, 0.0), x_prev) / h
        ik = np.minimum(t.astype(int), level[:, None] - 2)
        frac = np.subtract(t, ik, out=weight[1, k])
        np.subtract(1.0, frac, out=weight[0, k])
        np.add(ik * plants, col, out=at[0, k])
        np.add(at[0, k], plants, out=at[1, k])
        return coeff_lerp(rows, t)

    # --- k1 at nodes j: the foot, and the crossing of the diagonal ---
    foot = x[j][:, None] + h * lam[j] / mu_i
    dlam_f, sig_f, tht_f = foot_lerp(foot, slice(2, 5), 0)
    slope = lam[j] / mu_i
    xc = (x[j][:, None] + slope * x_i) / (1.0 + slope)
    lam_c, mu_c, dlam_c, sig_c, tht_c = coeff_lerp(slice(0, 5), xc / h)
    bc = -tht_c / (lam_c + mu_c)
    k1 = (foot > x_prev, dlam_f + sig_f, tht_f, bc, (dlam_c + sig_c) * bc, tht_c, (x_i - xc) / mu_i)

    # --- k2 at nodes j + 1: the foot, and the crossing of the bottom edge ---
    j += 1
    foot = x[j][:, None] - h * mu[j] / mu_i
    dmu_f, omg_f = foot_lerp(foot, slice(5, 7), 1)
    xc = x_i - x[j][:, None] * mu_i / mu[j]
    frac = np.minimum(np.maximum((xc - x_prev) / h, 0.0), 1.0)
    k2 = (foot < 0.0, -dmu_f, omg_f, 1.0 - frac, frac, (x_i - xc) / mu_i)
    return at, weight, k1, k2


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

    All plants march together, one level at a time.  What depends only on
    the coefficients (feet, crossings, their coefficient lerps, weights) is
    computed by :func:`_geometry` for a run of levels at once, node-major as
    (node, plant) so that each level's rows are one contiguous slice; a run
    holds at most GEOMETRY_NODES node-plant pairs, which bounds the extra
    memory.  The level loop keeps only the lerps of the previous level and
    the arithmetic on them.  Every operation is elementwise, so each plant's
    kernels are bit-identical however the batch is composed.  A plant with
    lam + mu <= 0 somewhere or non-finite kernels raises :class:`PlantError`
    naming its index.
    """
    n, h = grid.n, grid.h
    plants = len(coeffs)
    fields = [resample(c, n) for c in coeffs]
    table = np.stack([np.stack([f[name] for f in fields], axis=1) for name in _TABLE])
    lam, mu, dlam, sig, tht, dmu, omg = table
    bad = np.flatnonzero(np.any(lam + mu <= 0, axis=0))
    if bad.size:
        raise PlantError(int(bad[0]), "lam + mu must be positive on the whole grid")
    x = grid.points
    bc_ratio = np.array([c.q for c in coeffs]) * lam[0] / mu[0]
    diag_bc = -tht / (lam + mu)
    tau = h / mu  # characteristic time back to the previous level
    ndmu0, omg0 = -dmu[0], omg[0]

    # (k1, k2) of every plant in flat order; two node-major buffers hold the last two levels
    values = np.empty((2, plants, grid.node_count))
    prev, cur = np.zeros((2, 2, n + 1, plants))
    prev[0, 0] = diag_bc[0]
    prev[1, 0] = bc_ratio * prev[0, 0]
    values[:, :, 0] = prev[:, 0]

    for a, b in _level_groups(n, plants):
        at, weight, geo1, geo2 = _geometry(table, x, h, a, b)
        o = 0
        for i in range(a, b):
            s = slice(o, o + i)
            o += i

            # --- k1: interior nodes j = 0..i-1, diagonal node imposed ---
            crossed, src1, src2, bc, src_bc, tht_c, arc = (g[s] for g in geo1)
            if i >= 2:
                # (k1, k2) of the previous level at both feet, [component, foot, node, plant]
                ends = prev.reshape(2, -1).take(at[:, :, s], axis=1)
                feet = ends[:, 0] * weight[0, :, s] + ends[:, 1] * weight[1, :, s]
                k1f, k2f = feet[:, 0]
                regular = k1f + tau[i] * (src1 * k1f + src2 * k2f)
            else:
                regular = 0.0
            # diagonal crossing: k2 at the nearest available node for the coupling term
            from_bc = bc + arc * (src_bc + tht_c * prev[1, i - 1])
            cur[0, :i] = np.where(crossed, from_bc, regular)
            cur[0, i] = diag_bc[i]

            # --- k2: nodes j = 1..i, bottom node imposed from this level's k1 ---
            crossed, src1, src2, keep, frac, arc = (g[s] for g in geo2)
            if i >= 2:
                k1f, k2f = feet[:, 1]
            else:
                k1f, k2f = prev[:, :1]
            regular = k2f + tau[i] * (src1 * k2f + src2 * k1f)
            k1b = prev[0, 0] * keep + cur[0, 0] * frac
            bc = bc_ratio * k1b
            from_bc = bc + arc * (ndmu0 * bc + omg0 * k1b)
            cur[1, 1 : i + 1] = np.where(crossed, from_bc, regular)
            cur[1, 0] = bc_ratio * cur[0, 0]
            values[:, :, i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] = cur[:, : i + 1].transpose(0, 2, 1)
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
    r_diag = np.abs(np.diagonal(k1m) + cf["theta"] / (cf["lam"] + cf["mu"]))
    r_bottom = np.abs(cf["mu"][0] * k2m[:, 0] - coeffs.q * cf["lam"][0] * k1m[:, 0])
    return float(r_diag.max()), float(r_bottom.max())


def solve_kappa_c(coeffs: CoefficientSet, ks: KernelSet) -> KernelSet:
    """Fill kappa and c by Volterra solves marched over xi columns.

    Per row (fixed x) kappa satisfies

        kappa(x, xi) = omega(x) k2(x, xi) + int_xi^x kappa(x, s) k2(s, xi) ds

    under the trapezoid rule.  Column xi_j needs only the columns to its
    right, so the march runs j = n-1 .. 0 with all rows of a column at once.
    c uses k1 with kappa in the integrand.
    """
    n, h = ks.grid.n, ks.grid.h
    omg = resample(coeffs, n)["omega"]
    k1m, k2m = ks.k1.as_matrix(), ks.k2.as_matrix()
    pivot = 1.0 - 0.5 * h * np.diagonal(k2m)
    bad = np.flatnonzero(np.abs(pivot[:n]) < PIVOT_TOL)
    if bad.size:
        raise ZeroDivisionError(f"singular Volterra pivot at row {bad[0] + 1}, xi index {bad[0]}")

    dk = omg * np.diagonal(k2m)
    kap = np.diag(dk)
    for j in range(n - 1, -1, -1):
        col = k2m[j + 1 :, j]
        acc = h * (kap[j + 1 :, j + 1 :] @ col) - 0.5 * h * dk[j + 1 :] * col
        kap[j + 1 :, j] = (omg[j + 1 :] * col + acc) / pivot[j]
    cm = omg[:, None] * k1m + compose(kap, k1m, h)

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

    marched in x over whole rows of both kernels; the newest node enters its
    own integral through the trapezoid endpoint, giving a scalar pivot per row.
    """
    n, h = ks.grid.n, ks.grid.h
    k = np.stack([ks.k1.as_matrix(), ks.k2.as_matrix()])
    pivot = 1.0 - 0.5 * h * np.diagonal(k[1])
    bad = np.flatnonzero(np.abs(pivot[1:]) < PIVOT_TOL)
    if bad.size:
        raise ZeroDivisionError(f"singular inverse-kernel pivot at x index {bad[0] + 1}")

    # l and k share their diagonal
    dl = np.diagonal(k, axis1=1, axis2=2)
    l = k * np.eye(n + 1)
    for m in range(1, n + 1):
        row = k[1, m, :m]
        acc = h * (row @ l[:, :m, :m]) - 0.5 * h * row * dl[:, :m]
        l[:, m, :m] = (k[:, m, :m] + acc) / pivot[m]
    grid = ks.grid
    return replace(
        ks,
        l1=KernelField.from_matrix(grid, l[0]),
        l2=KernelField.from_matrix(grid, l[1]),
    )


def gain_slice(ks: KernelSet) -> GainVector:
    """Feedback gains: the top row x = 1 of both kernels over xi in [0, 1]."""
    n = ks.grid.n
    return GainVector(
        grid=IntervalGrid(n),
        g1=ks.k1.row(n).copy(),
        g2=ks.k2.row(n).copy(),
    )
