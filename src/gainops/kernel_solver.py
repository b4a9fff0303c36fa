"""Solvers for the coupled gain-kernel equations on the triangular domain.

The pair (k1, k2) satisfies a coupled Goursat-form first-order system

    mu(x) dk1/dx - lam(xi) dk1/dxi = (lam'(xi) + sigma(xi)) k1 + theta(xi) k2
    mu(x) dk2/dx + mu(xi)  dk2/dxi = -mu'(xi) k2 + omega(xi) k1

on T = {0 <= xi <= x <= 1}, with data on the diagonal for k1,

    k1(x, x) = -theta(x) / (lam(x) + mu(x)),

and on the bottom edge for k2,

    mu(0) k2(x, 0) = q lam(0) k1(x, 0).

The inverse kernels l1, l2 solve Volterra equations of the second kind
driven by (k1, k2).  A :class:`KernelSet` holds k1 and k2 only and solves
l1, l2 in one blocked solve on their first read.  l2 is the resolvent
kernel of k2, so the target-system couplings kappa = omega(x) l2 and
c = omega(x) l1 (exact in the continuum, to O(h^2) under the trapezoid
rule) are products that :func:`target_couplings` forms where read.
"""

from __future__ import annotations

import mmap
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientSet, resample
from .controller import GainVector
from .numerics import IntervalGrid, TriangularGrid, flatten_lower, unflatten_lower

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

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (n+1, n+1) lower triangle, zero above it; built on first read, read-only."""
        dense = unflatten_lower(self.values, self.grid.n)
        dense.flags.writeable = False
        return dense

    def as_matrix(self) -> np.ndarray:
        """:attr:`matrix`, under the name the benchmark traces."""
        return self.matrix

    def sup(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True, eq=False)
class KernelSet:
    """One solved plant on one grid: k1 and k2, and l1 and l2 solved from them on first read."""

    k1: KernelField
    k2: KernelField

    def __post_init__(self):
        if self.k1.grid.n != self.k2.grid.n:
            raise ValueError("k1 and k2 must share one grid")

    @property
    def grid(self) -> TriangularGrid:
        return self.k1.grid

    @cached_property
    def _inverse(self) -> tuple[KernelField, KernelField]:
        """The inverse-transformation kernels (l1, l2) by one blocked Volterra solve.

        For each fixed xi the pair satisfies

            l_i(x, xi) = k_i(x, xi) + int_xi^x k2(x, s) l_i(s, xi) ds,

        the equation :func:`_volterra` solves, here with data (k1, k2); a
        pivot below PIVOT_TOL raises ZeroDivisionError, on every read.
        """
        grid = self.grid
        k = np.stack([self.k1.matrix, self.k2.matrix])
        bad = np.flatnonzero(np.abs(1.0 - 0.5 * grid.h * np.diagonal(k[1])[1:]) < PIVOT_TOL)
        if bad.size:
            raise ZeroDivisionError(f"singular inverse-kernel pivot at x index {bad[0] + 1}")
        return tuple(KernelField(grid, flatten_lower(l)) for l in _volterra(k[1], grid.h, k))

    @property
    def l1(self) -> KernelField:
        return self._inverse[0]

    @property
    def l2(self) -> KernelField:
        return self._inverse[1]


class PlantError(ValueError):
    """A plant that cannot be solved; ``index`` is its place in the plants of the solver call."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"plant {index}: {reason}")
        self.index = index


# Rows of the stacked coefficient table.  The diagonal crossing reads rows 0:5,
# the k2 foot at the bottom edge rows 5:7.
_TABLE = ("lam", "mu", "dlam", "sigma", "theta", "dmu", "omega")
# The march's one memory budget, in node-plant pairs: a batch has as many plants
# as its widest level (n pairs a plant) allows, and a run of levels at most as
# many pairs, or one level.  A pair is a k1 node and the k2 node to its right:
# 8 gather indices and 8 folded weights (128 bytes) outlive _geometry.
GEOMETRY_NODES = 2048


class _Plan(NamedTuple):
    """The march's node-only arrays on one grid, (pairs, k1/k2) each, read-only.

    Entry (p, k) is the k1 node j (k = 0) or the k2 node j + 1 (k = 1) of
    pair p, pair p being node j of level i in canonical order, so that the
    pairs of levels a..b-1 are the rows a(a-1)/2 : b(b-1)/2.  Each entry
    has its own copy of what the pair's two nodes share, so that no
    product with a per-node array broadcasts over k.
    """

    level: np.ndarray  # i
    rows: np.ndarray  # j and n + 2 + j, the rows of h lam(xi_j) and -h mu(xi_j+1) in the speed table
    xi: np.ndarray  # xi_j and xi_j+1, the nodes' own xi
    x_prev: np.ndarray  # x_i-1
    last: np.ndarray  # i - 2, the last left lerp end on level i - 1
    v_cells: np.ndarray  # cells of V at the left lerp end xi_0 on level i - 1, in blocks of the batch size
    z_cells: np.ndarray  # and of Z


@lru_cache(maxsize=4)
def _plan(grid: TriangularGrid) -> _Plan:
    """:class:`_Plan` of ``grid``, built once: 112 bytes a node pair whatever the batch size (0.57 MB at n = 100, 36 MB at 800).

    The arrays live in an anonymous mapping of their own, outside the
    malloc heap: cached arrays inside it split the space that every run's
    temporaries reuse, and the heap then grew and was trimmed again run
    after run (330 to 380 page faults per 8-plant solve at n = 50, 15% of
    bench datagen's throughput, when each run's arrays were cached there).
    """
    rows, j = np.tril_indices(grid.n)
    x, pairs = grid.points, rows.size
    block = mmap.mmap(-1, 7 * 2 * 8 * pairs)
    dtypes = (np.intp, np.intp, np.float64, np.float64, np.intp, np.intp, np.intp)
    plan = _Plan(*(np.frombuffer(block, t, 2 * pairs, 16 * pairs * k).reshape(pairs, 2) for k, t in enumerate(dtypes)))
    slot0 = 2 * (rows * (rows + 1) // 2 + 1)  # cell block of k1 at (i-1, 0)
    # filled column by column: a (pairs, 1) operand broadcast over k runs 2-element loops
    plan.level[:, 0] = plan.level[:, 1] = rows + 1
    plan.rows[:, 0], plan.rows[:, 1] = j, j + grid.n + 2
    plan.xi[:, 0], plan.xi[:, 1] = x[j], x[j + 1]
    plan.x_prev[:, 0] = plan.x_prev[:, 1] = x[rows]
    plan.last[:, 0] = plan.last[:, 1] = rows - 1
    plan.v_cells[:, 0] = plan.z_cells[:, 1] = slot0  # V is the node's own kernel, Z the other one
    plan.v_cells[:, 1] = plan.z_cells[:, 0] = slot0 - 1
    for array in plan:
        array.flags.writeable = False
    return plan


def _lerp(table: np.ndarray, at: np.ndarray, frac: np.ndarray, stride: int) -> np.ndarray:
    """Linear interpolation of every row of ``table`` between flat indices at and at + stride."""
    out = table.take(at, axis=1)
    out *= 1.0 - frac
    right = table[:, stride:].take(at, axis=1)
    right *= frac
    out += right
    return out


@lru_cache(maxsize=64)
def _schedule(n: int, plants: int, budget: int) -> tuple[tuple[int, int], ...]:
    """The runs [a, b) of levels 1..n, each of at most ``budget`` node-plant pairs or of one level."""
    runs, a = [], 1
    while a <= n:
        b, size = a + 1, a
        while b <= n and (size + b) * plants <= budget:
            size += b
            b += 1
        runs.append((a, b))
        a = b
    return tuple(runs)


@lru_cache(maxsize=16)
def _candidates(grid: TriangularGrid, reach: int):
    """The last ``reach`` nodes j of each level i of 1..n: i, j, their pair and x_j, x_i-1, x_i, read-only."""
    x = grid.points
    levels = np.arange(1, grid.n + 1)
    count = np.minimum(levels, reach)
    i = np.repeat(levels, count)
    j = np.arange(i.size) - np.repeat(np.cumsum(count) - levels, count)
    arrays = (i, j, i * (i - 1) // 2 + j, x[j], x[i - 1], x[i])
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _crossings(table: np.ndarray, speeds: np.ndarray, grid: TriangularGrid, reach: int, values: np.ndarray):
    """The k1 nodes of every level whose characteristic crossed the diagonal, found in one pass.

    A foot beyond x_i-1 needs i - 1 - j < lam(xi_j)/mu(x_i), so only the
    last ``reach`` nodes of a level, one more than sup lam / inf mu for
    rounding, are tested, with the foot computed as :func:`_geometry`
    computes it.  A crossing node reads V = bc exactly,
    w = (1, 0) on its own cell, into which bc is prefilled here; Z is k2 at
    (i-1, i-1), read exactly too, P = lam' + sigma and Q = theta at the
    crossing, and T the remaining arc.  Returns their pairs and plants in
    pair order, and their cells and folded weights, (4 lerp ends, nodes).
    """
    n, h = grid.n, grid.h
    plants = table.shape[2]
    i, j, pair, x_j, x_prev, x_i = _candidates(grid, reach)
    mu_i = table[1].take(i, axis=0)
    foot = speeds.take(j, axis=0)
    foot /= mu_i
    foot += x_j[:, None]
    crossed = foot > x_prev[:, None]
    crossed[0] = True  # a level-1 characteristic starts on node (0, 0), also where its foot underflows to 0
    kk, pp = np.nonzero(crossed)
    i, j, pair, xc_i, mu_c = i[kk], j[kk], pair[kk], x_i[kk], mu_i[kk, pp]
    slope = table[0][j, pp] / mu_c
    xc = (x_j[kk] + slope * xc_i) / (1.0 + slope)
    t = xc / h
    ic = np.minimum(t.astype(int), n - 1)
    lam_c, mu_cc, dlam_c, sig_c, tht_c = _lerp(table.reshape(len(_TABLE), -1)[:5], ic * plants + pp, t - ic, plants)
    bc = -tht_c / (lam_c + mu_cc)
    arc = (xc_i - xc) / mu_c
    own = 2 * (pair + i + 1) * plants + pp  # k1 at (i, j)
    values.reshape(-1)[own] = bc
    diag = own - (2 * j + 3) * plants  # k2 at (i-1, i-1)
    src = np.stack([dlam_c + sig_c, tht_c])
    src *= arc
    src[0] += 1.0
    return pair, pp, np.stack([own, diag, own, diag]), np.multiply.outer((1.0, 0.0), src).reshape(4, -1)


def _geometry(table, speeds, sources, grid, a, b, ratio, crossings):
    """Everything levels a..b-1 of the march compute without the previous level.

    ``table`` is the node-major (7, n+1, B) coefficient table, ``speeds`` and
    ``sources`` its rows per kernel (see :func:`_solve_batch`) and
    ``crossings`` what :func:`_crossings` returned for the batch.  The
    node-only arrays are the run's slice of the grid's cached
    :class:`_Plan`; what is computed here is their products with the batch
    size and what depends on the coefficients.  Element (p, k, b) is the
    plan's entry (p, k) for plant b, and the elements of a level are, in
    order, the march's output cells of that level.

    Each node's update V + T*(P*V + Q*Z), V and Z being lerps
    e_l*w_l + e_r*w_r of two cells, is folded into the weights: a V cell
    weighs w*(1 + T*P) and a Z cell w*(T*Q), so the node is the sum of its
    four weighted cells.  A regular node lerps the previous level at its
    foot: V is its own kernel there, Z the other one, T = h/mu(x_i) and P,
    Q its sources at the foot, lerped off one table of rows (lam' | -mu',
    sigma | -0.0, theta | omega), k1's columns and then k2's: P is the sum
    of the first two, and -mu' + -0.0 is -mu' itself.  The diagonal
    crossings overwrite their nodes' cells and weights.

    Returns ``at``, the cells (lerp ends (l, V), (l, Z), (r, V), (r, Z),
    elements), the folded ``weight`` of the same shape, and a map from each
    level where k2 characteristics leave through the bottom edge to its
    fix-up: the k1 cells at (i-1, 0) and (i, 0), the k2 cells to overwrite,
    and (keep, frac, arc, q lam(0)/mu(0), -mu'(0), omega(0)) for each of them.
    """
    n, h, x = grid.n, grid.h, grid.points
    plants = ratio.size
    lo, hi = a * (a - 1) // 2, b * (b - 1) // 2
    level, rows, xi, x_prev, last, v_cells, z_cells = (array[lo:hi] for array in _plan(grid))
    col = np.arange(plants)
    mu = table[1]
    mu_i = mu.take(level, axis=0)

    # --- feet of the k1 node j and the k2 node j + 1, (pairs, k1/k2, B) ---
    t = speeds.take(rows, axis=0)
    t /= mu_i
    t += xi[..., None]
    bottom = t[:, 1] < 0.0
    np.maximum(t, 0.0, out=t)
    np.minimum(t, x_prev[..., None], out=t)
    t /= h
    it = t.astype(int)
    ik = np.minimum(it, last[..., None])
    w = np.empty((2, *t.shape))
    np.subtract(t, ik, out=w[1])
    np.subtract(1.0, w[1], out=w[0])
    ik *= 2 * plants
    ik += col
    at = np.empty((2, *w.shape), dtype=ik.dtype)  # (l/r, V/Z, pairs, k1/k2, B)
    np.add(ik, (v_cells * plants)[..., None], out=at[0, 0])
    np.add(ik, (z_cells * plants)[..., None], out=at[0, 1])
    np.add(at[0], 2 * plants, out=at[1])
    ic = np.minimum(it, n - 1, out=it)
    frac = np.subtract(t, ic, out=t)
    ic[:, 1] += n + 1
    ic *= plants
    ic += col
    src = _lerp(sources, ic, frac, plants)
    src[0] += src[1]
    fold = src[::2]  # (P, Q) -> (1 + T*P, T*Q)
    fold *= h / mu_i
    fold[0] += 1.0
    if a == 1:  # the k2 node of level 1 reads node (0, 0) exactly
        at[:, :, 0, 1] = np.array([1, 2])[:, None] * plants + col
        w[:, 0, 1] = ((1.0,), (0.0,))
    at = at.reshape(4, -1)
    weight = np.multiply(w[:, None], fold).reshape(4, -1)

    # --- k1 nodes whose characteristic crossed the diagonal ---
    pair, pp, at_c, weight_c = crossings
    s, e = np.searchsorted(pair, (lo, hi))
    crossed = (pair[s:e] - lo) * (2 * plants) + pp[s:e]
    at[:, crossed] = at_c[:, s:e]
    weight[:, crossed] = weight_c[:, s:e]

    # --- k2 nodes whose characteristic crossed the bottom edge ---
    kk, pp = np.nonzero(bottom)
    if not kk.size:
        return at, weight, {}
    i, jc, mu_c = level[kk, 1], rows[kk, 1] - (n + 1), mu_i[kk, 1, pp]
    xc_i = x[i]
    xc = xc_i - xi[kk, 1] * mu_c / mu[jc, pp]
    frac = np.minimum(np.maximum((xc - x_prev[kk, 1]) / h, 0.0), 1.0)
    left = (i * (i - 1) + 2) * plants + pp  # k1 at (i-1, 0)
    ends = np.stack([left, left + 2 * i * plants])  # and at (i, 0)
    dst = left + (2 * (i + jc) - 1) * plants  # k2 at (i, j + 1)
    data = np.stack([1.0 - frac, frac, (xc_i - xc) / mu_c, ratio[pp], -table[5, 0, pp], table[6, 0, pp]])
    starts = np.flatnonzero(np.diff(i, prepend=0))
    fixes = {
        int(i[s]): (ends[:, s:e], dst[s:e], data[:, s:e])
        for s, e in zip(starts, [*starts[1:], kk.size])
    }
    return at, weight, fixes


def _march(values: np.ndarray, ratio: np.ndarray, a: int, b: int, at, weight, fixes) -> None:
    """Levels a..b-1 of the march, in place in ``values``, from their :func:`_geometry`.

    A level is one gather of its cells, one product with their folded
    weights and one sum of the four terms of each node, in the fixed order
    (l, V), (l, Z), (r, V), (r, Z), written to the level's contiguous
    output cells; then k2 at node 0.  The sum starts from -0.0, not from
    add's identity +0.0, so that a first term of -0.0 stays -0.0.
    """
    plants = ratio.size
    cells = values.reshape(-1)
    lo = 0
    for i in range(a, b):
        hi = lo + 2 * i * plants
        r = (i * (i + 1) + 2) * plants  # cell of k1 at (i, 0); k2 at (i, 0) is the block before it
        terms = cells.take(at[:, lo:hi])
        terms *= weight[:, lo:hi]
        np.add.reduce(terms, out=cells[r : r + hi - lo], initial=-0.0)
        np.multiply(ratio, cells[r : r + plants], out=cells[r - plants : r])
        lo = hi
        if i in fixes:  # k2 from the bottom data, lerped between k1 at (i-1, 0) and (i, 0)
            at_b, dst, (keep, frac, arc, ratio_b, ndmu0, omg0) = fixes[i]
            left, right = cells.take(at_b)
            k1b = left * keep + right * frac
            bc = ratio_b * k1b
            cells[dst] = bc + arc * (ndmu0 * bc + omg0 * k1b)


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

    Any number of plants is taken.  They march in consecutive batches of
    max(1, GEOMETRY_NODES // n) plants, so that the widest level of a batch
    fits the one memory budget, and a plant's kernels do not depend on its
    batch.  A plant with lam + mu <= 0 somewhere or non-finite kernels
    raises :class:`PlantError` naming its index in ``coeffs``; an overflow
    inside the march is left to that check.
    """
    size = max(1, GEOMETRY_NODES // grid.n)
    return [ks for start in range(0, len(coeffs), size) for ks in _solve_batch(coeffs[start : start + size], grid, start)]


def _solve_batch(coeffs: Sequence[CoefficientSet], grid: TriangularGrid, first: int) -> list[KernelSet]:
    """One batch of :func:`solve_kernels_batch`, its plants numbered from ``first`` in errors.

    All plants march together, one level at a time, in place in one buffer:
    ``values[q + 1, 0]`` is k1 and ``values[q, 1]`` is k2 at flat node q,
    plants last, so that the k1 node j and the k2 node j + 1 of level i
    share slot i(i+1)/2 + 1 + j and a level's nodes fill one contiguous
    block.  The k1 diagonal is prefilled.

    Planned once per grid and cached: the node-only :class:`_Plan` of
    every level, which each run of levels reads a slice of, and, per batch
    size, the runs themselves (at most GEOMETRY_NODES node-plant pairs, or
    one level that alone has more).  Once per batch: the tables of speeds
    and sources per kernel, how many nodes next to the diagonal have k1
    characteristics that can cross it, and, in one pass of
    :func:`_crossings`, the diagonal crossings of every level.  Once per
    run, :func:`_geometry` computes what depends only on the coefficients,
    with the update V + T*(P*V + Q*Z) folded into the weights of the lerp
    cells of V and Z.  So :func:`_march` updates every node of a level
    with one gather of those cells from the previous level, one product
    with their weights and one sum into the level's block; then k2 at node
    0.  The k2 nodes whose characteristics cross the bottom edge need this
    level's k1 at node 0, so they are recomputed after it, only at levels
    that have them.  Every operation is elementwise, and the sum of a
    node's four terms runs in one fixed order, so each plant's kernels are
    bit-identical however the batch is composed.
    """
    n, h = grid.n, grid.h
    plants = len(coeffs)
    table = np.stack([[f[name] for name in _TABLE] for f in (resample(c, n) for c in coeffs)], axis=-1)
    lam, mu, tht = table[0], table[1], table[4]
    bad = np.flatnonzero(np.any(lam + mu <= 0, axis=0))
    if bad.size:
        raise PlantError(first + int(bad[0]), "lam + mu must be positive on the whole grid")

    values = np.empty((grid.node_count + 1, 2, plants))  # values[0, 0] and values[-1, 1] are no node's
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.array([c.q for c in coeffs]) * lam[0] / mu[0]
        diag = np.arange(n + 1)
        values[diag * (diag + 3) // 2 + 1, 0] = -tht / (lam + mu)
        values[0, 1] = ratio * values[1, 0]
        speeds = np.concatenate([h * lam, -h * mu])
        sources = np.concatenate([table[2:5], [-table[5], np.full_like(lam, -0.0), table[6]]], axis=1).reshape(3, -1)
        # a k1 characteristic crosses the diagonal only within sup lam / inf mu nodes of it
        lam_max, mu_min = lam.max(), mu.min()
        reach = int(np.ceil(lam_max / mu_min)) + 1 if 0 < lam_max < n * mu_min else n
        crossings = _crossings(table, speeds, grid, reach, values)
        for a, b in _schedule(n, plants, GEOMETRY_NODES):
            _march(values, ratio, a, b, *_geometry(table, speeds, sources, grid, a, b, ratio, crossings))

    values = np.stack([values[1:, 0].T, values[:-1, 1].T])
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.all(np.isfinite(values), axis=(0, 2)))
        raise PlantError(first + int(bad[0]), "kernel marching produced non-finite values")
    return [KernelSet(k1=KernelField(grid, v1), k2=KernelField(grid, v2)) for v1, v2 in zip(*values)]


# Rows of l1 and l2 that the Volterra solve takes at a time.
_VOLTERRA_BLOCK = 16


def _volterra(k2m: np.ndarray, h: float, data: np.ndarray) -> np.ndarray:
    """Solve l = d + int_xi^x k2(x, s) l(s, xi) ds for each field d of the stack ``data``.

    Under the trapezoid rule l(x, x) = d(x, x), and the strictly lower parts
    Y solve (I - M) Y = tril(d + h/2 k2 l(xi, xi), -1), where M is h*k2
    below the diagonal and h/2*k2(j, j) on it: the newest node enters its
    own integral through the trapezoid endpoint.  Row x_m needs only the
    rows of smaller x, so every field, one right-hand side, is solved
    top-down in blocks of _VOLTERRA_BLOCK rows: one product brings in every
    row already solved, then the block's own lower-triangular diagonal
    block of I - M is inverted.  Those inverses come from one batched LAPACK
    call, each block padded to _VOLTERRA_BLOCK with the identity; tril drops
    what LAPACK's pivoting rounds above the diagonal.  The pivots
    1 - h/2*k2(m, m), m >= 1, are the caller's to check.
    """
    n = k2m.shape[0] - 1
    a = k2m * -h
    np.fill_diagonal(a, 1.0 - 0.5 * h * np.diagonal(k2m))
    dl = np.diagonal(data, axis1=1, axis2=2)  # l and d share their diagonal
    l = data + 0.5 * h * k2m * dl[:, None, :]
    d = np.arange(n + 1)
    l[:, d, d] = 0.0
    blocks = [(m0, min(m0 + _VOLTERRA_BLOCK, n + 1)) for m0 in range(1, n + 1, _VOLTERRA_BLOCK)]
    stack = np.tile(np.eye(_VOLTERRA_BLOCK), (len(blocks), 1, 1))
    for b, (m0, m1) in enumerate(blocks):
        stack[b, : m1 - m0, : m1 - m0] = a[m0:m1, m0:m1]
    for (m0, m1), inv in zip(blocks, np.tril(np.linalg.inv(stack))):
        cols = l[:, :, :m1]  # columns at or right of m1 are zero in these rows
        cols[:, m0:m1] = inv[: m1 - m0, : m1 - m0] @ (cols[:, m0:m1] - a[m0:m1, :m0] @ cols[:, :m0])
    l[:, d, d] = dl
    return l


def target_couplings(omega: np.ndarray, ks: KernelSet) -> tuple[np.ndarray, np.ndarray]:
    """The target system's couplings (c, kappa) = omega(x) (l1, l2), dense, from omega on the grid's x nodes.

    Per row (fixed x) kappa and c satisfy

        kappa(x, xi) = omega(x) k2(x, xi) + int_xi^x kappa(x, s) k2(s, xi) ds,
        c(x, xi) = omega(x) k1(x, xi) + int_xi^x kappa(x, s) k1(s, xi) ds.

    l2 is the resolvent kernel of k2: it solves this right resolvent
    equation as well as the left one of ``KernelSet._inverse``, so
    kappa = omega(x) l2, and then c = omega(x) (k1 + int l2 k1) = omega(x) l1.
    Under the trapezoid rule the left and right equations agree only to
    O(h^2), so kappa and c differ from the solutions of their own
    discretized equations by O(h^2): at most 1.10 h^2 sup|kappa|, sup|c| on
    the plants the tests check.
    """
    return omega[:, None] * ks.l1.matrix, omega[:, None] * ks.l2.matrix


def solve_kappa_c(coeffs: CoefficientSet, ks: KernelSet) -> KernelSet:
    """``ks``, its l1 and l2 solved: kappa and c are :func:`target_couplings`, formed where read."""
    ks.l1  # the first read solves l1 and l2
    return ks


def solve_inverse_kernels(ks: KernelSet) -> KernelSet:
    """``ks``, its l1 and l2 solved (see ``KernelSet._inverse``)."""
    ks.l1  # the first read solves l1 and l2
    return ks


def gain_slice(ks: KernelSet) -> GainVector:
    """Feedback gains: the top row x = 1 of both kernels over xi in [0, 1], the last n + 1 flat values."""
    n = ks.grid.n
    return GainVector(
        grid=IntervalGrid(n),
        g1=ks.k1.values[-(n + 1) :].copy(),
        g2=ks.k2.values[-(n + 1) :].copy(),
    )
