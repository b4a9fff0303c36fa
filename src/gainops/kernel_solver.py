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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

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
    """A plant of a batch that cannot be solved; ``index`` is its place in the batch."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"plant {index}: {reason}")
        self.index = index


# Rows of the stacked coefficient table.  The k1 foot reads rows 2:5, the
# diagonal crossing rows 0:5 and the k2 foot rows 5:7.
_TABLE = ("lam", "mu", "dlam", "sigma", "theta", "dmu", "omega")
# Node-plant pairs of march geometry computed at a time; bounds memory only.  A
# pair is a k1 node and the k2 node to its right: 8 gather indices and 8 folded
# weights (128 bytes) outlive _geometry, plus compact crossing data.
GEOMETRY_NODES = 2048


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


def _geometry(table: np.ndarray, x: np.ndarray, h: float, a: int, b: int, ratio: np.ndarray, values: np.ndarray):
    """Everything levels a..b-1 of the march compute without the previous level.

    ``table`` is the node-major (7, n+1, B) coefficient table; ``values`` is
    the march's output buffer (see :func:`solve_kernels_batch`), whose flat
    cells all indices here address.  Pair o + j holds the k1 node j and the
    k2 node j + 1 of level i, o being the sum of the levels before it in the
    run, and every returned array is (..., pairs, B).

    Each node's update V + T*(P*V + Q*Z), V and Z being lerps
    e_l*w_l + e_r*w_r of two cells, is folded into the weights: a V cell
    weighs w*(1 + T*P) and a Z cell w*(T*Q), so the node is the sum of its
    four weighted cells.  A regular node lerps the previous level at its
    foot: V is its own kernel there, Z the other one, T = h/mu(x_i) and P,
    Q its sources at the foot.  A k1 node whose characteristic crossed the
    diagonal reads V = bc exactly, w = (1, 0) on its own cell, into which bc
    is prefilled here; Z is k2 at (i-1, i-1), read exactly too,
    P = lam' + sigma and Q = theta at the crossing, and T the remaining arc.
    Only crossing nodes compute the crossing lerps.

    Returns ``at``, the cells (left/right, V/Z, k1/k2, pairs, B), the folded
    ``weight`` of the same shape, and a map from each level where k2
    characteristics leave through the bottom edge to its fix-up: the k1
    cells at (i-1, 0) and (i, 0), the k2 cells to overwrite, and (keep,
    frac, arc, q lam(0)/mu(0), -mu'(0), omega(0)) for each of them.
    """
    _, m, plants = table.shape
    n = m - 1
    flat = table.reshape(len(_TABLE), -1)
    lam, mu = table[:2]
    k2_of = values[1].size - plants  # from the cell of k1 at a node to that of k2
    levels = np.arange(a, b)
    level = np.repeat(levels, levels)
    j = np.arange(level.size) - np.repeat(np.cumsum(levels) - levels, levels)
    col = np.arange(plants)
    mu_i = mu[level]
    x_i, x_prev = x[level], x[level - 1][:, None]
    prev0 = (level * (level - 1) // 2 + 1)[:, None] * plants + col  # cell of k1 at (i-1, 0)
    here0 = prev0 + level[:, None] * plants  # cell of k1 at (i, 0)

    # --- feet of the k1 node j and the k2 node j + 1, (k1/k2, pairs, B) ---
    foot = np.empty((2, level.size, plants))
    np.divide(h * lam[j], mu_i, out=foot[0])
    foot[0] += x[j][:, None]
    np.divide(h * mu[j + 1], mu_i, out=foot[1])
    np.subtract(x[j + 1][:, None], foot[1], out=foot[1])
    crossed, bottom = foot[0] > x_prev, foot[1] < 0.0
    t = np.minimum(np.maximum(foot, 0.0, out=foot), x_prev, out=foot)
    t /= h
    it = t.astype(int)
    ik = np.minimum(it, (level - 2)[:, None])
    weight = np.empty((2, 2, 2, level.size, plants))
    weight[1] = t - ik
    np.subtract(1.0, weight[1], out=weight[0])
    ik *= plants
    ik += prev0
    cells = np.array([[0, k2_of], [k2_of, 0]])  # (V/Z, k1/k2) offsets from k1 at the left end
    at = np.add(ik, np.stack([cells, cells + plants])[..., None, None])
    ic = np.minimum(it, n - 1, out=it)
    frac = np.subtract(t, ic, out=t)
    ic *= plants
    ic += col
    dlam_f, sig_f, tht_f = _lerp(flat[2:5], ic[0], frac[0], plants)
    dmu_f, omg_f = _lerp(flat[5:7], ic[1], frac[1], plants)
    src = np.empty((3, 2, level.size, plants))
    np.add(dlam_f, sig_f, out=src[0, 0])
    np.negative(dmu_f, out=src[0, 1])
    src[1] = tht_f, omg_f
    src[2] = h / mu_i

    # --- k1 nodes whose characteristic crossed the diagonal ---
    if a == 1:  # a level-1 characteristic starts on node (0, 0), also where its foot underflows to 0
        crossed[0] = True
    kk, pp = np.nonzero(crossed)
    jc, xc_i, mu_c = j[kk], x_i[kk], mu_i[kk, pp]
    slope = lam[jc, pp] / mu_c
    xc = (x[jc] + slope * xc_i) / (1.0 + slope)
    t = xc / h
    ic = np.minimum(t.astype(int), n - 1)
    lam_c, mu_cc, dlam_c, sig_c, tht_c = _lerp(flat[:5], ic * plants + pp, t - ic, plants)
    bc = -tht_c / (lam_c + mu_cc)
    arc = (xc_i - xc) / mu_c
    own = here0[kk, pp] + jc * plants
    values.reshape(-1)[own] = bc
    at[:, 0, 0, kk, pp] = own
    at[:, 1, 0, kk, pp] = here0[kk, pp] - plants + k2_of
    weight[:, :, 0, kk, pp] = ((1.0,),), ((0.0,),)
    src[:, 0, kk, pp] = dlam_c + sig_c, tht_c, arc
    if a == 1:  # the k2 node of level 1 reads node (0, 0) exactly
        at[:, :, 1, 0] = col + plants + k2_of, col + plants
        weight[:, :, 1, 0] = ((1.0,),), ((0.0,),)

    # --- the update folded in: V cells weigh w*(1 + T*P), Z cells w*(T*Q) ---
    src[:2] *= src[2]
    src[0] += 1.0
    weight *= src[:2]

    # --- k2 nodes whose characteristic crossed the bottom edge ---
    kk, pp = np.nonzero(bottom)
    if not kk.size:
        return at, weight, {}
    jc, xc_i, mu_c = j[kk] + 1, x_i[kk], mu_i[kk, pp]
    xc = xc_i - x[jc] * mu_c / mu[jc, pp]
    frac = np.minimum(np.maximum((xc - x_prev[kk, 0]) / h, 0.0), 1.0)
    cells = np.stack([prev0[kk, pp], here0[kk, pp]])
    dst = here0[kk, pp] + jc * plants + k2_of
    data = np.stack([1.0 - frac, frac, (xc_i - xc) / mu_c, ratio[pp], -table[5, 0, pp], table[6, 0, pp]])
    starts = np.flatnonzero(np.diff(level[kk], prepend=0))
    fixes = {
        int(level[kk[s]]): (cells[:, s:e], dst[s:e], data[:, s:e])
        for s, e in zip(starts, [*starts[1:], kk.size])
    }
    return at, weight, fixes


def _march(values: np.ndarray, ratio: np.ndarray, a: int, b: int, at, weight, fixes) -> None:
    """Levels a..b-1 of the march, in place in ``values``, from their :func:`_geometry`.

    A level is one gather of its cells, one product with their folded
    weights and one sum of the four terms of each node, in the fixed order
    (l, V), (l, Z), (r, V), (r, Z).  The sum starts from -0.0, not from
    add's identity +0.0, so that a first term of -0.0 stays -0.0.
    """
    cells = values.reshape(-1)
    o = 0
    for i in range(a, b):
        s = slice(o, o + i)
        o += i
        r = i * (i + 1) // 2 + 1  # slot of k1 at (i, 0) and of k2 at (i, 1)
        terms = cells.take(at[:, :, :, s])
        terms *= weight[:, :, :, s]
        np.add.reduce(terms.reshape(4, *terms.shape[2:]), out=values[:, r : r + i], initial=-0.0)
        np.multiply(ratio, values[0, r], out=values[1, r - 1])
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

    All plants march together, one level at a time, in place in one buffer:
    ``values[0, q + 1]`` is k1 and ``values[1, q]`` is k2 at flat node q,
    node-major as (node, plant), so that the k1 nodes j = 0..i-1 and the k2
    nodes j = 1..i of level i share the slots of one slice.  The k1
    diagonal is prefilled.  :func:`_geometry` computes what depends only on
    the coefficients for a run of levels at once (at most GEOMETRY_NODES
    node-plant pairs, or one level that alone has more), with the update
    V + T*(P*V + Q*Z) folded into the weights of the lerp cells of V and
    Z.  So :func:`_march` updates every node of a level with one gather of
    those cells from the previous level, one product with their weights
    and one sum written to both rows; then k2 at node 0.  The k2 nodes
    whose characteristics cross the bottom edge need this level's k1 at
    node 0, so they are recomputed after it, only at levels that have
    them.  Every operation is elementwise, and the sum of a node's four
    terms runs in one fixed order, so each plant's kernels are
    bit-identical however the batch is composed.  A plant with lam + mu
    <= 0 somewhere or non-finite kernels raises :class:`PlantError` naming
    its index; an overflow inside the march is left to that check.
    """
    n, h = grid.n, grid.h
    plants = len(coeffs)
    fields = [resample(c, n) for c in coeffs]
    table = np.stack([np.stack([f[name] for f in fields], axis=1) for name in _TABLE])
    lam, mu, tht = table[0], table[1], table[4]
    bad = np.flatnonzero(np.any(lam + mu <= 0, axis=0))
    if bad.size:
        raise PlantError(int(bad[0]), "lam + mu must be positive on the whole grid")

    values = np.empty((2, grid.node_count + 1, plants))
    values[0, 0] = values[1, -1] = 0.0  # the slots no node uses
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.array([c.q for c in coeffs]) * lam[0] / mu[0]
        diag = np.arange(n + 1)
        values[0, diag * (diag + 3) // 2 + 1] = -tht / (lam + mu)
        values[1, 0] = ratio * values[0, 1]
        for a, b in _level_groups(n, plants):
            _march(values, ratio, a, b, *_geometry(table, grid.points, h, a, b, ratio, values))

    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=(0, 1)))
    if bad.size:
        raise PlantError(int(bad[0]), "kernel marching produced non-finite values")
    values = np.stack([values[0, 1:].T, values[1, :-1].T])
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
