"""Independent fixed-point oracle for the coupled gain-kernel system.

Integrates both equations along their exact characteristics instead of
marching level by level.  The characteristic through any node is recovered
analytically from the monotone primitives

    L(xi) = int_0^xi dz / lam(z),    M(x) = int_0^x ds / mu(s):

the descending family (k1) keeps L(xi) + M(x) constant and always enters
through the diagonal; the ascending family (k2) keeps M(xi) - M(x) constant
and always enters through the bottom edge.  Each node's path is sampled at a
fine uniform resolution, trapezoid-integrated, and the field values along the
path are interpolated from the current iterate until the sup change drops
below tolerance.  The path integrals are linear in the iterate, so they are
summed once into a sparse operator per family and field, and a sweep is four
sparse matrix-vector products.  None of this shares code with the production
marching scheme.
"""

import numpy as np

FINE = 2000
MAX_ITER = 600


def _fine_tables(coeffs):
    xf = np.linspace(0.0, 1.0, FINE + 1)
    xc = coeffs.grid.points
    lam_f = np.interp(xf, xc, coeffs.lam)
    mu_f = np.interp(xf, xc, coeffs.mu)
    big_l = np.concatenate([[0.0], np.cumsum(0.5 * (1 / lam_f[1:] + 1 / lam_f[:-1]) * np.diff(xf))])
    big_m = np.concatenate([[0.0], np.cumsum(0.5 * (1 / mu_f[1:] + 1 / mu_f[:-1]) * np.diff(xf))])
    return xf, big_l, big_m


def _tri_weights(n, xs, xis):
    """Vectorized interpolation stencil on the canonical triangular grid."""
    xis = np.minimum(xis, xs)
    i0 = np.minimum((xs * n).astype(int), n - 1)
    j0 = np.minimum((xis * n).astype(int), i0)
    a = xs * n - i0
    b = xis * n - j0
    flat = lambda i, j: i * (i + 1) // 2 + j
    interior = j0 < i0
    idx = np.empty((xs.size, 4), dtype=np.int64)
    wgt = np.empty((xs.size, 4))
    # interior cells: bilinear on the four corners
    ii, jj, aa, bb = i0[interior], j0[interior], a[interior], b[interior]
    idx[interior, 0] = flat(ii, jj)
    idx[interior, 1] = flat(ii + 1, jj)
    idx[interior, 2] = flat(ii, jj + 1)
    idx[interior, 3] = flat(ii + 1, jj + 1)
    wgt[interior, 0] = (1 - aa) * (1 - bb)
    wgt[interior, 1] = aa * (1 - bb)
    wgt[interior, 2] = (1 - aa) * bb
    wgt[interior, 3] = aa * bb
    # diagonal cells: barycentric on the lower triangle half
    diag = ~interior
    ii, aa, bb = i0[diag], a[diag], np.minimum(b[diag], a[diag])
    idx[diag, 0] = flat(ii, ii)
    idx[diag, 1] = flat(ii + 1, ii)
    idx[diag, 2] = flat(ii + 1, ii + 1)
    idx[diag, 3] = 0
    wgt[diag, 0] = 1 - aa
    wgt[diag, 1] = aa - bb
    wgt[diag, 2] = bb
    wgt[diag, 3] = 0.0
    return idx, wgt


def _build_paths(x_nodes, xc, ds):
    """Uniform path samples per node, their trapezoid weights and the node of each."""
    lengths = x_nodes - xc
    m = np.maximum(2, np.ceil(lengths / ds).astype(int) + 1)
    offsets = np.concatenate([[0], np.cumsum(m)])
    total = offsets[-1]
    node_of = np.repeat(np.arange(x_nodes.size), m)
    r = np.arange(total) - offsets[node_of]
    step = lengths[node_of] / (m[node_of] - 1)
    s = xc[node_of] + r * step
    s = np.minimum(s, x_nodes[node_of])
    w = step.copy()
    w[offsets[:-1]] *= 0.5
    w[offsets[1:] - 1] *= 0.5
    return s, w, node_of


def _operators(n, x_nodes, xc, xi_of_s, coefs, ds, block=64):
    """Sum every path sample's stencil into one sparse operator per coefficient.

    Row r of operator c maps a field on the grid nodes to the sum over node
    r's samples s of coefs(...)[c] at s times the field interpolated at s.
    xi_of_s(s, k) is the path's xi at s for node k, and coefs(s, xi_s, w)
    gives the weighted coefficients of those samples.  Paths, stencils and
    coefficients are built ``block`` nodes at a time, so only the folded
    entries outlive a block and the dense (row, column) count stays small.
    Returns (rows, cols, [vals per coefficient]), entries sorted by row.
    """
    n_cols = (n + 1) * (n + 2) // 2
    rows, cols, vals = [], [], []
    for first in range(0, x_nodes.size, block):
        nodes = np.arange(first, min(first + block, x_nodes.size))
        s, w, node_of = _build_paths(x_nodes[nodes], xc[nodes], ds)
        xi_s = xi_of_s(s, nodes[node_of])
        idx, wgt = _tri_weights(n, s, xi_s)
        key = (node_of[:, None] * n_cols + idx).ravel()
        size = block * n_cols
        hit = np.flatnonzero(np.bincount(key, minlength=size))
        rows.append(first + hit // n_cols)
        cols.append(hit % n_cols)
        vals.append([np.bincount(key, weights=(c[:, None] * wgt).ravel(), minlength=size)[hit] for c in coefs(s, xi_s, w)])
    return np.concatenate(rows), np.concatenate(cols), [np.concatenate(v) for v in zip(*vals)]


def _apply(op, fields, n_rows):
    """Sum of each operator of op applied to its field."""
    rows, cols, vals = op
    return np.bincount(rows, weights=sum(v * f[cols] for v, f in zip(vals, fields)), minlength=n_rows)


def picard_kernels(coeffs, n, ds=1.0 / FINE, tol=1e-10):
    """Fixed-point solution of the characteristic integral equations.

    Returns dense (n+1, n+1) arrays for (k1, k2) at the triangular grid
    nodes, plus the number of iterations used.
    """
    xf, big_l, big_m = _fine_tables(coeffs)
    big_w = big_l + big_m
    xc_pts = coeffs.grid.points

    def lam(z):
        return np.interp(z, xc_pts, coeffs.lam)

    def mu(z):
        return np.interp(z, xc_pts, coeffs.mu)

    def of(table):
        return lambda z: np.interp(z, xf, table)

    l_of, m_of = of(big_l), of(big_m)
    inv_l = lambda v: np.interp(v, big_l, xf)
    inv_m = lambda v: np.interp(v, big_m, xf)
    inv_w = lambda v: np.interp(v, big_w, xf)

    pts = np.arange(n + 1) / n
    node_i = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
    node_j = np.concatenate([np.arange(k + 1) for k in range(n + 1)])
    x_all, xi_all = pts[node_i], pts[node_j]
    n_nodes = x_all.size

    theta = lambda z: np.interp(z, xc_pts, coeffs.theta)
    sigma = lambda z: np.interp(z, xc_pts, coeffs.sigma)
    omega = lambda z: np.interp(z, xc_pts, coeffs.omega)
    dlam = lambda z: np.interp(z, xc_pts, coeffs.dlam)
    dmu = lambda z: np.interp(z, xc_pts, coeffs.dmu)
    g_diag = lambda z: -theta(z) / (lam(z) + mu(z))

    # descending family: every non-diagonal node integrates from the diagonal
    sel1 = node_j < node_i
    x1, xi1 = x_all[sel1], xi_all[sel1]
    const1 = l_of(xi1) + m_of(x1)
    xc1 = np.minimum(inv_w(const1), x1)
    op1 = _operators(
        n, x1, xc1,
        lambda s, k: np.clip(inv_l(const1[k] - m_of(s) + 0.0), 0.0, s),
        lambda s, xis, w: (w * (dlam(xis) + sigma(xis)) / mu(s), w * theta(xis) / mu(s)),
        ds,
    )
    bc1 = g_diag(xc1)

    # ascending family: every node off the bottom edge integrates from it
    sel2 = node_j >= 1
    x2, xi2 = x_all[sel2], xi_all[sel2]
    const2 = m_of(xi2) - m_of(x2)
    xc2 = np.clip(inv_m(-const2), 0.0, x2)
    op2 = _operators(
        n, x2, xc2,
        lambda s, k: np.clip(inv_m(const2[k] + m_of(s)), 0.0, s),
        lambda s, xis, w: (-w * dmu(xis) / mu(s), w * omega(xis) / mu(s)),
        ds,
    )

    bottom_flat = np.array([i * (i + 1) // 2 for i in range(n + 1)])
    diag_flat = np.array([i * (i + 1) // 2 + i for i in range(n + 1)])
    bc_ratio = coeffs.q * coeffs.lam[0] / coeffs.mu[0]

    k1 = np.zeros(n_nodes)
    k2 = np.zeros(n_nodes)
    for it in range(MAX_ITER):
        new1 = k1.copy()
        new1[sel1] = bc1 + _apply(op1, (k1, k2), x1.size)
        new1[diag_flat] = g_diag(pts)

        k1_bottom = k1[bottom_flat]
        new2 = k2.copy()
        new2[sel2] = bc_ratio * np.interp(xc2, pts, k1_bottom) + _apply(op2, (k2, k1), x2.size)
        new2[bottom_flat] = bc_ratio * k1_bottom

        change = max(np.abs(new1 - k1).max(), np.abs(new2 - k2).max())
        k1, k2 = new1, new2
        if change <= tol:
            break
    else:
        raise RuntimeError(f"picard iteration did not reach {tol} in {MAX_ITER} sweeps")

    def to_dense(flat):
        dense = np.zeros((n + 1, n + 1))
        pos = 0
        for i in range(n + 1):
            dense[i, : i + 1] = flat[pos : pos + i + 1]
            pos += i + 1
        return dense

    return to_dense(k1), to_dense(k2), it + 1
