"""Numerical stability certificates: residual operators, norms, Lyapunov data.

Turns the design's guarantees into measurable quantities: boundary and
interior residuals of a kernel pair, the summed accuracy estimate for an
approximate kernel pair, squared-norm functionals of plant states, the
weighted Lyapunov functional, decay-rate fitting, and the empirical
norm-equivalence constants between original and transformed states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, resample
from .kernel_solver import KernelField, KernelSet, target_couplings
from .numerics import lower_mask, trapezoid_integral
from .plant_sim import PlantState, SimTrace


@dataclass
class ResidualReport:
    """Sups of the boundary residuals (over x) and of the interior ones (over T).

    sup_bc_diag is that of the diagonal identity residual, sup_bc_bottom of
    the bottom-edge one; sup_pde1 and sup_pde2 are those of the interior
    equation residuals of the pair, evaluated with centered differences
    along grid lines (one-sided at edges; see :func:`_residual_terms`).
    epsilon_estimate is the node-wise maximum of the summed residual terms.
    """

    sup_bc_diag: float
    sup_bc_bottom: float
    sup_pde1: float
    sup_pde2: float
    epsilon_estimate: float


@dataclass
class StabilityReport:
    """Fitted exponential decay of phi."""

    c1_hat: float
    fit_quality: float
    c2_hat: float


def _directional_derivatives(dense: np.ndarray, n: int, h: float):
    """d/dx along constant-xi columns and d/dxi along constant-x rows.

    Centered in the interior, one-sided at segment ends.  Entries above the
    diagonal and the corner's xi derivative are zero.
    """
    dx = np.zeros_like(dense)
    dxi = np.zeros_like(dense)
    # centred at the interior nodes of every column (j < i < n) and row (0 < j < i)
    dx[1:-1] = np.tril((dense[2:] - dense[:-2]) / (2 * h))
    dxi[:, 1:-1] = np.tril((dense[:, 2:] - dense[:, :-2]) / (2 * h), -2)
    # one-sided at the ends: a column starts on the diagonal and ends on row
    # n, a row starts on column 0 and ends on the diagonal
    d = np.arange(n)
    dx[d, d] = (dense[d + 1, d] - dense[d, d]) / h
    dx[n, :n] = (dense[n, :n] - dense[n - 1, :n]) / h
    dxi[1:, 0] = (dense[1:, 1] - dense[1:, 0]) / h
    dxi[d + 1, d + 1] = (dense[d + 1, d + 1] - dense[d + 1, d]) / h
    return dx, dxi


def _residual_terms(cf, q, k1m, k2m, n, h):
    """The residual operators of a field pair, theta left out of the first.

    Returns (lam + mu) k1(x, x), the bottom-edge residual
    mu(0) k2(x, 0) - q lam(0) k1(x, 0), and the two interior residuals.  The
    interior ones are zero above the diagonal and at the corners: (0, 0)
    sits on a single-node row (no xi stencil) and (n, n) on a single-node
    column (no x stencil).
    """
    lam, dlam, mu, dmu = cf["lam"], cf["dlam"], cf["mu"], cf["dmu"]
    sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
    diag = (lam + mu) * np.diagonal(k1m)
    bottom = mu[0] * k2m[:, 0] - lam[0] * q * k1m[:, 0]
    dx1, dxi1 = _directional_derivatives(k1m, n, h)
    dx2, dxi2 = _directional_derivatives(k2m, n, h)
    r1 = -mu[:, None] * dx1 + lam[None, :] * dxi1 + (dlam + sig)[None, :] * k1m + tht[None, :] * k2m
    r2 = -mu[:, None] * dx2 - mu[None, :] * dxi2 - dmu[None, :] * k2m + omg[None, :] * k1m
    r1, r2 = np.tril(r1), np.tril(r2)
    r1[[0, n], [0, n]] = r2[[0, n], [0, n]] = 0.0
    return diag, bottom, r1, r2


def _stencil_grid(a, b, what: str) -> tuple[int, float]:
    """(n, h) of the grid that ``a`` and ``b`` share; ValueError on two grids or n < 3."""
    if a.grid.n != b.grid.n:
        raise ValueError(f"{what} must share one grid")
    if a.grid.n < 3:
        raise ValueError("residual stencils need n >= 3")
    return a.grid.n, a.grid.h


def _sup_terms(terms, n: int) -> tuple[list[float], float]:
    """Each term's sup of |.| and the max over the triangle of their node-wise sum.

    A 1-d term is a function of x and counts at every node of its row.  The
    sum runs in the order of ``terms``.  The sups are over whole arrays:
    every 2-d term is zero above the diagonal.
    """
    a = [np.abs(t).reshape(n + 1, -1) for t in terms]
    summed = functools.reduce(np.add, a)
    return [float(t.max()) for t in a], float(summed[lower_mask(n + 1)].max())


def residual_operators(coeffs: CoefficientSet, k1: KernelField, k2: KernelField) -> ResidualReport:
    """Evaluate the boundary and interior residual operators on a field pair.

    For solver output the boundary residuals vanish to rounding (they are
    imposed) and the interior residuals shrink at first order in h.  Applied
    to a difference field (exact minus approximate) the interior residuals
    are exactly the interior perturbation terms of the accuracy estimate.
    """
    n, h = _stencil_grid(k1, k2, "fields")
    cf = resample(coeffs, n)
    diag, bottom, r1, r2 = _residual_terms(cf, coeffs.q, k1.matrix, k2.matrix, n, h)
    sups, summed = _sup_terms((diag + cf["theta"], bottom, r1, r2), n)
    return ResidualReport(*sups, epsilon_estimate=summed)


@dataclass
class EpsilonReport:
    """Summed accuracy estimate of an approximate kernel pair vs the exact one."""

    epsilon: float
    sup_k1_err: float
    sup_k2_err: float
    sup_c_err: float
    sup_kappa_err: float
    sup_d1: float
    sup_d2: float
    sup_d3: float
    sup_d4: float


def epsilon_estimate(
    coeffs: CoefficientSet, exact: KernelSet, approx: KernelSet
) -> EpsilonReport:
    """Discrete maximum of the summed kernel-approximation error terms.

    Sums |k1err| + |k2err| + |cerr| + |kappaerr| plus the two boundary
    perturbations (linear in the error) and the two interior perturbations
    (the interior residual operators applied to the difference fields), node
    by node, and takes the maximum.  kappa and c are :func:`target_couplings`
    of each set.  Like :func:`residual_operators`, it refuses sets on two
    grids or with n < 3.
    """
    n, h = _stencil_grid(exact, approx, "kernel sets")
    cf = resample(coeffs, n)
    e1 = exact.k1.matrix - approx.k1.matrix
    e2 = exact.k2.matrix - approx.k2.matrix
    ec, ekap = np.subtract(target_couplings(cf["omega"], exact), target_couplings(cf["omega"], approx))
    sups, summed = _sup_terms((e1, e2, ec, ekap, *_residual_terms(cf, coeffs.q, e1, e2, n, h)), n)
    return EpsilonReport(summed, *sups)


def phi(state: PlantState) -> float:
    """Squared L2 size of the plant state: ||u||^2 + ||v||^2."""
    h = state.grid.h
    return trapezoid_integral(state.u**2, h) + trapezoid_integral(state.v**2, h)


@functools.lru_cache(maxsize=16)
def _lyapunov_weights(n: int, p1: float, p2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x_i = i/n, p1 e^(-p2 x) and e^(p2 x), built once per (n, p1, p2) and read-only."""
    x = np.arange(n + 1) / n
    eu = p1 * np.exp(-p2 * x)
    eb = np.exp(p2 * x)
    x.flags.writeable = eu.flags.writeable = eb.flags.writeable = False
    return x, eu, eb


def lyapunov_v1(u: np.ndarray, beta: np.ndarray, coeffs: CoefficientSet, p1: float, p2: float) -> float:
    """Weighted functional int p1 e^(-p2 x) u^2 / lam + int e^(p2 x) beta^2 / mu.

    lam and mu are what :func:`resample` gives on the n = u.size - 1 grid:
    the coefficient arrays themselves on their own grid, else interpolated.
    The nodes and the exponential factors depend on (n, p1, p2) only and are
    built once per triple; lam and mu are read, and the divisions and both
    integrals done, on every call, so an edit of the plant's arrays shows.
    """
    if p1 <= 0:
        raise ValueError("p1 must be positive")
    n = u.size - 1
    x, eu, eb = _lyapunov_weights(n, p1, p2)
    h = 1.0 / n
    if n == coeffs.grid.n:
        lam, mu = coeffs.lam, coeffs.mu
    else:  # resample's np.interp call, for the two arrays read here only
        lam = np.interp(x, coeffs.grid.points, coeffs.lam)
        mu = np.interp(x, coeffs.grid.points, coeffs.mu)
    wu = eu / lam
    wb = eb / mu
    return trapezoid_integral(wu * u * u, h) + trapezoid_integral(wb * beta * beta, h)


def default_p1(coeffs: CoefficientSet) -> float:
    """p1 = min(1, 1/q^2)/2, inside the admissible range with margin."""
    q = coeffs.q
    return 0.5 * min(1.0, 1.0 / (q * q)) if q != 0 else 0.5


def p2_lower_bound(coeffs: CoefficientSet, kernels: KernelSet, p1: float) -> float:
    """Smallest admissible exponential weight for the Lyapunov functional.

    The larger of p1 (omega + kappa) / lam and (2 sigma + omega + 2 c + kappa)
    / lam, where omega and sigma are their largest nodal values, lam its
    smallest, and kappa and c the sup norms of the :func:`target_couplings`.
    """
    omega_max, sigma_max = float(coeffs.omega.max()), float(coeffs.sigma.max())
    lam_min = float(coeffs.lam.min())
    omega = resample(coeffs, kernels.grid.n)["omega"]
    c_sup, kap_sup = (float(np.abs(f).max()) for f in target_couplings(omega, kernels))
    return max(
        p1 * (omega_max + kap_sup) / lam_min,
        (2 * sigma_max + omega_max + 2 * c_sup + kap_sup) / lam_min,
    )


def norm_equivalence_constants(kernels: KernelSet) -> tuple[float, float]:
    """Empirical (S1, S2): psi1 <= S1 phi and phi <= S2 psi1.

    S1 = 4 + 3 sup(k1)^2 + 3 sup(k2)^2 and S2 = 4 + 3 sup(l1)^2 + 3 sup(l2)^2,
    with sup norms read off the computed fields.
    """
    s1 = 4.0 + 3.0 * kernels.k1.sup() ** 2 + 3.0 * kernels.k2.sup() ** 2
    s2 = 4.0 + 3.0 * kernels.l1.sup() ** 2 + 3.0 * kernels.l2.sup() ** 2
    return s1, s2


# fewest positive phi samples that fit_decay fits a rate to
MIN_FIT_SAMPLES = 10


def fit_decay(trace: SimTrace, t_start: float = 0.0) -> StabilityReport:
    """Least-squares exponential decay rate of phi for t >= t_start.

    Fits a line through (t, ln phi) over the positive-phi samples; c1_hat is
    minus the slope and c2_hat the largest ratio phi(t) e^(c1_hat t) / phi(0)
    over the whole trace.
    """
    t = trace.times
    p = trace.phi
    sel = (t >= t_start) & (p > 0)
    if sel.sum() < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} positive samples after t_start")
    ts, ys = t[sel], np.log(p[sel])
    A = np.column_stack([ts, np.ones_like(ts)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    c1 = -float(coef[0])
    pos = p > 0
    if p[0] > 0:
        # overshoot in log space; super-exponential decay can overflow exp
        log_ratio = np.max(np.log(p[pos]) - np.log(p[0]) + c1 * t[pos])
        c2 = float(np.exp(log_ratio)) if log_ratio < 700 else float("inf")
    else:
        c2 = float("nan")
    return StabilityReport(c1_hat=c1, fit_quality=r2, c2_hat=c2)
