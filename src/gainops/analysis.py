"""Numerical stability certificates: residual operators, norms, Lyapunov data.

Turns the design's guarantees into measurable quantities: boundary and
interior residuals of a kernel pair, the summed accuracy estimate for an
approximate kernel pair, squared-norm functionals of plant states, the
weighted Lyapunov functional, decay-rate fitting, and the empirical
norm-equivalence constants between original and transformed states.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import CoefficientSet, resample, sup_bounds
from .controller import forward_transform
from .kernel_solver import KernelField, KernelSet, solve_kappa_c
from .numerics import trapezoid_integral
from .plant_sim import PlantState, SimTrace


@dataclass(eq=False)
class ResidualReport:
    """Boundary residual arrays (over x) and interior residual fields (over T).

    bc_diag is the diagonal identity residual, bc_bottom the bottom-edge one;
    pde1 and pde2 are the interior equation residuals of the pair, evaluated
    with centered differences along grid lines (one-sided at edges).  The two
    corner nodes sit on single-node rows or columns, have no stencil in one
    direction, and carry zero in both fields.  epsilon_estimate is the
    node-wise maximum of the summed residual terms.
    """

    bc_diag: np.ndarray
    bc_bottom: np.ndarray
    pde1: np.ndarray
    pde2: np.ndarray
    sup_bc_diag: float
    sup_bc_bottom: float
    sup_pde1: float
    sup_pde2: float
    epsilon_estimate: float

    CSV_HEADER = "sup_bc_diag,sup_bc_bottom,sup_pde1,sup_pde2,epsilon_estimate"

    def to_json(self) -> str:
        d = {
            "sup_bc_diag": self.sup_bc_diag,
            "sup_bc_bottom": self.sup_bc_bottom,
            "sup_pde1": self.sup_pde1,
            "sup_pde2": self.sup_pde2,
            "epsilon_estimate": self.epsilon_estimate,
        }
        return json.dumps(d, indent=2)

    def to_csv_row(self) -> str:
        vals = (self.sup_bc_diag, self.sup_bc_bottom, self.sup_pde1, self.sup_pde2, self.epsilon_estimate)
        return ",".join(f"{v:.17g}" for v in vals)


@dataclass
class StabilityReport:
    """Fitted exponential decay of phi plus optional certificate extras."""

    c1_hat: float
    fit_quality: float
    c2_hat: float
    lyapunov_monotone: bool | None = None
    s1_emp: float | None = None
    s2_emp: float | None = None

    CSV_HEADER = "c1_hat,fit_quality,c2_hat"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_csv_row(self) -> str:
        return ",".join(f"{v:.17g}" for v in (self.c1_hat, self.fit_quality, self.c2_hat))


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


def _interior_residuals(cf, k1m, k2m, n, h):
    """The two interior equation residuals applied to a field pair."""
    dx1, dxi1 = _directional_derivatives(k1m, n, h)
    dx2, dxi2 = _directional_derivatives(k2m, n, h)
    lam, dlam, mu, dmu = cf["lam"], cf["dlam"], cf["mu"], cf["dmu"]
    sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
    mu_x = mu[:, None]
    lam_xi = lam[None, :]
    mu_xi = mu[None, :]
    r1 = -mu_x * dx1 + lam_xi * dxi1 + (dlam + sig)[None, :] * k1m + tht[None, :] * k2m
    r2 = -mu_x * dx2 - mu_xi * dxi2 - dmu[None, :] * k2m + omg[None, :] * k1m
    mask = _stencil_mask(n)
    r1[~mask] = 0.0
    r2[~mask] = 0.0
    return r1, r2


def _stencil_mask(n: int) -> np.ndarray:
    """Nodes where both directional stencils exist.

    The corner (0, 0) sits on a single-node row (no xi stencil) and (n, n) on
    a single-node column (no x stencil); both are excluded.
    """
    mask = np.tril(np.ones((n + 1, n + 1), dtype=bool))
    mask[0, 0] = False
    mask[n, n] = False
    return mask


def residual_operators(coeffs: CoefficientSet, k1: KernelField, k2: KernelField) -> ResidualReport:
    """Evaluate the boundary and interior residual operators on a field pair.

    For solver output the boundary residuals vanish to rounding (they are
    imposed) and the interior residuals shrink at first order in h.  Applied
    to a difference field (exact minus approximate) the interior residuals
    are exactly the interior perturbation terms of the accuracy estimate.
    """
    if k1.grid.n != k2.grid.n:
        raise ValueError("fields must share one grid")
    n, h = k1.grid.n, k1.grid.h
    if n < 3:
        raise ValueError("residual stencils need n >= 3")
    cf = resample(coeffs, n)
    k1m, k2m = k1.as_matrix(), k2.as_matrix()
    diag1 = np.diagonal(k1m).copy()
    bc_diag = (cf["lam"] + cf["mu"]) * diag1 + cf["theta"]
    bc_bottom = -cf["lam"][0] * coeffs.q * k1m[:, 0] + cf["mu"][0] * k2m[:, 0]
    r1, r2 = _interior_residuals(cf, k1m, k2m, n, h)
    summed = np.abs(bc_diag)[:, None] + np.abs(bc_bottom)[:, None] + np.abs(r1) + np.abs(r2)
    mask = np.tril(np.ones((n + 1, n + 1), dtype=bool))
    return ResidualReport(
        bc_diag=bc_diag,
        bc_bottom=bc_bottom,
        pde1=r1,
        pde2=r2,
        sup_bc_diag=float(np.abs(bc_diag).max()),
        sup_bc_bottom=float(np.abs(bc_bottom).max()),
        sup_pde1=float(np.abs(r1).max()),
        sup_pde2=float(np.abs(r2).max()),
        epsilon_estimate=float(summed[mask].max()),
    )


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def epsilon_estimate(
    coeffs: CoefficientSet, exact: KernelSet, approx: KernelSet
) -> EpsilonReport:
    """Discrete maximum of the summed kernel-approximation error terms.

    Sums |k1err| + |k2err| + |cerr| + |kappaerr| plus the two boundary
    perturbations (linear in the error) and the two interior perturbations
    (the interior residual operators applied to the difference fields), node
    by node, and takes the maximum.  kappa and c are solved for both kernel
    sets if not already present.
    """
    n, h = exact.grid.n, exact.grid.h
    if approx.grid.n != n:
        raise ValueError("kernel sets must share one grid")
    if exact.kappa is None or exact.c is None:
        exact = solve_kappa_c(coeffs, exact)
    if approx.kappa is None or approx.c is None:
        approx = solve_kappa_c(coeffs, approx)
    cf = resample(coeffs, n)

    e1 = exact.k1.as_matrix() - approx.k1.as_matrix()
    e2 = exact.k2.as_matrix() - approx.k2.as_matrix()
    ec = exact.c.as_matrix() - approx.c.as_matrix()
    ekap = exact.kappa.as_matrix() - approx.kappa.as_matrix()

    d1 = (cf["lam"] + cf["mu"]) * np.diagonal(e1)
    d2 = cf["lam"][0] * coeffs.q * e1[:, 0] - cf["mu"][0] * e2[:, 0]
    d3, d4 = _interior_residuals(cf, e1, e2, n, h)

    mask = np.tril(np.ones((n + 1, n + 1), dtype=bool))
    summed = (
        np.abs(e1)
        + np.abs(e2)
        + np.abs(ec)
        + np.abs(ekap)
        + np.abs(d1)[:, None]
        + np.abs(d2)[:, None]
        + np.abs(d3)
        + np.abs(d4)
    )
    return EpsilonReport(
        epsilon=float(summed[mask].max()),
        sup_k1_err=float(np.abs(e1[mask]).max()),
        sup_k2_err=float(np.abs(e2[mask]).max()),
        sup_c_err=float(np.abs(ec[mask]).max()),
        sup_kappa_err=float(np.abs(ekap[mask]).max()),
        sup_d1=float(np.abs(d1).max()),
        sup_d2=float(np.abs(d2).max()),
        sup_d3=float(np.abs(d3).max()),
        sup_d4=float(np.abs(d4).max()),
    )


def phi(state: PlantState) -> float:
    """Squared L2 size of the plant state: ||u||^2 + ||v||^2."""
    h = state.grid.h
    return trapezoid_integral(state.u**2, h) + trapezoid_integral(state.v**2, h)


def psi1(state: PlantState, kernels: KernelSet) -> float:
    """Squared size of the transformed pair: ||u||^2 + ||beta||^2."""
    beta = forward_transform(state, kernels)
    h = state.grid.h
    return trapezoid_integral(state.u**2, h) + trapezoid_integral(beta**2, h)


def lyapunov_v1(u: np.ndarray, beta: np.ndarray, coeffs: CoefficientSet, p1: float, p2: float) -> float:
    """Weighted functional int p1 e^(-p2 x) u^2 / lam + int e^(p2 x) beta^2 / mu."""
    if p1 <= 0:
        raise ValueError("p1 must be positive")
    n = u.size - 1
    cf = resample(coeffs, n)
    x = np.arange(n + 1) / n
    h = 1.0 / n
    wu = p1 * np.exp(-p2 * x) / cf["lam"]
    wb = np.exp(p2 * x) / cf["mu"]
    return trapezoid_integral(wu * u * u, h) + trapezoid_integral(wb * beta * beta, h)


def default_p1(coeffs: CoefficientSet) -> float:
    """p1 = min(1, 1/q^2)/2, inside the admissible range with margin."""
    q = coeffs.q
    return 0.5 * min(1.0, 1.0 / (q * q)) if q != 0 else 0.5


def p2_lower_bound(coeffs: CoefficientSet, kernels: KernelSet, p1: float) -> float:
    """Smallest admissible exponential weight for the Lyapunov functional.

    Uses the empirical sup norms of the computed kappa and c fields rather
    than their conservative a-priori bounds.
    """
    if kernels.kappa is None or kernels.c is None:
        raise ValueError("p2_lower_bound needs kappa and c; run solve_kappa_c")
    b = sup_bounds(coeffs)
    kap_sup = kernels.kappa.sup()
    c_sup = kernels.c.sup()
    return max(
        p1 * (b.omega_max + kap_sup) / b.lam_min,
        (2 * b.sigma_max + b.omega_max + 2 * c_sup + kap_sup) / b.lam_min,
    )


def conservative_sup_bounds(coeffs: CoefficientSet, kernels: KernelSet) -> dict:
    """A-priori sup bounds on kappa, c, l1, l2 from the kernel sup norms.

    Printed for reference next to the empirical values; the certificates all
    use the empirical ones.
    """
    b = sup_bounds(coeffs)
    s1, s2 = kernels.k1.sup(), kernels.k2.sup()
    return {
        "kappa": b.omega_max * s2 * np.exp(s2),
        "c": b.omega_max * s1 * np.exp(s1),
        "l1": s1 * np.exp(s2),
        "l2": s2 * np.exp(s2),
    }


def norm_equivalence_constants(kernels: KernelSet) -> tuple[float, float]:
    """Empirical (S1, S2): psi1 <= S1 phi and phi <= S2 psi1.

    S1 = 4 + 3 sup(k1)^2 + 3 sup(k2)^2 and S2 = 4 + 3 sup(l1)^2 + 3 sup(l2)^2,
    with sup norms read off the computed fields.
    """
    if kernels.l1 is None or kernels.l2 is None:
        raise ValueError("norm equivalence needs l1, l2; run solve_inverse_kernels")
    s1 = 4.0 + 3.0 * kernels.k1.sup() ** 2 + 3.0 * kernels.k2.sup() ** 2
    s2 = 4.0 + 3.0 * kernels.l1.sup() ** 2 + 3.0 * kernels.l2.sup() ** 2
    return s1, s2


def fit_decay(trace: SimTrace, t_start: float = 0.0) -> StabilityReport:
    """Least-squares exponential decay rate of phi for t >= t_start.

    Fits a line through (t, ln phi) over the positive-phi samples; c1_hat is
    minus the slope and c2_hat the largest ratio phi(t) e^(c1_hat t) / phi(0)
    over the whole trace.
    """
    t = trace.times
    p = trace.phi
    sel = (t >= t_start) & (p > 0)
    if sel.sum() < 10:
        raise ValueError("need at least 10 positive samples after t_start")
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
