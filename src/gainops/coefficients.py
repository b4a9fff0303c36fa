"""Plant coefficient data: sampled functions with derivatives and random families.

The plant carries two positive transport speeds lam, mu (C1), three coupling
coefficients sigma, omega, theta (C0) and a boundary reflection q.  Everything
downstream consumes them as value arrays on a shared uniform grid plus stored
derivative arrays for lam and mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import IntervalGrid

MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """Standard splitmix64 finalizer; used to derive per-sample seeds."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Nodal samples of (lam, mu, sigma, omega, theta) plus q on one grid.

    lam and mu must be positive everywhere; their derivative arrays are stored
    explicitly because the kernel equations contain lam'(xi) and mu'(xi).
    """

    grid: IntervalGrid
    lam: np.ndarray
    dlam: np.ndarray
    mu: np.ndarray
    dmu: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    theta: np.ndarray
    q: float

    def __post_init__(self):
        m = self.grid.n + 1
        arrays = (self.lam, self.dlam, self.mu, self.dmu, self.sigma, self.omega, self.theta)
        if any(a.shape != (m,) for a in arrays):
            raise ValueError("coefficient arrays must all live on the shared grid")
        # one check over the seven arrays as a table costs half as much as seven
        if not np.isfinite(arrays).all():
            raise ValueError("coefficient arrays must be finite")
        if not np.isfinite(self.q):
            raise ValueError("q must be finite")
        if min(self.lam.min(), self.mu.min()) <= 0:
            raise ValueError("transport speeds lam, mu must be positive at every node")


@dataclass(frozen=True)
class CoefficientFamily:
    """Distribution over coefficient sets.

    kind "gamma": the one-parameter family with Gamma drawn uniformly from
    gamma_range.  kind "random_smooth": cosine/linear perturbations of that
    shape, amplitudes capped so lam, mu stay well above 0.1.
    """

    kind: str
    gamma_range: tuple[float, float] = (0.5, 5.0)
    amplitude: float = 0.5

    def __post_init__(self):
        if self.kind not in ("gamma", "random_smooth"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        lo, hi = self.gamma_range
        if not (0 < lo <= hi < np.inf):
            raise ValueError(f"gamma_range must satisfy 0 < lo <= hi < inf, got {self.gamma_range}")
        if not (0 <= self.amplitude < np.inf):
            raise ValueError(f"amplitude must be nonnegative and finite, got {self.amplitude}")


def _gamma_shape(gamma: float, grid: IntervalGrid):
    """The gamma family's seven arrays on ``grid``, in field order, and its q.

    A Gamma for which mu' = Gamma exp(Gamma x) overflows (above about 703)
    is refused with a ValueError, and numpy warns of nothing.
    """
    x = grid.points
    with np.errstate(over="ignore", invalid="ignore"):
        grow = np.exp(gamma * x)
        dgrow = gamma * grow
    if not np.isfinite(dgrow).all():
        raise ValueError(f"gamma = {gamma:g} is too large: gamma * exp(gamma) overflows")
    return (
        gamma * x + 1.0,
        np.full(grid.n + 1, gamma),
        grow + 1.0,
        dgrow,
        gamma * (x + 1.0),
        5.0 * (np.cosh(x) + 1.0),
        gamma * (x + 1.0),
        gamma / 2.0,
    )


def gamma_family(gamma: float, m: int = 101) -> CoefficientSet:
    """The one-parameter test family used throughout the experiments.

    lam = Gamma*x + 1, mu = exp(Gamma*x) + 1, sigma = theta = Gamma*(x + 1),
    omega = 5*(cosh(x) + 1), q = Gamma/2.  Derivatives are filled analytically.
    """
    if not (0 < gamma < np.inf):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if m < 3:
        raise ValueError(f"need at least 3 coefficient nodes, got m = {m}")
    grid = IntervalGrid(m - 1)
    return CoefficientSet(grid, *_gamma_shape(gamma, grid))


def sample_random(family: CoefficientFamily, seed: int, m: int = 101) -> CoefficientSet:
    """Deterministic draw from a family on m uniform nodes; a pure function of (family, seed, m)."""
    if m < 3:
        raise ValueError(f"need at least 3 coefficient nodes, got m = {m}")
    rng = np.random.default_rng(splitmix64(seed & MASK64))
    lo, hi = family.gamma_range
    gamma = lo + (hi - lo) * rng.uniform()
    if family.kind == "gamma":
        return gamma_family(gamma, m)

    # the gamma family's shape plus perturbations, validated once
    grid = IntervalGrid(m - 1)
    x = grid.points
    # sup of each perturbation is capped at 0.8 so lam >= 0.2 and mu >= 1.2
    cap = min(family.amplitude, 0.8)

    def perturbation(deriv=False):
        """Values a cos(pi f x + phase) + b (x - 0.5), and with ``deriv`` also their x-derivative."""
        a = 0.7 * cap * rng.uniform(-1.0, 1.0)
        b = 0.6 * cap * rng.uniform(-1.0, 1.0)
        f = rng.integers(1, 4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = np.pi * f * x + phase
        vals = a * np.cos(arg) + b * (x - 0.5)
        if not deriv:
            return vals
        return vals, -a * np.pi * f * np.sin(arg) + b

    p_lam, dp_lam = perturbation(deriv=True)
    p_mu, dp_mu = perturbation(deriv=True)
    p_sig = perturbation()
    p_omg = perturbation()
    p_tht = perturbation()
    lam, dlam, mu, dmu, sigma, omega, theta, q = _gamma_shape(gamma, grid)
    q += 0.5 * family.amplitude * rng.uniform(-1.0, 1.0)
    return CoefficientSet(
        grid=grid,
        lam=lam + p_lam,
        dlam=dlam + dp_lam,
        mu=mu + p_mu,
        dmu=dmu + dp_mu,
        sigma=sigma + 2.0 * p_sig,
        omega=omega + 2.0 * p_omg,
        theta=theta + 2.0 * p_tht,
        q=q,
    )


def resample(c: CoefficientSet, n: int) -> dict[str, np.ndarray]:
    """Coefficient arrays linearly interpolated onto an n-cell grid.

    Each array is ``np.interp`` of its samples on the coefficients' own
    nodes.  Interpolation is exact at the nodes: np.interp returns a node's
    value itself there, so on the coefficients' own grid (n == c.grid.n) the
    result is a copy of each array.
    """
    names = ("lam", "dlam", "mu", "dmu", "sigma", "omega", "theta")
    if n == c.grid.n:
        return {name: getattr(c, name).copy() for name in names}
    x = np.arange(n + 1) / n
    nodes = c.grid.points
    return {name: np.interp(x, nodes, getattr(c, name)) for name in names}
