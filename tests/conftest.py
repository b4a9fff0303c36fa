from dataclasses import replace

import numpy as np
import pytest

import gainops as g
from gainops.coefficients import CoefficientSet, resample
from gainops.controller import GainVector, forward_transform
from gainops.data_store import Dataset
from gainops.kernel_solver import KernelField, KernelSet
from gainops.neural_op import DeepONetModel, _loss_and_grads, _mlp_forward, _trunk_inputs, _views, get_flat_params
from gainops.numerics import TriangularGrid, trapezoid_integral, trapezoid_weights
from gainops.plant_sim import PlantState, _free, _full, cfl_dt, step_count


@pytest.fixture(scope="session")
def gamma1():
    return g.gamma_family(1.0)


@pytest.fixture(scope="session")
def gamma5():
    return g.gamma_family(5.0)


@pytest.fixture(scope="session")
def kernels_g1_n100(gamma1):
    return g.solve_kernels(gamma1, g.TriangularGrid(100))


def make_coeffs(m=101, lam=None, mu=None, sigma=None, omega=None, theta=None, q=0.5):
    """Coefficient set from callables (constants fill in for None)."""
    grid = g.IntervalGrid(m - 1)
    x = grid.points

    def arr(fn, default):
        if fn is None:
            return np.full(m, default), np.zeros(m)
        eps = 1e-6
        vals = np.array([fn(t) for t in x])
        dvals = np.array([(fn(min(t + eps, 1.0)) - fn(max(t - eps, 0.0))) / (min(t + eps, 1.0) - max(t - eps, 0.0)) for t in x])
        return vals, dvals

    lam_v, dlam_v = arr(lam, 1.0)
    mu_v, dmu_v = arr(mu, 1.0)
    sig_v, _ = arr(sigma, 0.0)
    omg_v, _ = arr(omega, 0.0)
    tht_v, _ = arr(theta, 0.0)
    return g.CoefficientSet(
        grid=grid, lam=lam_v, dlam=dlam_v, mu=mu_v, dmu=dmu_v,
        sigma=sig_v, omega=omg_v, theta=tht_v, q=q,
    )


def random_smooth_state(grid, rng, modes=3):
    """Seeded band-limited (u, v) pair for transform and norm tests."""
    x = grid.points
    u = np.zeros_like(x)
    v = np.zeros_like(x)
    for k in range(modes + 1):
        u += rng.normal() * np.cos(k * np.pi * x) / (k + 1) + rng.normal() * np.sin(k * np.pi * x) / (k + 1)
        v += rng.normal() * np.cos(k * np.pi * x) / (k + 1) + rng.normal() * np.sin(k * np.pi * x) / (k + 1)
    return g.PlantState(grid, u, v)


def mixed_plants(count):
    """Both families: Gamma = 0.5, 1, 5 first, then alternating random draws."""
    plants = [g.gamma_family(0.5), g.gamma_family(1.0), g.gamma_family(5.0)]
    families = (g.CoefficientFamily("gamma"), g.CoefficientFamily("random_smooth"))
    plants += [g.sample_random(families[k % 2], 1000 + k) for k in range(count - len(plants))]
    return plants[:count]


def own_grid_plants(seeds=5):
    """Draws of both families at the default m and at m = 37, and one plant whose
    theta holds zeros of both signs, for checks made on a plant's own grid."""
    families = [
        (g.CoefficientFamily("gamma"), 101),
        (g.CoefficientFamily("random_smooth"), 101),
        (g.CoefficientFamily("gamma"), 37),
        (g.CoefficientFamily("random_smooth", (0.2, 3.0), 1.5), 37),
    ]
    plants = [g.sample_random(f, seed, m) for f, m in families for seed in range(seeds)]
    c = plants[0]
    signed = np.where(np.arange(c.theta.size) % 2 == 0, 0.0, -0.0)
    return plants + [replace(c, theta=signed)]


# References that only the tests use: the simulator's stencil, its step
# matrix pushed through that stencil, and its feedback closure one step at a
# time, the transformed-state norm, the kernel boundary identities, the
# dataset file size, and the loss/gradient through the flat parameter vector.


def _advance(u, v, dt, cf, q, h, source=-0.0):
    """One explicit upwind step without the actuated boundary value: the scheme
    that ``plant_sim._step_matrix`` writes into S band by band.

    Acts on the last axis, so a stack of states advances in one call.
    ``source`` is added to the local coupling of u at nodes 1 .. n; the
    default -0.0 leaves every sum as it is, signed zeros included.
    """
    lam, mu = cf["lam"], cf["mu"]
    sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
    un = u.copy()
    vn = v.copy()
    un[..., 1:] = (
        u[..., 1:]
        - dt * lam[1:] * (u[..., 1:] - u[..., :-1]) / h
        + dt * (sig[1:] * u[..., 1:] + omg[1:] * v[..., 1:] + source)
    )
    vn[..., :-1] = v[..., :-1] + dt * mu[:-1] * (v[..., 1:] - v[..., :-1]) / h + dt * tht[:-1] * u[..., :-1]
    un[..., 0] = q * vn[..., 0]
    return un, vn


def pushed_step_matrix(coeffs, grid, T, cf, actuate=None, source=None, advance=_advance):
    """(S, a, dt, n_steps) as ``_step_matrix`` returns them, by stepping the identity.

    Each unit of the free unknowns y = (u[1:], v[:-1]) is completed to a state
    with u(0) = q v(0) and v(1) = ``actuate(u, v)`` (+0.0 without it), and
    ``advance`` steps all of them at once with the u-equation source
    ``source(u, v)``: row k of S is the next y of unit k, and a[k] its v(1).
    """
    n_steps = step_count(coeffs, grid, T)
    n, h, q = grid.n, grid.h, coeffs.q
    dt = T / n_steps
    u, v = _full(np.eye(2 * n), q, 0.0)
    a = None
    if actuate:
        a = v[:, -1] = actuate(u, v)
    src = source(u, v) if source else -0.0
    return _free(*advance(u, v, dt, cf, q, h, src)), a, dt, n_steps


def step(state: PlantState, coeffs: CoefficientSet, U: float, dt: float) -> PlantState:
    """Single explicit step with prescribed boundary input v(1) = U."""
    grid = state.grid
    if dt > cfl_dt(coeffs, grid) * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} violates the CFL bound {cfl_dt(coeffs, grid)}")
    cf = resample(coeffs, grid.n)
    un, vn = _advance(state.u, state.v, dt, cf, coeffs.q, grid.h)
    vn[-1] = U
    return PlantState(grid, un, vn, state.t + dt)


def control_value(gains: GainVector, state: "PlantState") -> float:
    """U = integral of g1*u + g2*v by the shared trapezoid rule."""
    gains = gains.resample(state.grid)
    w = trapezoid_weights(state.grid.n + 1, state.grid.h)
    return float(w @ (gains.g1 * state.u) + w @ (gains.g2 * state.v))


def psi1(state: PlantState, kernels: KernelSet) -> float:
    """Squared size of the transformed pair: ||u||^2 + ||beta||^2."""
    beta = forward_transform(state, kernels)
    h = state.grid.h
    return trapezoid_integral(state.u**2, h) + trapezoid_integral(beta**2, h)


def check_boundary_conditions(coeffs: CoefficientSet, ks: KernelSet):
    """Max residual of the diagonal and bottom-edge identities."""
    n = ks.grid.n
    cf = resample(coeffs, n)
    k1m, k2m = ks.k1.as_matrix(), ks.k2.as_matrix()
    r_diag = np.abs(np.diagonal(k1m) + cf["theta"] / (cf["lam"] + cf["mu"]))
    r_bottom = np.abs(cf["mu"][0] * k2m[:, 0] - coeffs.q * cf["lam"][0] * k1m[:, 0])
    return float(r_diag.max()), float(r_bottom.max())


def expected_file_size(n_samples: int, m_coeff: int, n_grid: int) -> int:
    t = (n_grid + 1) * (n_grid + 2) // 2
    return 20 + n_samples * 8 * (1 + 7 * m_coeff + 2 * t)


def validate_boundary_identities(dataset: Dataset, tol: float = 1e-12) -> None:
    """Check both kernel boundary identities on every record."""
    grid = TriangularGrid(dataset.n_grid)
    for i, r in enumerate(dataset.samples):
        ks = KernelSet(k1=KernelField(grid, r.k1), k2=KernelField(grid, r.k2))
        d, b = check_boundary_conditions(r, ks)
        if d > tol or b > tol:
            raise ValueError(f"sample {i} violates a boundary identity ({d:.2e}, {b:.2e})")


def loss_and_gradients(model: DeepONetModel, feats: np.ndarray, y1: np.ndarray, y2: np.ndarray, pts: np.ndarray):
    """Loss plus flat analytic gradient over all parameters (for verification)."""
    z = (feats - model.feat_mean) / model.feat_scale
    grad = np.empty_like(get_flat_params(model))
    trunk = _mlp_forward(model.trunk_w, model.trunk_b, _trunk_inputs(pts), keep=True)
    loss = _loss_and_grads(model, z, y1, y2, trunk, grad)
    return loss, grad


def set_flat_params(model: DeepONetModel, flat: np.ndarray) -> None:
    bw, tw, bb, tb = _views(flat, model.branch_dims, model.trunk_dims)
    for a, v in zip(model.parameters(), [*bw, *tw, *bb, *tb], strict=True):
        a[...] = v
    model.b1 = float(flat[-2])
    model.b2 = float(flat[-1])
