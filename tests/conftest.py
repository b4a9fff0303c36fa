import struct
from dataclasses import replace

import numpy as np
import pytest

import gainops as g


@pytest.fixture(scope="session")
def gamma1():
    return g.gamma_family(1.0)


@pytest.fixture(scope="session")
def gamma5():
    return g.gamma_family(5.0)


@pytest.fixture(scope="session")
def kernels_g1_n100(gamma1):
    ks = g.solve_kernels(gamma1, g.TriangularGrid(100))
    ks = g.solve_kappa_c(gamma1, ks)
    return g.solve_inverse_kernels(ks)


@pytest.fixture(scope="session")
def kernels_g1_n50(gamma1):
    return g.solve_kernels(gamma1, g.TriangularGrid(50))


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
        g.CoefficientFamily("gamma"),
        g.CoefficientFamily("random_smooth"),
        g.CoefficientFamily("gamma", m=37),
        g.CoefficientFamily("random_smooth", (0.2, 3.0), 1.5, 37),
    ]
    plants = [g.sample_random(f, seed) for f in families for seed in range(seeds)]
    c = plants[0]
    signed = np.where(np.arange(c.theta.size) % 2 == 0, 0.0, -0.0)
    return plants + [replace(c, theta=signed)]


def as_version_1(data: bytes) -> bytes:
    """The HKDS version 1 file of a version 2 one: version word 1, each
    record's dlam and dmu blocks cut out."""
    n, m, n_grid = struct.unpack_from("<III", data, 8)
    t = (n_grid + 1) * (n_grid + 2) // 2
    size = 8 * (1 + 7 * m + 2 * t)
    out = [data[:4], struct.pack("<I", 1), data[8:20]]
    for at in range(20, 20 + n * size, size):
        out += [data[at : at + 8 * (1 + 5 * m)], data[at + 8 * (1 + 7 * m) : at + size]]
    return b"".join(out)
