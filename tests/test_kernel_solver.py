import numpy as np
import pytest

import gainops as g
from gainops.kernel_solver import (
    KernelField,
    KernelSet,
    check_boundary_conditions,
    gain_slice,
    solve_inverse_kernels,
    solve_kappa_c,
    solve_kernels,
)
from gainops.numerics import TriangularGrid, trapezoid_weights

from conftest import make_coeffs
from picard_oracle import picard_kernels


def zero_theta_coeffs():
    c = g.gamma_family(1.0)
    return g.CoefficientSet(
        grid=c.grid, lam=c.lam, dlam=c.dlam, mu=c.mu, dmu=c.dmu,
        sigma=c.sigma, omega=c.omega, theta=np.zeros_like(c.theta), q=c.q,
    )


class TestSolveKernels:
    def test_zero_theta_gives_zero_fields(self):
        ks = solve_kernels(zero_theta_coeffs(), TriangularGrid(100))
        assert ks.k1.sup() == 0.0
        assert ks.k2.sup() == 0.0

    def test_corner_value_forced_by_diagonal_data(self, gamma1):
        ks = solve_kernels(gamma1, TriangularGrid(50))
        assert ks.k1.values[0] == pytest.approx(-1 / 3, abs=1e-14)

    @pytest.mark.parametrize("gamma", [1.0, 5.0])
    @pytest.mark.parametrize("n", [50, 100])
    def test_boundary_identities(self, gamma, n):
        coeffs = g.gamma_family(gamma)
        ks = solve_kernels(coeffs, TriangularGrid(n))
        d, b = check_boundary_conditions(coeffs, ks)
        assert d <= 1e-12
        assert b <= 1e-12

    def test_agrees_with_picard_oracle_n50(self, gamma1):
        ks = solve_kernels(gamma1, TriangularGrid(50))
        ok1, ok2, _ = picard_kernels(gamma1, 50)
        h = 1 / 50
        assert np.abs(ks.k1.as_matrix() - ok1).max() <= 5 * h
        assert np.abs(ks.k2.as_matrix() - ok2).max() <= 5 * h

    def test_first_order_refinement(self, gamma1):
        sols = {n: solve_kernels(gamma1, TriangularGrid(n)) for n in (50, 100, 200)}
        diffs = []
        for n in (50, 100):
            coarse = sols[n].k1.as_matrix()
            fine = sols[2 * n].k1.as_matrix()[::2, ::2]
            diffs.append(np.abs(coarse - fine).max())
        assert 1.6 <= diffs[0] / diffs[1] <= 2.4

    def test_uniform_boundedness(self, gamma1):
        sups = [solve_kernels(gamma1, TriangularGrid(n)).k2.sup() for n in (50, 100, 200, 400)]
        assert (max(sups) - min(sups)) / max(sups) <= 0.15

    def test_determinism(self, gamma1):
        a = solve_kernels(gamma1, TriangularGrid(40))
        b = solve_kernels(gamma1, TriangularGrid(40))
        assert np.array_equal(a.k1.values, b.k1.values)
        assert np.array_equal(a.k2.values, b.k2.values)


def dense_volterra_kappa(coeffs, ks):
    """Direct dense solve of the discretized kappa system, row by row."""
    n, h = ks.grid.n, ks.grid.h
    from gainops.coefficients import resample

    omg = resample(coeffs, n)["omega"]
    k2m = ks.k2.as_matrix()
    kap = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        m = i + 1
        A = np.eye(m)
        rhs = omg[i] * k2m[i, :m]
        for j in range(m):
            w = trapezoid_weights(i - j + 1, h) if i > j else np.zeros(1)
            A[j, j:] -= w * k2m[j:m, j]
        kap[i, :m] = np.linalg.solve(A, rhs)
    return kap


class TestKappaC:
    def test_zero_omega_gives_zero(self, gamma1):
        c = g.CoefficientSet(
            grid=gamma1.grid, lam=gamma1.lam, dlam=gamma1.dlam, mu=gamma1.mu,
            dmu=gamma1.dmu, sigma=gamma1.sigma, omega=np.zeros_like(gamma1.omega),
            theta=gamma1.theta, q=gamma1.q,
        )
        ks = solve_kappa_c(c, solve_kernels(c, TriangularGrid(50)))
        assert ks.kappa.sup() == 0.0
        assert ks.c.sup() == 0.0

    def test_zero_k2_reduces_to_direct_product(self):
        # with k2 == 0 the kappa equation is homogeneous and c = omega * k1
        coeffs = g.gamma_family(1.0)
        grid = TriangularGrid(40)
        x, xi = grid.node_coordinates()
        k1 = KernelField(grid, x - xi)
        k2 = KernelField(grid, np.zeros(grid.node_count))
        ks = solve_kappa_c(coeffs, KernelSet(k1=k1, k2=k2))
        assert ks.kappa.sup() == 0.0
        from gainops.coefficients import resample

        omg = resample(coeffs, grid.n)["omega"]
        i, _ = grid.node_indices()
        assert np.allclose(ks.c.values, omg[i] * k1.values, atol=1e-14)

    def test_matches_dense_direct_solve(self, kernels_g1_n100, gamma1):
        dense = dense_volterra_kappa(gamma1, kernels_g1_n100)
        assert np.abs(kernels_g1_n100.kappa.as_matrix() - dense).max() <= 1e-10

    def test_kappa_satisfies_its_equation(self, kernels_g1_n100, gamma1):
        # substitute back into the discretized equation
        n, h = 100, 0.01
        from gainops.coefficients import resample

        omg = resample(gamma1, n)["omega"]
        kap = kernels_g1_n100.kappa.as_matrix()
        k2m = kernels_g1_n100.k2.as_matrix()
        worst = 0.0
        for i in range(0, n + 1, 7):
            for j in range(0, i + 1, 5):
                w = trapezoid_weights(i - j + 1, h) if i > j else np.zeros(1)
                integral = w @ (kap[i, j : i + 1] * k2m[j : i + 1, j])
                worst = max(worst, abs(kap[i, j] - omg[i] * k2m[i, j] - integral))
        assert worst <= 1e-10


class TestInverseKernels:
    def test_zero_k2_gives_l1_equals_k1(self):
        grid = TriangularGrid(30)
        x, xi = grid.node_coordinates()
        ks = KernelSet(
            k1=KernelField(grid, np.sin(x) * (x - xi)),
            k2=KernelField(grid, np.zeros(grid.node_count)),
        )
        inv = solve_inverse_kernels(ks)
        assert np.array_equal(inv.l1.values, ks.k1.values)
        assert inv.l2.sup() == 0.0

    def test_constant_k2_exponential_solution(self):
        # l2 solves l2 = c0 + int_xi^x c0 l2 ds, so l2 = c0 exp(c0 (x - xi))
        c0 = 0.8
        n = 200
        grid = TriangularGrid(n)
        x, xi = grid.node_coordinates()
        ks = KernelSet(
            k1=KernelField(grid, np.zeros(grid.node_count)),
            k2=KernelField(grid, np.full(grid.node_count, c0)),
        )
        inv = solve_inverse_kernels(ks)
        exact = c0 * np.exp(c0 * (x - xi))
        assert np.abs(inv.l2.values - exact).max() <= 5.0 / n

    def test_singular_pivot_detected(self):
        n = 10
        grid = TriangularGrid(n)
        ks = KernelSet(
            k1=KernelField(grid, np.zeros(grid.node_count)),
            k2=KernelField(grid, np.full(grid.node_count, 2.0 * n)),  # pivot 1 - h/2*k2 = 0
        )
        with pytest.raises(ZeroDivisionError):
            solve_inverse_kernels(ks)


class TestGainSlice:
    def test_zero_theta_zero_gains(self):
        gains = gain_slice(solve_kernels(zero_theta_coeffs(), TriangularGrid(60)))
        assert np.all(gains.g1 == 0) and np.all(gains.g2 == 0)

    def test_lengths(self, kernels_g1_n100):
        gains = gain_slice(kernels_g1_n100)
        assert gains.g1.size == 101 and gains.g2.size == 101

    def test_endpoint_equals_diagonal_data(self, kernels_g1_n100):
        gains = gain_slice(kernels_g1_n100)
        assert gains.g1[-1] == pytest.approx(-2.0 / (3.0 + np.e), abs=1e-12)
