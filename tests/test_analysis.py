import numpy as np
import pytest

import gainops as g
from gainops.analysis import (
    _directional_derivatives,
    conservative_sup_bounds,
    default_p1,
    epsilon_estimate,
    fit_decay,
    lyapunov_v1,
    norm_equivalence_constants,
    p2_lower_bound,
    phi,
    psi1,
    residual_operators,
)
from gainops.controller import forward_transform
from gainops.kernel_solver import KernelField, KernelSet, solve_kappa_c, solve_kernels
from gainops.numerics import TriangularGrid
from gainops.plant_sim import SimTrace

from conftest import make_coeffs, random_smooth_state


class TestResidualOperators:
    def test_solver_output_has_tiny_boundary_residuals(self, gamma1, kernels_g1_n100):
        rep = residual_operators(gamma1, kernels_g1_n100.k1, kernels_g1_n100.k2)
        assert rep.sup_bc_diag <= 1e-12
        assert rep.sup_bc_bottom <= 1e-12

    def test_interior_residuals_decay_first_order(self, gamma1):
        sups = {}
        for n in (100, 200):
            ks = solve_kernels(gamma1, TriangularGrid(n))
            rep = residual_operators(gamma1, ks.k1, ks.k2)
            sups[n] = (rep.sup_pde1, rep.sup_pde2)
        assert sups[200][0] <= 0.7 * sups[100][0]
        assert sups[200][1] <= 0.7 * sups[100][1]

    def test_interior_residuals_decrease_stiff_coefficients(self, gamma5):
        sups = {}
        for n in (100, 200):
            ks = solve_kernels(gamma5, TriangularGrid(n))
            rep = residual_operators(gamma5, ks.k1, ks.k2)
            sups[n] = (rep.sup_pde1, rep.sup_pde2)
        assert sups[200][0] < sups[100][0]
        assert sups[200][1] < sups[100][1]

    def test_zero_theta_zero_kernels_all_zero(self):
        c = make_coeffs(m=101, lam=lambda x: 1 + x, mu=lambda x: 2 + x, sigma=lambda x: 1.0, omega=lambda x: 1.0)
        grid = TriangularGrid(50)
        z = np.zeros(grid.node_count)
        rep = residual_operators(c, KernelField(grid, z.copy()), KernelField(grid, z.copy()))
        assert rep.sup_bc_diag == 0 and rep.sup_bc_bottom == 0
        assert rep.sup_pde1 == 0 and rep.sup_pde2 == 0
        assert rep.epsilon_estimate == 0

    def test_small_grid_rejected(self, gamma1):
        grid = TriangularGrid(2)
        z = np.zeros(grid.node_count)
        with pytest.raises(ValueError):
            residual_operators(gamma1, KernelField(grid, z.copy()), KernelField(grid, z.copy()))


def loop_directional_derivatives(dense, n, h):
    """Reference: one-sided and centred differences column by column and row by row."""
    dx = np.zeros_like(dense)
    dxi = np.zeros_like(dense)
    for j in range(n + 1):
        col = dense[j:, j]
        if col.size >= 2:
            d = np.empty_like(col)
            d[0] = (col[1] - col[0]) / h
            d[-1] = (col[-1] - col[-2]) / h
            if col.size > 2:
                d[1:-1] = (col[2:] - col[:-2]) / (2 * h)
            dx[j:, j] = d
    for i in range(1, n + 1):
        row = dense[i, : i + 1]
        d = np.empty_like(row)
        d[0] = (row[1] - row[0]) / h
        d[-1] = (row[-1] - row[-2]) / h
        if row.size > 2:
            d[1:-1] = (row[2:] - row[:-2]) / (2 * h)
        dxi[i, : i + 1] = d
    return dx, dxi


@pytest.mark.parametrize("n", [2, 3, 50])
def test_directional_derivatives_match_loop_bitwise(n):
    rng = np.random.default_rng(n)
    dense = np.tril(rng.normal(size=(n + 1, n + 1)))
    got = _directional_derivatives(dense, n, 1.0 / n)
    want = loop_directional_derivatives(dense, n, 1.0 / n)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


class TestEpsilonEstimate:
    def perturbed(self, ks, scale=1e-2):
        grid = ks.grid
        x, xi = grid.node_coordinates()
        p1 = scale * np.sin(3 * x) * np.cos(2 * xi)
        p2 = scale * (x - xi) * np.cos(4 * x)
        return KernelSet(
            k1=KernelField(grid, ks.k1.values + p1),
            k2=KernelField(grid, ks.k2.values + p2),
        )

    def test_exact_vs_itself_is_zero(self, gamma1, kernels_g1_n100):
        rep = epsilon_estimate(gamma1, kernels_g1_n100, kernels_g1_n100)
        assert rep.epsilon == 0.0

    def test_epsilon_dominates_each_term(self, gamma1, kernels_g1_n100):
        approx = self.perturbed(kernels_g1_n100)
        rep = epsilon_estimate(gamma1, kernels_g1_n100, approx)
        for term in (
            rep.sup_k1_err, rep.sup_k2_err, rep.sup_c_err, rep.sup_kappa_err,
            rep.sup_d1, rep.sup_d2, rep.sup_d3, rep.sup_d4,
        ):
            assert rep.epsilon >= term - 1e-15

    def test_matches_independent_delta_assembly(self, gamma1):
        # rebuild every term of the summed bound from scratch on a small grid
        n = 30
        grid = TriangularGrid(n)
        exact = solve_kappa_c(gamma1, solve_kernels(gamma1, grid))
        approx = self.perturbed(exact, scale=5e-3)
        approx = solve_kappa_c(gamma1, approx)
        rep = epsilon_estimate(gamma1, exact, approx)

        from gainops.coefficients import resample

        cf = resample(gamma1, n)
        lam, dlam, mu, dmu = cf["lam"], cf["dlam"], cf["mu"], cf["dmu"]
        sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
        h = grid.h
        e1 = exact.k1.as_matrix() - approx.k1.as_matrix()
        e2 = exact.k2.as_matrix() - approx.k2.as_matrix()
        ec = exact.c.as_matrix() - approx.c.as_matrix()
        ek = exact.kappa.as_matrix() - approx.kappa.as_matrix()

        def d_dx(f, i, j):
            if i == j:
                return (f[i + 1, j] - f[i, j]) / h
            if i == n:
                return (f[i, j] - f[i - 1, j]) / h
            return (f[i + 1, j] - f[i - 1, j]) / (2 * h)

        def d_dxi(f, i, j):
            if j == 0:
                return (f[i, 1] - f[i, 0]) / h
            if j == i:
                return (f[i, j] - f[i, j - 1]) / h
            return (f[i, j + 1] - f[i, j - 1]) / (2 * h)

        worst = 0.0
        for i in range(n + 1):
            d1 = (lam[i] + mu[i]) * e1[i, i]
            d2 = lam[0] * gamma1.q * e1[i, 0] - mu[0] * e2[i, 0]
            for j in range(i + 1):
                degenerate = (i == 0 and j == 0) or (i == n and j == n)
                if degenerate:
                    d3 = d4 = 0.0
                else:
                    d3 = -mu[i] * d_dx(e1, i, j) + lam[j] * d_dxi(e1, i, j) + (dlam[j] + sig[j]) * e1[i, j] + tht[j] * e2[i, j]
                    d4 = -mu[i] * d_dx(e2, i, j) - mu[j] * d_dxi(e2, i, j) - dmu[j] * e2[i, j] + omg[j] * e1[i, j]
                total = (
                    abs(e1[i, j]) + abs(e2[i, j]) + abs(ec[i, j]) + abs(ek[i, j])
                    + abs(d1) + abs(d2) + abs(d3) + abs(d4)
                )
                worst = max(worst, total)
        assert rep.epsilon == pytest.approx(worst, rel=1e-12)


class TestNormFunctionals:
    def test_phi_constant_state(self):
        grid = g.IntervalGrid(100)
        state = g.PlantState(grid, np.ones(101), np.ones(101))
        assert phi(state) == pytest.approx(2.0, abs=1e-14)

    def test_phi_zero_state(self):
        grid = g.IntervalGrid(50)
        assert phi(g.PlantState(grid, np.zeros(51), np.zeros(51))) == 0.0

    def test_phi_closed_form(self):
        grid = g.IntervalGrid(1000)
        state = g.reference_initial_state(grid)
        exact = 1.0 + 0.5 - np.sin(2.0) / 4.0
        assert phi(state) == pytest.approx(exact, abs=1e-6)

    def test_psi1_zero_kernels_equals_phi(self):
        grid = g.IntervalGrid(60)
        z = np.zeros(TriangularGrid(60).node_count)
        ks = KernelSet(k1=KernelField(TriangularGrid(60), z.copy()), k2=KernelField(TriangularGrid(60), z.copy()))
        rng = np.random.default_rng(0)
        state = random_smooth_state(grid, rng)
        assert psi1(state, ks) == pytest.approx(phi(state), abs=1e-14)

    def test_psi1_zero_state(self, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        assert psi1(g.PlantState(grid, np.zeros(101), np.zeros(101)), kernels_g1_n100) == 0.0

    def test_psi1_bounded_by_s1_phi(self, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        s1 = 4.0 + 3.0 * kernels_g1_n100.k1.sup() ** 2 + 3.0 * kernels_g1_n100.k2.sup() ** 2
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = random_smooth_state(grid, rng)
            assert psi1(state, kernels_g1_n100) <= s1 * phi(state) + 1e-12

    def test_norm_equivalence_both_ways_100_states(self, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        s1, s2 = norm_equivalence_constants(kernels_g1_n100)
        rng = np.random.default_rng(99)
        for _ in range(100):
            state = random_smooth_state(grid, rng)
            p = phi(state)
            q = psi1(state, kernels_g1_n100)
            assert q <= s1 * p + 1e-12
            assert p <= s2 * q + 1e-12

    def test_conservative_bounds_dominate_empirical(self, gamma1, kernels_g1_n100):
        cons = conservative_sup_bounds(gamma1, kernels_g1_n100)
        assert cons["kappa"] >= kernels_g1_n100.kappa.sup()
        assert cons["l1"] >= kernels_g1_n100.l1.sup()
        assert cons["l2"] >= kernels_g1_n100.l2.sup()


class TestLyapunov:
    def test_unit_example(self):
        c = make_coeffs(m=101, lam=lambda x: 1.0, mu=lambda x: 1.0)
        assert lyapunov_v1(np.ones(101), np.ones(101), c, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_zero_state(self, gamma1):
        assert lyapunov_v1(np.zeros(101), np.zeros(101), gamma1, 1.0, 3.0) == 0.0

    def test_rejects_nonpositive_p1(self, gamma1):
        with pytest.raises(ValueError):
            lyapunov_v1(np.ones(101), np.ones(101), gamma1, 0.0, 1.0)

    def test_monotone_along_transformed_closed_loop(self, gamma1, kernels_g1_n100):
        # the closed loop in transformed coordinates: beta from the forward
        # transform at t=0, then the target dynamics
        grid = g.IntervalGrid(100)
        ks = kernels_g1_n100
        init = g.reference_initial_state(grid)
        init.u[0] = gamma1.q * init.v[0]
        beta0 = forward_transform(init, ks)
        p1 = default_p1(gamma1)
        p2 = 1.1 * p2_lower_bound(gamma1, ks, p1)
        tr = g.simulate_target(gamma1, ks, g.PlantState(grid, init.u.copy(), beta0), 3.0, snapshot_stride=1)
        vals = np.array([lyapunov_v1(s.u, s.v, gamma1, p1, p2) for s in tr.snapshots])
        assert np.all(vals[2:] <= vals[1:-1] * (1 + 1e-12))


class TestP2LowerBound:
    def test_zero_sigma_omega_gives_zero(self):
        c = make_coeffs(m=101, lam=lambda x: 1 + x, mu=lambda x: 2.0, theta=lambda x: 1.0, q=0.3)
        ks = solve_kappa_c(c, solve_kernels(c, TriangularGrid(40)))
        assert ks.kappa.sup() == 0.0 and ks.c.sup() == 0.0
        assert p2_lower_bound(c, ks, 1.0) == 0.0

    def test_monotone_in_p1(self, gamma1, kernels_g1_n100):
        assert p2_lower_bound(gamma1, kernels_g1_n100, 2.0) >= p2_lower_bound(
            gamma1, kernels_g1_n100, 1.0
        )

    def test_finite_positive(self, gamma1, kernels_g1_n100):
        b = p2_lower_bound(gamma1, kernels_g1_n100, default_p1(gamma1))
        assert np.isfinite(b) and b > 0

    def test_requires_kappa_c(self, gamma1, kernels_g1_n50):
        with pytest.raises(ValueError):
            p2_lower_bound(gamma1, kernels_g1_n50, 1.0)


def synthetic_trace(times, phis):
    z = np.zeros_like(times)
    return SimTrace(times=times, phi=phis, u_boundary=z, v_boundary=z, control=z, dt=times[1] - times[0])


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 200)
        rep = fit_decay(synthetic_trace(t, np.exp(-2 * t)))
        assert rep.c1_hat == pytest.approx(2.0, abs=1e-9)
        assert rep.fit_quality == pytest.approx(1.0, abs=1e-12)
        assert rep.c2_hat == pytest.approx(1.0, abs=1e-9)

    def test_constant_phi(self):
        t = np.linspace(0, 5, 50)
        rep = fit_decay(synthetic_trace(t, np.ones_like(t)))
        assert rep.c1_hat == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        t = np.linspace(0, 5, 100)
        p = np.exp(-1.3 * t) * (1 + 0.1 * np.sin(5 * t))
        a = fit_decay(synthetic_trace(t, p))
        b = fit_decay(synthetic_trace(t, 77.0 * p))
        assert a.c1_hat == pytest.approx(b.c1_hat, rel=1e-12)

    def test_needs_enough_samples(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            fit_decay(synthetic_trace(t, np.exp(-t)))

    def test_closed_loop_has_positive_rate(self, gamma1, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        gains = g.gain_slice(kernels_g1_n100)
        tr = g.simulate(gamma1, g.reference_initial_state(grid), g.ControllerSpec.feedback(gains), 5.0)
        rep = fit_decay(tr, t_start=1.0)
        assert rep.c1_hat > 0

    def test_report_export_formats(self, gamma1, kernels_g1_n100):
        import json

        t = np.linspace(0, 5, 60)
        rep = fit_decay(synthetic_trace(t, np.exp(-t)))
        row = rep.to_csv_row()
        assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))
        assert json.loads(rep.to_json())["c1_hat"] == pytest.approx(1.0, abs=1e-9)
        rr = residual_operators(gamma1, kernels_g1_n100.k1, kernels_g1_n100.k2)
        assert len(rr.to_csv_row().split(",")) == len(rr.CSV_HEADER.split(","))
        assert json.loads(rr.to_json())["sup_pde1"] == rr.sup_pde1
