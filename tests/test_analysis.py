import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import gainops as g
from gainops.analysis import (
    _directional_derivatives,
    _lyapunov_weights,
    _residual_terms,
    default_p1,
    epsilon_estimate,
    fit_decay,
    lyapunov_v1,
    norm_equivalence_constants,
    p2_lower_bound,
    phi,
    residual_operators,
)
from gainops.coefficients import resample
from gainops.controller import forward_transform
from gainops.kernel_solver import KernelField, KernelSet, solve_kappa_c, solve_kernels, target_couplings
from gainops.numerics import TriangularGrid, trapezoid_integral
from gainops.plant_sim import SimTrace

from conftest import make_coeffs, mixed_plants, own_grid_plants, psi1, random_smooth_state


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

    def test_interior_fields_vanish_off_the_stencil_nodes(self, gamma5):
        n = 20
        grid = TriangularGrid(n)
        ks = solve_kernels(gamma5, grid)
        cf = resample(gamma5, n)
        _, _, pde1, pde2 = _residual_terms(cf, gamma5.q, ks.k1.as_matrix(), ks.k2.as_matrix(), n, grid.h)
        off = ~np.tril(np.ones((n + 1, n + 1), dtype=bool))
        off[0, 0] = off[n, n] = True
        for r in (pde1, pde2):
            assert r[off].tobytes() == bytes(8 * off.sum())
            assert np.all(r[~off] != 0)

    def test_small_grid_rejected(self, gamma1):
        grid = TriangularGrid(2)
        z = np.zeros(grid.node_count)
        with pytest.raises(ValueError):
            residual_operators(gamma1, KernelField(grid, z.copy()), KernelField(grid, z.copy()))

    def test_smallest_grid_accepted(self, gamma1):
        # n = 3 is the first grid with an interior stencil node: its residuals are scored, not refused
        ks = solve_kernels(gamma1, TriangularGrid(3))
        rep = residual_operators(gamma1, ks.k1, ks.k2)
        assert rep.sup_bc_diag <= 1e-12 and rep.sup_bc_bottom <= 1e-12
        assert rep.sup_pde1 > 0 and rep.sup_pde2 > 0 and np.isfinite(rep.epsilon_estimate)

    def test_fields_on_two_grids_rejected(self, gamma1):
        a, b = TriangularGrid(10), TriangularGrid(11)
        with pytest.raises(ValueError, match="fields must share one grid"):
            residual_operators(gamma1, KernelField(a, np.zeros(a.node_count)), KernelField(b, np.zeros(b.node_count)))


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


def separate_epsilon_terms(coeffs, exact, approx):
    """Reference: the epsilon_estimate fields with each residual term written out.

    The boundary terms keep their own sign convention, and the interior
    terms are masked with an explicit lower-triangular stencil mask.
    """
    n, h = exact.grid.n, exact.grid.h
    cf = resample(coeffs, n)
    lam, dlam, mu, dmu = cf["lam"], cf["dlam"], cf["mu"], cf["dmu"]
    sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
    e1 = exact.k1.as_matrix() - approx.k1.as_matrix()
    e2 = exact.k2.as_matrix() - approx.k2.as_matrix()
    (c_x, kap_x), (c_a, kap_a) = target_couplings(omg, exact), target_couplings(omg, approx)
    ec = c_x - c_a
    ekap = kap_x - kap_a
    d1 = (lam + mu) * np.diagonal(e1)
    d2 = lam[0] * coeffs.q * e1[:, 0] - mu[0] * e2[:, 0]
    dx1, dxi1 = _directional_derivatives(e1, n, h)
    dx2, dxi2 = _directional_derivatives(e2, n, h)
    d3 = -mu[:, None] * dx1 + lam[None, :] * dxi1 + (dlam + sig)[None, :] * e1 + tht[None, :] * e2
    d4 = -mu[:, None] * dx2 - mu[None, :] * dxi2 - dmu[None, :] * e2 + omg[None, :] * e1
    mask = np.tril(np.ones((n + 1, n + 1), dtype=bool))
    stencil = mask.copy()
    stencil[0, 0] = stencil[n, n] = False
    d3[~stencil] = 0.0
    d4[~stencil] = 0.0
    summed = np.abs(e1) + np.abs(e2) + np.abs(ec) + np.abs(ekap) + np.abs(d1)[:, None] + np.abs(d2)[:, None] + np.abs(d3) + np.abs(d4)
    return {
        "epsilon": float(summed[mask].max()),
        "sup_k1_err": float(np.abs(e1[mask]).max()),
        "sup_k2_err": float(np.abs(e2[mask]).max()),
        "sup_c_err": float(np.abs(ec[mask]).max()),
        "sup_kappa_err": float(np.abs(ekap[mask]).max()),
        "sup_d1": float(np.abs(d1).max()),
        "sup_d2": float(np.abs(d2).max()),
        "sup_d3": float(np.abs(d3).max()),
        "sup_d4": float(np.abs(d4).max()),
    }


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

    def test_small_grid_rejected(self, gamma1):
        # the residual stencils of residual_operators: n = 2 is refused, not scored 0.0
        ks = solve_kernels(gamma1, TriangularGrid(2))
        with pytest.raises(ValueError, match="n >= 3"):
            epsilon_estimate(gamma1, ks, ks)

    def test_smallest_grid_accepted(self, gamma1):
        ks = solve_kernels(gamma1, TriangularGrid(3))
        assert epsilon_estimate(gamma1, ks, ks).epsilon == 0.0
        assert epsilon_estimate(gamma1, ks, self.perturbed(ks)).epsilon > 0.0

    def test_kernel_sets_on_two_grids_rejected(self, gamma1):
        a, b = (solve_kernels(gamma1, TriangularGrid(n)) for n in (10, 11))
        with pytest.raises(ValueError, match="kernel sets must share one grid"):
            epsilon_estimate(gamma1, a, b)

    def test_epsilon_dominates_each_term(self, gamma1, kernels_g1_n100):
        approx = self.perturbed(kernels_g1_n100)
        rep = epsilon_estimate(gamma1, kernels_g1_n100, approx)
        for term in (
            rep.sup_k1_err, rep.sup_k2_err, rep.sup_c_err, rep.sup_kappa_err,
            rep.sup_d1, rep.sup_d2, rep.sup_d3, rep.sup_d4,
        ):
            assert rep.epsilon >= term - 1e-15

    @pytest.mark.parametrize("n", [3, 20, 100])
    def test_bitwise_equal_to_separate_terms(self, n):
        grid = TriangularGrid(n)
        for coeffs in mixed_plants(6):
            exact = solve_kappa_c(coeffs, solve_kernels(coeffs, grid))
            approx = solve_kappa_c(coeffs, self.perturbed(exact))
            rep = asdict(epsilon_estimate(coeffs, exact, approx))
            want = separate_epsilon_terms(coeffs, exact, approx)
            assert list(rep) == list(want)
            assert {k: v.hex() for k, v in rep.items()} == {k: v.hex() for k, v in want.items()}

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
        (c_x, kap_x), (c_a, kap_a) = target_couplings(omg, exact), target_couplings(omg, approx)
        ec = c_x - c_a
        ek = kap_x - kap_a

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


class TestLyapunov:
    def test_unit_example(self):
        c = make_coeffs(m=101, lam=lambda x: 1.0, mu=lambda x: 1.0)
        assert lyapunov_v1(np.ones(101), np.ones(101), c, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_zero_state(self, gamma1):
        assert lyapunov_v1(np.zeros(101), np.zeros(101), gamma1, 1.0, 3.0) == 0.0

    def test_rejects_nonpositive_p1(self, gamma1):
        with pytest.raises(ValueError):
            lyapunov_v1(np.ones(101), np.ones(101), gamma1, 0.0, 1.0)

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_bitwise_equal_to_the_resample_formula(self, n):
        rng = np.random.default_rng(n)
        x = np.arange(n + 1) / n
        for c in mixed_plants(7):
            u, beta = rng.normal(size=(2, n + 1))
            p1, p2 = rng.uniform(0.1, 1.0), rng.uniform(0.0, 5.0)
            cf = resample(c, n)
            expected = trapezoid_integral(p1 * np.exp(-p2 * x) / cf["lam"] * u * u, 1.0 / n) + trapezoid_integral(
                np.exp(p2 * x) / cf["mu"] * beta * beta, 1.0 / n
            )
            assert lyapunov_v1(u, beta, c, p1, p2).hex() == expected.hex()

    def test_own_grid_bitwise_equal_to_the_interp_formula(self):
        rng = np.random.default_rng(0)
        for c in own_grid_plants():
            n = c.grid.n
            x = np.arange(n + 1) / n
            u, beta = rng.normal(size=(2, n + 1))
            p1, p2 = rng.uniform(0.1, 1.0), rng.uniform(0.0, 5.0)
            lam, mu = (np.interp(x, c.grid.points, a) for a in (c.lam, c.mu))
            expected = trapezoid_integral(p1 * np.exp(-p2 * x) / lam * u * u, 1.0 / n) + trapezoid_integral(
                np.exp(p2 * x) / mu * beta * beta, 1.0 / n
            )
            assert lyapunov_v1(u, beta, c, p1, p2).hex() == expected.hex()

    @staticmethod
    def formula(u, beta, c, p1, p2):
        n = u.size - 1
        x = np.arange(n + 1) / n
        cf = resample(c, n)
        return trapezoid_integral(p1 * np.exp(-p2 * x) / cf["lam"] * u * u, 1.0 / n) + trapezoid_integral(
            np.exp(p2 * x) / cf["mu"] * beta * beta, 1.0 / n
        )

    def test_cached_weights_keep_the_formula_bits_across_interleaved_calls(self):
        rng = np.random.default_rng(5)
        plants = [g.gamma_family(1.0), g.sample_random(g.CoefficientFamily("random_smooth"), 11)]
        states = {n: rng.normal(size=(2, n + 1)) for n in (25, 100)}
        pairs = [(0.5, 0.0), (0.5, 2.0), (0.25, 2.0), (0.125, 4.5)]
        # twice round: the second pass reads every weight from the cache
        for _ in range(2):
            for p1, p2 in pairs:
                for n, (u, beta) in states.items():
                    for c in plants:
                        assert lyapunov_v1(u, beta, c, p1, p2).hex() == self.formula(u, beta, c, p1, p2).hex()

    def test_cached_weights_are_read_only(self):
        lyapunov_v1(np.ones(26), np.ones(26), g.gamma_family(1.0), 0.5, 2.0)
        for a in _lyapunov_weights(25, 0.5, 2.0):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    @pytest.mark.parametrize("n", [25, 100])
    def test_in_place_edit_of_lam_shows(self, n):
        c = g.gamma_family(2.0)
        u, beta = np.random.default_rng(n).normal(size=(2, n + 1))
        before = lyapunov_v1(u, beta, c, 0.5, 1.5)
        c.lam[:] *= 2.0
        after = lyapunov_v1(u, beta, c, 0.5, 1.5)
        assert after != before
        assert after.hex() == self.formula(u, beta, c, 0.5, 1.5).hex()

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
        cm, kap = target_couplings(resample(c, 40)["omega"], ks)
        assert np.abs(kap).max() == 0.0 and np.abs(cm).max() == 0.0
        assert p2_lower_bound(c, ks, 1.0) == 0.0

    def test_monotone_in_p1(self, gamma1, kernels_g1_n100):
        assert p2_lower_bound(gamma1, kernels_g1_n100, 2.0) >= p2_lower_bound(
            gamma1, kernels_g1_n100, 1.0
        )

    def test_finite_positive(self, gamma1, kernels_g1_n100):
        b = p2_lower_bound(gamma1, kernels_g1_n100, default_p1(gamma1))
        assert np.isfinite(b) and b > 0


def constant_kernels(n, a):
    """k1 = a and k2 = 0 on the triangle: then l1 = k1 and l2 = 0 exactly, kappa = 0 and c = omega a."""
    grid = TriangularGrid(n)
    return KernelSet(k1=KernelField(grid, np.full(grid.node_count, a)), k2=KernelField(grid, np.zeros(grid.node_count)))


class TestCertificateFormulas:
    """p1, both terms of p2, S1 and S2 equal their formulas, on sups that are checkable by hand."""

    A = -0.5  # k1; with omega = 4, c = -2 and kappa = 0

    @staticmethod
    def plant(q=0.5):
        return make_coeffs(lam=lambda x: 2.0, sigma=lambda x: 1.0, omega=lambda x: 4.0, q=q)

    def test_constant_kernels_give_hand_couplings(self):
        ks = constant_kernels(20, self.A)
        assert np.array_equal(ks.l1.values, ks.k1.values) and ks.l2.sup() == 0.0
        c, kappa = target_couplings(resample(self.plant(), 20)["omega"], ks)
        assert np.abs(kappa).max() == 0.0
        assert np.array_equal(c, np.tril(np.full((21, 21), -2.0)))

    def test_norm_equivalence_constants(self):
        # S1 = S2 = 4 + 3 a^2 + 3 * 0^2
        assert norm_equivalence_constants(constant_kernels(20, self.A)) == (4.75, 4.75)

    @pytest.mark.parametrize("p1, p2", [(0.5, 5.0), (4.0, 8.0)])
    def test_p2_terms(self, p1, p2):
        # p1 (omega + kappa) / lam = 2 p1 against (2 sigma + omega + 2 c + kappa) / lam = (2 + 4 + 4 + 0) / 2 = 5
        assert p2_lower_bound(self.plant(), constant_kernels(20, self.A), p1) == p2

    @pytest.mark.parametrize("q, p1", [(0.0, 0.5), (0.5, 0.5), (2.0, 0.125)])
    def test_default_p1(self, q, p1):
        # min(1, 1/q^2) / 2, and 1/2 at q = 0
        assert default_p1(self.plant(q)) == p1

    def test_every_term_counts_on_a_solved_plant(self, gamma1, kernels_g1_n100):
        # at Gamma = 1 k2, l2 and kappa are nonzero, and the first term of p2 wins at p1 = 2, the second at p1 = 1
        ks = kernels_g1_n100
        k1, k2, l1, l2 = (f.sup() for f in (ks.k1, ks.k2, ks.l1, ks.l2))
        assert min(k2, l2) > 1.0
        assert norm_equivalence_constants(ks) == (4.0 + 3.0 * k1**2 + 3.0 * k2**2, 4.0 + 3.0 * l1**2 + 3.0 * l2**2)
        c, kappa = target_couplings(resample(gamma1, 100)["omega"], ks)
        c_sup, kap_sup = float(np.abs(c).max()), float(np.abs(kappa).max())
        omega, sigma, lam = float(gamma1.omega.max()), float(gamma1.sigma.max()), float(gamma1.lam.min())
        assert kap_sup > 10.0
        assert p2_lower_bound(gamma1, ks, 2.0) == 2.0 * (omega + kap_sup) / lam
        assert p2_lower_bound(gamma1, ks, 1.0) == (2 * sigma + omega + 2 * c_sup + kap_sup) / lam


def synthetic_trace(times, phis):
    z = np.zeros_like(times)
    return SimTrace(times=times, phi=phis, u_boundary=z, v_boundary=z, control=z, dt=times[1] - times[0])


def lstsq_fit(trace, t_start):
    """(c1_hat, fit_quality, c2_hat) from np.linalg.lstsq on the design matrix [t, 1]: fit_decay's reference."""
    t, p = trace.times, trace.phi
    sel = (t >= t_start) & (p > 0)
    ts, ys = t[sel], np.log(p[sel])
    A = np.column_stack([ts, np.ones_like(ts)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    ss_res = float(np.sum((ys - A @ coef) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    c1 = -float(coef[0])
    pos = p > 0
    c2 = float(np.exp(np.max(np.log(p[pos]) - np.log(p[0]) + c1 * t[pos])))
    return c1, 1.0 - ss_res / ss_tot, c2


def assert_fit_matches_lstsq(trace, t_start):
    # the sums and lstsq round differently: c1_hat and fit_quality agree to
    # rel 1e-12; c2_hat's exponent holds c1_hat t, so its error grows with
    # c1_hat t_end and it agrees to rel 1e-10
    rep = fit_decay(trace, t_start)
    c1, r2, c2 = lstsq_fit(trace, t_start)
    assert rep.c1_hat == pytest.approx(c1, rel=1e-12)
    assert rep.fit_quality == pytest.approx(r2, rel=1e-12)
    assert rep.c2_hat == pytest.approx(c2, rel=1e-10)
    return rep


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 200)
        rep = fit_decay(synthetic_trace(t, np.exp(-2 * t)))
        assert rep.c1_hat == pytest.approx(2.0, abs=1e-9)
        assert rep.fit_quality == pytest.approx(1.0, abs=1e-12)
        assert rep.c2_hat == pytest.approx(1.0, abs=1e-9)

    def test_overshoot_when_phi0_lies_below_the_decay_curve(self):
        # phi = e^(-2t) for t > 0 but phi(0) = 0.5: fitted from t_start = 0.5, the
        # rate is 2 and the largest ratio phi(t) e^(2t) / phi(0) is 1 / 0.5 = 2
        t = np.linspace(0, 5, 200)
        p = np.exp(-2 * t)
        p[0] = 0.5
        rep = fit_decay(synthetic_trace(t, p), t_start=0.5)
        assert rep.c1_hat == pytest.approx(2.0, abs=1e-9)
        assert rep.c2_hat == pytest.approx(2.0, abs=1e-9)

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

    def test_fits_from_exactly_ten_samples(self):
        t = np.linspace(0, 1, 12)
        assert fit_decay(synthetic_trace(t, np.exp(-t)), t_start=t[2]).c1_hat == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError, match="at least 10 positive samples"):
            fit_decay(synthetic_trace(t, np.exp(-t)), t_start=t[3])

    def test_fit_quality_is_the_coefficient_of_determination(self):
        # for a least-squares line, 1 - SS_res / SS_tot is the squared correlation of t and ln phi
        t = np.linspace(0, 5, 100)
        p = np.exp(-1.3 * t + 0.3 * np.sin(7 * t))
        rep = fit_decay(synthetic_trace(t, p))
        r = np.corrcoef(t, np.log(p))[0, 1]
        assert 0.5 < rep.fit_quality < 1.0
        assert rep.fit_quality == pytest.approx(r * r, rel=1e-12)

    def test_closed_loop_has_positive_rate(self, gamma1, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        gains = g.gain_slice(kernels_g1_n100)
        tr = g.simulate(gamma1, g.reference_initial_state(grid), g.ControllerSpec.feedback(gains), 5.0)
        rep = fit_decay(tr, t_start=1.0)
        assert rep.c1_hat > 0

    def test_overshoot_undefined_without_positive_initial_phi(self):
        # phi(0) = 0: the rate is still fitted over the positive samples, the overshoot ratio is nan
        t = np.linspace(0, 5, 60)
        p = np.exp(-t)
        p[0] = 0.0
        rep = fit_decay(synthetic_trace(t, p))
        assert rep.c1_hat == pytest.approx(1.0, abs=1e-9)
        assert np.isnan(rep.c2_hat)

    @pytest.mark.parametrize("log_ratio, c2", [(699.0, np.exp(699.0)), (700.0, np.inf)])
    def test_overshoot_is_inf_from_a_log_ratio_of_700_on(self, log_ratio, c2):
        # phi = 1 from t_start on fits c1_hat = -0.0 exactly, so the largest log-ratio is that of the earlier sample
        t = np.linspace(0, 5, 50)
        p = np.ones_like(t)
        p[3] = np.exp(log_ratio)
        assert np.log(p[3]) == log_ratio
        rep = fit_decay(synthetic_trace(t, p), t_start=t[4])
        assert rep.c1_hat == 0.0 and rep.c2_hat == c2

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_lstsq_on_noisy_traces(self, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(0, rng.uniform(2, 20), int(rng.integers(50, 20000)))
        noise = rng.normal(0, rng.uniform(1e-6, 0.5), t.size)
        p = rng.uniform(0.1, 100) * np.exp(-rng.uniform(0.5, 20) * t + noise)
        assert_fit_matches_lstsq(synthetic_trace(t, p), t_start=rng.uniform(0, t[-1] / 2))

    def test_matches_lstsq_on_gamma5_runs(self, gamma5):
        grid = g.IntervalGrid(100)
        init = g.reference_initial_state(grid)
        gains = g.gain_slice(solve_kernels(gamma5, TriangularGrid(100)))
        closed = g.simulate(gamma5, init, g.ControllerSpec.feedback(gains), 10.0)
        assert assert_fit_matches_lstsq(closed, t_start=2.0).c1_hat > 0
        # a blow-up that stops on a finite phi above 1e12 is fitted as any trace
        blown = g.simulate(gamma5, init, g.ControllerSpec.open_loop(), 3.0)
        assert blown.blew_up and 1e12 < blown.phi[-1] < np.inf
        assert assert_fit_matches_lstsq(blown, t_start=0.0).c1_hat == pytest.approx(-19.534014, abs=1e-6)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_phi_is_refused(self, bad):
        # before any arithmetic on it, so without numpy's RuntimeWarning (an error under pytest)
        t = np.linspace(0, 5, 100)
        p = np.exp(-t)
        p[60] = bad
        p[-1] = np.inf
        with pytest.raises(ValueError, match=rf"phi must be finite to fit a decay rate; phi\[60\] = {bad}"):
            fit_decay(synthetic_trace(t, p))

    def test_memory_is_a_few_copies_of_the_fitted_samples(self):
        # 150 001 samples fitted from t = 2 of 10, as the closed loops are: the
        # line holds the fitted times and ln phi, the overshoot two arrays over
        # the positive samples; c = 3 bounds the peak at c * 8 bytes per fitted sample
        t = np.linspace(0, 10, 150001)
        trace = synthetic_trace(t, np.exp(-3 * t + 0.1 * np.sin(7 * t)))
        n_fit = np.count_nonzero(t >= 2.0)
        tracemalloc.start()
        fit_decay(trace, t_start=2.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 3 * 8 * n_fit
