import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gainops as g
from gainops import kernel_solver
from gainops.coefficients import resample
from gainops.kernel_solver import (
    KernelField,
    KernelSet,
    gain_slice,
    solve_inverse_kernels,
    solve_kappa_c,
    solve_kernels,
    solve_kernels_batch,
    target_couplings,
)
from gainops.numerics import TriangularGrid, flatten_lower, trapezoid_weights, unflatten_lower

from conftest import check_boundary_conditions, mixed_plants
from picard_oracle import picard_kernels

# traced peak of one solve_kernels_batch call at n = 50, by batch size (MB); 1024
# plants may take 1.2 times the 8-byte k1 and k2 values that the call hands out
MARCH_PEAK_MB = {10: 2.0, 256: 8.0, 1024: 1.2 * 1024 * 2 * 8 * TriangularGrid(50).node_count / 1e6}


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

    # measured sup gaps at n = 50 (k1 / k2): 0.5h / 1.0h at Gamma = 1, 13.6h / 17.1h at
    # the stiff end Gamma = 5, at most 11.9h / 14.1h on the random_smooth draws
    @pytest.mark.parametrize(
        "plant, bound",
        [
            pytest.param(lambda: g.gamma_family(1.0), 5, id="gamma1"),
            pytest.param(lambda: g.gamma_family(5.0), 25, id="gamma5"),
            pytest.param(lambda: g.sample_random(g.CoefficientFamily("random_smooth"), 3), 20, id="random_smooth3"),
            pytest.param(lambda: g.sample_random(g.CoefficientFamily("random_smooth"), 11), 20, id="random_smooth11"),
        ],
    )
    def test_agrees_with_picard_oracle_n50(self, plant, bound):
        coeffs = plant()
        ks = solve_kernels(coeffs, TriangularGrid(50))
        ok1, ok2, _ = picard_kernels(coeffs, 50)
        h = 1 / 50
        assert np.abs(ks.k1.as_matrix() - ok1).max() <= bound * h
        assert np.abs(ks.k2.as_matrix() - ok2).max() <= bound * h

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


def crossing_plants():
    """A decreasing-mu plant, whose k2 characteristics leave through the bottom
    edge, and a 4 x lam plant, whose k1 characteristics cross the diagonal at
    up to three nodes of a level."""
    c = g.gamma_family(2.0)
    return [replace(c, mu=c.mu[::-1].copy(), dmu=-c.dmu[::-1]), replace(c, lam=4.0 * c.lam, dlam=4.0 * c.dlam)]


def integer_ratio_plant():
    """Constant speeds lam = 2 mu: a k1 foot two cells below the previous diagonal lands on
    it, and rounding alone decides whether it crossed (it does at 2 to 18 nodes up to n = 137)."""
    c = g.gamma_family(1.0)
    one = np.ones_like(c.lam)
    return replace(c, lam=2.0 * one, dlam=0.0 * one, mu=one, dmu=0.0 * one)


def per_level_march(coeffs, grid, fold=True):
    """The batched march with every coefficient-only quantity recomputed at each
    level, plant-major; kernels (2, B, nodes) that solve_kernels_batch must
    reproduce bit for bit.  A node with lerp ends (vl, vr) of V and (zl, zr) of
    Z is the four-term sum of the folded weights w*(1 + T*P) and w*(T*Q), or,
    with ``fold=False``, the unfolded update V + T*(P*V + Q*Z)."""
    n, h = grid.n, grid.h
    names = ("lam", "mu", "dlam", "sigma", "theta", "dmu", "omega")
    fields = [resample(c, n) for c in coeffs]
    table = np.stack([np.stack([f[name] for f in fields]) for name in names])
    lam, mu, dlam, sig, tht, dmu, omg = table
    flat = table.reshape(len(names), -1)
    off = np.arange(len(coeffs))[:, None] * (n + 1)

    def lerp(rows, idx, frac):
        return rows.take(idx, axis=1) * (1.0 - frac) + rows.take(idx + 1, axis=1) * frac

    def ends(idx):
        return prev_flat.take(idx + off, axis=1), prev_flat.take(idx + 1 + off, axis=1)

    def node(vl, vr, zl, zr, frac, tau, p, q):
        wl, wr = 1.0 - frac, frac
        if fold:
            wv, wz = 1.0 + tau * p, tau * q
            return vl * (wl * wv) + zl * (wl * wz) + vr * (wr * wv) + zr * (wr * wz)
        v, z = vl * wl + vr * wr, zl * wl + zr * wr
        return v + tau * (p * v + q * z)

    x = grid.points
    bc_ratio = np.array([c.q for c in coeffs])[:, None] * lam[:, :1] / mu[:, :1]
    diag_bc = -tht / (lam + mu)
    h_lam, h_mu = h * lam, h * mu
    values = np.empty((2, len(coeffs), grid.node_count))
    prev, cur = np.zeros((2, 2, len(coeffs), n + 1))
    prev[0, :, 0] = diag_bc[:, 0]
    prev[1, :, :1] = bc_ratio * prev[0, :, :1]
    values[:, :, 0] = prev[:, :, 0]
    for i in range(1, n + 1):
        mu_i = mu[:, i : i + 1]
        tau = h / mu_i
        prev_flat = prev.reshape(2, -1)
        x_prev = x[i - 1]
        k1, k2 = cur
        foot = x[:i] + h_lam[:, :i] / mu_i
        crossed = foot > x_prev
        if i >= 2:
            t = np.minimum(np.maximum(foot, 0.0), x_prev) / h
            ic = np.minimum(t.astype(int), n - 1)
            ik = np.minimum(ic, i - 2)
            (k1l, k2l), (k1r, k2r) = ends(ik)
            dlam_f, sig_f, tht_f = lerp(flat[2:5], ic + off, t - ic)
            regular = node(k1l, k1r, k2l, k2r, t - ik, tau, dlam_f + sig_f, tht_f)
        else:  # a level-1 characteristic starts on node (0, 0), also where its foot underflows to 0
            crossed, regular = True, 0.0
        slope = lam[:, :i] / mu_i
        xc = (x[:i] + slope * x[i]) / (1.0 + slope)
        t = xc / h
        ic = np.minimum(t.astype(int), n - 1)
        lam_c, mu_c, dlam_c, sig_c, tht_c = lerp(flat[:5], ic + off, t - ic)
        bc = -tht_c / (lam_c + mu_c)
        k2d = prev[1, :, i - 1 : i]
        from_bc = node(bc, bc, k2d, k2d, 0.0, (x[i] - xc) / mu_i, dlam_c + sig_c, tht_c)
        k1[:, :i] = np.where(crossed, from_bc, regular)
        k1[:, i] = diag_bc[:, i]
        foot = x[1 : i + 1] - h_mu[:, 1 : i + 1] / mu_i
        crossed = foot < 0.0
        t = np.minimum(np.maximum(foot, 0.0), x_prev) / h
        ic = np.minimum(t.astype(int), n - 1)
        if i >= 2:
            ik = np.minimum(ic, i - 2)
            (k1l, k2l), (k1r, k2r) = ends(ik)
            frac = t - ik
        else:
            (k1l, k2l), frac = prev[:, :, :1], 0.0
            k1r, k2r = k1l, k2l
        dmu_f, omg_f = lerp(flat[5:7], ic + off, t - ic)
        regular = node(k2l, k2r, k1l, k1r, frac, tau, -dmu_f, omg_f)
        xc = x[i] - x[1 : i + 1] * mu_i / mu[:, 1 : i + 1]
        frac = np.minimum(np.maximum((xc - x_prev) / h, 0.0), 1.0)
        k1b = prev[0, :, :1] * (1.0 - frac) + k1[:, :1] * frac
        bc = bc_ratio * k1b
        src_c = -dmu[:, :1] * bc + omg[:, :1] * k1b
        from_bc = bc + ((x[i] - xc) / mu_i) * src_c
        k2[:, 1 : i + 1] = np.where(crossed, from_bc, regular)
        k2[:, :1] = bc_ratio * k1[:, :1]
        values[:, :, i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] = cur[:, :, : i + 1]
        prev, cur = cur, prev
    return values


class TestMarchGeometry:
    """The march with its geometry computed per run of levels is the per-level march."""

    @pytest.mark.parametrize("budget", [kernel_solver.GEOMETRY_NODES, 64])
    @pytest.mark.parametrize("n", [2, 3, 50, 100, 137])
    def test_bitwise_equal_to_per_level_march(self, monkeypatch, n, budget):
        # budget 64 marches 64 // n plants at a time: the 38 plants in two batches at n = 2
        # and 3, one plant a batch from n = 33 on, and from n = 64 on a level alone exceeds it
        monkeypatch.setattr(kernel_solver, "GEOMETRY_NODES", budget)
        plants, crossing = mixed_plants(36), crossing_plants()
        grid = TriangularGrid(n)
        for batch in (plants[:1], plants[1:8], plants, crossing[:1], crossing[1:], plants + crossing):
            expected = per_level_march(batch, grid)
            for b, ks in enumerate(solve_kernels_batch(batch, grid)):
                assert ks.k1.values.tobytes() == expected[0, b].tobytes()
                assert ks.k2.values.tobytes() == expected[1, b].tobytes()

    def test_reused_plans_bitwise_equal_to_per_level_march(self):
        # grids and batch sizes interleaved: every solve after the first on a grid reads the plan that one built
        pool = crossing_plants() + [integer_ratio_plant()] + mixed_plants(256)
        kernel_solver._plan.cache_clear()
        steps = [(50, 256), (50, 1), (100, 1), (137, 1), (50, 8), (100, 9), (50, 1), (100, 1), (137, 9), (100, 256), (137, 8)]
        for k, (n, size) in enumerate(steps):
            batch, grid = pool[k % 3 : k % 3 + size], TriangularGrid(n)
            expected = per_level_march(batch, grid)
            for b, ks in enumerate(solve_kernels_batch(batch, grid)):
                assert ks.k1.values.tobytes() == expected[0, b].tobytes()
                assert ks.k2.values.tobytes() == expected[1, b].tobytes()
        assert kernel_solver._plan.cache_info().misses == 3

    def test_plan_read_only_and_one_per_grid_whatever_the_batch_size(self):
        # 112 bytes a node pair, built by the first solve on the grid
        grid = TriangularGrid(50)
        kernel_solver._plan.cache_clear()
        for plants in (1, 8, 256):
            solve_kernels_batch(mixed_plants(plants), grid)
        info, plan = kernel_solver._plan.cache_info(), kernel_solver._plan(grid)
        assert info.misses == info.currsize == 1
        assert sum(array.nbytes for array in plan) == 112 * 50 * 51 // 2
        assert not any(array.flags.writeable for array in plan + kernel_solver._candidates(grid, 3))
        with pytest.raises(ValueError, match="read-only"):
            plan.level[0, 0] = 0

    @pytest.mark.parametrize("n", [3, 50, 137])
    def test_fold_changes_rounding_only(self, n):
        # measured at most 3.3e-15 relative up to n = 400
        plants = mixed_plants(36) + crossing_plants()
        folded, unfolded = (per_level_march(plants, TriangularGrid(n), fold) for fold in (True, False))
        sup = np.abs(unfolded).max(axis=2, keepdims=True)
        assert np.all(np.abs(folded - unfolded) <= 1e-13 * sup)

    def test_crossing_plants_reach_both_crossing_branches(self):
        # mixed_plants has no bottom crossing and one diagonal crossing per level and plant
        n, h = 100, 0.01
        x = np.arange(n + 1) * h
        decreasing, fast = (resample(c, n) for c in crossing_plants())
        levels = range(1, n + 1)
        bottom = [np.sum(x[1 : i + 1] - h * decreasing["mu"][1 : i + 1] / decreasing["mu"][i] < 0.0) for i in levels]
        diagonal = [np.sum(x[:i] + h * fast["lam"][:i] / fast["mu"][i] > x[i - 1]) for i in levels]
        assert sum(bottom) > 0 and max(diagonal) > 1

    @pytest.mark.parametrize("n", [10, 50])
    @pytest.mark.parametrize("lam", [1e15, 1e16, 1e300])
    def test_crossing_rounded_onto_the_top_edge(self, lam, n):
        # at lam / mu >= about 1e15 a diagonal crossing rounds to x = 1 exactly; without
        # the crossing clamp in _geometry its lerp read one node past the grid (IndexError)
        c, grid = g.gamma_family(1.0), TriangularGrid(n)
        fast = replace(c, lam=np.full(101, lam), dlam=np.zeros(101), mu=np.ones(101), dmu=np.zeros(101))
        ks, expected = solve_kernels(fast, grid), per_level_march([fast], grid)
        assert ks.k1.values.tobytes() == expected[0, 0].tobytes()
        assert ks.k2.values.tobytes() == expected[1, 0].tobytes()
        assert np.isfinite(expected).all()

    @pytest.mark.parametrize("n", [3, 20, 100])
    def test_signed_zeros_bitwise(self, n):
        plants = []
        for c in (g.gamma_family(2.0), crossing_plants()[0]):
            zero = np.zeros_like(c.theta)
            # alternating signs put a -0 crossing value next to a +0 diagonal one
            mixed = np.where(np.arange(zero.size) % 2 == 0, 0.0, -0.0)
            plants += [replace(c, theta=t) for t in (zero, -zero, mixed, -mixed)]
            plants += [replace(c, q=0.0), replace(c, q=-0.0)]
        expected = per_level_march(plants, TriangularGrid(n))
        for b, ks in enumerate(solve_kernels_batch(plants, TriangularGrid(n))):
            assert ks.k1.values.tobytes() == expected[0, b].tobytes()
            assert ks.k2.values.tobytes() == expected[1, b].tobytes()
        # both signs of zero occur, so a flipped sign would show
        zeros = np.signbit(expected[expected == 0.0])
        assert zeros.any() and not zeros.all()

    @pytest.mark.parametrize("lam0", [5e-324, 1e-320, 1e-300])
    def test_level_one_continuous_in_lam0(self, lam0):
        # at lam(0) = 5e-324 the level-1 foot h lam(0) / mu(x_1) underflows to 0; the
        # march used to take that node as uncrossed and set k1(1, 0) = 0 instead of -0.5099
        c, grid = g.gamma_family(1.0), TriangularGrid(50)
        near, tiny = (replace(c, lam=np.r_[v, c.lam[1:]]) for v in (1e-12, lam0))
        (ks_near, ks_tiny), expected = solve_kernels_batch([near, tiny], grid), per_level_march([tiny], grid)
        assert ks_tiny.k1.values.tobytes() == expected[0, 0].tobytes()
        assert ks_tiny.k2.values.tobytes() == expected[1, 0].tobytes()
        assert ks_tiny.k1.matrix[1, 0] == pytest.approx(-0.5099, abs=1e-4)
        for a, b in ((ks_tiny.k1, ks_near.k1), (ks_tiny.k2, ks_near.k2)):
            assert np.abs(a.values - b.values).max() <= 1e-11

    def test_rejects_nonpositive_speed_sum_by_index(self):
        # CoefficientSet itself rejects lam <= 0, so a plain namespace stands in; the
        # second index lies in the second batch, which numbers its plants from its start
        ok = g.gamma_family(1.0)
        fields = ("grid", "lam", "dlam", "mu", "dmu", "sigma", "omega", "theta", "q")
        bad = SimpleNamespace(**{f: getattr(ok, f) for f in fields})
        bad.lam = -2.0 * ok.mu
        for index in (1, kernel_solver.GEOMETRY_NODES // 10 + 3):
            with pytest.raises(kernel_solver.PlantError, match=f"plant {index}: lam \\+ mu must be positive") as info:
                solve_kernels_batch([ok] * index + [bad, ok], TriangularGrid(10))
            assert info.value.index == index

    def test_empty_batch(self):
        assert solve_kernels_batch([], TriangularGrid(10)) == []

    @pytest.mark.parametrize("plants", sorted(MARCH_PEAK_MB))
    def test_peak_memory(self, plants):
        batch = mixed_plants(plants)
        grid = TriangularGrid(50)
        tracemalloc.start()
        solve_kernels_batch(batch, grid)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= MARCH_PEAK_MB[plants] * 1e6


def symmetry_plants():
    return [g.gamma_family(1.0), g.gamma_family(5.0)] + [
        g.sample_random(g.CoefficientFamily("random_smooth"), seed) for seed in range(4)
    ]


class TestSymmetries:
    """Two exact symmetries of the kernel equations: multiplying every speed and
    rate by s leaves (k1, k2) as they are, and the gauge u -> a*u, which maps
    (omega, theta, q) to (a*omega, theta/a, a*q), maps them to (k1/a, k2).  A
    factor of 2 is exact in floating point, so the march keeps both laws bit for
    bit there; at other factors only to rounding (measured at most 1.8e-15
    relative)."""

    @staticmethod
    def rescaled(c, s):
        return replace(c, **{f: s * getattr(c, f) for f in ("lam", "dlam", "mu", "dmu", "sigma", "omega", "theta")})

    @staticmethod
    def gauged(c, a):
        return replace(c, omega=a * c.omega, theta=c.theta / a, q=a * c.q)

    @staticmethod
    def assert_close(field, expected, exact):
        if exact:
            assert field.values.tobytes() == expected.tobytes()
        else:
            assert np.abs(field.values - expected).max() <= 2e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("s", [2.0, 0.3, 3.7])
    @pytest.mark.parametrize("n", [50, 100])
    def test_time_rescaling_keeps_kernels(self, n, s):
        plants, grid = symmetry_plants(), TriangularGrid(n)
        for ks, ref in zip(solve_kernels_batch([self.rescaled(c, s) for c in plants], grid), solve_kernels_batch(plants, grid)):
            self.assert_close(ks.k1, ref.k1.values, s == 2.0)
            self.assert_close(ks.k2, ref.k2.values, s == 2.0)

    @pytest.mark.parametrize("a", [2.0, 0.37])
    @pytest.mark.parametrize("n", [50, 100])
    def test_gauge_divides_k1(self, n, a):
        plants, grid = symmetry_plants(), TriangularGrid(n)
        for ks, ref in zip(solve_kernels_batch([self.gauged(c, a) for c in plants], grid), solve_kernels_batch(plants, grid)):
            self.assert_close(ks.k1, ref.k1.values / a, a == 2.0)
            self.assert_close(ks.k2, ref.k2.values, a == 2.0)


def dense_volterra_kappa(coeffs, ks):
    """Direct dense solve of the discretized kappa system, row by row."""
    n, h = ks.grid.n, ks.grid.h
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


def dense_volterra_inverse(ks):
    """Direct dense solve of the discretized l1, l2 system, one xi column at a time
    for both kernels; returns (l1, l2) as dense matrices."""
    n, h = ks.grid.n, ks.grid.h
    k = np.stack([ks.k1.as_matrix(), ks.k2.as_matrix()])
    l = np.zeros_like(k)
    for j in range(n + 1):
        m = n + 1 - j  # nodes x_j .. x_n of column j
        A = np.eye(m)
        for r in range(1, m):
            A[r, : r + 1] -= trapezoid_weights(r + 1, h) * k[1, j + r, j : j + r + 1]
        l[:, j:, j] = np.linalg.solve(A, k[:, j:, j].T).T
    return l


def dense_c(coeffs, ks, kap):
    """c = omega k1 + int_xi^x kappa(x, s) k1(s, xi) ds, node by node with trapezoid_weights."""
    n, h = ks.grid.n, ks.grid.h
    omg = resample(coeffs, n)["omega"]
    k1m = ks.k1.as_matrix()
    c = np.zeros_like(k1m)
    for i in range(n + 1):
        for j in range(i + 1):
            w = trapezoid_weights(i - j + 1, h) if i > j else np.zeros(1)
            c[i, j] = omg[i] * k1m[i, j] + w @ (kap[i, j : i + 1] * k1m[j : i + 1, j])
    return c


def worst_volterra_residual(field, data, a, b, h, scale=None):
    """Max over sampled nodes of |field - scale*data - int_xi^x a(x, s) b(s, xi) ds|,
    with the integral taken node by node with trapezoid_weights."""
    n = field.shape[0] - 1
    scale = np.ones(n + 1) if scale is None else scale
    worst = 0.0
    for i in range(0, n + 1, 7):
        for j in range(0, i + 1, 5):
            w = trapezoid_weights(i - j + 1, h) if i > j else np.zeros(1)
            integral = w @ (a[i, j : i + 1] * b[j : i + 1, j])
            worst = max(worst, abs(field[i, j] - scale[i] * data[i, j] - integral))
    return worst


class TestKappaC:
    def test_zero_omega_gives_zero(self, gamma1):
        c = g.CoefficientSet(
            grid=gamma1.grid, lam=gamma1.lam, dlam=gamma1.dlam, mu=gamma1.mu,
            dmu=gamma1.dmu, sigma=gamma1.sigma, omega=np.zeros_like(gamma1.omega),
            theta=gamma1.theta, q=gamma1.q,
        )
        ks = solve_kappa_c(c, solve_kernels(c, TriangularGrid(50)))
        cm, kap = target_couplings(resample(c, 50)["omega"], ks)
        assert np.abs(kap).max() == 0.0
        assert np.abs(cm).max() == 0.0

    def test_zero_k2_reduces_to_direct_product(self):
        # with k2 == 0 the kappa equation is homogeneous and c = omega * k1
        coeffs = g.gamma_family(1.0)
        grid = TriangularGrid(40)
        x, xi = grid.node_coordinates()
        k1 = KernelField(grid, x - xi)
        k2 = KernelField(grid, np.zeros(grid.node_count))
        ks = solve_kappa_c(coeffs, KernelSet(k1=k1, k2=k2))
        omg = resample(coeffs, grid.n)["omega"]
        cm, kap = target_couplings(omg, ks)
        assert np.abs(kap).max() == 0.0
        i, _ = grid.node_indices()
        assert np.allclose(flatten_lower(cm), omg[i] * k1.values, atol=1e-14)

    @pytest.mark.parametrize("n", [17, 100])
    def test_omega_times_inverse_kernels_bitwise(self, gamma5, n):
        ks = solve_kappa_c(gamma5, solve_kernels(gamma5, TriangularGrid(n)))
        cm, kap = target_couplings(resample(gamma5, n)["omega"], ks)
        omg = resample(gamma5, n)["omega"][ks.grid.node_indices()[0]]
        assert flatten_lower(kap).tobytes() == (omg * ks.l2.values).tobytes()
        assert flatten_lower(cm).tobytes() == (omg * ks.l1.values).tobytes()

    def test_matches_dense_direct_solve(self):
        # kappa and c solve their own discretized equations only to O(h^2), the gap between
        # the right and left resolvent equations under the trapezoid rule: measured at most
        # 1.10 h^2 sup at Gamma = 5, 0.98 at random_smooth 3 and 0.26 at Gamma = 1
        plants = [g.gamma_family(1.0), g.gamma_family(5.0), g.sample_random(g.CoefficientFamily("random_smooth"), 3)]
        for coeffs in plants:
            for n in (16, 17, 33, 50, 100):
                ks = solve_kappa_c(coeffs, solve_kernels(coeffs, TriangularGrid(n)))
                kap = dense_volterra_kappa(coeffs, ks)
                cm = dense_c(coeffs, ks, kap)
                got_c, got_kap = target_couplings(resample(coeffs, n)["omega"], ks)
                bound = 2.0 * ks.grid.h**2
                assert np.abs(got_kap - kap).max() <= bound * np.abs(kap).max()
                assert np.abs(got_c - cm).max() <= bound * np.abs(cm).max()

    @pytest.mark.parametrize(
        "singular, message",
        [
            (None, "x index 1"),
            (4, "x index 4"),
            pytest.param((4, 9), "x index 4", id="4+9-x index 4"),
        ],
    )
    def test_singular_pivot_detected(self, gamma1, singular, message):
        n = 10
        grid = TriangularGrid(n)
        i, j = grid.node_indices()
        k2 = np.full(grid.node_count, 0.3)
        k2[(i == j) & (True if singular is None else np.isin(i, singular))] = 2.0 * n  # pivot 1 - h/2*k2 = 0
        ks = KernelSet(k1=KernelField(grid, np.zeros(grid.node_count)), k2=KernelField(grid, k2))
        with pytest.raises(ZeroDivisionError, match=f"{message}$"):
            solve_kappa_c(gamma1, ks)

    def test_kappa_satisfies_its_equation(self, side_kernel_residuals):
        for r in side_kernel_residuals.values():
            assert np.all(r[:-1, 0] >= 3.5 * r[1:, 0])


class TestBlockedVolterraSolves:
    """The blocked solves against direct dense solves, across the block edges."""

    @pytest.mark.parametrize(
        "plant",
        [
            pytest.param(lambda: g.gamma_family(1.0), id="gamma1"),
            pytest.param(lambda: g.gamma_family(5.0), id="gamma5"),
            pytest.param(lambda: g.sample_random(g.CoefficientFamily("random_smooth"), 3), id="random_smooth3"),
        ],
    )
    @pytest.mark.parametrize("n", [2, 3, 15, 16, 17, 33, 100])
    def test_matches_dense_solves(self, plant, n):
        assert kernel_solver._VOLTERRA_BLOCK == 16  # n = 15, 16, 17 and 33 sit at its edges
        coeffs = plant()
        ks = solve_kernels(coeffs, TriangularGrid(n))
        data = ks.k1.values.tobytes(), ks.k2.values.tobytes()
        ks = solve_inverse_kernels(ks)
        assert (ks.k1.values.tobytes(), ks.k2.values.tobytes()) == data  # nothing written through to k1, k2
        l1, l2 = dense_volterra_inverse(ks)
        for got, want in [(ks.l1, l1), (ks.l2, l2)]:
            assert np.abs(got.as_matrix() - want).max() <= 1e-12 * np.abs(want).max()


@pytest.fixture(scope="module")
def kernels_g5_n100(gamma5):
    return solve_inverse_kernels(solve_kernels(gamma5, TriangularGrid(100)))


@pytest.fixture(scope="module")
def side_kernel_residuals():
    """Gamma -> worst residuals of kappa's and c's discretized equations (columns)
    at n = 50, 100, 200 (rows); they are O(h^2), measured 3.93-3.99x smaller per halving of h."""
    out = {}
    for gamma in (1.0, 5.0):
        coeffs = g.gamma_family(gamma)
        rows = []
        for n in (50, 100, 200):
            ks = solve_kappa_c(coeffs, solve_kernels(coeffs, TriangularGrid(n)))
            omg = resample(coeffs, n)["omega"]
            (cm, kap), k1m, k2m = target_couplings(omg, ks), ks.k1.as_matrix(), ks.k2.as_matrix()
            rows.append([
                worst_volterra_residual(kap, k2m, kap, k2m, ks.grid.h, omg),
                worst_volterra_residual(cm, k1m, kap, k1m, ks.grid.h, omg),
            ])
        out[gamma] = np.array(rows)
    return out


class TestSideKernelSubstitution:
    """c at Gamma = 1 and 5, l1 and l2 at Gamma = 5, substituted back into their discretized equations."""

    def test_c_satisfies_its_equation(self, side_kernel_residuals):
        for r in side_kernel_residuals.values():
            assert np.all(r[:-1, 1] >= 3.5 * r[1:, 1])

    @pytest.mark.parametrize("name, data", [("l1", "k1"), ("l2", "k2")])
    def test_inverse_kernel_satisfies_its_equation(self, kernels_g5_n100, name, data):
        ks = kernels_g5_n100
        lm = getattr(ks, name).as_matrix()
        k2m = ks.k2.as_matrix()
        assert worst_volterra_residual(lm, getattr(ks, data).as_matrix(), k2m, lm, 0.01) <= 1e-10


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
        with pytest.raises(ZeroDivisionError, match="x index 1$"):
            solve_inverse_kernels(ks)
        with pytest.raises(ZeroDivisionError, match="x index 1$"):
            ks.l2  # a failed solve is not kept: every read raises


class TestFieldValidation:
    @pytest.mark.parametrize("values", [np.zeros(65), np.zeros(67), np.zeros((66, 1))], ids=["short", "long", "column"])
    def test_length_off_the_grid_rejected(self, values):
        with pytest.raises(ValueError, match="field length does not match the grid"):
            KernelField(TriangularGrid(10), values)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.zeros(66)
        values[17] = bad
        with pytest.raises(ValueError, match="kernel field contains non-finite values"):
            KernelField(TriangularGrid(10), values)

    def test_fields_on_two_grids_rejected(self):
        a, b = TriangularGrid(10), TriangularGrid(11)
        with pytest.raises(ValueError, match="k1 and k2 must share one grid"):
            KernelSet(k1=KernelField(a, np.zeros(a.node_count)), k2=KernelField(b, np.zeros(b.node_count)))


class TestSolvedPlant:
    """A KernelSet densifies each field once and solves l1, l2 once, whoever reads them."""

    def test_matrix_is_built_once_and_read_only(self, gamma1):
        ks = solve_kernels(gamma1, TriangularGrid(10))
        m = ks.k1.matrix
        assert ks.k1.matrix is m and ks.k1.as_matrix() is m
        assert m.tobytes() == unflatten_lower(ks.k1.values, 10).tobytes()
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[1, 0] = 1.0

    def test_one_volterra_solve_and_four_dense_fields_per_plant(self, monkeypatch, gamma1):
        counts = {"_volterra": 0, "unflatten_lower": 0}
        for name in counts:
            fn = getattr(kernel_solver, name)

            def counted(*args, fn=fn, name=name):
                counts[name] += 1
                return fn(*args)

            monkeypatch.setattr(kernel_solver, name, counted)
        n = 30
        grid = g.IntervalGrid(n)
        state = g.reference_initial_state(grid)
        ks = solve_kernels(gamma1, TriangularGrid(n))
        gain_slice(ks)
        assert counts == {"_volterra": 0, "unflatten_lower": 0}  # gains read the flat top row
        ks.l1, ks.l2
        assert solve_kappa_c(gamma1, ks) is ks and solve_inverse_kernels(ks) is ks  # the benchmark's order
        target_couplings(resample(gamma1, n)["omega"], ks)
        g.residual_operators(gamma1, ks.k1, ks.k2)
        g.p2_lower_bound(gamma1, ks, 1.0)
        g.norm_equivalence_constants(ks)
        beta = g.forward_transform(state, ks)
        g.inverse_transform(state.u, beta, ks)
        g.simulate_target(gamma1, ks, g.PlantState(grid, state.u, beta), 0.05)
        g.epsilon_estimate(gamma1, ks, ks)
        assert counts == {"_volterra": 1, "unflatten_lower": 4}  # k1, k2, l1, l2


class TestGainSlice:
    def test_top_row_of_both_kernels(self, kernels_g1_n100):
        gains = gain_slice(kernels_g1_n100)
        assert gains.g1.tobytes() == kernels_g1_n100.k1.matrix[100].tobytes()
        assert gains.g2.tobytes() == kernels_g1_n100.k2.matrix[100].tobytes()

    def test_zero_theta_zero_gains(self):
        gains = gain_slice(solve_kernels(zero_theta_coeffs(), TriangularGrid(60)))
        assert np.all(gains.g1 == 0) and np.all(gains.g2 == 0)

    def test_lengths(self, kernels_g1_n100):
        gains = gain_slice(kernels_g1_n100)
        assert gains.g1.size == 101 and gains.g2.size == 101

    def test_endpoint_equals_diagonal_data(self, kernels_g1_n100):
        gains = gain_slice(kernels_g1_n100)
        assert gains.g1[-1] == pytest.approx(-2.0 / (3.0 + np.e), abs=1e-12)
