import numpy as np
import pytest

import gainops as g
from gainops.controller import forward_transform
from gainops.numerics import trapezoid_integral

from conftest import make_coeffs


def transport_coeffs():
    return make_coeffs(m=101, lam=lambda x: 1.0, mu=lambda x: 1.0, q=0.0)


class TestCfl:
    def test_unit_speeds(self):
        c = transport_coeffs()
        assert g.cfl_dt(c, g.IntervalGrid(100)) == pytest.approx(0.009)

    def test_gamma5(self):
        dt = g.cfl_dt(g.gamma_family(5.0), g.IntervalGrid(100))
        assert dt == pytest.approx(0.9 * 0.01 / (np.exp(5.0) + 1.0))

    def test_doubling_n_halves_dt(self, gamma1):
        assert g.cfl_dt(gamma1, g.IntervalGrid(100)) == pytest.approx(
            2 * g.cfl_dt(gamma1, g.IntervalGrid(200))
        )


class TestStep:
    def test_zero_state_stays_zero(self, gamma1):
        grid = g.IntervalGrid(50)
        state = g.PlantState(grid, np.zeros(51), np.zeros(51))
        out = g.step(state, gamma1, 0.0, g.cfl_dt(gamma1, grid))
        assert np.all(out.u == 0) and np.all(out.v == 0)

    def test_cfl_violation_rejected(self, gamma1):
        grid = g.IntervalGrid(50)
        state = g.PlantState(grid, np.zeros(51), np.zeros(51))
        with pytest.raises(ValueError):
            g.step(state, gamma1, 0.0, 10 * g.cfl_dt(gamma1, grid))

    def test_boundary_identities_after_step(self, gamma1):
        grid = g.IntervalGrid(50)
        rng = np.random.default_rng(1)
        state = g.PlantState(grid, rng.normal(size=51), rng.normal(size=51))
        out = g.step(state, gamma1, 0.7, g.cfl_dt(gamma1, grid))
        assert out.v[-1] == 0.7
        assert out.u[0] == gamma1.q * out.v[0]


class TestSimulate:
    def test_open_loop_zero_init_zero_phi(self, gamma1):
        grid = g.IntervalGrid(50)
        init = g.PlantState(grid, np.zeros(51), np.zeros(51))
        tr = g.simulate(gamma1, init, g.ControllerSpec.open_loop(), 0.5)
        assert np.all(tr.phi == 0)

    def test_pure_transport_empties_domain(self):
        c = transport_coeffs()
        grid = g.IntervalGrid(100)
        tr = g.simulate(
            c, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), 1.2,
            snapshot_stride=10**9,
        )
        s = tr.snapshots[-1]
        h = grid.h
        assert np.sqrt(trapezoid_integral(s.u**2, h)) <= 2 * h
        assert np.sqrt(trapezoid_integral(s.v**2, h)) <= 2 * h

    def test_upwind_matches_exact_transport(self):
        # constant speeds, no sources: compare with the method of characteristics
        c = transport_coeffs()
        for n in (100, 200):
            grid = g.IntervalGrid(n)
            x = grid.points
            prof = np.sin(np.pi * x) ** 2
            init = g.PlantState(grid, prof.copy(), prof.copy())
            tr = g.simulate(c, init, g.ControllerSpec.open_loop(), 0.5, snapshot_stride=10**9)
            s = tr.snapshots[-1]
            ue = np.where(x >= s.t, np.sin(np.pi * np.clip(x - s.t, 0, 1)) ** 2, 0.0)
            ve = np.where(x + s.t <= 1, np.sin(np.pi * np.clip(x + s.t, 0, 1)) ** 2, 0.0)
            assert np.sqrt(trapezoid_integral((s.u - ue) ** 2, grid.h)) <= 0.6 * grid.h
            assert np.sqrt(trapezoid_integral((s.v - ve) ** 2, grid.h)) <= 0.6 * grid.h

    def test_zero_gain_feedback_equals_open_loop_bitexact(self, gamma1):
        grid = g.IntervalGrid(60)
        gains = g.GainVector(grid, np.zeros(61), np.zeros(61))
        init = g.reference_initial_state(grid)
        a = g.simulate(gamma1, init, g.ControllerSpec.open_loop(), 0.5)
        b = g.simulate(gamma1, init, g.ControllerSpec.feedback(gains), 0.5)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.control, b.control)

    def test_determinism(self, gamma5):
        grid = g.IntervalGrid(50)
        init = g.reference_initial_state(grid)
        a = g.simulate(gamma5, init, g.ControllerSpec.open_loop(), 0.3)
        b = g.simulate(gamma5, init, g.ControllerSpec.open_loop(), 0.3)
        assert np.array_equal(a.phi, b.phi)

    def test_open_loop_gamma5_grows(self, gamma5):
        grid = g.IntervalGrid(100)
        tr = g.simulate(gamma5, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), 0.3)
        assert tr.phi[-1] > 2 * tr.phi[0]

    def test_blowup_flagged_and_truncated(self, gamma5):
        grid = g.IntervalGrid(100)
        tr = g.simulate(gamma5, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), 3.0)
        assert tr.blew_up
        assert tr.times[-1] < 3.0
        assert tr.phi[-1] > 1e12 or not np.isfinite(tr.phi[-1])

    def test_closed_loop_decay(self, gamma1, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        gains = g.gain_slice(kernels_g1_n100)
        tr = g.simulate(gamma1, g.reference_initial_state(grid), g.ControllerSpec.feedback(gains), 10.0)
        assert tr.phi[-1] / tr.phi[0] <= 1e-3

    def test_boundary_identity_along_trace(self, gamma1, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        gains = g.gain_slice(kernels_g1_n100)
        tr = g.simulate(
            gamma1, g.reference_initial_state(grid), g.ControllerSpec.feedback(gains), 0.2,
            snapshot_stride=7,
        )
        for s in tr.snapshots:
            assert s.u[0] == gamma1.q * s.v[0]
            assert s.v[-1] == pytest.approx(g.control_value(gains, s), abs=1e-13)


class TestSimulateTarget:
    def test_zero_init_zero_trace(self, gamma1, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        init = g.PlantState(grid, np.zeros(101), np.zeros(101))
        tr = g.simulate_target(gamma1, kernels_g1_n100, init, 0.5)
        assert np.all(tr.phi == 0)

    def test_requires_kappa_c(self, gamma1, kernels_g1_n50):
        grid = g.IntervalGrid(50)
        init = g.PlantState(grid, np.zeros(51), np.zeros(51))
        with pytest.raises(ValueError):
            g.simulate_target(gamma1, kernels_g1_n50, init, 0.1)

    def test_records_zero_control_and_boundary_identity(self, gamma1, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        tr = g.simulate_target(gamma1, kernels_g1_n100, g.reference_initial_state(grid), 0.2)
        # the zero inflow beta(1) is the control: +0.0 at every recorded step
        assert tr.control.tobytes() == bytes(8 * len(tr.times))
        assert np.array_equal(tr.u_boundary, gamma1.q * tr.v_boundary)

    def test_beta_vanishes_after_transit_time(self, gamma1, kernels_g1_n100):
        # beta is uncoupled leftward transport with zero inflow; the domain
        # clears by t = int dx/mu ~ 0.38 for this coefficient set
        grid = g.IntervalGrid(100)
        tr = g.simulate_target(
            gamma1, kernels_g1_n100, g.reference_initial_state(grid), 0.5,
            snapshot_stride=10**9,
        )
        s = tr.snapshots[-1]
        assert np.sqrt(trapezoid_integral(s.v**2, grid.h)) <= 5 * grid.h

    def test_matches_transformed_plant_trajectory(self, gamma1, kernels_g1_n100):
        # the transformed closed-loop plant state solves the target system up
        # to discretization error
        n = 100
        grid = g.IntervalGrid(n)
        ks = kernels_g1_n100
        gains = g.gain_slice(ks)
        init = g.reference_initial_state(grid)
        tr = g.simulate(gamma1, init, g.ControllerSpec.feedback(gains), 1.0, snapshot_stride=1)
        s0 = tr.snapshots[0]
        beta0 = forward_transform(s0, ks)
        trt = g.simulate_target(gamma1, ks, g.PlantState(grid, s0.u.copy(), beta0), 1.0, snapshot_stride=1)
        assert tr.dt == pytest.approx(trt.dt, abs=1e-15)
        tol = 10 * (grid.h + tr.dt)
        for frac in (0.25, 0.5, 1.0):
            m = int(round(frac / tr.dt))
            beta_hat = forward_transform(tr.snapshots[m], ks)
            err = np.sqrt(trapezoid_integral((beta_hat - trt.snapshots[m].v) ** 2, grid.h))
            assert err <= tol


class TestTraceCsv:
    def test_format(self, gamma1, tmp_path):
        grid = g.IntervalGrid(50)
        tr = g.simulate(gamma1, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), 0.05)
        path = tmp_path / "trace.csv"
        g.trace_to_csv(tr, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,phi,u0,v0,U"
        assert len(lines) == len(tr.times) + 1
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == tr.times[0] and first[1] == tr.phi[0]
