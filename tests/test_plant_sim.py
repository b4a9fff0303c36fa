import hashlib
import tracemalloc

import numpy as np
import pytest

import gainops as g
from gainops import plant_sim
from gainops.controller import GainVector, forward_transform
from gainops.coefficients import resample
from gainops.kernel_solver import target_couplings
from gainops.numerics import row_weights, trapezoid_integral, trapezoid_weights
from gainops.plant_sim import BLOCK, CHUNK, _block_length

from conftest import control_value, make_coeffs, pushed_step_matrix, step


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
        out = step(state, gamma1, 0.0, g.cfl_dt(gamma1, grid))
        assert np.all(out.u == 0) and np.all(out.v == 0)

    def test_cfl_violation_rejected(self, gamma1):
        grid = g.IntervalGrid(50)
        state = g.PlantState(grid, np.zeros(51), np.zeros(51))
        with pytest.raises(ValueError):
            step(state, gamma1, 0.0, 10 * g.cfl_dt(gamma1, grid))

    def test_boundary_identities_after_step(self, gamma1):
        grid = g.IntervalGrid(50)
        rng = np.random.default_rng(1)
        state = g.PlantState(grid, rng.normal(size=51), rng.normal(size=51))
        out = step(state, gamma1, 0.7, g.cfl_dt(gamma1, grid))
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
        # the stop is the first crossing
        assert np.all(tr.phi[:-1] <= 1e12)

    @pytest.mark.parametrize("T", [0.3, 3.0])
    def test_records_are_the_rows_of_one_table_of_the_steps_run(self, gamma5, T):
        # a finished run's table is the reserved one; a blown-up run's a copy of the columns it wrote
        grid = g.IntervalGrid(100)
        tr = g.simulate(gamma5, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), T)
        assert tr.blew_up == (T == 3.0)
        table = tr.phi.base
        assert table.base is None and table.shape == (4, len(tr.times))
        for k, r in enumerate((tr.phi, tr.u_boundary, tr.v_boundary, tr.control)):
            assert r.base is table and np.shares_memory(r, table[k])

    @pytest.mark.parametrize("T", [1e12, 1e300])
    def test_horizon_whose_records_cannot_be_reserved_is_refused(self, gamma5, T):
        # Gamma 5, n = 100, T = 1e12: 1.66e16 steps, whose 5.3e17-byte table is
        # past even a 57-bit address space; T = 1e300: more elements than an array can index
        init = g.reference_initial_state(g.IntervalGrid(100))
        kernels = g.solve_kernels(gamma5, g.TriangularGrid(100))
        with pytest.raises(ValueError, match=r"steps needs .* bytes for its records, more than can be reserved"):
            g.simulate(gamma5, init, g.ControllerSpec.open_loop(), T)
        with pytest.raises(ValueError, match=r"steps needs .* bytes for its records, more than can be reserved"):
            g.simulate_target(gamma5, kernels, init, T)

    def test_horizon_whose_step_count_overflows_is_refused(self, gamma5):
        # Gamma 5, n = 100: T / dt overflows to inf at T = 1e308, where 1e300 is
        # refused by its record table above
        init = g.reference_initial_state(g.IntervalGrid(100))
        kernels = g.solve_kernels(gamma5, g.TriangularGrid(100))
        with pytest.raises(ValueError, match=r"^T = 1e\+308 takes more steps than can be counted$"):
            g.simulate(gamma5, init, g.ControllerSpec.open_loop(), 1e308)
        with pytest.raises(ValueError, match=r"^T = 1e\+308 takes more steps than can be counted$"):
            g.simulate_target(gamma5, kernels, init, 1e308)

    def test_blowup_is_read_off_phi_not_u0(self):
        # q = 0 pins u(0) = q v(0) to 0, while sigma drives u, and phi, past 1e12
        c = make_coeffs(m=101, sigma=lambda x: 1e3, q=0.0)
        grid = g.IntervalGrid(20)
        tr = g.simulate(c, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), 1.0)
        assert tr.blew_up and tr.times[-1] < 1.0
        assert tr.u_boundary.tobytes() == bytes(8 * len(tr.times))
        assert tr.phi[-1] > 1e12 and np.all(tr.phi[:-1] <= 1e12)

    def test_singular_feedback_closure_rejected(self, gamma1):
        # v(1) = ... + w_n g2(1) v(1) with w_n = h/2: g2(1) = 2/h leaves nothing to solve for
        grid = g.IntervalGrid(10)
        g2 = np.zeros(11)
        g2[-1] = 2 / grid.h
        ctrl = g.ControllerSpec.feedback(g.GainVector(grid, np.zeros(11), g2))
        with pytest.raises(ZeroDivisionError, match="feedback closure is singular"):
            g.simulate(gamma1, g.reference_initial_state(grid), ctrl, 1.0)

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
            assert s.v[-1] == pytest.approx(control_value(gains, s), abs=1e-13)

    @pytest.mark.parametrize("T", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_horizon_rejected(self, gamma1, kernels_g1_n100, T):
        init = g.reference_initial_state(g.IntervalGrid(100))
        with pytest.raises(ValueError, match="T"):
            g.simulate(gamma1, init, g.ControllerSpec.open_loop(), T)
        with pytest.raises(ValueError, match="T"):
            g.simulate_target(gamma1, kernels_g1_n100, init, T)

    def test_memory_holds_records_not_trajectory(self):
        # n = 50: storing every state would take 2 * 51 * 8 = 816 B per step
        c = transport_coeffs()
        grid = g.IntervalGrid(50)
        dt = g.cfl_dt(c, grid)
        peaks = {}
        for steps in (4000, 40000):
            tracemalloc.start()
            tr = g.simulate(c, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), (steps - 0.5) * dt)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(tr.times) == steps + 1
            del tr
        # five 8-byte records per step, each held once: the four rows of the
        # record table and the times; no slack (the 4000-step peak already
        # holds every per-run constant)
        assert peaks[40000] - peaks[4000] <= 5 * 8 * 36000


def reference_trace(coeffs, init, gains, T, snapshot_stride):
    """Per-step reference: ``step`` with v(1) from the closure formula.

    Without gains v(1) = 0.  The loop stops after the first state whose phi
    exceeds 1e12, as a blown-up run does.
    """
    grid = init.grid
    n, h, q = grid.n, grid.h, coeffs.q
    w = trapezoid_weights(n + 1, h)
    gr = gains.resample(grid) if gains is not None else None

    def control(u, v):
        if gr is None:
            return 0.0
        return (w @ (gr.g1 * u) + w[:-1] @ (gr.g2[:-1] * v[:-1])) / (1.0 - w[-1] * gr.g2[-1])

    def phi(s):
        return trapezoid_integral(s.u**2, h) + trapezoid_integral(s.v**2, h)

    n_steps = max(1, int(np.ceil(T / g.cfl_dt(coeffs, grid))))
    dt = T / n_steps
    u, v = init.u.copy(), init.v.copy()
    u[0] = q * v[0]
    v[-1] = control(u, v)
    states = [g.PlantState(grid, u, v, init.t)]
    phis = [phi(states[0])]
    for m in range(1, n_steps + 1):
        if phis[-1] > 1e12:
            break
        s = step(states[-1], coeffs, 0.0, dt)
        s.v[-1] = control(s.u, s.v)
        states.append(g.PlantState(grid, s.u, s.v, init.t + m * dt))
        phis.append(phi(states[-1]))
    snapshots = [s for m, s in enumerate(states) if m % snapshot_stride == 0 or m == n_steps]
    records = {
        "times": np.array([s.t for s in states]),
        "phi": np.array(phis),
        "u_boundary": np.array([s.u[0] for s in states]),
        "v_boundary": np.array([s.v[0] for s in states]),
        "control": np.array([s.v[-1] for s in states]),
    }
    return records, snapshots


def assert_matches_reference(tr, want, snaps):
    """Records and snapshots within 1e-12 of their sup; times bit-equal."""
    assert tr.times.tobytes() == want["times"].tobytes()
    for name in ("phi", "u_boundary", "v_boundary", "control"):
        ref = want[name]
        assert np.abs(getattr(tr, name) - ref).max() <= 1e-12 * np.abs(ref).max(), name
    assert np.array([s.t for s in tr.snapshots]).tobytes() == np.array([s.t for s in snaps]).tobytes()
    for got, ref in zip(tr.snapshots, snaps):
        for a, b in ((got.u, ref.u), (got.v, ref.v)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("plant", ["gamma5", "random_smooth"])
def test_chunked_run_matches_per_step_reference(plant):
    coeffs = g.gamma_family(5.0) if plant == "gamma5" else g.sample_random(g.CoefficientFamily("random_smooth"), 7)
    n = 40
    grid = g.IntervalGrid(n)
    gains = g.gain_slice(g.solve_kernels(coeffs, g.TriangularGrid(n)))
    init = g.PlantState(grid, np.ones(n + 1), np.sin(grid.points), 0.3)
    # more than two full chunks and a partial one
    T = (2 * CHUNK + 300.5) * g.cfl_dt(coeffs, grid)
    tr = g.simulate(coeffs, init, g.ControllerSpec.feedback(gains), T, snapshot_stride=7)
    want, snaps = reference_trace(coeffs, init, gains, T, 7)
    n_steps = 2 * CHUNK + 301
    assert not tr.blew_up and len(tr.times) == n_steps + 1
    # blocks hold states [j BLOCK, (j + 1) BLOCK) from j = 1 on; the last is short
    assert _block_length(n_steps, n) == BLOCK and (n_steps + 1) % BLOCK
    assert_matches_reference(tr, want, snaps)
    assert tr.u_boundary.tobytes() == (coeffs.q * tr.v_boundary).tobytes()


def test_blowup_inside_a_block_stops_at_the_per_step_reference(gamma5):
    n, T = 16, 5.0
    grid = g.IntervalGrid(n)
    init = g.reference_initial_state(grid)
    tr = g.simulate(gamma5, init, g.ControllerSpec.open_loop(), T, snapshot_stride=97)
    want, snaps = reference_trace(gamma5, init, None, T, 97)
    assert _block_length(int(np.ceil(T / g.cfl_dt(gamma5, grid))), n) == BLOCK
    stop = len(tr.times) - 1
    assert tr.blew_up and stop == len(want["times"]) - 1
    # the crossing state is neither the first nor the last of its block
    assert stop > BLOCK and stop % BLOCK not in (0, BLOCK - 1)
    assert np.all(tr.phi[:-1] <= 1e12) and tr.phi[-1] > 1e12
    assert_matches_reference(tr, want, snaps)


@pytest.mark.parametrize("stride", [7, 783, 1000])
def test_strided_snapshots_are_the_stride_one_snapshots_bitwise(stride):
    coeffs = g.sample_random(g.CoefficientFamily("random_smooth"), 7)
    n = 40
    grid = g.IntervalGrid(n)
    gains = g.gain_slice(g.solve_kernels(coeffs, g.TriangularGrid(n)))
    init = g.PlantState(grid, np.ones(n + 1), np.sin(grid.points), 0.3)
    # more than two full chunks and a partial one; the last step, 2349 =
    # 3 * 783, is on stride 783 and off strides 7 and 1000
    T = (2 * CHUNK + 300.5) * g.cfl_dt(coeffs, grid)
    ctrl = g.ControllerSpec.feedback(gains)
    every = g.simulate(coeffs, init, ctrl, T, snapshot_stride=1)
    n_steps = 2 * CHUNK + 301
    assert not every.blew_up and len(every.snapshots) == len(every.times) == n_steps + 1
    assert np.array([s.t for s in every.snapshots]).tobytes() == every.times.tobytes()
    tr = g.simulate(coeffs, init, ctrl, T, snapshot_stride=stride)
    steps = [m for m in range(n_steps + 1) if m % stride == 0 or m == n_steps]
    assert [s.t for s in tr.snapshots] == [every.times[m] for m in steps]
    for got, m in zip(tr.snapshots, steps):
        ref = every.snapshots[m]
        assert got.u.tobytes() == ref.u.tobytes() and got.v.tobytes() == ref.v.tobytes()
        assert np.float64(got.t).tobytes() == np.float64(ref.t).tobytes()


def test_stride_one_snapshots_stop_at_the_blowup(gamma5):
    n, T = 16, 5.0
    grid = g.IntervalGrid(n)
    tr = g.simulate(gamma5, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), T, snapshot_stride=1)
    assert tr.blew_up and tr.phi[-1] > 1e12 and np.all(tr.phi[:-1] <= 1e12)
    # one snapshot per recorded step, the blow-up step last
    assert np.array([s.t for s in tr.snapshots]).tobytes() == tr.times.tobytes()
    assert np.array([s.u[0] for s in tr.snapshots]).tobytes() == tr.u_boundary.tobytes()
    assert np.array([s.v[0] for s in tr.snapshots]).tobytes() == tr.v_boundary.tobytes()
    assert np.array([s.v[-1] for s in tr.snapshots]).tobytes() == tr.control.tobytes()


@pytest.mark.parametrize("n", [2, 100, 400])
def test_runs_block_from_8n_steps_on(n):
    assert (_block_length(8 * n - 1, n), _block_length(8 * n, n)) == (1, BLOCK)


def test_overflowing_block_matrix_stops_as_a_blowup():
    # one step multiplies u by about 1 + dt sigma = 4.5e5, so S^BLOCK overflows
    c = make_coeffs(m=101, sigma=lambda x: 1e7)
    n = 20
    grid = g.IntervalGrid(n)
    T = 400 * g.cfl_dt(c, grid)
    init = g.reference_initial_state(grid)
    tr = g.simulate(c, init, g.ControllerSpec.open_loop(), T)
    want, _ = reference_trace(c, init, None, T, 1)
    assert _block_length(400, n) == BLOCK
    assert tr.blew_up and tr.times.tobytes() == want["times"].tobytes()
    assert np.abs(tr.phi - want["phi"]).max() <= 1e-12 * want["phi"].max()


def test_short_run_iterates_the_step_matrix_bitwise(gamma1, kernels_g1_n100):
    # certify's target run: 100 steps at n = 100, below the block threshold
    n = 100
    grid = g.IntervalGrid(n)
    T = 99.5 * g.cfl_dt(gamma1, grid)
    tr = g.simulate_target(gamma1, kernels_g1_n100, g.reference_initial_state(grid), T, snapshot_stride=1)
    assert len(tr.times) == 101 and _block_length(100, n) == 1

    def free(s):
        return np.concatenate((s.u[1:], s.v[:-1]))

    def one_step(y):
        state = g.PlantState(grid, np.r_[0.0, y[:n]], np.r_[y[n:], 0.0])
        return free(g.simulate_target(gamma1, kernels_g1_n100, state, tr.dt, snapshot_stride=1).snapshots[-1])

    # row k of S is one step of the k-th free unknown alone
    S = np.array([one_step(e) for e in np.eye(2 * n)])
    ys = [free(tr.snapshots[0])]
    for _ in range(100):
        ys.append(np.dot(ys[-1], S))
    got = hashlib.sha256(b"".join(free(s).tobytes() for s in tr.snapshots)).hexdigest()
    assert got == hashlib.sha256(b"".join(y.tobytes() for y in ys)).hexdigest()


def separate_target_stencil(coeffs, kernels, grid):
    """Reference: the target system's upwind step written out on its own.

    beta is pure leftward transport; the u equation has its local terms and
    the c/kappa integral rows, with u(0) left to the trace loop.
    """
    n, h = grid.n, grid.h
    cf = resample(coeffs, n)
    lam, mu, sig, omg = cf["lam"], cf["mu"], cf["sigma"], cf["omega"]
    wtri = row_weights(n, h)
    c_wt = (omg[:, None] * kernels.l1.as_matrix() * wtri).T
    kap_wt = (omg[:, None] * kernels.l2.as_matrix() * wtri).T

    def advance(u, beta, dt, *_):
        integral = u @ c_wt + beta @ kap_wt
        un = u.copy()
        un[..., 1:] = (
            u[..., 1:]
            - dt * lam[1:] * (u[..., 1:] - u[..., :-1]) / h
            + dt * (sig[1:] * u[..., 1:] + omg[1:] * beta[..., 1:] + integral[..., 1:])
        )
        bn = beta.copy()
        bn[..., :-1] = beta[..., :-1] + dt * mu[:-1] * (beta[..., 1:] - beta[..., :-1]) / h
        return un, bn

    return advance


def step_of_next_run(monkeypatch):
    """Make the next ``simulate`` or ``simulate_target`` call return its (S, a, dt, n_steps) instead of running it."""
    monkeypatch.setattr(plant_sim, "_trace", lambda init, q, S, a, dt, n_steps, snapshot_stride: (S, a, dt, n_steps))


@pytest.mark.parametrize("steps, block", [(100, 1), (1000, BLOCK)])
def test_target_run_is_the_separate_target_stencil_bitwise(monkeypatch, gamma1, kernels_g1_n100, steps, block):
    n = 100
    grid = g.IntervalGrid(n)
    init = g.reference_initial_state(grid)
    T = (steps - 0.5) * g.cfl_dt(gamma1, grid)
    run = plant_sim._trace
    got = g.simulate_target(gamma1, kernels_g1_n100, init, T, snapshot_stride=9)
    step_of_next_run(monkeypatch)
    S, a, dt, n_steps = g.simulate_target(gamma1, kernels_g1_n100, init, T)
    advance = separate_target_stencil(gamma1, kernels_g1_n100, grid)
    want_step = pushed_step_matrix(gamma1, grid, T, resample(gamma1, n), advance=advance)
    assert S.tobytes() == want_step[0].tobytes() and a is None is want_step[1]
    assert (dt, n_steps) == want_step[2:]
    want = run(init, gamma1.q, *want_step, 9)
    assert len(got.times) == steps + 1 and _block_length(steps, n) == block
    for name in ("times", "phi", "u_boundary", "v_boundary", "control"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert (a.u.tobytes(), a.v.tobytes(), a.t) == (b.u.tobytes(), b.v.tobytes(), b.t)


STENCIL_PLANTS = {
    "gamma1": lambda: g.gamma_family(1.0),
    "gamma5": lambda: g.gamma_family(5.0),
    "random_smooth_7": lambda: g.sample_random(g.CoefficientFamily("random_smooth"), 7),
    "random_smooth_8": lambda: g.sample_random(g.CoefficientFamily("random_smooth"), 8),
    # u(0) = q v(0) and sigma * u carry negative zeros
    "negative_q_signed_sigma": lambda: make_coeffs(q=-0.7, sigma=lambda x: -0.0),
}


@pytest.mark.parametrize("n", [2, 3, 40, 100])
@pytest.mark.parametrize("plant", STENCIL_PLANTS)
def test_step_matrix_is_the_identity_pushed_through_the_stencil_bitwise(monkeypatch, plant, n):
    # every run's S and closure row a, signed zeros included, against the
    # step applied to the identity with the feedback and the target source
    # as the callbacks that the simulators once passed
    coeffs = STENCIL_PLANTS[plant]()
    grid = g.IntervalGrid(n)
    kernels = g.solve_kernels(coeffs, g.TriangularGrid(n))
    gains = g.gain_slice(kernels)
    # zero gains: 0 * g1 holds negative zeros wherever g1 < 0
    zero = GainVector(grid, 0.0 * gains.g1, 0.0 * gains.g2)
    w = trapezoid_weights(n + 1, grid.h)

    def actuate(gv):
        g1, g2 = gv.g1, gv.g2
        closure = 1.0 - w[-1] * g2[-1]
        return lambda u, v: ((g1 * u) @ w + (g2[:-1] * v[..., :-1]) @ w[:-1]) / closure

    cf = resample(coeffs, n)
    wtri = row_weights(n, grid.h)
    c_wt, kap_wt = ((f * wtri).T for f in target_couplings(cf["omega"], kernels))

    def source(u, beta):
        return (u @ c_wt + beta @ kap_wt)[..., 1:]

    T = 0.37
    init = g.reference_initial_state(grid)
    step_of_next_run(monkeypatch)
    runs = {
        "open": (g.simulate(coeffs, init, g.ControllerSpec.open_loop(), T), pushed_step_matrix(coeffs, grid, T, cf)),
        "feedback": (
            g.simulate(coeffs, init, g.ControllerSpec.feedback(gains), T),
            pushed_step_matrix(coeffs, grid, T, cf, actuate(gains)),
        ),
        "zero_gains": (
            g.simulate(coeffs, init, g.ControllerSpec.feedback(zero), T),
            pushed_step_matrix(coeffs, grid, T, cf, actuate(zero)),
        ),
        "target": (
            g.simulate_target(coeffs, kernels, init, T),
            pushed_step_matrix(coeffs, grid, T, {**cf, "theta": np.zeros(n + 1)}, source=source),
        ),
    }
    for name, ((S, a, dt, n_steps), (S_ref, a_ref, dt_ref, n_ref)) in runs.items():
        assert S.tobytes() == S_ref.tobytes(), name
        assert (a is None and a_ref is None) or a.tobytes() == a_ref.tobytes(), name
        assert (dt, n_steps) == (dt_ref, n_ref), name
    assert runs["zero_gains"][0][1].tobytes() == np.zeros(2 * n).tobytes()


@pytest.mark.parametrize(
    "gamma, exact, rel",
    [(1.0, True, 0.02), (5.0, True, 0.005), (1.0, False, None), (5.0, False, None)],
    ids=["gamma1_exact", "gamma5_exact", "gamma1_open", "gamma5_open"],
)
def test_spectral_rate_of_the_step_matrix_matches_the_fitted_decay(monkeypatch, gamma, exact, rel):
    # -2 ln rho(S) / dt is the decay rate of phi that S itself implies, read
    # with no run.  It holds at n = 100 only: the closed-loop rate of this
    # scheme depends on the grid (Gamma 1 gives 10.6 / 12.0 / 13.4 at
    # n = 50 / 100 / 200), so the test fixes n.  The S read here is the one
    # that ``simulate`` runs, taken from its ``_trace`` call.
    n = 100
    coeffs = g.gamma_family(gamma)
    grid = g.IntervalGrid(n)
    seen = []

    def trace(init, q, S, a, dt, n_steps, snapshot_stride):
        seen.append((S, dt))
        return run(init, q, S, a, dt, n_steps, snapshot_stride)

    run = plant_sim._trace
    monkeypatch.setattr(plant_sim, "_trace", trace)
    if exact:
        ctrl = g.ControllerSpec.feedback(g.gain_slice(g.solve_kernels(coeffs, g.TriangularGrid(n))))
    else:
        ctrl = g.ControllerSpec.open_loop()
    tr = g.simulate(coeffs, g.reference_initial_state(grid), ctrl, 10.0)
    [(S, dt)] = seen
    assert dt == tr.dt
    rate = -2 * np.log(np.abs(np.linalg.eigvals(S)).max()) / dt
    if exact:
        # Gamma 1: 12.03 against 11.90; Gamma 5: 17.98 against 17.97
        assert rate == pytest.approx(g.fit_decay(tr, t_start=2.0).c1_hat, rel=rel)
    else:
        # the open loop grows: -5.16 at Gamma 1, -19.71 at Gamma 5
        assert rate < 0 and tr.blew_up


class TestStateAndController:
    @pytest.mark.parametrize("u_size, v_size", [(11, 12), (12, 11), (10, 10)])
    def test_state_off_its_grid_rejected(self, u_size, v_size):
        with pytest.raises(ValueError, match="state arrays must match the grid"):
            g.PlantState(g.IntervalGrid(10), np.zeros(u_size), np.zeros(v_size))

    def test_unknown_controller_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown controller kind 'closed'"):
            g.ControllerSpec("closed")

    def test_feedback_without_gains_rejected(self):
        with pytest.raises(ValueError, match="feedback controller needs gains"):
            g.ControllerSpec("feedback")


class TestSimulateTarget:
    def test_kernels_on_another_grid_rejected(self, gamma1, kernels_g1_n100):
        init = g.reference_initial_state(g.IntervalGrid(50))
        with pytest.raises(ValueError, match="kernel grid must match the simulation grid"):
            g.simulate_target(gamma1, kernels_g1_n100, init, 0.5)

    def test_zero_init_zero_trace(self, gamma1, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        init = g.PlantState(grid, np.zeros(101), np.zeros(101))
        tr = g.simulate_target(gamma1, kernels_g1_n100, init, 0.5)
        assert np.all(tr.phi == 0)

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

