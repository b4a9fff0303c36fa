"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The slow fixtures (1000-sample dataset, trained surrogate) are
session-scoped and shared between criteria.
"""

import time

import numpy as np
import pytest

import gainops as g
from gainops import neural_op as nn
from gainops.analysis import (
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
from gainops.coefficients import CoefficientFamily
from gainops.controller import forward_transform, inverse_transform
from gainops.data_store import Dataset, generate, read, write
from gainops.kernel_solver import (
    KernelField,
    KernelSet,
    check_boundary_conditions,
    gain_slice,
    solve_inverse_kernels,
    solve_kappa_c,
    solve_kernels,
)
from gainops.numerics import TriangularGrid, trapezoid_integral

from conftest import make_coeffs, random_smooth_state
from picard_oracle import picard_kernels

# open-loop doubling time of the gamma=5 plant, measured once on an n=400
# reference run (0.0469) and frozen with rounding headroom
T_STAR_GAMMA5 = 0.05

DATASET_SEED = 42
TRAIN_SEED = 0


def report(name, **values):
    pretty = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}" for k, v in values.items())
    print(f"PASS {name}: {pretty}")


@pytest.fixture(scope="session")
def dataset_1000(tmp_path_factory):
    fam = CoefficientFamily("gamma", (0.5, 5.0))
    ds = generate(fam, 1000, m_coeff=101, n_grid=50, seed=DATASET_SEED)
    path = tmp_path_factory.mktemp("acc") / "ds1000.bin"
    write(ds, path)
    return ds, path


@pytest.fixture(scope="session")
def trained_model(dataset_1000):
    ds, _ = dataset_1000
    model, history = nn.train(ds, nn.TrainConfig(seed=TRAIN_SEED))
    return model, history


@pytest.fixture(scope="session")
def closed_loop_g1(gamma1, kernels_g1_n100):
    gains = gain_slice(kernels_g1_n100)
    grid = g.IntervalGrid(100)
    return g.simulate(
        gamma1, g.reference_initial_state(grid), g.ControllerSpec.feedback(gains), 10.0
    )


def test_c01_trivial_kernel_exactness(gamma1):
    t0 = time.time()
    coeffs = g.CoefficientSet(
        grid=gamma1.grid, lam=gamma1.lam, dlam=gamma1.dlam, mu=gamma1.mu,
        dmu=gamma1.dmu, sigma=gamma1.sigma, omega=gamma1.omega,
        theta=np.zeros_like(gamma1.theta), q=gamma1.q,
    )
    ks = solve_kernels(coeffs, TriangularGrid(100))
    sup = max(ks.k1.sup(), ks.k2.sup())
    assert sup <= 1e-12
    assert time.time() - t0 < 1.0
    report("criterion 1 (trivial kernels)", sup=sup)


@pytest.mark.parametrize("gamma", [1.0, 5.0])
@pytest.mark.parametrize("n", [50, 100])
def test_c02_boundary_condition_identities(gamma, n):
    coeffs = g.gamma_family(gamma)
    ks = solve_kernels(coeffs, TriangularGrid(n))
    diag, bottom = check_boundary_conditions(coeffs, ks)
    assert diag <= 1e-12
    assert bottom <= 1e-12
    report(f"criterion 2 (boundary identities, gamma={gamma}, n={n})", diag=diag, bottom=bottom)


def test_c03_solver_convergence(gamma1):
    sols = {n: solve_kernels(gamma1, TriangularGrid(n)) for n in (50, 100, 200, 400)}
    for field in ("k1", "k2"):
        diffs = []
        for n in (50, 100, 200):
            coarse = getattr(sols[n], field).as_matrix()
            fine = getattr(sols[2 * n], field).as_matrix()[::2, ::2]
            diffs.append(np.abs(coarse - fine).max())
        r1, r2 = diffs[0] / diffs[1], diffs[1] / diffs[2]
        assert 1.6 <= r1 <= 2.4, f"{field}: ratio {r1}"
        assert 1.6 <= r2 <= 2.4, f"{field}: ratio {r2}"
    reps = {
        n: residual_operators(gamma1, sols[n].k1, sols[n].k2) for n in (100, 200)
    }
    assert reps[200].sup_pde1 <= 0.7 * reps[100].sup_pde1
    assert reps[200].sup_pde2 <= 0.7 * reps[100].sup_pde2
    report(
        "criterion 3 (first-order convergence)",
        ratio_k1=r1, ratio_k2=r2,
        pde1_decay=reps[200].sup_pde1 / reps[100].sup_pde1,
        pde2_decay=reps[200].sup_pde2 / reps[100].sup_pde2,
    )


def test_c04_picard_oracle_agreement(gamma1, kernels_g1_n100):
    t0 = time.time()
    ok1, ok2, iters = picard_kernels(gamma1, 100)
    d1 = np.abs(kernels_g1_n100.k1.as_matrix() - ok1).max()
    d2 = np.abs(kernels_g1_n100.k2.as_matrix() - ok2).max()
    tol = 5.0 / 100
    assert d1 <= tol and d2 <= tol
    assert time.time() - t0 < 120
    report("criterion 4 (oracle agreement)", sup_k1=d1, sup_k2=d2, tol=tol, iters=iters)


def test_c05_transform_consistency(gamma1, kernels_g1_n100, closed_loop_g1):
    grid = g.IntervalGrid(100)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        state = random_smooth_state(grid, rng)
        beta = forward_transform(state, kernels_g1_n100)
        v = inverse_transform(state.u, beta, kernels_g1_n100)
        worst = max(worst, np.sqrt(trapezoid_integral((v - state.v) ** 2, grid.h)))
    assert worst <= 10 * grid.h
    gains = gain_slice(kernels_g1_n100)
    tr = g.simulate(
        gamma1, g.reference_initial_state(grid), g.ControllerSpec.feedback(gains), 1.0,
        snapshot_stride=25,
    )
    top = max(abs(forward_transform(s, kernels_g1_n100)[-1]) for s in tr.snapshots)
    assert top <= 1e-12
    report("criterion 5 (transform consistency)", composition=worst, beta_top=top)


def test_c06_open_loop_instability(gamma5):
    grid = g.IntervalGrid(400)
    tr = g.simulate(gamma5, g.reference_initial_state(grid), g.ControllerSpec.open_loop(), 1.0)
    doubled = tr.times[tr.phi >= 2 * tr.phi[0]]
    assert doubled.size > 0, "phi never doubled"
    assert doubled[0] < T_STAR_GAMMA5
    report("criterion 6 (open-loop instability)", t_double=float(doubled[0]), t_star=T_STAR_GAMMA5)


@pytest.mark.parametrize("gamma", [1.0, 5.0])
def test_c07_exact_gain_stabilization(gamma):
    coeffs = g.gamma_family(gamma)
    grid = g.IntervalGrid(100)
    ks = solve_kernels(coeffs, TriangularGrid(100))
    tr = g.simulate(
        coeffs, g.reference_initial_state(grid), g.ControllerSpec.feedback(gain_slice(ks)), 10.0
    )
    rep = fit_decay(tr, t_start=2.0)
    ratio = tr.phi[-1] / tr.phi[0]
    assert rep.c1_hat > 0
    assert rep.fit_quality >= 0.9
    assert ratio <= 1e-3
    report(
        f"criterion 7 (exact-gain stabilization, gamma={gamma})",
        c1_hat=rep.c1_hat, fit_quality=rep.fit_quality, phi_ratio=ratio,
    )


def test_c08_lyapunov_certificate(gamma1, kernels_g1_n100):
    # the closed loop in its transformed coordinates: initial beta from the
    # forward transform, then the induced target dynamics (the pointwise
    # transform of the plant trajectory carries an O(h) representation
    # residue that the e^(p2 x) weight amplifies beyond any feasible grid)
    grid = g.IntervalGrid(100)
    ks = kernels_g1_n100
    p1 = default_p1(gamma1)
    p2 = 1.1 * p2_lower_bound(gamma1, ks, p1)
    init = g.reference_initial_state(grid)
    init.u[0] = gamma1.q * init.v[0]
    beta0 = forward_transform(init, ks)
    tr = g.simulate_target(
        gamma1, ks, g.PlantState(grid, init.u.copy(), beta0), 10.0, snapshot_stride=1
    )
    vals = np.array([lyapunov_v1(s.u, s.v, gamma1, p1, p2) for s in tr.snapshots])
    increases = int(np.sum(vals[2:] > vals[1:-1] * (1 + 1e-12)))
    rep = fit_decay(tr, t_start=0.05)
    rep.lyapunov_monotone = increases == 0
    assert rep.lyapunov_monotone
    report(
        "criterion 8 (Lyapunov certificate)",
        p1=p1, p2=p2, steps=int(vals.size), increases=increases, c1_hat=rep.c1_hat,
    )


def test_c09_gradient_check():
    config = nn.TrainConfig(m_enc=3, p=4, branch_hidden=(8,), trunk_hidden=(8,), seed=5)
    model = nn.init_model(config)
    rng = np.random.default_rng(7)
    model.feat_mean = rng.normal(size=16)
    model.feat_scale = np.abs(rng.normal(size=16)) + 0.5
    feats = rng.normal(size=(3, 16))
    pts = rng.uniform(0, 1, size=(6, 2))
    y1 = rng.normal(size=(3, 6))
    y2 = rng.normal(size=(3, 6))
    _, grad = nn.loss_and_gradients(model, feats, y1, y2, pts)
    flat = nn.get_flat_params(model)
    fd = np.zeros_like(flat)
    eps = 1e-6
    for k in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[k] += eps
        dn[k] -= eps
        nn.set_flat_params(model, up)
        lu, _ = nn.loss_and_gradients(model, feats, y1, y2, pts)
        nn.set_flat_params(model, dn)
        ld, _ = nn.loss_and_gradients(model, feats, y1, y2, pts)
        fd[k] = (lu - ld) / (2 * eps)
    rel = np.abs(grad - fd) / np.maximum(1e-8, np.maximum(np.abs(grad), np.abs(fd)))
    assert rel.max() <= 1e-4
    report("criterion 9 (gradient check)", n_params=flat.size, max_rel=float(rel.max()))


@pytest.mark.slow
def test_c10_training_acceptance(dataset_1000, trained_model):
    ds, _ = dataset_1000
    model, history = trained_model
    k1_err = history.test_rel_l2_k1[-1]
    k2_err = history.test_rel_l2_k2[-1]
    assert k1_err <= 1e-2
    assert k2_err <= 1e-2
    one = Dataset(ds.m_coeff, ds.n_grid, [ds.samples[0]])
    over, _ = nn.train(one, nn.TrainConfig(epochs=5000, seed=TRAIN_SEED))
    res = nn.evaluate(over, one)
    assert res.rel_l2_k1 <= 1e-3
    assert res.rel_l2_k2 <= 1e-3
    report(
        "criterion 10 (training acceptance)",
        test_k1=float(k1_err), test_k2=float(k2_err),
        overfit_k1=res.rel_l2_k1, overfit_k2=res.rel_l2_k2,
    )


@pytest.mark.slow
def test_c11_neural_gain_stabilization(gamma1, kernels_g1_n100, trained_model, closed_loop_g1):
    model, _ = trained_model
    grid = g.IntervalGrid(100)
    gains = nn.infer_gains(model, gamma1, grid)
    tr = g.simulate(gamma1, g.reference_initial_state(grid), g.ControllerSpec.feedback(gains), 10.0)
    rep = fit_decay(tr, t_start=2.0)
    ratio = tr.phi[-1] / tr.phi[0]
    deviation = float(np.abs(tr.phi - closed_loop_g1.phi).max() / closed_loop_g1.phi[0])
    assert rep.c1_hat > 0
    assert ratio <= 1e-2
    assert deviation <= 0.05
    # accuracy estimate of the surrogate on the training grid, reported alongside
    grid50 = TriangularGrid(50)
    exact50 = solve_kernels(gamma1, grid50)
    feats = nn.encode_input(gamma1, model.m_enc)
    p1, p2 = nn.predict_fields(model, feats, grid50)
    eps = epsilon_estimate(gamma1, exact50, KernelSet(k1=KernelField(grid50, p1), k2=KernelField(grid50, p2)))
    # the gain rows are grid nodes, so their deviation is bounded by the estimate
    gains50 = nn.infer_gains(model, gamma1, g.IntervalGrid(50))
    exact_gains50 = gain_slice(exact50)
    gain_dev = max(
        np.abs(gains50.g1 - exact_gains50.g1).max(),
        np.abs(gains50.g2 - exact_gains50.g2).max(),
    )
    assert gain_dev <= eps.epsilon
    report(
        "criterion 11 (neural-gain stabilization)",
        c1_hat=rep.c1_hat, phi_ratio=ratio, phi_deviation=deviation, epsilon=eps.epsilon,
    )


@pytest.mark.slow
def test_c12_speedup(gamma1, trained_model):
    model, _ = trained_model
    tgrid = TriangularGrid(100)
    igrid = g.IntervalGrid(100)

    def median_time(fn, repeats=20):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_solve = median_time(lambda: solve_kernels(gamma1, tgrid))
    t_gains = median_time(lambda: nn.infer_gains(model, gamma1, igrid))
    assert t_gains <= t_solve / 10
    report(
        "criterion 12 (speedup)",
        solve_ms=t_solve * 1e3, infer_ms=t_gains * 1e3, ratio=t_solve / t_gains,
    )


@pytest.mark.slow
def test_c13_persistence(dataset_1000, trained_model, tmp_path):
    ds, path = dataset_1000
    back = read(path)
    for a, b in zip(ds.samples[:20], back.samples[:20]):
        assert np.array_equal(a.k1, b.k1) and np.array_equal(a.lam, b.lam)
    model, _ = trained_model
    mpath = tmp_path / "model.bin"
    nn.save_model(model, mpath)
    mback = nn.load_model(mpath)
    for a, b in zip(model.parameters(), mback.parameters()):
        assert np.array_equal(a, b)
    data = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"
    data[:4] = b"WHAT"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        read(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[: 20 + 3 * 8])
    with pytest.raises(ValueError):
        read(trunc)
    mbad = tmp_path / "mbad.bin"
    mbad.write_bytes(mpath.read_bytes()[:100])
    with pytest.raises(ValueError):
        nn.load_model(mbad)
    report("criterion 13 (persistence)", dataset_bytes=path.stat().st_size, model_bytes=mpath.stat().st_size)


def test_c14_empirical_norm_equivalence(kernels_g1_n100):
    grid = g.IntervalGrid(100)
    s1, s2 = norm_equivalence_constants(kernels_g1_n100)
    rng = np.random.default_rng(777)
    margin1 = margin2 = np.inf
    for _ in range(100):
        state = random_smooth_state(grid, rng)
        p = phi(state)
        q = psi1(state, kernels_g1_n100)
        assert q <= s1 * p + 1e-12
        assert p <= s2 * q + 1e-12
        if p > 0 and q > 0:
            margin1 = min(margin1, s1 * p / q)
            margin2 = min(margin2, s2 * q / p)
    report(
        "criterion 14 (norm equivalence)",
        S1=s1, S2=s2, tightest_forward=float(margin1), tightest_inverse=float(margin2),
    )
