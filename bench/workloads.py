"""The four workloads: set-up, one round of timed work, and output checks.

A workload's ``setup(seed, workdir, clock)`` builds every input it needs in
timed blocks and returns a state whose ``digest`` must repeat when set-up is
repeated.  ``round(state, r,
clock, rec)`` runs round ``r``: whole rounds of the same operations, so the
share of failed operations is the same in every run.  Every check compares a
program output with a computation made here, apart from the program, or with
a property the method must have; none compares with a frozen earlier output.

Seeds: ``base(seed, tag)`` keeps the low 32 bits free.  ``data_store.generate``
derives sample i from splitmix64(seed XOR i), so two dataset seeds that differ
only in low bits draw the same plants; every dataset and chunk seed here
differs from every other in bits at or above 16, and no dataset has more than
2^16 samples, so no two of them share a plant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gainops as g
from gainops import neural_op as nn
from gainops.analysis import default_p1

from measure import check

HERE = Path(__file__).resolve().parent
ORACLE_FILE = HERE / "oracle_n50.npz"

N_GRID = 50  # training grid of the kernel datasets
M_COEFF = 101
N_SIM = 100  # grid of gains, certification and simulation
FAMILIES = ("gamma", "random_smooth")


def base(seed: int, tag: int) -> int:
    """Dataset seed for one input of one run: (seed, tag) in the high bits."""
    return ((seed & 0xFFFFFF) << 32) | (tag << 16)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def generate_in_blocks(clock, kind: str, n: int, seed: int, block: int = 10):
    """A dataset of n samples generated as timed blocks of ``block`` samples.

    Short blocks keep the yardstick close to the work it scales.  Block k
    uses seed + (k << 8), so blocks share no plant.
    """
    family = g.CoefficientFamily(kind)
    samples = []
    for k in range(0, n, block):
        ds, _, _ = clock.time(g.generate, family, min(block, n - k), M_COEFF, N_GRID, seed + (k // block << 8))
        samples += ds.samples
    return g.Dataset(M_COEFF, N_GRID, samples)


def _dataset_arrays(ds):
    for r in ds.samples:
        yield from (np.array([r.q]), r.lam, r.mu, r.sigma, r.omega, r.theta, r.k1, r.k2)


# ---------------------------------------------------------------- independent computations


def tri_weights(n: int) -> np.ndarray:
    """Double trapezoid weights over the triangle, in canonical flat order."""
    h = 1.0 / n
    rows = []
    for i in range(n + 1):
        outer = h * (0.5 if i in (0, n) else 1.0)
        inner = np.full(i + 1, h)
        inner[0] = inner[-1] = 0.5 * h
        rows.append(outer * inner if i > 0 else np.zeros(1))
    return np.concatenate(rows)


def rel_l2(pred, truth, w) -> float:
    return float(np.sqrt(w @ (pred - truth) ** 2) / np.sqrt(w @ truth**2))


def l2(values, h: float) -> float:
    """Trapezoid L2 norm of nodal values on a uniform [0, 1] grid."""
    sq = values * values
    return float(np.sqrt(h * (sq.sum() - 0.5 * (sq[0] + sq[-1]))))


def model_outputs(model, coeffs, points: np.ndarray) -> np.ndarray:
    """The DeepONet evaluated from its weights: branch and trunk tanh MLPs."""
    xq = np.linspace(0.0, 1.0, model.m_enc)
    xc = np.linspace(0.0, 1.0, coeffs.lam.size)
    feats = [np.interp(xq, xc, a) for a in (coeffs.lam, coeffs.mu, coeffs.sigma, coeffs.omega, coeffs.theta)]
    z = (np.concatenate([*feats, [coeffs.q]]) - model.feat_mean) / model.feat_scale

    def mlp(ws, bs, a):
        for k, (w, b) in enumerate(zip(ws, bs)):
            a = a @ w + b
            if k < len(ws) - 1:
                a = np.tanh(a)
        return a

    branch = mlp(model.branch_w, model.branch_b, z)
    trunk = mlp(model.trunk_w, model.trunk_b, 2.0 * points - 1.0)
    p = model.p
    return np.column_stack([trunk @ branch[:p] + model.b1, trunk @ branch[p:] + model.b2])


def check_gains(model, coeffs, gains) -> None:
    xi = gains.grid.points
    ref = model_outputs(model, coeffs, np.column_stack([np.ones_like(xi), xi]))
    scale = max(1.0, float(np.abs(ref).max()))
    err = max(np.abs(gains.g1 - ref[:, 0]).max(), np.abs(gains.g2 - ref[:, 1]).max())
    check(err <= 1e-12 * scale, f"learned gains differ from the weights' own evaluation by {err:.3g}")


def check_identities(ds) -> None:
    """Both boundary identities on every record, from the stored arrays alone."""
    n, stride = ds.n_grid, (ds.m_coeff - 1) // ds.n_grid
    i = np.arange(n + 1)
    diag, bottom = i * (i + 1) // 2 + i, i * (i + 1) // 2
    for k, r in enumerate(ds.samples):
        lam, mu, theta = r.lam[::stride], r.mu[::stride], r.theta[::stride]
        d = np.abs(r.k1[diag] + theta / (lam + mu)).max()
        b = np.abs(mu[0] * r.k2[bottom] - r.q * lam[0] * r.k1[bottom]).max()
        check(d <= 1e-12 and b <= 1e-12, f"record {k} breaks a boundary identity ({d:.3g}, {b:.3g})")


def same_records(a, b) -> bool:
    fields = ("lam", "mu", "sigma", "omega", "theta", "k1", "k2")
    return len(a.samples) == len(b.samples) and all(
        ra.q == rb.q and all(getattr(ra, f).tobytes() == getattr(rb, f).tobytes() for f in fields)
        for ra, rb in zip(a.samples, b.samples)
    )


def smooth_states(coeffs, rng, count: int):
    """Seeded band-limited states with u(0) = q v(0)."""
    grid = g.IntervalGrid(N_SIM)
    x = grid.points
    out = []
    for _ in range(count):
        u = sum(rng.normal() * np.cos(k * np.pi * x + rng.uniform(0, 6.3)) / (k + 1) for k in range(4))
        v = sum(rng.normal() * np.cos(k * np.pi * x + rng.uniform(0, 6.3)) / (k + 1) for k in range(4))
        u[0] = coeffs.q * v[0]
        out.append(g.PlantState(grid, u, v))
    return out


# ---------------------------------------------------------------- datagen

CHUNKS = 4  # per family and round
CHUNK = 8  # samples per chunk


@dataclass
class DatagenState:
    seed: int
    workdir: Path
    digest: str = ""


def datagen_setup(seed: int, workdir: Path, clock) -> DatagenState:
    return DatagenState(seed, workdir)


def _generate_write_read(family, seed, path):
    ds = g.generate(family, CHUNK, m_coeff=M_COEFF, n_grid=N_GRID, seed=seed)
    g.write(ds, path)
    return ds, g.read(path)


def _generate_write(family, seed, path):
    g.write(g.generate(family, CHUNK, m_coeff=M_COEFF, n_grid=N_GRID, seed=seed), path)


def _resolve_record(record):
    ks = g.solve_kernels(record.coefficient_set(), g.TriangularGrid(N_GRID))
    return ks, g.gain_slice(ks)


def datagen_round(st: DatagenState, r: int, clock, rec) -> None:
    for f, kind in enumerate(FAMILIES):
        family = g.CoefficientFamily(kind)
        for k in range(CHUNKS):
            seed = base(st.seed, (r << 4) | (f << 3) | k)
            path = st.workdir / f"{kind}-{k}.hkds"
            (ds, back), raw, fac = clock.time(_generate_write_read, family, seed, path)
            rec.ops(3)
            rec.work(CHUNK, raw, raw * fac)
            check(same_records(ds, back), f"{kind} chunk {k}: read-back differs from what was written")
            check_identities(back)
            if k == 0:
                again = st.workdir / f"{kind}-{k}-again.hkds"
                _, raw, fac = clock.time(_generate_write, family, seed, again)
                rec.ops(2)
                rec.work(CHUNK, raw, raw * fac)
                check(path.read_bytes() == again.read_bytes(), f"{kind}: regenerating a chunk changed its bytes")
            # re-solve a stored record; fails today because HKDS v1 does not
            # store dlam/dmu and coefficient_set rebuilds them with np.gradient
            stored = back.samples[0]
            (ks, _), raw, fac = clock.time(_resolve_record, stored)
            rec.gain(raw, fac)
            same = ks.k1.values.tobytes() == stored.k1.tobytes() and ks.k2.values.tobytes() == stored.k2.tobytes()
            rec.ops(1, failed=0 if same else 1)
            if not same:
                gap = max(
                    np.abs(ks.k1.values - stored.k1).max() / np.abs(stored.k1).max(),
                    np.abs(ks.k2.values - stored.k2).max() / np.abs(stored.k2).max(),
                )
                worst = rec.notes.setdefault("resolve_rel_gap", {})
                worst[kind] = max(worst.get(kind, 0.0), float(gap))


# ---------------------------------------------------------------- train

TRAIN_SAMPLES = 100
HELDOUT_SAMPLES = 32
TRAIN_EPOCHS = 10
HELDOUT_BOUND = 0.03  # held-out relative L2 error per kernel
BASELINE_SHARE = 0.1  # of the training-mean predictor's error
GAIN_PLANTS = 40


@dataclass
class TrainState:
    seed: int
    data: object
    heldout: object
    weights: np.ndarray
    mean_error: tuple[float, float]
    plants: list
    digest: str = ""


def _mean_predictor_error(data, heldout, w):
    """Held-out error of predicting the training-mean kernel for every plant."""
    m1 = np.mean([r.k1 for r in data.samples], axis=0)
    m2 = np.mean([r.k2 for r in data.samples], axis=0)
    return (
        float(np.mean([rel_l2(m1, r.k1, w) for r in heldout.samples])),
        float(np.mean([rel_l2(m2, r.k2, w) for r in heldout.samples])),
    )


def train_setup(seed: int, workdir: Path, clock) -> TrainState:
    data = generate_in_blocks(clock, "gamma", TRAIN_SAMPLES, base(seed, 1))
    heldout = generate_in_blocks(clock, "gamma", HELDOUT_SAMPLES, base(seed, 2))
    check(not {r.q for r in data.samples} & {r.q for r in heldout.samples}, "held-out plants overlap the training set")
    w = tri_weights(N_GRID)
    mean_error, _, _ = clock.time(_mean_predictor_error, data, heldout, w)
    rand = g.CoefficientFamily("random_smooth")
    plants = [g.sample_random(rand, base(seed, 3) + k) for k in range(GAIN_PLANTS)]
    digest = _digest(*_dataset_arrays(data), *_dataset_arrays(heldout))
    return TrainState(seed, data, heldout, w, mean_error, plants, digest)


def _fit(data, heldout, config):
    model, _ = nn.train(data, config)
    return model, nn.evaluate(model, heldout)


GAIN_BLOCK = 10  # gain updates per timed block


def _gain_block(model, plants, grid):
    return [nn.infer_gains(model, c, grid) for c in plants]


def learned_gains(model, plants, clock, rec) -> list:
    """Gain updates in timed blocks of GAIN_BLOCK, each checked against the weights.

    A single update takes well under a millisecond, shorter than the
    yardstick; a block of them is scaled as one, and its mean per update is
    one gain_ms sample.
    """
    grid = g.IntervalGrid(N_SIM)
    out = []
    for k in range(0, len(plants), GAIN_BLOCK):
        block = plants[k : k + GAIN_BLOCK]
        gains, raw, fac = clock.time_with("mlp_ops", _gain_block, model, block, grid)
        rec.ops(len(block))
        rec.gain(raw / len(block), fac)
        for c, gv in zip(block, gains):
            check_gains(model, c, gv)
        out += gains
    return out


def train_round(st: TrainState, r: int, clock, rec) -> None:
    config = nn.TrainConfig(epochs=TRAIN_EPOCHS, seed=(st.seed << 8) + r)
    (model, ev), raw, fac = clock.time_with("mlp_ops", _fit, st.data, st.heldout, config)
    n_train = len(nn.split_indices(len(st.data.samples), config.train_fraction, config.seed)[0])
    rec.ops(2)
    rec.work(n_train * config.epochs, raw, raw * fac)
    for err, base_err, kernel in ((ev.rel_l2_k1, st.mean_error[0], "k1"), (ev.rel_l2_k2, st.mean_error[1], "k2")):
        check(err <= HELDOUT_BOUND, f"held-out error of {kernel} is {err:.4f} > {HELDOUT_BOUND}")
        check(err <= BASELINE_SHARE * base_err, f"{kernel}: {err:.4f} is not well below the mean predictor's {base_err:.4f}")
    # the same error recomputed from the weights, apart from neural_op
    grid = g.TriangularGrid(N_GRID)
    pts = np.column_stack(grid.node_coordinates())
    mine = np.zeros(2)
    for sample in st.heldout.samples:
        out = model_outputs(model, sample, pts)
        mine += (rel_l2(out[:, 0], sample.k1, st.weights), rel_l2(out[:, 1], sample.k2, st.weights))
    mine /= len(st.heldout.samples)
    check(
        np.allclose(mine, (ev.rel_l2_k1, ev.rel_l2_k2), rtol=1e-9, atol=0),
        f"evaluate reports {ev.rel_l2_k1:.6g}/{ev.rel_l2_k2:.6g}, the weights give {mine[0]:.6g}/{mine[1]:.6g}",
    )
    learned_gains(model, st.plants, clock, rec)
    worst = rec.notes.setdefault("heldout_rel_l2_max", 0.0)
    rec.notes["heldout_rel_l2_max"] = max(worst, ev.rel_l2_k1, ev.rel_l2_k2)


# ---------------------------------------------------------------- certify

CERTIFY_GAMMAS = (1.0, 2.0, 3.0, 4.0, 5.0)
CERTIFY_RANDOM = 3
CERTIFY_STATES = 3
TARGET_STEPS = 100
# sup |K_100 - K_oracle| <= C h on the n = 50 oracle nodes (first order in h)
ORACLE_C = {1.0: 2.0, 5.0: 25.0}


@dataclass
class CertifyState:
    seed: int
    oracle: dict
    digest: str = ""


def _load_oracle():
    with np.load(ORACLE_FILE, allow_pickle=False) as z:
        return {gamma: (z[f"k1_gamma{gamma:g}"], z[f"k2_gamma{gamma:g}"]) for gamma in ORACLE_C}


def certify_setup(seed: int, workdir: Path, clock) -> CertifyState:
    oracle, _, _ = clock.time(_load_oracle)
    return CertifyState(seed, oracle, _digest(*(a for pair in oracle.values() for a in pair)))


def certify_plants(seed: int, r: int):
    plants = [(f"gamma {gm:g}", gm, g.gamma_family(gm)) for gm in CERTIFY_GAMMAS]
    rand = g.CoefficientFamily("random_smooth")
    for k in range(CERTIFY_RANDOM):
        plants.append((f"random_smooth {k}", None, g.sample_random(rand, base(seed, 16 + r) + k)))
    return plants


def _exact_gains(coeffs, n):
    ks = g.solve_kernels(coeffs, g.TriangularGrid(n))
    return ks, g.gain_slice(ks)


def certify_rest(coeffs, ks, states):
    """Everything after the gain solve: side kernels, certificates, target run."""
    grid = states[0].grid
    ks = g.solve_kappa_c(coeffs, ks)
    ks = g.solve_inverse_kernels(ks)
    residual = g.residual_operators(coeffs, ks.k1, ks.k2)
    s1, s2 = g.norm_equivalence_constants(ks)
    p1 = default_p1(coeffs)
    p2 = 1.1 * g.p2_lower_bound(coeffs, ks, p1)
    betas = [g.forward_transform(s, ks) for s in states]
    back = [g.inverse_transform(s.u, b, ks) for s, b in zip(states, betas)]
    T = (TARGET_STEPS - 0.5) * g.cfl_dt(coeffs, grid)
    trace = g.simulate_target(coeffs, ks, g.PlantState(grid, states[0].u.copy(), betas[0].copy()), T, snapshot_stride=1)
    lyap = np.array([g.lyapunov_v1(s.u, s.v, coeffs, p1, p2) for s in trace.snapshots])
    return ks, residual, (s1, s2), betas, back, trace, lyap


def certify_round(st: CertifyState, r: int, clock, rec) -> None:
    h = 1.0 / N_SIM
    for p, (label, gamma, coeffs) in enumerate(certify_plants(st.seed, r)):
        rng = np.random.default_rng((st.seed << 20) + (r << 8) + p)
        states = smooth_states(coeffs, rng, CERTIFY_STATES)
        (ks, _), raw_a, fac_a = clock.time(_exact_gains, coeffs, N_SIM)
        rec.gain(raw_a, fac_a)
        out, raw_b, fac_b = clock.time(certify_rest, coeffs, ks, states)
        rec.ops(2)
        rec.work(1, raw_a + raw_b, raw_a * fac_a + raw_b * fac_b)
        ks, residual, (s1, s2), betas, back, trace, lyap = out
        check(max(residual.sup_bc_diag, residual.sup_bc_bottom) <= 1e-10, f"{label}: boundary residual too large")
        if gamma in st.oracle:
            o1, o2 = st.oracle[gamma]
            gap = max(
                np.abs(ks.k1.as_matrix()[::2, ::2] - o1).max(),
                np.abs(ks.k2.as_matrix()[::2, ::2] - o2).max(),
            )
            check(gap <= ORACLE_C[gamma] * h, f"{label}: {gap:.4f} from the Picard oracle, bound {ORACLE_C[gamma] * h}")
            rec.notes[f"oracle_gap_gamma{gamma:g}"] = float(gap)
        for s, beta, v in zip(states, betas, back):
            err = l2(v - s.v, h)
            check(err <= 10 * h, f"{label}: inverse(forward(state)) is {err:.3g} from the state")
            phi = l2(s.u, h) ** 2 + l2(s.v, h) ** 2
            psi = l2(s.u, h) ** 2 + l2(beta, h) ** 2
            check(psi <= s1 * phi and phi <= s2 * psi, f"{label}: norm-equivalence inequality fails")
        check(not trace.blew_up and len(trace.times) == TARGET_STEPS + 1, f"{label}: target run did not finish")
        rises = int(np.sum(lyap[2:] > lyap[1:-1] * (1 + 1e-12)))
        check(rises == 0, f"{label}: Lyapunov functional rose on {rises} steps")


# ---------------------------------------------------------------- closed_loop

# denser at low Gamma: short runs are scaled best by the yardstick, and
# work_per_s is the median over runs
SWEEP = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0)
T_FINAL = 10.0
OPEN_T = 0.2
CL_SAMPLES = 100
CL_EPOCHS = 10


@dataclass
class ClosedLoopState:
    seed: int
    model: object
    digest: str = ""


def closed_loop_setup(seed: int, workdir: Path, clock) -> ClosedLoopState:
    data = generate_in_blocks(clock, "gamma", CL_SAMPLES, base(seed, 4))
    (model, _), _, _ = clock.time_with("mlp_ops", nn.train, data, nn.TrainConfig(epochs=CL_EPOCHS, seed=seed & 0xFFFF))
    return ClosedLoopState(seed, model, _digest(*model.parameters(), [model.b1, model.b2]))


def _simulate_and_fit(coeffs, controller, T):
    grid = g.IntervalGrid(N_SIM)
    trace = g.simulate(coeffs, g.reference_initial_state(grid), controller, T)
    fit = g.fit_decay(trace, t_start=2.0) if controller.kind == "feedback" else None
    return trace, fit


def _check_trace(label, coeffs, trace):
    check(not trace.blew_up, f"{label}: blew up")
    gap = np.abs(trace.u_boundary - coeffs.q * trace.v_boundary).max()
    check(gap <= 1e-12 * max(1.0, float(np.abs(trace.u_boundary).max())), f"{label}: u(0) != q v(0) by {gap:.3g}")


def closed_loop_round(st: ClosedLoopState, r: int, clock, rec) -> None:
    fams = [g.CoefficientFamily(kind) for kind in FAMILIES]
    n_extra = (2 * GAIN_BLOCK - 1) * len(SWEEP)
    extra = iter([g.sample_random(fams[k % 2], base(st.seed, 32 + r) + k) for k in range(n_extra)])
    for gamma in SWEEP:
        coeffs = g.gamma_family(gamma)
        # gain blocks sit between the runs so that their samples spread over the round
        learned = learned_gains(st.model, [coeffs] + [next(extra) for _ in range(GAIN_BLOCK - 1)], clock, rec)[0]
        (_, exact), _, _ = clock.time(_exact_gains, coeffs, N_SIM)
        rec.ops(1)
        for kind, gains in (("exact", exact), ("learned", learned)):
            label = f"gamma {gamma:g}, {kind} gains"
            (trace, fit), raw, fac = clock.time(_simulate_and_fit, coeffs, g.ControllerSpec.feedback(gains), T_FINAL)
            rec.ops(1)
            rec.work(len(trace.times) - 1, raw, raw * fac)
            _check_trace(label, coeffs, trace)
            ratio = trace.phi[-1] / trace.phi[0]
            check(ratio <= 1e-3, f"{label}: phi(10)/phi(0) = {ratio:.3g} > 1e-3")
            check(fit.c1_hat > 0, f"{label}: fitted decay rate {fit.c1_hat:.3g} is not positive")
            worst = rec.notes.setdefault("phi_ratio_max", {})
            worst[kind] = max(worst.get(kind, 0.0), float(ratio))
            if kind == "exact":
                learned_gains(st.model, [next(extra) for _ in range(GAIN_BLOCK)], clock, rec)
    coeffs = g.gamma_family(5.0)
    (trace, _), raw, fac = clock.time(_simulate_and_fit, coeffs, g.ControllerSpec.open_loop(), OPEN_T)
    rec.ops(1)
    rec.work(len(trace.times) - 1, raw, raw * fac)
    _check_trace("open loop", coeffs, trace)
    check(trace.phi[-1] > 2 * trace.phi[0], "open loop at gamma 5: phi did not grow")


# ---------------------------------------------------------------- probe


def probe(clock, workdir: Path) -> None:
    """One small pass over every traced layer, for layers a workload never calls.

    Runs only in traced mode, after the workload's own traced rounds; the
    per-layer metrics it fills are listed in the run's detail line.
    """
    family = g.CoefficientFamily("gamma")
    path = workdir / "probe.hkds"
    (ds, back), _, _ = clock.time(_generate_write_read, family, base(0, 0xFFF), path)
    (model, _), _, _ = clock.time_with("mlp_ops", nn.train, back, nn.TrainConfig(epochs=2, seed=0))
    clock.time_with("mlp_ops", nn.evaluate, model, back)
    coeffs = g.gamma_family(1.0)
    clock.time_with("mlp_ops", nn.infer_gains, model, coeffs, g.IntervalGrid(N_SIM))
    (ks, gains), _, _ = clock.time(_exact_gains, coeffs, N_SIM)
    clock.time(certify_rest, coeffs, ks, smooth_states(coeffs, np.random.default_rng(0), 1))
    clock.time(_simulate_and_fit, coeffs, g.ControllerSpec.feedback(gains), T_FINAL)


@dataclass(frozen=True)
class Workload:
    unit: str
    setup: object
    round: object


WORKLOADS = {
    "datagen": Workload("kernel sample", datagen_setup, datagen_round),
    "train": Workload("training sample-epoch", train_setup, train_round),
    "certify": Workload("plant certified", certify_setup, certify_round),
    "closed_loop": Workload("simulated time step", closed_loop_setup, closed_loop_round),
}
