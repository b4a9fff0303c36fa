"""Branch-trunk neural surrogate mapping plant coefficients to gain kernels.

A single network predicts both kernels: the branch consumes the flattened
coefficient encoding (five functions sampled at m_enc points plus q), the
trunk consumes a query point (x, xi), and each kernel output is a dot product
between one half of the branch output and the trunk output plus a scalar
bias.  Training is plain minibatch MSE over all triangular-grid nodes with an
adaptive-moment optimizer; everything is hand-rolled numpy so runs are
bit-reproducible from the seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet
from .controller import GainVector
from .data_store import Dataset
from .numerics import IntervalGrid, TriangularGrid, interp_linear, read_exact, tri_quad_weights

MODEL_MAGIC = b"NOM1"
MODEL_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 600
    batch_size: int = 64
    learning_rate: float = 3e-3
    seed: int = 0
    train_fraction: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    m_enc: int = 21
    p: int = 64
    branch_hidden: tuple[int, ...] = (128, 128)
    trunk_hidden: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.p) < 1:
            raise ValueError("epochs, batch_size and p must be positive")
        if self.m_enc < 2:
            raise ValueError("m_enc must be at least 2")
        if not (0 < self.train_fraction < 1):
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.learning_rate <= 0 or self.eps <= 0:
            raise ValueError("learning_rate and eps must be positive")


@dataclass(eq=False)
class DeepONetModel:
    """Weights of the branch and trunk nets plus frozen input normalization."""

    m_enc: int
    p: int
    branch_dims: tuple[int, ...]
    trunk_dims: tuple[int, ...]
    branch_w: list[np.ndarray]
    branch_b: list[np.ndarray]
    trunk_w: list[np.ndarray]
    trunk_b: list[np.ndarray]
    b1: float
    b2: float
    feat_mean: np.ndarray
    feat_scale: np.ndarray

    def __post_init__(self):
        if self.branch_dims[-1] != 2 * self.p or self.trunk_dims[-1] != self.p:
            raise ValueError("output widths must be 2p (branch) and p (trunk)")
        if self.branch_dims[0] != 5 * self.m_enc + 1 or self.trunk_dims[0] != 2:
            raise ValueError("input widths must be 5*m_enc+1 (branch) and 2 (trunk)")
        values = [*self.parameters(), self.feat_mean, self.feat_scale, [self.b1, self.b2]]
        if not all(np.all(np.isfinite(v)) for v in values):
            raise ValueError("model weights, biases and normalization must be finite")
        if np.any(self.feat_scale <= 0):
            raise ValueError("normalization scale must be positive")

    def parameters(self):
        return [*self.branch_w, *self.branch_b, *self.trunk_w, *self.trunk_b]


def init_model(config: TrainConfig, rng: np.random.Generator | None = None) -> DeepONetModel:
    """Glorot-uniform initialized model with identity normalization."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    d_in = 5 * config.m_enc + 1
    branch_dims = (d_in, *config.branch_hidden, 2 * config.p)
    trunk_dims = (2, *config.trunk_hidden, config.p)

    def make(dims):
        ws, bs = [], []
        for a, b in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (a + b))
            ws.append(rng.uniform(-bound, bound, size=(a, b)))
            # small random biases keep constant inputs off the zero-activation
            # saddle (a whole-dataset feature can normalize to exactly zero)
            bs.append(rng.uniform(-0.1, 0.1, size=b))
        return ws, bs

    bw, bb = make(branch_dims)
    tw, tb = make(trunk_dims)
    return DeepONetModel(
        m_enc=config.m_enc,
        p=config.p,
        branch_dims=branch_dims,
        trunk_dims=trunk_dims,
        branch_w=bw,
        branch_b=bb,
        trunk_w=tw,
        trunk_b=tb,
        b1=0.0,
        b2=0.0,
        feat_mean=np.zeros(d_in),
        feat_scale=np.ones(d_in),
    )


def encode_input(coeffs: CoefficientSet, m_enc: int) -> np.ndarray:
    """Flattened features: five functions at m_enc uniform nodes, then q.

    Reads only lam, mu, sigma, omega, theta and q, so a dataset record works too.
    """
    if m_enc < 2:
        raise ValueError("m_enc must be at least 2")
    xq = np.arange(m_enc) / (m_enc - 1)
    blocks = [
        np.asarray(interp_linear(arr, xq))
        for arr in (coeffs.lam, coeffs.mu, coeffs.sigma, coeffs.omega, coeffs.theta)
    ]
    return np.concatenate([*blocks, [coeffs.q]])


def _trunk_inputs(points: np.ndarray) -> np.ndarray:
    """Affine remap of (x, xi) onto [-1, 1]^2; tanh layers train poorly off-center."""
    return 2.0 * points - 1.0


def _mlp_forward(ws, bs, x, keep=False):
    """tanh hidden layers, linear output; optionally keep activations.

    This pass and _mlp_backward update the arrays they create in place, so a
    training step frees fewer large temporaries and the heap is trimmed and
    re-faulted less.
    """
    acts = [x]
    a = x
    for l, (w, b) in enumerate(zip(ws, bs)):
        a = a @ w
        a += b
        if l < len(ws) - 1:
            np.tanh(a, out=a)
        if keep:
            acts.append(a)
    return (a, acts) if keep else a


def _mlp_backward(ws, acts, delta):
    """Gradients of an MLP given output-side delta; returns (dWs, dbs, dx)."""
    dws = [None] * len(ws)
    dbs = [None] * len(ws)
    for l in range(len(ws) - 1, -1, -1):
        a_prev = acts[l]
        dws[l] = a_prev.T @ delta
        dbs[l] = delta.sum(axis=0)
        delta = delta @ ws[l].T
        if l > 0:
            slope = acts[l] ** 2
            np.subtract(1.0, slope, out=slope)
            delta *= slope
    return dws, dbs, delta


def forward(model: DeepONetModel, features: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Predict (k1, k2) at each query point; returns an array of shape (P, 2)."""
    features = np.asarray(features, dtype=float)
    if features.shape != (model.branch_dims[0],):
        raise ValueError("feature length does not match the model")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise ValueError("points must be (P, 2) pairs (x, xi)")
    z = (features - model.feat_mean) / model.feat_scale
    bout = _mlp_forward(model.branch_w, model.branch_b, z[None, :])[0]
    tout = _mlp_forward(model.trunk_w, model.trunk_b, _trunk_inputs(pts))
    p = model.p
    k1 = tout @ bout[:p] + model.b1
    k2 = tout @ bout[p:] + model.b2
    return np.column_stack([k1, k2])


def predict_fields(model: DeepONetModel, features: np.ndarray, grid: TriangularGrid):
    """Dense prediction of both kernels at every node of a triangular grid."""
    x, xi = grid.node_coordinates()
    out = forward(model, features, np.column_stack([x, xi]))
    return out[:, 0], out[:, 1]


@dataclass
class TrainHistory:
    train_loss: np.ndarray
    test_rel_l2_k1: np.ndarray
    test_rel_l2_k2: np.ndarray


def split_indices(n_samples: int, train_fraction: float, seed: int):
    """Seeded shuffle split shared by training and evaluation tooling."""
    rng = np.random.default_rng(splitmix_for_split(seed))
    perm = rng.permutation(n_samples)
    n_train = max(1, int(round(train_fraction * n_samples)))
    return perm[:n_train], perm[n_train:]


def splitmix_for_split(seed: int) -> int:
    # distinct stream from weight init, still a pure function of the seed
    return (seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) % (1 << 64)


def _dataset_tensors(dataset: Dataset, m_enc: int):
    feats = np.stack([encode_input(r, m_enc) for r in dataset.samples])
    y1 = np.stack([r.k1 for r in dataset.samples])
    y2 = np.stack([r.k2 for r in dataset.samples])
    return feats, y1, y2


def relative_l2(pred: np.ndarray, truth: np.ndarray, weights: np.ndarray) -> float:
    """Weighted relative L2 distance; infinite if the truth has zero norm."""
    denom = np.sqrt(weights @ truth**2)
    if denom == 0:
        return float("inf")
    return float(np.sqrt(weights @ (pred - truth) ** 2) / denom)


def train(dataset: Dataset, config: TrainConfig) -> tuple[DeepONetModel, TrainHistory]:
    """Fit the surrogate on a dataset of (coefficients, kernels) pairs.

    Deterministic given (dataset, config): one generator seeded from the
    config drives initialization and every epoch's shuffle.  Loss is the mean
    squared error of both kernel values over all triangular-grid nodes of the
    batch; the recorded test metric is the trapezoid-weighted relative L2
    error per kernel.  A non-finite loss aborts with a diagnostic.
    """
    if len(dataset.samples) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    model = init_model(config, rng)

    feats, y1, y2 = _dataset_tensors(dataset, config.m_enc)
    tr_idx, te_idx = split_indices(len(dataset.samples), config.train_fraction, config.seed)
    f_tr, f_te = feats[tr_idx], feats[te_idx]
    y1_tr, y2_tr = y1[tr_idx], y2[tr_idx]
    y1_te, y2_te = y1[te_idx], y2[te_idx]

    mean = f_tr.mean(axis=0)
    std = f_tr.std(axis=0)
    model.feat_mean = mean
    model.feat_scale = np.where(std > 1e-12, std, 1.0)
    z_tr = (f_tr - model.feat_mean) / model.feat_scale

    grid = TriangularGrid(dataset.n_grid)
    pts = _trunk_inputs(np.column_stack(grid.node_coordinates()))
    w_tri = tri_quad_weights(grid)

    # the arrays are updated in place, so this list stays the model's
    params = model.parameters()
    adam_m = [np.zeros_like(p_) for p_ in params] + [0.0, 0.0]
    adam_v = [np.zeros_like(p_) for p_ in params] + [0.0, 0.0]
    t_step = 0
    n_train = z_tr.shape[0]

    hist_loss = np.zeros(config.epochs)
    hist_te1 = np.full(config.epochs, np.nan)
    hist_te2 = np.full(config.epochs, np.nan)

    for epoch in range(config.epochs):
        # cosine decay to 0.2% of the base rate; late-epoch step noise
        # otherwise keeps the minibatch loss from settling
        frac = epoch / max(config.epochs - 1, 1)
        lr = config.learning_rate * (0.002 + 0.998 * 0.5 * (1 + np.cos(np.pi * frac)))
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_train, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = _loss_and_grads(model, z_tr[batch], y1_tr[batch], y2_tr[batch], pts)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, step {n_batches}"
                )
            epoch_loss += loss
            n_batches += 1

            t_step += 1
            bc1 = 1.0 - config.beta1**t_step
            bc2 = 1.0 - config.beta2**t_step
            for k, g in enumerate(grads):
                adam_m[k] = config.beta1 * adam_m[k] + (1 - config.beta1) * g
                adam_v[k] = config.beta2 * adam_v[k] + (1 - config.beta2) * (
                    g * g if isinstance(g, np.ndarray) else g**2
                )
                step_val = lr * (adam_m[k] / bc1) / (np.sqrt(adam_v[k] / bc2) + config.eps)
                if k < len(params):
                    params[k] -= step_val
                elif k == len(params):
                    model.b1 -= step_val
                else:
                    model.b2 -= step_val

        hist_loss[epoch] = epoch_loss / max(n_batches, 1)
        if len(te_idx) > 0:
            res = _evaluate(model, f_te, y1_te, y2_te, pts, w_tri)
            hist_te1[epoch], hist_te2[epoch] = res.rel_l2_k1, res.rel_l2_k2

    _polish_readout(model, z_tr, y1_tr, y2_tr, pts)
    if len(te_idx) > 0:
        res = _evaluate(model, f_te, y1_te, y2_te, pts, w_tri)
        hist_te1[-1], hist_te2[-1] = res.rel_l2_k1, res.rel_l2_k2

    history = TrainHistory(train_loss=hist_loss, test_rel_l2_k1=hist_te1, test_rel_l2_k2=hist_te2)
    return model, history


def _polish_readout(model: DeepONetModel, z_tr, y1_tr, y2_tr, pts) -> None:
    """Solve the linear readout exactly once the nonlinear layers are trained.

    With the hidden layers frozen the prediction is linear in the last branch
    layer and the output biases, and the normal equations factor over the
    (sample, node) product grid, so the train MSE minimizer is available in
    closed form.  Adaptive-moment steps leave this layer far from optimal.
    """
    p = model.p
    acts = _mlp_forward(model.branch_w, model.branch_b, z_tr, keep=True)[1]
    a_pen = np.column_stack([acts[-2], np.ones(z_tr.shape[0])])
    tout = _mlp_forward(model.trunk_w, model.trunk_b, pts)
    ga_val, ga_vec = np.linalg.eigh(a_pen.T @ a_pen)
    gt_val, gt_vec = np.linalg.eigh(tout.T @ tout)
    denom = np.outer(np.maximum(ga_val, 0.0), np.maximum(gt_val, 0.0))
    ridge = 1e-12 * max(denom.max(), 1.0)
    for _ in range(2):  # alternate exact solves for (weights, bias)
        for block, targets, bias in ((0, y1_tr, "b1"), (1, y2_tr, "b2")):
            resid = targets - getattr(model, bias)
            rhs = ga_vec.T @ (a_pen.T @ resid @ tout) @ gt_vec
            w_tilde = ga_vec @ (rhs / (denom + ridge)) @ gt_vec.T
            model.branch_w[-1][:, block * p : (block + 1) * p] = w_tilde[:-1]
            model.branch_b[-1][block * p : (block + 1) * p] = w_tilde[-1]
            pred = (a_pen @ w_tilde) @ tout.T
            setattr(model, bias, float(np.mean(targets - pred)))


@dataclass
class EvalResult:
    rel_l2_k1: float
    rel_l2_k2: float
    n_samples: int
    n_skipped_k1: int
    n_skipped_k2: int


def evaluate(model: DeepONetModel, dataset: Dataset) -> EvalResult:
    """Mean trapezoid-weighted relative L2 error per kernel over a dataset.

    Samples whose true kernel has zero norm are skipped and counted.
    """
    grid = TriangularGrid(dataset.n_grid)
    pts = _trunk_inputs(np.column_stack(grid.node_coordinates()))
    feats, y1, y2 = _dataset_tensors(dataset, model.m_enc)
    return _evaluate(model, feats, y1, y2, pts, tri_quad_weights(grid))


def _evaluate(model: DeepONetModel, feats, y1, y2, pts, w) -> EvalResult:
    """The result of evaluate, from encoded features, true kernels, trunk inputs and quadrature weights."""
    z = (feats - model.feat_mean) / model.feat_scale
    bout = _mlp_forward(model.branch_w, model.branch_b, z)
    tout = _mlp_forward(model.trunk_w, model.trunk_b, pts)
    p = model.p
    means, skipped = [], []
    for pred, truth in ((bout[:, :p] @ tout.T + model.b1, y1), (bout[:, p:] @ tout.T + model.b2, y2)):
        errs = [relative_l2(a, b, w) for a, b in zip(pred, truth)]
        finite = [e for e in errs if np.isfinite(e)]
        means.append(float(np.mean(finite)) if finite else float("nan"))
        skipped.append(len(errs) - len(finite))
    return EvalResult(means[0], means[1], len(feats), skipped[0], skipped[1])


def infer_gains(model: DeepONetModel, coeffs: CoefficientSet, xi_grid: IntervalGrid) -> GainVector:
    """Predicted feedback gains: the model evaluated along the top edge x = 1."""
    features = encode_input(coeffs, model.m_enc)
    pts = np.column_stack([np.ones(xi_grid.n + 1), xi_grid.points])
    out = forward(model, features, pts)
    return GainVector(grid=xi_grid, g1=out[:, 0], g2=out[:, 1])


def loss_and_gradients(model: DeepONetModel, feats: np.ndarray, y1: np.ndarray, y2: np.ndarray, pts: np.ndarray):
    """Loss plus flat analytic gradient over all parameters (for verification)."""
    z = (feats - model.feat_mean) / model.feat_scale
    loss, grads = _loss_and_grads(model, z, y1, y2, _trunk_inputs(pts))
    return loss, np.concatenate([np.ravel(g) for g in grads])


def _loss_and_grads(model: DeepONetModel, z, y1, y2, pts):
    """Training MSE on normalized features and trunk inputs, and its gradient.

    The gradient comes as [*branch_w, *branch_b, *trunk_w, *trunk_b, db1, db2],
    in the order of ``model.parameters()`` followed by the two output biases.
    """
    p = model.p
    bout, bacts = _mlp_forward(model.branch_w, model.branch_b, z, keep=True)
    tout, tacts = _mlp_forward(model.trunk_w, model.trunk_b, pts, keep=True)
    d1 = bout[:, :p] @ tout.T + model.b1 - y1
    d2 = bout[:, p:] @ tout.T + model.b2 - y2
    n_terms = d1.size + d2.size
    loss = (np.sum(d1 * d1) + np.sum(d2 * d2)) / n_terms
    g1 = (2.0 / n_terms) * d1
    g2 = (2.0 / n_terms) * d2
    d_bout = np.concatenate([g1 @ tout, g2 @ tout], axis=1)
    d_tout = g1.T @ bout[:, :p] + g2.T @ bout[:, p:]
    dbw, dbb, _ = _mlp_backward(model.branch_w, bacts, d_bout)
    dtw, dtb, _ = _mlp_backward(model.trunk_w, tacts, d_tout)
    return loss, [*dbw, *dbb, *dtw, *dtb, float(g1.sum()), float(g2.sum())]


def get_flat_params(model: DeepONetModel) -> np.ndarray:
    parts = [p.ravel() for p in model.parameters()] + [[model.b1], [model.b2]]
    return np.concatenate(parts)


def set_flat_params(model: DeepONetModel, flat: np.ndarray) -> None:
    pos = 0
    for p in model.parameters():
        p[...] = flat[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    model.b1 = float(flat[pos])
    model.b2 = float(flat[pos + 1])


def save_model(model: DeepONetModel, path) -> None:
    """Binary little-endian model file; see load_model for the layout."""
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<IIII", MODEL_VERSION, model.m_enc, model.p, len(model.branch_dims)))
        f.write(struct.pack(f"<{len(model.branch_dims)}I", *model.branch_dims))
        f.write(struct.pack("<I", len(model.trunk_dims)))
        f.write(struct.pack(f"<{len(model.trunk_dims)}I", *model.trunk_dims))
        for w in [*model.branch_w, *model.trunk_w]:
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        for b in [*model.branch_b, *model.trunk_b]:
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(model.feat_mean, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(model.feat_scale, dtype="<f8").tobytes())
        f.write(struct.pack("<dd", model.b1, model.b2))


def load_model(path) -> DeepONetModel:
    """Read a model file, rejecting unknown magic bytes or versions and inconsistent dims."""
    with open(path, "rb") as f:
        if read_exact(f, 4, "magic", "model file") != MODEL_MAGIC:
            raise ValueError("not a model file (bad magic)")
        version, m_enc, p, nb = struct.unpack("<IIII", read_exact(f, 16, "header", "model file"))
        if version != MODEL_VERSION:
            raise ValueError(f"unsupported model version {version}")
        branch_dims = struct.unpack(f"<{nb}I", read_exact(f, 4 * nb, "branch dims", "model file"))
        (nt,) = struct.unpack("<I", read_exact(f, 4, "trunk layer count", "model file"))
        trunk_dims = struct.unpack(f"<{nt}I", read_exact(f, 4 * nt, "trunk dims", "model file"))
        if nb < 2 or nt < 2:
            raise ValueError(f"model needs at least 2 branch and 2 trunk dims, got {nb} and {nt}")
        if trunk_dims[0] != 2 or trunk_dims[-1] != p or branch_dims[-1] != 2 * p or 0 in branch_dims + trunk_dims:
            raise ValueError(f"inconsistent model dims: branch {branch_dims}, trunk {trunk_dims}, p {p}")

        def read_array(shape, what):
            count = math.prod(shape)
            buf = read_exact(f, 8 * count, what, "model file")
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

        bw = [read_array((a, b), "branch weights") for a, b in zip(branch_dims[:-1], branch_dims[1:])]
        tw = [read_array((a, b), "trunk weights") for a, b in zip(trunk_dims[:-1], trunk_dims[1:])]
        bb = [read_array((b,), "branch biases") for b in branch_dims[1:]]
        tb = [read_array((b,), "trunk biases") for b in trunk_dims[1:]]
        mean = read_array((branch_dims[0],), "normalization mean")
        scale = read_array((branch_dims[0],), "normalization scale")
        b1, b2 = struct.unpack("<dd", read_exact(f, 16, "output biases", "model file"))
        extra = f.read(1)
        if extra:
            raise ValueError("model file has trailing bytes")
    return DeepONetModel(
        m_enc=m_enc,
        p=p,
        branch_dims=tuple(branch_dims),
        trunk_dims=tuple(trunk_dims),
        branch_w=bw,
        branch_b=bb,
        trunk_w=tw,
        trunk_b=tb,
        b1=b1,
        b2=b2,
        feat_mean=mean,
        feat_scale=scale,
    )
