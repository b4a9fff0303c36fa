"""Branch-trunk neural surrogate mapping plant coefficients to gain kernels.

A single network predicts both kernels: the branch consumes the flattened
coefficient encoding (five functions sampled at m_enc points plus q), the
trunk consumes a query point (x, xi), and each kernel output is a dot product
between one half of the branch output and the trunk output plus a scalar
bias.  Training is plain minibatch MSE over all triangular-grid nodes with an
adaptive-moment optimizer; everything is hand-rolled numpy so runs are
bit-reproducible from the seed.

Precision: every adaptive-moment step of ``train`` runs in float32 (the
forward and backward passes, the loss, the parameters, the gradient and the
moments); the normalization, the readout solve, the final held-out
evaluation and the returned model are float64, and so are ``forward``,
``evaluate``, ``infer_gains`` and the model file.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet
from .controller import GainVector
from .data_store import Dataset
from .numerics import IntervalGrid, TriangularGrid, read_exact, tri_quad_weights

MODEL_MAGIC = b"NOM1"
MODEL_VERSION = 1
# adaptive-moment decay rates and denominator guard
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.99
_ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 600
    batch_size: int = 64
    learning_rate: float = 3e-3
    seed: int = 0
    train_fraction: float = 0.9
    m_enc: int = 21
    p: int = 32
    branch_hidden: tuple[int, ...] = (128, 128)
    trunk_hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.p) < 1:
            raise ValueError("epochs, batch_size and p must be positive")
        if self.m_enc < 2:
            raise ValueError("m_enc must be at least 2")
        if not (0 < self.train_fraction < 1):
            raise ValueError("train_fraction must lie in (0, 1)")
        # train rounds every epoch's rate to float32: the schedule's last rate,
        # learning_rate * 0.002, must not round to 0, nor its first overflow
        f32 = np.finfo(np.float32)
        lo, hi = float(f32.smallest_subnormal) / 2, float(f32.max)
        if not (self.learning_rate * 0.002 > lo and self.learning_rate <= hi):
            raise ValueError(
                f"learning_rate must lie in ({lo / 0.002:.4g}, {hi:.4g}], where its float32 steps"
                f" neither vanish nor overflow; got {self.learning_rate!r}"
            )
        if min((*self.branch_hidden, *self.trunk_hidden), default=1) < 1:
            raise ValueError("hidden layer widths must be positive")


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
    # the last trunk output and its key: dtype, shape and bytes of its points and trunk arrays (see forward)
    _trunk_memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.m_enc < 2:
            raise ValueError("m_enc must be at least 2")
        bd, td = self.branch_dims, self.trunk_dims
        _check_dims(self.p, bd, td)
        # the shapes of parameters() and of the normalization, layer by layer
        layout = [*zip(bd, bd[1:]), *zip(bd[1:]), *zip(td, td[1:]), *zip(td[1:]), (bd[0],), (bd[0],)]
        if bd[0] != 5 * self.m_enc + 1 or [np.shape(a) for a in (*self.parameters(), self.feat_mean, self.feat_scale)] != layout:
            raise ValueError(f"inconsistent model: dims branch {bd}, trunk {td} and m_enc {self.m_enc} do not fit its arrays")
        values = [*self.parameters(), self.feat_mean, self.feat_scale, [self.b1, self.b2]]
        if not all(np.all(np.isfinite(v)) for v in values):
            raise ValueError("model weights, biases and normalization must be finite")
        if np.any(self.feat_scale <= 0):
            raise ValueError("normalization scale must be positive")

    def parameters(self):
        return [*self.branch_w, *self.branch_b, *self.trunk_w, *self.trunk_b]


def _check_dims(p: int, branch_dims, trunk_dims) -> None:
    """Refuse layer dims that no model fits; load_model calls it before it reads the arrays they size."""
    nb, nt = len(branch_dims), len(trunk_dims)
    if nb < 2 or nt < 2:
        raise ValueError(f"model needs at least 2 branch and 2 trunk dims, got {nb} and {nt}")
    if min(*branch_dims, *trunk_dims) < 1 or (trunk_dims[0], trunk_dims[-1], branch_dims[-1]) != (2, p, 2 * p):
        raise ValueError(f"inconsistent model dims: branch {branch_dims}, trunk {trunk_dims}, p {p}")


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
    """Flattened features: lam, mu, sigma, omega, theta at m_enc uniform nodes, then q."""
    if m_enc < 2:
        raise ValueError("m_enc must be at least 2")
    xq = np.arange(m_enc) / (m_enc - 1)
    fields = (coeffs.lam, coeffs.mu, coeffs.sigma, coeffs.omega, coeffs.theta)
    blocks = [np.interp(xq, coeffs.grid.points, arr) for arr in fields]
    return np.concatenate([*blocks, [coeffs.q]])


def _trunk_inputs(points: np.ndarray) -> np.ndarray:
    """Affine remap of (x, xi) onto [-1, 1]^2; tanh layers train poorly off-center."""
    return 2.0 * points - 1.0


def _mlp_forward(ws, bs, x, keep=False):
    """tanh hidden layers, linear output; optionally keep activations.

    Each layer's bias and tanh are applied in the array of its product; with
    _mlp_backward and the arrays _scratch keeps for a fit, a training step
    frees few large temporaries and the heap is trimmed and re-faulted less.
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


def _mlp_backward(ws, acts, delta, dws, dbs, work=None):
    """Write the gradients of an MLP, given its output-side delta, into dws and dbs.

    The delta stops at the first layer: nothing reads the input gradient.
    Each hidden activation in acts is overwritten with the delta of its layer.
    ``work`` is passed to _scratch.
    """
    for l in range(len(ws) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=dws[l])
        np.sum(delta, axis=0, out=dbs[l])
        if l > 0:
            back = np.matmul(delta, ws[l].T, out=_scratch(work, "back", acts[l].shape, acts[l].dtype))
            # tanh' = 1 - a^2, formed in the activation, which is not read again
            delta = np.square(acts[l], out=acts[l])
            np.subtract(1.0, delta, out=delta)
            delta *= back


def _scratch(work, key, shape, dtype):
    """An uninitialized array of shape and dtype: a new one if work is None,
    else the leading rows of the array kept in the dict work under key, which
    is replaced only when it is too short or its dtype or other axes differ."""
    if work is None:
        return np.empty(shape, dtype)
    a = work.get(key)
    if a is None or a.dtype != dtype or a.shape[1:] != shape[1:] or len(a) < shape[0]:
        a = work[key] = np.empty(shape, dtype)
    return a[: shape[0]]


def forward(model: DeepONetModel, features: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Predict (k1, k2) at each query point; returns an array of shape (P, 2).

    The trunk output depends only on the points and the trunk weights and
    biases, not on the plant, so the model keeps the last one in a private
    slot, keyed by the exact bytes of the points and of every trunk array it
    was computed from: each array's dtype, shape and ``tobytes()``.  A call
    reuses it only if all of these match; otherwise it recomputes the trunk
    and replaces the slot.  In-place edits and reassigned arrays therefore
    both take effect on the next call, a sign-of-zero edit included, and the
    result is bit for bit that of a fresh trunk evaluation.  The slot holds
    the key (51 KB of trunk bytes at the default widths, and the points) and
    the read-only (P, p) output: about 80 KB after infer_gains at n = 100,
    and about 23 MB after a dense predict_fields at n = 400, until a call
    with other points replaces it.
    """
    features = np.asarray(features, dtype=float)
    if features.shape != (model.branch_dims[0],):
        raise ValueError("feature length does not match the model")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (P, 2) pairs (x, xi)")
    z = (features - model.feat_mean) / model.feat_scale
    bout = _mlp_forward(model.branch_w, model.branch_b, z[None, :])[0]
    tout = _trunk_basis(model, pts)
    p = model.p
    k1 = tout @ bout[:p] + model.b1
    k2 = tout @ bout[p:] + model.b2
    return np.column_stack([k1, k2])


def _trunk_basis(model: DeepONetModel, pts: np.ndarray) -> np.ndarray:
    """The trunk output at pts, from the model's slot if the exact bytes it came from are unchanged."""
    key = [(a.dtype, a.shape, a.tobytes()) for a in (pts, *model.trunk_w, *model.trunk_b)]
    memo = model._trunk_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    tout = _mlp_forward(model.trunk_w, model.trunk_b, _trunk_inputs(pts))
    tout.flags.writeable = False
    model._trunk_memo = (key, tout)
    return tout


def predict_fields(model: DeepONetModel, features: np.ndarray, grid: TriangularGrid):
    """Dense prediction of both kernels at every node of a triangular grid.

    Goes through forward, so repeated calls on one grid reuse the trunk output.
    """
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
    return (feats, *_targets(dataset.samples, np.float64))


def _targets(samples, dtype):
    """The true k1 and k2 of the samples, each stacked into one array of dtype."""
    return np.array([r.k1 for r in samples], dtype=dtype), np.array([r.k2 for r in samples], dtype=dtype)


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

    Every adaptive-moment step runs in float32: the initial weights, the
    normalized features, the targets and the trunk inputs are rounded to
    float32 once, the parameters, gradient and moments stay float32, and the
    held-out errors of all but the last epoch come from float32 predictions.
    The normalization is computed in float64; after the last step the weights
    are widened to float64, exactly, and the readout solve, the last epoch's
    held-out errors and the returned model are float64.
    The trunk output at the grid nodes is computed before each step and once
    after the last (steps + 1 passes); every reader shares it.
    """
    if len(dataset.samples) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    model = init_model(config, rng)

    feats = np.stack([encode_input(r, config.m_enc) for r in dataset.samples])
    tr_idx, te_idx = split_indices(len(dataset.samples), config.train_fraction, config.seed)
    tr, te = ([dataset.samples[i] for i in idx] for idx in (tr_idx, te_idx))
    std = feats[tr_idx].std(axis=0)
    model.feat_mean = feats[tr_idx].mean(axis=0)
    model.feat_scale = np.where(std > 1e-12, std, 1.0)
    z_tr, z_te = ((feats[idx] - model.feat_mean) / model.feat_scale for idx in (tr_idx, te_idx))

    grid = TriangularGrid(dataset.n_grid)
    pts = _trunk_inputs(np.column_stack(grid.node_coordinates()))
    w_tri = tri_quad_weights(grid)

    # the float32 copies the steps read; the float64 targets are stacked only after the last step
    f32 = np.float32
    z32, z_te32, pts32 = z_tr.astype(f32), z_te.astype(f32), pts.astype(f32)
    y1_32, y2_32 = _targets(tr, f32)
    y1_te32, y2_te32 = _targets(te, f32)

    # every parameter, then b1 and b2, in one vector (get_flat_params order);
    # the model's arrays are views of it, so an Adam step is whole-vector ops
    flat = get_flat_params(model).astype(f32)
    model.branch_w, model.branch_b, model.trunk_w, model.trunk_b = _views(model, flat)
    grad = np.empty_like(flat)
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    step = np.empty_like(flat)
    denom = np.empty_like(flat)
    t_step = 0
    n_train = len(tr)

    hist_loss = np.zeros(config.epochs)
    hist_te1 = np.full(config.epochs, np.nan)
    hist_te2 = np.full(config.epochs, np.nan)

    # the large arrays of a step, which every step writes into (see _scratch)
    work = {}
    # the trunk's (output, activations) at the grid nodes for the current weights, once computed
    trunk = None
    for epoch in range(config.epochs):
        # cosine decay to 0.2% of the base rate; late-epoch step noise
        # otherwise keeps the minibatch loss from settling.  A float64 rate
        # would make every step *= lr a float64 loop.
        frac = epoch / max(config.epochs - 1, 1)
        lr = f32(config.learning_rate * (0.002 + 0.998 * 0.5 * (1 + np.cos(np.pi * frac))))
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_train, config.batch_size):
            batch = order[start : start + config.batch_size]
            if trunk is None:
                trunk = _mlp_forward(model.trunk_w, model.trunk_b, pts32, keep=True)
            loss = _loss_and_grads(model, z32[batch], y1_32[batch], y2_32[batch], trunk, grad, work)
            trunk = None  # spent: its arrays are freed before the next pass allocates new ones
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, step {n_batches}"
                )
            epoch_loss += loss
            n_batches += 1

            t_step += 1
            bc1 = 1.0 - _ADAM_BETA1**t_step
            bc2 = 1.0 - _ADAM_BETA2**t_step
            adam_m *= _ADAM_BETA1
            np.multiply(grad, 1 - _ADAM_BETA1, out=step)
            adam_m += step
            np.multiply(grad, grad, out=step)
            step *= 1 - _ADAM_BETA2
            adam_v *= _ADAM_BETA2
            adam_v += step
            np.divide(adam_m, bc1, out=step)
            step *= lr
            np.divide(adam_v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            step /= denom
            flat -= step
            model.b1, model.b2 = float(flat[-2]), float(flat[-1])

        hist_loss[epoch] = epoch_loss / max(n_batches, 1)
        # the last epoch's errors are those of the final model, below
        if te and epoch < config.epochs - 1:
            trunk = _mlp_forward(model.trunk_w, model.trunk_b, pts32, keep=True)
            res = _evaluate(model, z_te32, y1_te32, y2_te32, trunk[0], w_tri)
            hist_te1[epoch], hist_te2[epoch] = res.rel_l2_k1, res.rel_l2_k2

    # widening is exact: the float64 model holds the float32 fit's weights
    flat = flat.astype(np.float64)
    model.branch_w, model.branch_b, model.trunk_w, model.trunk_b = _views(model, flat)
    tout = _mlp_forward(model.trunk_w, model.trunk_b, pts)
    # the readout solve leaves the trunk as it is
    _polish_readout(model, z_tr, *_targets(tr, np.float64), tout)
    if te:
        res = _evaluate(model, z_te, *_targets(te, np.float64), tout, w_tri)
        hist_te1[-1], hist_te2[-1] = res.rel_l2_k1, res.rel_l2_k2

    history = TrainHistory(train_loss=hist_loss, test_rel_l2_k1=hist_te1, test_rel_l2_k2=hist_te2)
    return model, history


def _polish_readout(model: DeepONetModel, z_tr, y1_tr, y2_tr, tout) -> None:
    """Solve the linear readout exactly once the nonlinear layers are trained.

    With the hidden layers frozen the prediction is linear in the last branch
    layer and the output biases, and the normal equations factor over the
    (sample, node) product grid, so the train MSE minimizer is available in
    closed form.  Adaptive-moment steps leave this layer far from optimal.
    ``tout`` is the trunk output at the grid nodes.
    """
    p = model.p
    acts = _mlp_forward(model.branch_w, model.branch_b, z_tr, keep=True)[1]
    a_pen = np.column_stack([acts[-2], np.ones(z_tr.shape[0])])
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
    z = (feats - model.feat_mean) / model.feat_scale
    tout = _mlp_forward(model.trunk_w, model.trunk_b, pts)
    return _evaluate(model, z, y1, y2, tout, tri_quad_weights(grid))


def _evaluate(model: DeepONetModel, z, y1, y2, tout, w) -> EvalResult:
    """evaluate's result from normalized features, true kernels, the trunk output at the nodes and their weights."""
    bout = _mlp_forward(model.branch_w, model.branch_b, z)
    p = model.p
    means, skipped = [], []
    for pred, truth in ((bout[:, :p] @ tout.T + model.b1, y1), (bout[:, p:] @ tout.T + model.b2, y2)):
        errs = [relative_l2(a, b, w) for a, b in zip(pred, truth)]
        finite = [e for e in errs if np.isfinite(e)]
        means.append(float(np.mean(finite)) if finite else float("nan"))
        skipped.append(len(errs) - len(finite))
    return EvalResult(means[0], means[1], len(z), skipped[0], skipped[1])


@functools.lru_cache(maxsize=32)
def _top_edge(n: int) -> np.ndarray:
    """The (n+1, 2) points (1, xi_j) of the top edge x = 1, built once per n and read-only."""
    pts = np.column_stack([np.ones(n + 1), IntervalGrid(n).points])
    pts.flags.writeable = False
    return pts


def infer_gains(model: DeepONetModel, coeffs: CoefficientSet, xi_grid: IntervalGrid) -> GainVector:
    """Predicted feedback gains: the model evaluated along the top edge x = 1.

    The top-edge points are one read-only array per n (see _top_edge), so
    after the first call their bytes and the trunk's match the key of the
    model's slot (see forward) and the trunk output comes from it: only the
    branch net and two p-vector products run per plant.  The slot then
    retains about 80 KB at n = 100 with the default widths.
    """
    features = encode_input(coeffs, model.m_enc)
    out = forward(model, features, _top_edge(xi_grid.n))
    return GainVector(grid=xi_grid, g1=out[:, 0], g2=out[:, 1])


def _loss_and_grads(model: DeepONetModel, z, y1, y2, trunk, grad, work=None):
    """Training MSE on normalized features; its gradient goes into grad.

    ``trunk`` is the pair (output, activations) of _mlp_forward(..., keep=True)
    on the trunk inputs, for the current trunk weights; its hidden activations
    are overwritten.  grad is a flat vector in get_flat_params order.  The
    residuals and the trunk's backward pass go into arrays from ``work`` (see
    _scratch), in the trunk output's dtype: a float32 step stays float32.
    """
    p = model.p
    bout, bacts = _mlp_forward(model.branch_w, model.branch_b, z, keep=True)
    tout, tacts = trunk
    shape, dt = (len(z), len(tout)), tout.dtype
    d1, d2 = _scratch(work, "d1", shape, dt), _scratch(work, "d2", shape, dt)
    np.matmul(bout[:, :p], tout.T, out=d1)
    d1 += model.b1
    d1 -= y1
    np.matmul(bout[:, p:], tout.T, out=d2)
    d2 += model.b2
    d2 -= y2
    n_terms = d1.size + d2.size
    sq = np.multiply(d1, d1, out=_scratch(work, "sq", shape, dt))
    loss = np.sum(sq)
    loss += np.sum(np.multiply(d2, d2, out=sq))
    loss /= n_terms
    d1 *= 2.0 / n_terms
    d2 *= 2.0 / n_terms
    d_bout = np.concatenate([d1 @ tout, d2 @ tout], axis=1)
    d_tout = np.matmul(d1.T, bout[:, :p], out=_scratch(work, "d_tout", tout.shape, dt))
    d_tout += np.matmul(d2.T, bout[:, p:], out=_scratch(work, "d_tout2", tout.shape, dt))
    dbw, dbb, dtw, dtb = _views(model, grad)
    _mlp_backward(model.branch_w, bacts, d_bout, dbw, dbb)
    _mlp_backward(model.trunk_w, tacts, d_tout, dtw, dtb, work)
    grad[-2] = d1.sum()
    grad[-1] = d2.sum()
    return loss


def _views(model: DeepONetModel, flat: np.ndarray):
    """(branch_w, branch_b, trunk_w, trunk_b) shaped like the model's, as views of flat in get_flat_params order."""
    groups, pos = [], 0
    for arrays in (model.branch_w, model.branch_b, model.trunk_w, model.trunk_b):
        views = []
        for a in arrays:
            views.append(flat[pos : pos + a.size].reshape(a.shape))
            pos += a.size
        groups.append(views)
    return groups


def get_flat_params(model: DeepONetModel) -> np.ndarray:
    parts = [p.ravel() for p in model.parameters()] + [[model.b1], [model.b2]]
    return np.concatenate(parts)


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
        _check_dims(p, branch_dims, trunk_dims)

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
