import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gainops as g
from gainops import neural_op as nn
from gainops.data_store import Dataset, generate
from gainops.coefficients import CoefficientFamily
from gainops.numerics import TriangularGrid, tri_quad_weights

from conftest import loss_and_gradients, mixed_plants, set_flat_params


@pytest.fixture(scope="module")
def tiny_dataset():
    fam = CoefficientFamily("gamma", (0.5, 5.0))
    return generate(fam, 24, m_coeff=51, n_grid=20, seed=7)


def small_config(**kw):
    defaults = dict(m_enc=5, p=8, branch_hidden=(16,), trunk_hidden=(16,), epochs=5, seed=3)
    defaults.update(kw)
    return nn.TrainConfig(**defaults)


class TestEncodeInput:
    def test_feature_length(self, gamma1):
        assert nn.encode_input(gamma1, 21).size == 106

    def test_lambda_block_values(self, gamma1):
        feats = nn.encode_input(gamma1, 21)
        x = np.arange(21) / 20
        assert np.allclose(feats[:21], x + 1.0, atol=1e-12)
        assert feats[10] == pytest.approx(1.5)
        assert feats[-1] == gamma1.q

    def test_equal_coefficients_equal_features(self, gamma1):
        other = g.gamma_family(1.0)
        assert np.array_equal(nn.encode_input(gamma1, 13), nn.encode_input(other, 13))

    @pytest.mark.parametrize("m_enc", [25, 37, 50, 100, 400])
    def test_blocks_bitwise_equal_to_interp_linear(self, m_enc):
        # the reference is linear interpolation by np.interp on the source grid's nodes
        xq = np.arange(m_enc) / (m_enc - 1)
        for c in mixed_plants(7):
            expected = [np.interp(xq, c.grid.points, getattr(c, f)) for f in ("lam", "mu", "sigma", "omega", "theta")]
            assert nn.encode_input(c, m_enc).tobytes() == np.concatenate([*expected, [c.q]]).tobytes()

    def test_m_enc_too_small(self, gamma1):
        with pytest.raises(ValueError):
            nn.encode_input(gamma1, 1)


class TestForward:
    def test_zero_weights_zero_output(self):
        model = nn.init_model(small_config())
        for w in model.parameters():
            w[...] = 0.0
        out = nn.forward(model, np.ones(26), np.array([[0.5, 0.2], [1.0, 0.0]]))
        assert np.all(out == 0.0)

    def test_one_hot_basis_recovery(self):
        model = nn.init_model(small_config())
        for w in model.parameters():
            w[...] = 0.0
        # drive slot r=2 of the k1 block through the branch bias, and make the
        # trunk emit e_2 via its bias: prediction must be their product
        model.branch_b[-1][2] = 3.0
        model.trunk_b[-1][2] = 0.5
        out = nn.forward(model, np.zeros(26), np.array([[0.3, 0.1]]))
        assert out[0, 0] == pytest.approx(1.5, abs=1e-15)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(0)
        model = nn.init_model(small_config(seed=11))
        feats = rng.normal(size=26)
        pts = rng.uniform(0, 1, size=(4, 2))
        pts[:, 1] = pts[:, 1] * pts[:, 0]
        out = nn.forward(model, feats, pts)

        z = (feats - model.feat_mean) / model.feat_scale
        a = z.copy()
        for l, (w, b) in enumerate(zip(model.branch_w, model.branch_b)):
            a = a @ w + b
            if l < len(model.branch_w) - 1:
                a = np.tanh(a)
        for row, (x, xi) in enumerate(pts):
            t = 2.0 * np.array([x, xi]) - 1.0
            for l, (w, b) in enumerate(zip(model.trunk_w, model.trunk_b)):
                t = t @ w + b
                if l < len(model.trunk_w) - 1:
                    t = np.tanh(t)
            k1 = sum(a[r] * t[r] for r in range(model.p)) + model.b1
            k2 = sum(a[model.p + r] * t[r] for r in range(model.p)) + model.b2
            assert out[row, 0] == pytest.approx(k1, rel=1e-12)
            assert out[row, 1] == pytest.approx(k2, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = nn.init_model(small_config())
        with pytest.raises(ValueError):
            nn.forward(model, np.ones(7), np.array([[0.5, 0.2]]))

    @pytest.mark.parametrize("shape", [(5, 2, 2), (1, 1, 2)])
    def test_points_with_more_than_two_axes_rejected(self, shape):
        model = nn.init_model(small_config())
        with pytest.raises(ValueError, match=r"points must be \(P, 2\) pairs"):
            nn.forward(model, np.zeros(model.branch_dims[0]), np.zeros(shape))

    @pytest.mark.parametrize("hidden", [3, 0])
    def test_model_whose_arrays_do_not_fit_its_dims_rejected(self, hidden):
        # trunk weights (2, 5), (5, p) next to trunk dims (2, 3, p) used to fail
        # only in forward, and a zero-width hidden layer to predict a constant
        model = nn.init_model(small_config(trunk_hidden=(5,)))
        p = model.p
        arrays = {} if hidden else dict(trunk_w=[np.zeros((2, 0)), np.zeros((0, p))], trunk_b=[np.zeros(0), np.zeros(p)])
        with pytest.raises(ValueError, match="inconsistent"):
            replace(model, trunk_dims=(2, hidden, p), **arrays)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        config = small_config(m_enc=3, p=4, branch_hidden=(8,), trunk_hidden=(8,), seed=5)
        model = nn.init_model(config)
        rng = np.random.default_rng(7)
        model.feat_mean = rng.normal(size=16)
        model.feat_scale = np.abs(rng.normal(size=16)) + 0.5
        feats = rng.normal(size=(3, 16))
        pts = rng.uniform(0, 1, size=(6, 2))
        y1 = rng.normal(size=(3, 6))
        y2 = rng.normal(size=(3, 6))
        _, grad = loss_and_gradients(model, feats, y1, y2, pts)
        flat = nn.get_flat_params(model)
        eps = 1e-6
        fd = np.zeros_like(flat)
        for k in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[k] += eps
            dn[k] -= eps
            set_flat_params(model, up)
            lu, _ = loss_and_gradients(model, feats, y1, y2, pts)
            set_flat_params(model, dn)
            ld, _ = loss_and_gradients(model, feats, y1, y2, pts)
            fd[k] = (lu - ld) / (2 * eps)
        set_flat_params(model, flat)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.maximum(np.abs(grad), np.abs(fd)))
        assert rel.max() <= 1e-4


# the benchmark's train workload holds the held-out error per kernel to this bound
HELDOUT_BOUND = 0.03


@pytest.fixture(scope="module")
def gamma_fit_data():
    """100 training plants and 32 held-out plants of the gamma family, n_grid 50, disjoint seeds."""
    fam = CoefficientFamily("gamma", (0.5, 5.0))
    return generate(fam, 100, m_coeff=101, n_grid=50, seed=11), generate(fam, 32, m_coeff=101, n_grid=50, seed=12)


class TestTraining:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_short_fit_at_the_default_widths_generalizes(self, gamma_fit_data, seed):
        # c10 trains at the default widths but is slow; this keeps a fast guard on them
        train_set, heldout = gamma_fit_data
        model, _ = nn.train(train_set, nn.TrainConfig(epochs=10, seed=seed))
        res = nn.evaluate(model, heldout)
        assert res.rel_l2_k1 <= HELDOUT_BOUND
        assert res.rel_l2_k2 <= HELDOUT_BOUND

    def test_loss_decreases(self, tiny_dataset):
        model, hist = nn.train(tiny_dataset, small_config(epochs=40))
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_deterministic_bit_identical(self, tiny_dataset):
        m1, h1 = nn.train(tiny_dataset, small_config(epochs=6))
        m2, h2 = nn.train(tiny_dataset, small_config(epochs=6))
        assert np.array_equal(h1.train_loss, h2.train_loss)
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)
        assert m1.b1 == m2.b1 and m1.b2 == m2.b2

    def test_normalization_frozen_from_train_split(self, tiny_dataset):
        model, _ = nn.train(tiny_dataset, small_config(epochs=2))
        assert np.all(model.feat_scale > 0)
        assert model.feat_mean.size == 26

    def test_small_overfit_improves(self, tiny_dataset):
        one = Dataset(tiny_dataset.m_coeff, tiny_dataset.n_grid, [tiny_dataset.samples[0]])
        model, hist = nn.train(one, small_config(epochs=400, learning_rate=3e-3))
        res = nn.evaluate(model, one)
        assert res.rel_l2_k1 <= 0.1 and res.rel_l2_k2 <= 0.1

    def test_single_encoding_node_rejected(self):
        # one node leaves no spacing to interpolate on; the fit used to end in
        # a misleading "training diverged"
        with pytest.raises(ValueError, match="m_enc"):
            small_config(m_enc=1)

    @pytest.mark.parametrize("widths", [dict(trunk_hidden=(0,)), dict(branch_hidden=(-3,)), dict(branch_hidden=(8, 0))])
    def test_hidden_widths_below_one_rejected(self, widths):
        # a zero-width trunk layer used to train into a model file load_model refuses,
        # and a negative width to fail inside numpy at init_model
        with pytest.raises(ValueError, match="hidden layer widths must be positive"):
            small_config(**widths)

    def test_no_hidden_layer_is_valid(self):
        config = small_config(branch_hidden=(), trunk_hidden=())
        assert nn.init_model(config).trunk_dims == (2, config.p)

    def test_empty_dataset_rejected(self, tiny_dataset):
        empty = Dataset(tiny_dataset.m_coeff, tiny_dataset.n_grid, [])
        with pytest.raises(ValueError):
            nn.train(empty, small_config())

    def test_divergence_aborts_with_diagnostic(self, tiny_dataset):
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss"):
                nn.train(tiny_dataset, small_config(epochs=4, learning_rate=1e30))


class TestEvaluate:
    def test_relative_l2_of_exact_prediction_is_zero(self):
        w = tri_quad_weights(TriangularGrid(10))
        truth = np.linspace(1, 2, w.size)
        assert nn.relative_l2(truth, truth, w) == 0.0

    def test_relative_l2_of_zero_prediction_is_one(self):
        w = tri_quad_weights(TriangularGrid(10))
        truth = np.linspace(1, 2, w.size)
        assert nn.relative_l2(np.zeros_like(truth), truth, w) == pytest.approx(1.0)

    def test_zero_model_scores_one(self, tiny_dataset):
        model = nn.init_model(small_config())
        for w in model.parameters():
            w[...] = 0.0
        model.b1 = model.b2 = 0.0
        res = nn.evaluate(model, tiny_dataset)
        assert res.rel_l2_k1 == pytest.approx(1.0)
        assert res.rel_l2_k2 == pytest.approx(1.0)
        assert res.n_skipped_k1 == 0

    def test_invariant_to_sample_order(self, tiny_dataset):
        model, _ = nn.train(tiny_dataset, small_config(epochs=2))
        shuffled = Dataset(
            tiny_dataset.m_coeff, tiny_dataset.n_grid, list(reversed(tiny_dataset.samples))
        )
        a = nn.evaluate(model, tiny_dataset)
        b = nn.evaluate(model, shuffled)
        assert a.rel_l2_k1 == pytest.approx(b.rel_l2_k1, rel=1e-12)
        assert a.rel_l2_k2 == pytest.approx(b.rel_l2_k2, rel=1e-12)

    def test_zero_norm_samples_skipped(self, tiny_dataset):
        rec = tiny_dataset.samples[0]
        dead = replace(rec, k1=np.zeros_like(rec.k1), k2=np.zeros_like(rec.k2))
        ds = Dataset(tiny_dataset.m_coeff, tiny_dataset.n_grid, [rec, dead])
        model = nn.init_model(small_config())
        res = nn.evaluate(model, ds)
        assert res.n_skipped_k1 == 1 and res.n_skipped_k2 == 1


class TestInferGains:
    def test_zero_model_zero_gains(self, gamma1):
        model = nn.init_model(small_config())
        for w in model.parameters():
            w[...] = 0.0
        model.b1 = model.b2 = 0.0
        gains = nn.infer_gains(model, gamma1, g.IntervalGrid(50))
        assert np.all(gains.g1 == 0) and np.all(gains.g2 == 0)

    def test_consistent_with_dense_forward_top_row(self, gamma1):
        # same computation path; BLAS reduction order can still differ by one
        # ulp between batch shapes, so equality is asserted to that level
        model = nn.init_model(small_config(seed=21))
        n = 30
        gains = nn.infer_gains(model, gamma1, g.IntervalGrid(n))
        feats = nn.encode_input(gamma1, model.m_enc)
        k1, k2 = nn.predict_fields(model, feats, TriangularGrid(n))
        top = slice(n * (n + 1) // 2, None)
        scale = max(1.0, np.abs(k1[top]).max(), np.abs(k2[top]).max())
        assert np.abs(gains.g1 - k1[top]).max() <= 1e-15 * scale
        assert np.abs(gains.g2 - k2[top]).max() <= 1e-15 * scale

    def test_each_call_goes_through_the_module_level_encoder_and_forward(self, monkeypatch, gamma1):
        # the benchmark's tracer rebinds these module globals to time them
        calls = {"encode_input": 0, "forward": 0}

        def counted(name):
            inner = getattr(nn, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nn, name, counted(name))
        model = nn.init_model(small_config(seed=3))
        for k in range(1, 4):
            nn.infer_gains(model, gamma1, g.IntervalGrid(30))
            assert calls == {"encode_input": k, "forward": k}

    @pytest.mark.parametrize("n", [2, 30, 100])
    def test_top_edge_is_read_only_and_bitwise_the_grid_edge(self, n):
        pts = nn._top_edge(n)
        assert not pts.flags.writeable
        assert pts.tobytes() == np.column_stack([np.ones(n + 1), g.IntervalGrid(n).points]).tobytes()
        assert nn._top_edge(n) is pts


def fresh_forward(model, features, points):
    """forward's arithmetic with the trunk evaluated afresh, never from the model's slot."""
    z = (features - model.feat_mean) / model.feat_scale
    bout = nn._mlp_forward(model.branch_w, model.branch_b, z[None, :])[0]
    tout = nn._mlp_forward(model.trunk_w, model.trunk_b, nn._trunk_inputs(points))
    p = model.p
    return np.column_stack([tout @ bout[:p] + model.b1, tout @ bout[p:] + model.b2])


def top_edge(n):
    return np.column_stack([np.ones(n + 1), g.IntervalGrid(n).points])


def dense_points(n):
    return np.column_stack(TriangularGrid(n).node_coordinates())


class TestTrunkSlot:
    """forward keeps its last trunk output; every result must be that of a fresh trunk."""

    @staticmethod
    def fresh_gains(model, coeffs, n):
        """infer_gains at n, checked bit for bit against fresh_forward; returns its bytes."""
        gains = nn.infer_gains(model, coeffs, g.IntervalGrid(n))
        got = np.column_stack([gains.g1, gains.g2]).tobytes()
        assert got == fresh_forward(model, nn.encode_input(coeffs, model.m_enc), top_edge(n)).tobytes()
        return got

    @staticmethod
    def fresh_fields(model, coeffs, n):
        feats = nn.encode_input(coeffs, model.m_enc)
        k1, k2 = nn.predict_fields(model, feats, TriangularGrid(n))
        assert np.column_stack([k1, k2]).tobytes() == fresh_forward(model, feats, dense_points(n)).tobytes()

    @pytest.mark.parametrize("n", [30, 50, 100])
    def test_gains_and_fields_bitwise_equal_to_a_fresh_trunk(self, n):
        model = nn.init_model(nn.TrainConfig(seed=5))
        plants = mixed_plants(4)
        for c in plants:  # the first call fills the slot, the others reuse it
            self.fresh_gains(model, c, n)
        for c in plants[:2]:
            self.fresh_fields(model, c, n)

    def test_every_trunk_edit_takes_effect_on_the_next_call(self, gamma5):
        model = nn.init_model(nn.TrainConfig(seed=8))
        assert len(model.trunk_w) == len(model.trunk_b) == 3
        before = self.fresh_gains(model, gamma5, 50)

        def changed():
            nonlocal before
            after = self.fresh_gains(model, gamma5, 50)
            assert after != before
            before = after

        for w in model.trunk_w:
            w[0, 0] += 1e-3
            changed()
        for b in model.trunk_b:
            b[0] = b[0] - 1e-3
            changed()
        model.trunk_w[1] = model.trunk_w[1] * 1.5
        changed()
        set_flat_params(model, 0.9 * nn.get_flat_params(model))
        changed()

    def test_sign_of_a_zero_bias_is_part_of_the_key(self, gamma1):
        # 0.0 and -0.0 compare equal, but a fresh trunk pass can tell them apart
        model = nn.init_model(small_config(seed=7))
        feats = nn.encode_input(gamma1, model.m_enc)
        pts = top_edge(30)
        model.trunk_b[-1][0] = 0.0
        nn.forward(model, feats, pts)
        filled = model._trunk_memo[1]
        model.trunk_b[-1][0] = -0.0
        got = nn.forward(model, feats, pts)
        assert model._trunk_memo[1] is not filled
        assert got.tobytes() == fresh_forward(model, feats, pts).tobytes()

    def test_edits_of_a_trained_model_take_effect(self, tiny_dataset, gamma1):
        # train leaves the model's arrays as views of one vector
        model, _ = nn.train(tiny_dataset, nn.TrainConfig(epochs=2, seed=9))
        feats = nn.encode_input(gamma1, model.m_enc)
        pts = top_edge(30)
        before = nn.forward(model, feats, pts).tobytes()
        model.trunk_w[0][1, 2] += 1e-3
        after = nn.forward(model, feats, pts).tobytes()
        assert after != before
        assert after == fresh_forward(model, feats, pts).tobytes()
        set_flat_params(model, 0.9 * nn.get_flat_params(model))
        last = nn.forward(model, feats, pts).tobytes()
        assert last != after
        assert last == fresh_forward(model, feats, pts).tobytes()

    def test_edited_points_are_not_reused(self, gamma1):
        model = nn.init_model(small_config(seed=2))
        feats = nn.encode_input(gamma1, model.m_enc)
        pts = top_edge(30)
        nn.forward(model, feats, pts)
        pts[3, 1] = 0.5
        assert nn.forward(model, feats, pts).tobytes() == fresh_forward(model, feats, pts).tobytes()

    def test_alternating_point_sets(self, gamma1, gamma5):
        model = nn.init_model(nn.TrainConfig(seed=6))
        self.fresh_gains(model, gamma1, 50)
        self.fresh_fields(model, gamma5, 30)
        self.fresh_gains(model, gamma5, 50)

    def test_writing_into_a_result_cannot_change_the_next(self, gamma1):
        model = nn.init_model(small_config(seed=4))
        feats = nn.encode_input(gamma1, model.m_enc)
        out = nn.forward(model, feats, top_edge(40))
        expected = out.tobytes()
        out[...] = 7.0
        assert nn.forward(model, feats, top_edge(40)).tobytes() == expected

    def test_model_file_ignores_the_slot(self, gamma1, tmp_path):
        model = nn.init_model(small_config(seed=6))
        empty, filled = tmp_path / "empty.bin", tmp_path / "filled.bin"
        nn.save_model(model, empty)
        nn.infer_gains(model, gamma1, g.IntervalGrid(30))
        nn.save_model(model, filled)
        assert filled.read_bytes() == empty.read_bytes()
        assert nn.load_model(filled)._trunk_memo is None

    def test_slot_retains_its_arrays_and_little_more_at_n100(self, gamma1):
        # default widths: trunk copies 51 kB, output 101 x 32 doubles 26 kB, points 1.6 kB;
        # the objects holding them measured 1.3 kB more
        grid = g.IntervalGrid(100)
        nn.infer_gains(nn.init_model(nn.TrainConfig()), gamma1, grid)  # one-time allocations
        model = nn.init_model(nn.TrainConfig())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nn.infer_gains(model, gamma1, grid)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        trunk = sum(a.nbytes for a in [*model.trunk_w, *model.trunk_b])
        points, output = 8 * 101 * 2, 8 * 101 * model.p
        assert kept <= trunk + points + output + 4096


class TestModelFile:
    def test_roundtrip_bit_identical(self, tiny_dataset, tmp_path):
        model, _ = nn.train(tiny_dataset, small_config(epochs=2))
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        back = nn.load_model(path)
        assert back.branch_dims == model.branch_dims
        assert back.trunk_dims == model.trunk_dims
        assert nn.get_flat_params(back).tobytes() == nn.get_flat_params(model).tobytes()
        assert back.feat_mean.tobytes() == model.feat_mean.tobytes()
        assert back.feat_scale.tobytes() == model.feat_scale.tobytes()
        nn.save_model(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_one_unit_hidden_layers_roundtrip(self, tiny_dataset, tmp_path):
        model, _ = nn.train(tiny_dataset, small_config(epochs=1, branch_hidden=(1,), trunk_hidden=(1, 1)))
        nn.save_model(model, tmp_path / "model.bin")
        back = nn.load_model(tmp_path / "model.bin")
        assert back.trunk_dims == (2, 1, 1, 8)
        assert nn.get_flat_params(back).tobytes() == nn.get_flat_params(model).tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            nn.load_model(path)

    def test_truncation_rejected(self, tiny_dataset, tmp_path):
        model, _ = nn.train(tiny_dataset, small_config(epochs=2))
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            nn.load_model(path)

    def test_bad_version_rejected(self, tiny_dataset, tmp_path):
        model, _ = nn.train(tiny_dataset, small_config(epochs=2))
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            nn.load_model(path)

    def test_zero_branch_layers_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(nn.MODEL_MAGIC + struct.pack("<IIII", nn.MODEL_VERSION, 5, 4, 0) + struct.pack("<I", 0))
        with pytest.raises(ValueError, match="at least 2"):
            nn.load_model(path)

    def test_inconsistent_dims_rejected(self, tiny_dataset, tmp_path):
        model, _ = nn.train(tiny_dataset, small_config(epochs=2))
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        data = bytearray(path.read_bytes())
        # the trunk's last dim sits just before the weights
        end = 20 + 4 * len(model.branch_dims) + 4 + 4 * len(model.trunk_dims)
        data[end - 4 : end] = struct.pack("<I", model.p + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="inconsistent"):
            nn.load_model(path)

    def test_non_finite_values_rejected(self, tmp_path):
        # a file whose normalization scale is nan and output bias inf
        model = nn.init_model(small_config())
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        data = bytearray(path.read_bytes())
        data[-24:-16] = struct.pack("<d", np.nan)
        data[-16:-8] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="finite"):
            nn.load_model(path)

    @pytest.mark.parametrize("name", ["branch_w", "branch_b", "trunk_w", "trunk_b", "feat_mean", "feat_scale", "b1", "b2"])
    def test_non_finite_model_rejected(self, name):
        model = nn.init_model(small_config())
        value = getattr(model, name)
        if isinstance(value, list):
            value = [a.copy() for a in value]
            value[-1][0] = np.nan
        elif isinstance(value, np.ndarray):
            value = value.copy()
            value[0] = -np.inf
        else:
            value = np.inf
        with pytest.raises(ValueError, match="finite"):
            replace(model, **{name: value})

    @pytest.mark.parametrize("scale", [0.0, -2.0])
    def test_nonpositive_feature_scale_rejected(self, scale):
        model = nn.init_model(small_config())
        feat_scale = model.feat_scale.copy()
        feat_scale[3] = scale
        with pytest.raises(ValueError, match="normalization scale must be positive"):
            replace(model, feat_scale=feat_scale)

    def test_dims_larger_than_file_rejected(self, tmp_path):
        # 2**31 x 2**31 weights asked for more bytes than an index can hold
        path = tmp_path / "model.bin"
        dims = struct.pack("<III", 2**31, 2**31, 8)
        path.write_bytes(
            nn.MODEL_MAGIC + struct.pack("<IIII", nn.MODEL_VERSION, 5, 4, 3) + dims
            + struct.pack("<I", 2) + struct.pack("<II", 2, 4) + b"\0" * 64
        )
        with pytest.raises(ValueError, match="model file truncated while reading branch weights"):
            nn.load_model(path)

    def test_one_node_encoding_rejected(self, tmp_path):
        # m_enc = 1 with branch dims (6, 3, 4) fits every width check, but an
        # encoding needs two nodes: the reader refuses the file, before any inference
        path = tmp_path / "model.bin"
        values = np.concatenate([np.zeros(6 * 3 + 3 * 4 + 2 * 2 + 3 + 4 + 2 + 6), np.ones(6), np.zeros(2)])
        path.write_bytes(
            nn.MODEL_MAGIC + struct.pack("<IIII", nn.MODEL_VERSION, 1, 2, 3) + struct.pack("<III", 6, 3, 4)
            + struct.pack("<I", 2) + struct.pack("<II", 2, 2) + values.astype("<f8").tobytes()
        )
        with pytest.raises(ValueError, match="m_enc must be at least 2"):
            nn.load_model(path)


def per_array_grads(model, z, y1, y2, pts):
    """Training MSE and its gradient as a list in parameters() order, then db1 and db2."""
    p = model.p
    bout, bacts = nn._mlp_forward(model.branch_w, model.branch_b, z, keep=True)
    tout, tacts = nn._mlp_forward(model.trunk_w, model.trunk_b, pts, keep=True)
    d1 = bout[:, :p] @ tout.T + model.b1 - y1
    d2 = bout[:, p:] @ tout.T + model.b2 - y2
    n_terms = d1.size + d2.size
    loss = (np.sum(d1 * d1) + np.sum(d2 * d2)) / n_terms
    g1 = (2.0 / n_terms) * d1
    g2 = (2.0 / n_terms) * d2

    def backward(ws, acts, delta):
        dws, dbs = [None] * len(ws), [None] * len(ws)
        for l in range(len(ws) - 1, -1, -1):
            dws[l] = acts[l].T @ delta
            dbs[l] = delta.sum(axis=0)
            delta = delta @ ws[l].T
            if l > 0:
                delta = delta * (1.0 - acts[l] ** 2)
        return dws, dbs

    dbw, dbb = backward(model.branch_w, bacts, np.concatenate([g1 @ tout, g2 @ tout], axis=1))
    dtw, dtb = backward(model.trunk_w, tacts, g1.T @ bout[:, :p] + g2.T @ bout[:, p:])
    return loss, [*dbw, *dbb, *dtw, *dtb, g1.sum(), g2.sum()]


def per_array_train(dataset, config):
    """train with one Adam update per parameter array, the output biases as
    float32 scalars and a fresh trunk pass wherever one is read; returns the
    model and the history.  The steps and the per-epoch held-out errors are
    float32; the readout solve and the final held-out errors are float64."""
    f32 = np.float32
    rng = np.random.default_rng(config.seed)
    model = nn.init_model(config, rng)
    feats, y1, y2 = nn._dataset_tensors(dataset, config.m_enc)
    tr, te = nn.split_indices(len(dataset.samples), config.train_fraction, config.seed)
    std = feats[tr].std(axis=0)
    model.feat_mean = feats[tr].mean(axis=0)
    model.feat_scale = np.where(std > 1e-12, std, 1.0)
    z = (feats - model.feat_mean) / model.feat_scale
    grid = TriangularGrid(dataset.n_grid)
    pts = nn._trunk_inputs(np.column_stack(grid.node_coordinates()))
    w_tri = tri_quad_weights(grid)
    z32, y1_32, y2_32, pts32 = (a.astype(f32) for a in (z, y1, y2, pts))
    b1, b2, eps = nn._ADAM_BETA1, nn._ADAM_BETA2, nn._ADAM_EPS

    for name in ("branch_w", "branch_b", "trunk_w", "trunk_b"):
        setattr(model, name, [a.astype(f32) for a in getattr(model, name)])
    model.b1 = model.b2 = f32(0.0)
    params = model.parameters()
    adam_m = [np.zeros_like(a) for a in params] + [f32(0.0), f32(0.0)]
    adam_v = [np.zeros_like(a) for a in params] + [f32(0.0), f32(0.0)]
    hist = nn.TrainHistory(np.zeros(config.epochs), np.full(config.epochs, np.nan), np.full(config.epochs, np.nan))
    t_step = 0
    for epoch in range(config.epochs):
        frac = epoch / max(config.epochs - 1, 1)
        lr = f32(config.learning_rate * (0.002 + 0.998 * 0.5 * (1 + np.cos(np.pi * frac))))
        order = tr[rng.permutation(len(tr))]
        losses = []
        for start in range(0, len(tr), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = per_array_grads(model, z32[batch], y1_32[batch], y2_32[batch], pts32)
            losses.append(loss)
            t_step += 1
            bc1, bc2 = 1.0 - b1**t_step, 1.0 - b2**t_step
            for k, g in enumerate(grads):
                adam_m[k] = b1 * adam_m[k] + (1 - b1) * g
                adam_v[k] = b2 * adam_v[k] + (1 - b2) * (g * g)
                step = lr * (adam_m[k] / bc1) / (np.sqrt(adam_v[k] / bc2) + eps)
                if k < len(params):
                    params[k] -= step
                elif k == len(params):
                    model.b1 -= step
                else:
                    model.b2 -= step
        hist.train_loss[epoch] = sum(losses) / len(losses)
        if len(te):
            tout = nn._mlp_forward(model.trunk_w, model.trunk_b, pts32)
            res = nn._evaluate(model, z32[te], y1_32[te], y2_32[te], tout, w_tri)
            hist.test_rel_l2_k1[epoch], hist.test_rel_l2_k2[epoch] = res.rel_l2_k1, res.rel_l2_k2
    for name in ("branch_w", "branch_b", "trunk_w", "trunk_b"):
        setattr(model, name, [a.astype(float) for a in getattr(model, name)])
    model.b1, model.b2 = float(model.b1), float(model.b2)
    tout = nn._mlp_forward(model.trunk_w, model.trunk_b, pts)
    nn._polish_readout(model, z[tr], y1[tr], y2[tr], tout)
    if len(te):
        tout = nn._mlp_forward(model.trunk_w, model.trunk_b, pts)
        res = nn._evaluate(model, z[te], y1[te], y2[te], tout, w_tri)
        hist.test_rel_l2_k1[-1], hist.test_rel_l2_k2[-1] = res.rel_l2_k1, res.rel_l2_k2
    return model, hist


def assert_same_fit(model, hist, ref, ref_hist):
    for a, b in zip(model.parameters(), ref.parameters(), strict=True):
        assert a.tobytes() == b.tobytes()
    assert np.float64(model.b1).tobytes() == np.float64(ref.b1).tobytes()
    assert np.float64(model.b2).tobytes() == np.float64(ref.b2).tobytes()
    for name in ("train_loss", "test_rel_l2_k1", "test_rel_l2_k2"):
        assert getattr(hist, name).tobytes() == getattr(ref_hist, name).tobytes()


class TestFlatAdam:
    """train keeps every parameter in one vector; its fits are those of the per-array loop."""

    def test_default_widths_with_a_short_last_minibatch(self, tiny_dataset):
        # 22 training samples in minibatches of 5: the last holds 2
        config = nn.TrainConfig(epochs=3, batch_size=5, seed=4)
        model, hist = nn.train(tiny_dataset, config)
        ref, ref_hist = per_array_train(tiny_dataset, config)
        assert_same_fit(model, hist, ref, ref_hist)

    def test_one_sample_without_held_out_split(self, tiny_dataset):
        # nothing is held out, so only the steps and the readout solve read the trunk output
        one = Dataset(tiny_dataset.m_coeff, tiny_dataset.n_grid, tiny_dataset.samples[:1])
        config = nn.TrainConfig(epochs=4, seed=6)
        model, hist = nn.train(one, config)
        ref, ref_hist = per_array_train(one, config)
        assert np.all(np.isnan(hist.test_rel_l2_k1))
        assert_same_fit(model, hist, ref, ref_hist)

    def test_one_hidden_trunk_layer(self, tiny_dataset):
        config = nn.TrainConfig(epochs=3, trunk_hidden=(8,), seed=2)
        model, hist = nn.train(tiny_dataset, config)
        ref, ref_hist = per_array_train(tiny_dataset, config)
        assert_same_fit(model, hist, ref, ref_hist)


class TestTrunkPasses:
    """train makes one trunk pass before the first step and one after each weight update."""

    def count_passes(self, monkeypatch, dataset, config):
        inner, passes = nn._mlp_forward, []

        def counting(ws, bs, x, keep=False):
            if x.shape[1] == 2:  # the trunk reads (x, xi); the branch reads 5 * m_enc + 1 features
                passes.append(ws)
            return inner(ws, bs, x, keep)

        monkeypatch.setattr(nn, "_mlp_forward", counting)
        nn.train(dataset, config)
        return len(passes)

    def test_with_held_out_split(self, monkeypatch, tiny_dataset):
        # 22 training samples in minibatches of 5 over 3 epochs: 15 steps
        config = nn.TrainConfig(epochs=3, batch_size=5, seed=4)
        assert self.count_passes(monkeypatch, tiny_dataset, config) == 15 + 1

    def test_one_sample(self, monkeypatch, tiny_dataset):
        one = Dataset(tiny_dataset.m_coeff, tiny_dataset.n_grid, tiny_dataset.samples[:1])
        assert self.count_passes(monkeypatch, one, nn.TrainConfig(epochs=3, seed=6)) == 3 + 1


class TestPrecision:
    """train takes every step in float32 and hands out a float64 model."""

    def test_returned_model_is_float64(self, tiny_dataset):
        # its file round-trips bit for bit: TestModelFile.test_roundtrip_bit_identical
        model, _ = nn.train(tiny_dataset, nn.TrainConfig(epochs=2, batch_size=5, seed=4))
        assert all(a.dtype == np.float64 for a in (*model.parameters(), model.feat_mean, model.feat_scale))
        assert type(model.b1) is float and type(model.b2) is float

    def test_every_step_reads_and_writes_float32(self, monkeypatch, tiny_dataset):
        # an upcast anywhere in a step would quietly turn it back into float64 work
        inner, seen = nn._loss_and_grads, []

        def spy(model, z, y1, y2, trunk, grad, work=None):
            arrays = [z, y1, y2, trunk[0], *trunk[1], grad, *model.parameters()]
            loss = inner(model, z, y1, y2, trunk, grad, work)
            seen.append({a.dtype for a in arrays} | {np.asarray(loss).dtype})
            return loss

        monkeypatch.setattr(nn, "_loss_and_grads", spy)
        # 22 training samples in minibatches of 5 over 3 epochs: 15 steps
        nn.train(tiny_dataset, nn.TrainConfig(epochs=3, batch_size=5, seed=4))
        assert seen == [{np.dtype(np.float32)}] * 15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_step_agrees_with_float64_at_the_default_widths(self, gamma_fit_data, seed):
        # 64 plants at n_grid 50, freshly initialized: over seeds 0-9 the loss
        # differed by at most 1.1e-7 relative and the gradient by 2.7e-7 to
        # 3.8e-7 in relative 2-norm; the bound 1e-5 leaves a 25-fold margin
        data = Dataset(gamma_fit_data[0].m_coeff, 50, gamma_fit_data[0].samples[:64])
        feats, y1, y2 = nn._dataset_tensors(data, 21)
        std = feats.std(axis=0)
        z = (feats - feats.mean(axis=0)) / np.where(std > 1e-12, std, 1.0)
        pts = nn._trunk_inputs(np.column_stack(TriangularGrid(50).node_coordinates()))
        flat64 = nn.get_flat_params(nn.init_model(nn.TrainConfig(seed=seed)))

        def loss_and_grad(dtype):
            model = nn.init_model(nn.TrainConfig(seed=seed))
            flat = flat64.astype(dtype)
            model.branch_w, model.branch_b, model.trunk_w, model.trunk_b = nn._views(model, flat)
            model.b1, model.b2 = float(flat[-2]), float(flat[-1])
            trunk = nn._mlp_forward(model.trunk_w, model.trunk_b, pts.astype(dtype), keep=True)
            grad = np.empty_like(flat)
            loss = nn._loss_and_grads(model, z.astype(dtype), y1.astype(dtype), y2.astype(dtype), trunk, grad)
            return loss, grad

        loss64, grad64 = loss_and_grad(np.float64)
        loss32, grad32 = loss_and_grad(np.float32)
        assert grad32.dtype == np.float32
        assert abs(loss32 - loss64) <= 1e-5 * loss64
        assert np.linalg.norm(grad32 - grad64) <= 1e-5 * np.linalg.norm(grad64)


class TestHeldOutEvaluation:
    """train evaluates the held-out split once per epoch, the last time on the returned model."""

    def test_float32_in_the_loop_and_float64_once_after_the_readout(self, monkeypatch, tiny_dataset):
        inner, touts = nn._evaluate, []

        def spy(model, z, y1, y2, tout, w):
            touts.append(tout.dtype)
            return inner(model, z, y1, y2, tout, w)

        monkeypatch.setattr(nn, "_evaluate", spy)
        nn.train(tiny_dataset, nn.TrainConfig(epochs=4, batch_size=5, seed=4))
        assert touts == [np.float32] * 3 + [np.float64]

    def test_last_entry_is_the_returned_models_error(self, tiny_dataset):
        config = nn.TrainConfig(epochs=3, batch_size=5, seed=4)
        model, hist = nn.train(tiny_dataset, config)
        _, te = nn.split_indices(len(tiny_dataset.samples), config.train_fraction, config.seed)
        held_out = Dataset(tiny_dataset.m_coeff, tiny_dataset.n_grid, [tiny_dataset.samples[i] for i in te])
        res = nn.evaluate(model, held_out)
        assert np.float64(res.rel_l2_k1).tobytes() == hist.test_rel_l2_k1[-1].tobytes()
        assert np.float64(res.rel_l2_k2).tobytes() == hist.test_rel_l2_k2[-1].tobytes()


class TestTrainConfigBounds:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", 0.0, "learning_rate"),
            ("learning_rate", -0.0, "learning_rate"),
            # every float32 step would be 0: the last epoch's rate, learning_rate * 0.002, rounds to 0 ...
            ("learning_rate", 5e-324, "learning_rate"),
            ("learning_rate", 1e-46, "learning_rate"),
            ("learning_rate", 3.5032461608120427e-43, "learning_rate"),
            # ... or the rate overflows float32
            ("learning_rate", 1e39, "learning_rate"),
            ("learning_rate", 3.402823466385289e38, "learning_rate"),
            ("learning_rate", np.nan, "learning_rate"),
            ("train_fraction", 0.0, "train_fraction"),
            ("train_fraction", 1.0, "train_fraction"),
            ("epochs", 0, "epochs, batch_size and p"),
            ("batch_size", 0, "epochs, batch_size and p"),
            ("p", 0, "epochs, batch_size and p"),
        ],
    )
    def test_boundary_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            nn.TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", 3.503246160812043e-43),
            ("learning_rate", 3e-3),
            ("learning_rate", 3.4028234663852886e38),
            ("train_fraction", np.nextafter(0.0, 1.0)),
            ("train_fraction", np.nextafter(1.0, 0.0)),
            ("epochs", 1),
            ("batch_size", 1),
            ("p", 1),
        ],
    )
    def test_just_inside_accepted(self, field, value):
        assert getattr(nn.TrainConfig(**{field: value}), field) == value
