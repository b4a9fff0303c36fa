import struct
from dataclasses import replace

import numpy as np
import pytest

import gainops as g
from gainops import neural_op as nn
from gainops.data_store import Dataset, generate
from gainops.coefficients import CoefficientFamily
from gainops.numerics import TriangularGrid, tri_quad_weights


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
        _, grad = nn.loss_and_gradients(model, feats, y1, y2, pts)
        flat = nn.get_flat_params(model)
        eps = 1e-6
        fd = np.zeros_like(flat)
        for k in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[k] += eps
            dn[k] -= eps
            nn.set_flat_params(model, up)
            lu, _ = nn.loss_and_gradients(model, feats, y1, y2, pts)
            nn.set_flat_params(model, dn)
            ld, _ = nn.loss_and_gradients(model, feats, y1, y2, pts)
            fd[k] = (lu - ld) / (2 * eps)
        nn.set_flat_params(model, flat)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.maximum(np.abs(grad), np.abs(fd)))
        assert rel.max() <= 1e-4


class TestTraining:
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

    def test_empty_dataset_rejected(self, tiny_dataset):
        empty = Dataset(tiny_dataset.m_coeff, tiny_dataset.n_grid, [])
        with pytest.raises(ValueError):
            nn.train(empty, small_config())

    def test_divergence_aborts_with_diagnostic(self, tiny_dataset):
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss"):
                nn.train(tiny_dataset, small_config(epochs=4, learning_rate=1e160))


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
        from gainops.data_store import SampleRecord

        dead = SampleRecord(
            q=rec.q, lam=rec.lam, mu=rec.mu, sigma=rec.sigma, omega=rec.omega,
            theta=rec.theta, k1=np.zeros_like(rec.k1), k2=np.zeros_like(rec.k2),
        )
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


class TestModelFile:
    def test_roundtrip_bit_identical(self, tiny_dataset, tmp_path):
        model, _ = nn.train(tiny_dataset, small_config(epochs=2))
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        back = nn.load_model(path)
        assert back.branch_dims == model.branch_dims
        assert back.trunk_dims == model.trunk_dims
        for a, b in zip(model.parameters(), back.parameters()):
            assert np.array_equal(a, b)
        assert np.array_equal(model.feat_mean, back.feat_mean)
        assert back.b1 == model.b1 and back.b2 == model.b2

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
