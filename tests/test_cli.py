import json
import os

import numpy as np
import pytest

from gainops import plant_sim
from gainops.cli import main
from gainops.coefficients import gamma_family
from gainops.numerics import IntervalGrid

from conftest import expected_file_size


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workdir):
    path = workdir / "ds.bin"
    rc = main([
        "dataset", "--n-samples", "12", "--m-coeff", "41", "--n-grid", "16",
        "--seed", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_path(workdir, dataset_path):
    path = workdir / "model.bin"
    rc = main([
        "train", "--dataset", str(dataset_path), "--epochs", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestSolve:
    def test_writes_kernels_and_residuals(self, workdir):
        out = workdir / "kernels.csv"
        assert main(["solve", "--gamma", "1.0", "--n", "20", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,xi,k1,k2"
        assert len(lines) == 1 + 21 * 22 // 2
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(-1 / 3, abs=1e-12)
        report = json.loads((workdir / "kernels_residuals.json").read_text())
        assert list(report) == ["sup_bc_diag", "sup_bc_bottom", "sup_pde1", "sup_pde2", "epsilon_estimate"]
        assert report["sup_pde1"] > 0

    def test_too_coarse_grid_rejected_before_writing(self, tmp_path, capsys):
        # the solver takes n = 2, the residual report does not: no kernels.csv is left behind
        assert main(["solve", "--gamma", "1", "--n", "2", "--out", str(tmp_path / "kernels.csv")]) == 1
        assert "n >= 3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rejects_nonpositive_gamma(self, workdir):
        assert main(["solve", "--gamma", "0", "--out", str(workdir / "x.csv")]) == 1

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--gamma", "1", "--bogus", "2"])


class TestDatasetTrainEval:
    def test_dataset_file_length(self, dataset_path):
        assert dataset_path.stat().st_size == expected_file_size(12, 41, 16)
        with open(str(dataset_path) + ".manifest.json") as f:
            manifest = json.load(f)
        assert manifest["n_samples"] == 12

    def test_train_twice_same_seed_identical_files(self, workdir, dataset_path):
        a = workdir / "m1.bin"
        b = workdir / "m2.bin"
        for out in (a, b):
            rc = main(["train", "--dataset", str(dataset_path), "--epochs", "2", "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_reports_both_splits(self, workdir, dataset_path, model_path, capsys):
        out = workdir / "metrics.json"
        rc = main([
            "eval", "--dataset", str(dataset_path), "--model", str(model_path),
            "--out", str(out),
        ])
        assert rc == 0
        metrics = json.loads(out.read_text())
        assert "train" in metrics and "test" in metrics
        assert np.isfinite(metrics["test"]["rel_l2_k1"])

    def test_history_is_strict_json_without_held_out_split(self, tmp_path):
        # 2 samples at the default --train-fraction 0.9 leave nothing held out
        data, model = tmp_path / "two.bin", tmp_path / "two_model.bin"
        args = ["--n-samples", "2", "--m-coeff", "11", "--n-grid", "8", "--seed", "1", "--out", str(data)]
        assert main(["dataset", *args]) == 0
        assert main(["train", "--dataset", str(data), "--epochs", "2", "--out", str(model)]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        history = json.loads((tmp_path / "two_model_history.json").read_text(), parse_constant=refuse)
        assert history["test_rel_l2_k1"] == history["test_rel_l2_k2"] == [None, None]
        assert all(np.isfinite(history["train_loss"])) and len(history["train_loss"]) == 2

    def test_missing_dataset_errors(self, workdir):
        rc = main(["train", "--dataset", str(workdir / "nope.bin"), "--out", str(workdir / "m.bin")])
        assert rc == 1


class TestSimulate:
    def test_open_loop_blowup_reported(self, workdir):
        out = workdir / "open.csv"
        rc = main(["simulate", "--gamma", "5.0", "--controller", "open", "--T", "3",
                   "--n", "60", "--out", str(out)])
        assert rc == 0
        report = json.loads((workdir / "open_stability.json").read_text())
        assert report.get("blew_up") is True
        assert out.read_text().startswith("t,phi,u0,v0,U")

    def test_exact_controller_decays(self, workdir):
        out = workdir / "exact.csv"
        rc = main(["simulate", "--gamma", "1.0", "--controller", "exact", "--T", "6",
                   "--n", "50", "--out", str(out)])
        assert rc == 0
        report = json.loads((workdir / "exact_stability.json").read_text())
        assert list(report) == ["c1_hat", "fit_quality", "c2_hat"]
        assert report["c1_hat"] > 0

    @pytest.mark.parametrize("horizon", ["1", "2"])
    def test_fit_start_not_before_horizon_rejected(self, tmp_path, capsys, horizon):
        out = tmp_path / "trace.csv"
        rc = main(["simulate", "--gamma", "1.0", "--controller", "exact", "--T", horizon,
                   "--n", "20", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--fit-start 2 must be less than --T {horizon}" in err
        assert list(tmp_path.iterdir()) == []

    def test_too_few_samples_to_fit_rejected(self, tmp_path, capsys):
        # a run to T = 2.01 at n = 100 has 5 samples at t >= 2, whatever its controller
        init = plant_sim.reference_initial_state(IntervalGrid(100))
        trace = plant_sim.simulate(gamma_family(1.0), init, plant_sim.ControllerSpec.open_loop(), 2.01)
        assert np.count_nonzero(trace.times >= 2.0) == 5
        out = tmp_path / "trace.csv"
        rc = main(["simulate", "--gamma", "1.0", "--controller", "exact", "--T", "2.01", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--T 2.01 leaves 5 samples at or after --fit-start 2; the decay fit needs 10" in err
        assert list(tmp_path.iterdir()) == []

    def test_neural_needs_model(self, workdir):
        rc = main(["simulate", "--gamma", "1.0", "--controller", "neural",
                   "--out", str(workdir / "n.csv")])
        assert rc == 1

    def test_neural_controller_runs(self, workdir, model_path):
        out = workdir / "neural.csv"
        rc = main(["simulate", "--gamma", "1.0", "--controller", "neural",
                   "--model", str(model_path), "--T", "4", "--n", "16", "--out", str(out)])
        assert rc == 0


class TestBench:
    def test_rejects_zero_repeats(self, workdir, model_path):
        rc = main(["bench", "--model", str(model_path), "--repeats", "0",
                   "--out", str(workdir / "b.json")])
        assert rc == 1

    def test_reports_ratio(self, workdir, model_path):
        out = workdir / "bench.json"
        rc = main(["bench", "--model", str(model_path), "--n", "40", "--repeats", "3",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["ratio"] > 0 and data["solve_median_s"] > 0
        assert data["infer_gains_cold_s"] > 0
