import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from gainops import data_store, plant_sim
from gainops.cli import _write_csv, build_parser, main, median_time
from gainops.coefficients import CoefficientFamily, gamma_family
from gainops.neural_op import TrainConfig
from gainops.numerics import IntervalGrid

from conftest import expected_file_size


def refuse_written_dataset(monkeypatch):
    """Make `dataset` generate a dataset whose record 1 data_store.write refuses (a NaN in k1)."""
    good = data_store.generate(CoefficientFamily("gamma"), 2, m_coeff=11, n_grid=8, seed=1)
    k1 = good.samples[1].k1.copy()
    k1[3] = np.nan
    bad = data_store.Dataset(11, 8, [good.samples[0], replace(good.samples[1], k1=k1)])
    monkeypatch.setattr(data_store, "generate", lambda *args, **kwargs: bad)


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

    def test_manifest_sidecar(self, dataset_path):
        sidecar = dataset_path.parent / (dataset_path.name + ".manifest.json")
        assert json.loads(sidecar.read_text()) == {
            "n_samples": 12, "family": "gamma", "gamma_range": [0.5, 5.0], "amplitude": 0.5,
            "m_coeff": 41, "n_grid": 16, "seed": 3,
        }
        assert sidecar.read_text().startswith('{\n  "n_samples": 12,\n')

    def test_refused_dataset_leaves_no_files(self, tmp_path, capsys, monkeypatch):
        # a dataset that data_store.write refuses: no dataset file and no manifest
        refuse_written_dataset(monkeypatch)
        rc = main(["dataset", "--n-samples", "2", "--m-coeff", "11", "--n-grid", "8", "--out", str(tmp_path / "ds.bin")])
        assert rc == 1
        assert "record 1 holds non-finite values" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_eval_skips_an_empty_split(self, tmp_path, model_path, capsys):
        # one sample: all of it is the train split, and the test split is left out
        data, out = tmp_path / "one.bin", tmp_path / "metrics.json"
        assert main(["dataset", "--n-samples", "1", "--m-coeff", "41", "--n-grid", "16", "--out", str(data)]) == 0
        assert main(["eval", "--dataset", str(data), "--model", str(model_path), "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())) == ["train"]
        assert "test:" not in capsys.readouterr().out

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

    def test_train_reports_its_last_loss(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--dataset", str(dataset_path), "--epochs", "3", "--out", str(out)]) == 0
        last = json.loads((tmp_path / "m_history.json").read_text())["train_loss"][-1]
        assert capsys.readouterr().out == f"model -> {out}\nfinal train loss {last:.3e}\n"

    def test_missing_dataset_errors(self, workdir):
        rc = main(["train", "--dataset", str(workdir / "nope.bin"), "--out", str(workdir / "m.bin")])
        assert rc == 1


class TestSimulate:
    def test_open_loop_blowup_reported(self, workdir, capsys):
        # a run that blows up is never fitted, so a --fit-start past --T is not refused
        out = workdir / "open.csv"
        rc = main(["simulate", "--gamma", "5.0", "--controller", "open", "--T", "3",
                   "--n", "60", "--fit-start", "5", "--out", str(out)])
        assert rc == 0
        report = json.loads((workdir / "open_stability.json").read_text())
        assert report.get("blew_up") is True
        assert out.read_text().startswith("t,phi,u0,v0,U")
        # the run ends at the last traced time, the first with a non-finite state
        assert report["t_end"] == np.loadtxt(out, delimiter=",", skiprows=1)[-1, 0]
        assert capsys.readouterr().out == f"trace -> {out} (blew up at t={report['t_end']:.4g})\n"

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
        # the default --fit-start 2 past or at --T: no trace file is left behind
        out = tmp_path / "trace.csv"
        rc = main(["simulate", "--gamma", "1.0", "--controller", "exact", "--T", horizon,
                   "--n", "20", "--out", str(out)])
        assert rc == 1
        found = {"1": 0, "2": 1}[horizon]
        assert f"need at least 10 positive samples at t >= t_start = 2, found {found}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_neural_controller_runs(self, workdir, model_path):
        out = workdir / "neural.csv"
        rc = main(["simulate", "--gamma", "1.0", "--controller", "neural",
                   "--model", str(model_path), "--T", "4", "--n", "16", "--out", str(out)])
        assert rc == 0


class TestBench:
    def test_reports_ratio(self, workdir, model_path, capsys):
        out = workdir / "bench.json"
        rc = main(["bench", "--model", str(model_path), "--n", "40", "--repeats", "3",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["ratio"] > 0 and data["solve_median_s"] > 0
        assert data["infer_gains_cold_s"] > 0
        assert data["ratio"] == data["solve_median_s"] / data["infer_gains_median_s"]
        assert data["ratio_dense"] == data["solve_median_s"] / data["dense_forward_median_s"]
        t_solve, t_gains, t_cold = (data[k] for k in ("solve_median_s", "infer_gains_median_s", "infer_gains_cold_s"))
        assert capsys.readouterr().out == (
            f"solve {t_solve*1e3:.2f} ms, gains {t_gains*1e3:.3f} ms (first call {t_cold*1e3:.3f} ms),"
            f" ratio {data['ratio']:.1f}\n"
        )

    def test_median_time_is_wall_time(self):
        assert 0.02 <= median_time(lambda: time.sleep(0.02), 3) < 1.0


# each command's flags left at their defaults; the training flags read TrainConfig's
DEFAULTS = {
    "solve": (["--gamma", "1"], {"gamma": 1.0, "n": 100, "out": "kernels.csv"}),
    "dataset": ([], {
        "family": "gamma", "gamma_min": 0.5, "gamma_max": 5.0, "amplitude": 0.5, "n_samples": 1000,
        "m_coeff": 101, "n_grid": 50, "seed": 0, "out": "dataset.bin",
    }),
    "train": (["--dataset", "d"], {
        "dataset": "d", "epochs": TrainConfig.epochs, "batch_size": TrainConfig.batch_size,
        "learning_rate": TrainConfig.learning_rate, "seed": TrainConfig.seed,
        "train_fraction": TrainConfig.train_fraction, "out": "model.bin",
    }),
    "eval": (["--dataset", "d", "--model", "m"], {
        "dataset": "d", "model": "m", "seed": TrainConfig.seed, "train_fraction": TrainConfig.train_fraction, "out": "",
    }),
    "simulate": (["--gamma", "1"], {
        "gamma": 1.0, "controller": "exact", "model": "", "T": 10.0, "n": 100, "fit_start": 2.0, "out": "trace.csv",
    }),
    "bench": (["--model", "m"], {"gamma": 1.0, "n": 100, "model": "m", "repeats": 20, "out": "bench.json"}),
}


@pytest.mark.parametrize("command", DEFAULTS)
def test_defaults(command):
    required, expected = DEFAULTS[command]
    args = vars(build_parser().parse_args([command, *required]))
    assert {k: v for k, v in args.items() if k not in ("command", "fn")} == expected


# every refusal: its command line ({data}, {model} and {out} filled in) and a substring of its message
REFUSALS = {
    **{
        f"eval-train-fraction-{fraction}": (
            ["eval", "--dataset", "{data}", "--model", "{model}", "--train-fraction", fraction, "--out", "{out}/m.json"],
            "train_fraction must lie in (0, 1)",
        )
        for fraction in ("0", "-2", "1.0", "1.5")
    },
    # phi underflows to 0 from t = 87.8 on: no positive sample from --fit-start 100 on
    "simulate-underflowed-trace": (
        ["simulate", "--gamma", "1", "--controller", "exact", "--n", "20", "--T", "150", "--fit-start", "100", "--out", "{out}/u.csv"],
        "need at least 10 positive samples at t >= t_start = 100, found 0",
    ),
    "simulate-fit-start-past-horizon": (
        ["simulate", "--gamma", "1", "--n", "20", "--T", "1", "--out", "{out}/u.csv"],
        "at t >= t_start = 2, found 0",
    ),
    # the sample count of an open-loop run to the same T (test_too_few_samples_match_an_open_loop_run)
    "simulate-too-few-samples": (
        ["simulate", "--gamma", "1", "--T", "2.01", "--out", "{out}/u.csv"],
        "at t >= t_start = 2, found 5",
    ),
    # Gamma 5 at n = 100: 1.66e13 steps, refused before the first
    "simulate-records-cannot-be-reserved": (
        ["simulate", "--controller", "open", "--gamma", "5", "--T", "1e9", "--out", "{out}/u.csv"],
        "a run of 1.66015e+13 steps needs 5.31e+14 bytes for its records",
    ),
    # Gamma 5 at n = 100: T / dt overflows to inf
    "simulate-step-count-overflows": (
        ["simulate", "--controller", "open", "--gamma", "5", "--T", "1e308", "--out", "{out}/u.csv"],
        "T = 1e+308 takes more steps than can be counted",
    ),
    "simulate-neural-without-model": (
        ["simulate", "--gamma", "1", "--controller", "neural", "--out", "{out}/u.csv"],
        "neural mode needs --model",
    ),
    "bench-zero-repeats": (
        ["bench", "--model", "{model}", "--repeats", "0", "--out", "{out}/b.json"],
        "repeats must be at least 1",
    ),
    "solve-too-coarse": (["solve", "--gamma", "1", "--n", "2", "--out", "{out}/k.csv"], "n >= 3"),
    # exp(Gamma x) overflows: one line, no numpy warning before it
    "solve-gamma-overflows": (["solve", "--gamma", "800", "--n", "10", "--out", "{out}/k.csv"], "gamma = 800 is too large"),
    "solve-gamma-nan": (["solve", "--gamma", "nan", "--n", "10", "--out", "{out}/k.csv"], "gamma must be finite and positive, got nan"),
    # the manifest would hold a bare NaN, which is no JSON
    "dataset-amplitude-nan": (
        ["dataset", "--family", "gamma", "--n-samples", "2", "--amplitude", "nan", "--out", "{out}/ds.bin"],
        "amplitude must be nonnegative and finite, got nan",
    ),
    "dataset-gamma-max-inf": (
        ["dataset", "--n-samples", "2", "--gamma-max", "inf", "--out", "{out}/ds.bin"],
        "gamma_range must satisfy 0 < lo <= hi < inf, got (0.5, inf)",
    ),
    "dataset-not-written": (
        ["dataset", "--n-samples", "2", "--m-coeff", "11", "--n-grid", "8", "--out", "{out}/ds.bin"],
        "record 1 holds non-finite values",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_exits_one_way_before_writing(case, tmp_path, capsys, monkeypatch, dataset_path, model_path):
    # each refusal: exit 1, one "error:" line on stderr, nothing on stdout, and no file
    argv, message = REFUSALS[case]
    if case == "dataset-not-written":
        refuse_written_dataset(monkeypatch)
    paths = {"data": dataset_path, "model": model_path, "out": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert list(tmp_path.iterdir()) == []


def test_too_few_samples_match_an_open_loop_run():
    # a run to T = 2.01 at n = 100 has 5 samples at t >= 2, whatever its controller
    init = plant_sim.reference_initial_state(IntervalGrid(100))
    trace = plant_sim.simulate(gamma_family(1.0), init, plant_sim.ControllerSpec.open_loop(), 2.01)
    assert np.count_nonzero(trace.times >= 2.0) == 5
    assert REFUSALS["simulate-too-few-samples"][1].endswith("found 5")


class TestWriteCsv:
    def test_format(self, tmp_path):
        # a trace's columns, then rows of signed zeros, nan and infinities, byte for byte as f"{x:.17g}" writes them
        grid = IntervalGrid(50)
        tr = plant_sim.simulate(gamma_family(1.0), plant_sim.reference_initial_state(grid), plant_sim.ControllerSpec.open_loop(), 0.05)
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324])
        records = (tr.times, tr.phi, tr.u_boundary, tr.v_boundary, tr.control)
        cols = [np.concatenate((r, np.roll(special, k))) for k, r in enumerate(records)]
        path = tmp_path / "trace.csv"
        _write_csv(path, "t,phi,u0,v0,U", cols)
        rows = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in zip(*cols))
        assert path.read_bytes() == ("t,phi,u0,v0,U\n" + rows).encode()
