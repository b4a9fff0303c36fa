"""Batch command-line front end; emits CSV and JSON for external plotting."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import analysis, data_store, neural_op, plant_sim
from .coefficients import CoefficientFamily, gamma_family
from .kernel_solver import gain_slice, solve_kernels
from .numerics import IntervalGrid, TriangularGrid


def cmd_solve(args) -> int:
    coeffs = gamma_family(args.gamma)
    ks = solve_kernels(coeffs, TriangularGrid(args.n))
    # the report first: it refuses grids the solver takes (n < 3), and a failed solve writes nothing
    report = analysis.residual_operators(coeffs, ks.k1, ks.k2)
    cols = (*ks.grid.node_coordinates(), ks.k1.values, ks.k2.values)
    np.savetxt(args.out, np.column_stack(cols), fmt="%.17g", delimiter=",", header="x,xi,k1,k2", comments="")
    report_path = os.path.splitext(args.out)[0] + "_residuals.json"
    with open(report_path, "w") as f:
        f.write(report.to_json())
    print(f"kernels -> {args.out}")
    print(f"residuals -> {report_path} (sup pde1 {report.sup_pde1:.3e}, sup pde2 {report.sup_pde2:.3e})")
    return 0


def _family_from_args(args) -> CoefficientFamily:
    return CoefficientFamily(
        kind=args.family,
        gamma_range=(args.gamma_min, args.gamma_max),
        amplitude=args.amplitude,
    )


def cmd_dataset(args) -> int:
    ds = data_store.generate(
        _family_from_args(args),
        n_samples=args.n_samples,
        m_coeff=args.m_coeff,
        n_grid=args.n_grid,
        seed=args.seed,
    )
    manifest = {
        "n_samples": args.n_samples,
        "family": args.family,
        "gamma_range": [args.gamma_min, args.gamma_max],
        "amplitude": args.amplitude,
        "m_coeff": args.m_coeff,
        "n_grid": args.n_grid,
        "seed": args.seed,
    }
    data_store.write(ds, args.out, manifest=manifest)
    print(f"dataset ({args.n_samples} samples) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    ds = data_store.read(args.dataset)
    config = neural_op.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        train_fraction=args.train_fraction,
    )
    model, history = neural_op.train(ds, config)
    neural_op.save_model(model, args.out)
    hist_path = os.path.splitext(args.out)[0] + "_history.json"
    # strict JSON has no NaN: an epoch without a held-out error (no held-out split) is null
    names = ("train_loss", "test_rel_l2_k1", "test_rel_l2_k2")
    curves = {k: [v if np.isfinite(v) else None for v in getattr(history, k).tolist()] for k in names}
    with open(hist_path, "w") as f:
        json.dump(curves, f)
    print(f"model -> {args.out}")
    print(f"final train loss {history.train_loss[-1]:.3e}")
    return 0


def cmd_eval(args) -> int:
    ds = data_store.read(args.dataset)
    model = neural_op.load_model(args.model)
    tr_idx, te_idx = neural_op.split_indices(len(ds.samples), args.train_fraction, args.seed)
    subsets = {
        "train": data_store.Dataset(ds.m_coeff, ds.n_grid, [ds.samples[i] for i in tr_idx]),
        "test": data_store.Dataset(ds.m_coeff, ds.n_grid, [ds.samples[i] for i in te_idx]),
    }
    out = {}
    for name, subset in subsets.items():
        if not subset.samples:
            continue
        res = neural_op.evaluate(model, subset)
        out[name] = {"rel_l2_k1": res.rel_l2_k1, "rel_l2_k2": res.rel_l2_k2}
        print(f"{name}: rel L2 k1 {res.rel_l2_k1:.3e}, k2 {res.rel_l2_k2:.3e}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=2)
    return 0


def cmd_simulate(args) -> int:
    if args.fit_start >= args.T:
        print(f"--fit-start {args.fit_start:g} must be less than --T {args.T:g}", file=sys.stderr)
        return 1
    coeffs = gamma_family(args.gamma)
    grid = IntervalGrid(args.n)
    # the trace samples t = m T / n_steps from 0; the decay fit reads those at or after --fit-start
    n_steps = plant_sim.step_count(coeffs, grid, args.T)
    n_fit = int(np.count_nonzero(np.arange(n_steps + 1.0) * (args.T / n_steps) >= args.fit_start))
    if n_fit < analysis.MIN_FIT_SAMPLES:
        print(
            f"--T {args.T:g} leaves {n_fit} samples at or after --fit-start {args.fit_start:g};"
            f" the decay fit needs {analysis.MIN_FIT_SAMPLES}",
            file=sys.stderr,
        )
        return 1
    init = plant_sim.reference_initial_state(grid)
    if args.controller == "open":
        spec = plant_sim.ControllerSpec.open_loop()
    elif args.controller == "exact":
        ks = solve_kernels(coeffs, TriangularGrid(args.n))
        spec = plant_sim.ControllerSpec.feedback(gain_slice(ks))
    else:
        if not args.model:
            print("neural mode needs --model", file=sys.stderr)
            return 1
        model = neural_op.load_model(args.model)
        spec = plant_sim.ControllerSpec.feedback(neural_op.infer_gains(model, coeffs, grid))
    trace = plant_sim.simulate(coeffs, init, spec, args.T)
    plant_sim.trace_to_csv(trace, args.out)
    report_path = os.path.splitext(args.out)[0] + "_stability.json"
    if trace.blew_up:
        with open(report_path, "w") as f:
            json.dump({"blew_up": True, "t_end": float(trace.times[-1])}, f, indent=2)
        print(f"trace -> {args.out} (blew up at t={trace.times[-1]:.4g})")
        return 0
    report = analysis.fit_decay(trace, t_start=args.fit_start)
    with open(report_path, "w") as f:
        f.write(report.to_json())
    print(f"trace -> {args.out}")
    print(f"decay rate {report.c1_hat:.4g} (fit quality {report.fit_quality:.4f})")
    return 0


def median_time(fn, repeats: int) -> float:
    """Median wall time in seconds of repeats calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def cmd_bench(args) -> int:
    if args.repeats < 1:
        print("repeats must be at least 1", file=sys.stderr)
        return 1
    coeffs = gamma_family(args.gamma)
    grid = TriangularGrid(args.n)
    model = neural_op.load_model(args.model)
    features = neural_op.encode_input(coeffs, model.m_enc)
    xi_grid = IntervalGrid(args.n)
    t_solve = median_time(lambda: solve_kernels(coeffs, grid), args.repeats)
    # the loaded model's first gain update fills its trunk slot (see neural_op.forward)
    t0 = time.perf_counter()
    neural_op.infer_gains(model, coeffs, xi_grid)
    t_cold = time.perf_counter() - t0
    t_gains = median_time(lambda: neural_op.infer_gains(model, coeffs, xi_grid), args.repeats)
    t_dense = median_time(lambda: neural_op.predict_fields(model, features, grid), args.repeats)
    out = {
        "n": args.n,
        "repeats": args.repeats,
        "solve_median_s": t_solve,
        "infer_gains_median_s": t_gains,
        "infer_gains_cold_s": t_cold,
        "dense_forward_median_s": t_dense,
        "ratio": t_solve / t_gains,
        "ratio_dense": t_solve / t_dense,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2)
    print(f"solve {t_solve*1e3:.2f} ms, gains {t_gains*1e3:.3f} ms (first call {t_cold*1e3:.3f} ms), ratio {out['ratio']:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gainops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the gain kernels and residual report")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", default="kernels.csv")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("dataset", help="generate a training dataset")
    p.add_argument("--family", choices=["gamma", "random_smooth"], default="gamma")
    p.add_argument("--gamma-min", type=float, default=0.5)
    p.add_argument("--gamma-max", type=float, default=5.0)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--m-coeff", type=int, default=101)
    p.add_argument("--n-grid", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="dataset.bin")
    p.set_defaults(fn=cmd_dataset)

    p = sub.add_parser("train", help="train the kernel surrogate")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=neural_op.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=neural_op.TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=neural_op.TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=neural_op.TrainConfig.train_fraction)
    p.add_argument("--out", default="model.bin")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="report per-kernel relative L2 errors")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=neural_op.TrainConfig.train_fraction)
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate", help="run the plant under a boundary controller")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--controller", choices=["open", "exact", "neural"], default="exact")
    p.add_argument("--model", default="")
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--fit-start", type=float, default=2.0)
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bench", help="time the solver against the surrogate")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--model", required=True)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--out", default="bench.json")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface solver/file errors as exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
