"""Benchmark of the gainops pipeline: one workload per process.

    python3 bench/run.py --workload {datagen,train,certify,closed_loop}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the raw (unscaled) figures and run details.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
README.md in this directory for the workloads, the metrics and the yardstick.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("datagen", "train", "certify", "closed_loop"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_rounds(wl, state, clock, rec, seconds, first_round=0):
    """Whole rounds until ``seconds`` have passed; returns each round's scaled time."""
    times = []
    t0 = time.perf_counter()
    r = first_round
    while True:
        scaled0 = clock.scaled_total
        wl.round(state, r, clock, rec)
        times.append(clock.scaled_total - scaled0)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gainops" / "__init__.py").is_file():
        print(f"error: no gainops source tree at {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the host has 2 cores and is shared, and one thread
    # gave the steadier training times.  Must be set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    # the imports are timed against the pure-Python yardstick around them
    python_ops, python_ref = measure.YARDSTICKS["python_ops"]
    before = [measure.sample(python_ops) for _ in range(3)]
    t0 = time.perf_counter()
    import tracing
    import workloads

    import_s = time.perf_counter() - t0
    after = [measure.sample(python_ops) for _ in range(3)]
    import_factor = python_ref / measure.median(before + after)
    wl = workloads.WORKLOADS[args.workload]
    clock = measure.Clock(keep_blocks=bool(args.trace))
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = measure.Record()
    detail = {"workload": args.workload, "seed": args.seed, "unit": wl.unit}
    try:
        if args.trace:
            metrics = traced_run(args, wl, clock, rec, workdir, detail, tracing, workloads)
        else:
            metrics = untraced_run(args, wl, clock, rec, workdir, detail, import_s, import_factor)
    except measure.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        # a set-up check can fail before any operation was counted
        print(json.dumps({"correct": False, "attempted": max(rec.attempted, 1), "failed": rec.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["notes"] = rec.notes
    print(json.dumps({"detail": detail}))
    result = {
        "correct": True,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def untraced_run(args, wl, clock, rec, workdir, detail, import_s, import_factor):
    builds, raw_builds, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        raw0, scaled0 = clock.raw_total, clock.scaled_total
        state = wl.setup(args.seed, workdir, clock)
        builds.append(clock.scaled_total - scaled0)
        raw_builds.append(clock.raw_total - raw0)
        digests.add(state.digest)
    measure.check(len(digests) == 1, "repeated set-up built different inputs")
    run_rounds(wl, state, clock, rec, args.seconds)
    setup_s = import_s * import_factor + measure.median(builds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gain_ms = 1e3 * measure.median(rec.gain_s)
    detail.update(
        blocks=len(rec.rates),
        units=rec.units,
        raw={
            "work_per_s": measure.median(rec.raw_rates),
            "gain_ms": 1e3 * measure.median(rec.raw_gain_s),
            "setup_s": import_s + measure.median(raw_builds),
            "import_s": import_s,
        },
    )
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (measure.median(rec.rates), "1/s"),
        "gain_ms": (gain_ms, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_run(args, wl, clock, rec, workdir, detail, tracing, workloads):
    state = wl.setup(args.seed, workdir, clock)
    untraced = run_rounds(wl, state, clock, rec, 0.0)
    units_before = rec.units
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl, state, clock, rec, args.seconds, first_round=1)
        units = rec.units - units_before
        counts = dict(tracer.counts)
        n_spans, n_files = len(tracer.spans), len(tracer.bytes_per_sample)
        workloads.probe(clock, workdir)
    finally:
        tracer.uninstall()
    factors = tracing.block_factors(tracer.spans, clock.blocks)
    files = tracer.bytes_per_sample
    own = tracing.layer_metrics(tracer.spans[:n_spans], factors[:n_spans], counts, units, files[:n_files])
    from_probe = tracing.layer_metrics(tracer.spans[n_spans:], factors[n_spans:], {}, 1, files[n_files:])
    metrics = {}
    for name, (unit, _, _) in tracing.PER_LAYER.items():
        if name in own:
            metrics[name] = (own[name], unit)
        elif name in from_probe:
            metrics[name] = (from_probe[name], unit)
    metrics["trace.overhead_s"] = (measure.median(traced) - untraced[0], "s")
    summary = tracing.layer_summary(tracer.spans[:n_spans], factors[:n_spans])
    detail.update(
        traced_rounds=len(traced),
        units=units,
        from_probe=sorted(set(metrics) - set(own) - {"trace.overhead_s"}),
        layers=summary,
    )
    out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
    spans = [s + [f] for s, f in zip(tracer.spans, factors)]
    out.write_text(json.dumps({"detail": detail, "fields": ["name", "start", "end", "parent", "qty", "factor"], "spans": spans}))
    missing = set(tracing.PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics without samples: {sorted(missing)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
