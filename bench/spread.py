"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/spread.py --workload certify --seeds 10 [--seconds 10]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
Every run's result line is appended to bench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = p.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
        result = json.loads(out[-1])
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, "detail": json.loads(out[-2])["detail"], "result": result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: a check failed", file=sys.stderr)
            return 1
        shares.add((result["failed"] / result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    for name, v in values.items():
        print(f"{name:14s} median {statistics.median(v):12.5g}  quartile spread {quartile_spread(v):.4f}  range {(max(v) - min(v)) / statistics.median(v):.4f}")
    print("failed shares:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
