"""Remake oracle_n50.npz: Picard-oracle kernels of the gamma family at n = 50.

The certify workload compares the marching solver against these.  The oracle
(tests/picard_oracle.py) integrates along exact characteristics and shares no
code with the solver; it takes several seconds per plant, so its output is
stored.  Run from the repository root:

    python3 bench/make_oracle.py
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests")]

import gainops as g  # noqa: E402
from picard_oracle import picard_kernels  # noqa: E402

from workloads import ORACLE_C, ORACLE_FILE  # noqa: E402


def main() -> None:
    arrays = {}
    for gamma in ORACLE_C:
        k1, k2, iters = picard_kernels(g.gamma_family(gamma), 50)
        arrays[f"k1_gamma{gamma:g}"] = k1
        arrays[f"k2_gamma{gamma:g}"] = k2
        print(f"gamma {gamma:g}: {iters} sweeps")
    np.savez_compressed(ORACLE_FILE, **arrays)


if __name__ == "__main__":
    main()
