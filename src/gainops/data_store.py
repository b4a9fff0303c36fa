"""Generation and bit-exact binary persistence of coefficient/kernel datasets.

File layout (little-endian): magic "HKDS", version u32, n_samples u32,
m_coeff u32, n_grid u32, then per sample in index order: q f64, the five
coefficient arrays (m_coeff f64 each, order lam mu sigma omega theta), then
k1 and k2 in canonical triangular flattening.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .coefficients import (
    CoefficientFamily,
    CoefficientSet,
    sample_random,
    splitmix64,
)
from .kernel_solver import KernelField, KernelSet, PlantError, check_boundary_conditions, solve_kernels_batch
from .numerics import IntervalGrid, TriangularGrid, read_exact

MAGIC = b"HKDS"
VERSION = 1
# plants solved per batched march; bounds the march's working memory
BLOCK = 256


@dataclass(eq=False)
class SampleRecord:
    q: float
    lam: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    theta: np.ndarray
    k1: np.ndarray
    k2: np.ndarray

    def coefficient_set(self) -> CoefficientSet:
        """Rebuild a CoefficientSet; derivatives come from centered differences."""
        m = self.lam.size
        grid = IntervalGrid(m - 1)
        return CoefficientSet(
            grid=grid,
            lam=self.lam,
            dlam=np.gradient(self.lam, grid.h),
            mu=self.mu,
            dmu=np.gradient(self.mu, grid.h),
            sigma=self.sigma,
            omega=self.omega,
            theta=self.theta,
            q=self.q,
        )


@dataclass(eq=False)
class Dataset:
    m_coeff: int
    n_grid: int
    samples: list[SampleRecord]

    def __post_init__(self):
        t = (self.n_grid + 1) * (self.n_grid + 2) // 2
        for k, r in enumerate(self.samples):
            if r.lam.size != self.m_coeff or r.k1.size != t or r.k2.size != t:
                raise ValueError(f"sample {k} does not match the dataset shapes")


def sample_seed(seed: int, index: int) -> int:
    """Seed of sample ``index``; mixing ``seed`` first keeps nearby seeds' plants apart."""
    return splitmix64(splitmix64(seed) ^ index)


def generate(
    family: CoefficientFamily,
    n_samples: int,
    m_coeff: int = 101,
    n_grid: int = 50,
    seed: int = 0,
) -> Dataset:
    """Draw coefficients and solve their kernels, one derived seed per sample.

    Sample i uses splitmix64(splitmix64(seed) XOR i).  Kernels are solved in
    batches of BLOCK plants, and a plant's kernels do not depend on its
    batch, so the content is a function of (family, shapes, seed) alone.
    Solver failures abort with the failing index.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    family = CoefficientFamily(family.kind, family.gamma_range, family.amplitude, m_coeff)
    grid = TriangularGrid(n_grid)
    samples = []
    for start in range(0, n_samples, BLOCK):
        block = [
            sample_random(family, sample_seed(seed, i))
            for i in range(start, min(start + BLOCK, n_samples))
        ]
        try:
            kernels = solve_kernels_batch(block, grid)
        except PlantError as exc:
            raise RuntimeError(f"sample {start + exc.index} failed: {exc}") from exc
        for c, k in zip(block, kernels):
            samples.append(SampleRecord(c.q, c.lam, c.mu, c.sigma, c.omega, c.theta, k.k1.values, k.k2.values))
    return Dataset(m_coeff=m_coeff, n_grid=n_grid, samples=samples)


def write(dataset: Dataset, path, manifest: dict | None = None) -> None:
    """Serialize to the binary format; optionally drop a JSON sidecar."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIII", VERSION, len(dataset.samples), dataset.m_coeff, dataset.n_grid))
        for r in dataset.samples:
            f.write(struct.pack("<d", r.q))
            for arr in (r.lam, r.mu, r.sigma, r.omega, r.theta, r.k1, r.k2):
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    if manifest is not None:
        with open(str(path) + ".manifest.json", "w") as f:
            json.dump(manifest, f, indent=2)


def read(path) -> Dataset:
    """Load a dataset file, validating magic, version, header, length, finite values and positive speeds."""
    with open(path, "rb") as f:
        if read_exact(f, 4, "magic", "dataset file") != MAGIC:
            raise ValueError("not a dataset file (bad magic)")
        version, n_samples, m_coeff, n_grid = struct.unpack("<IIII", read_exact(f, 16, "header", "dataset file"))
        if version != VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        if n_samples == 0 or m_coeff < 2 or n_grid < 2:
            raise ValueError(f"degenerate header: {n_samples} samples, m_coeff {m_coeff}, n_grid {n_grid}")
        t = (n_grid + 1) * (n_grid + 2) // 2
        # a record is q, the five coefficient arrays, then k1 and k2
        edges = list(accumulate([0, 1] + [m_coeff] * 5 + [t, t]))
        if 8 * edges[-1] > os.fstat(f.fileno()).st_size:  # before asking for that much memory
            raise ValueError("dataset file truncated inside record 0: the file is shorter than one record")
        samples = []
        for i in range(n_samples):
            try:
                buf = read_exact(f, 8 * edges[-1], "the record", "dataset file")
            except ValueError as exc:
                raise ValueError(f"dataset file truncated inside record {i}: {exc}") from exc
            rec = np.frombuffer(buf, dtype="<f8").copy()
            if not np.all(np.isfinite(rec)):
                raise ValueError(f"dataset record {i} holds non-finite values")
            q, *arrays = (rec[a:b] for a, b in zip(edges, edges[1:]))
            if arrays[0].min() <= 0 or arrays[1].min() <= 0:
                raise ValueError(f"dataset record {i} has a transport speed lam or mu <= 0")
            samples.append(SampleRecord(float(q[0]), *arrays))
        if f.read(1):
            raise ValueError("dataset file has trailing bytes")
    return Dataset(m_coeff=m_coeff, n_grid=n_grid, samples=samples)


def expected_file_size(n_samples: int, m_coeff: int, n_grid: int) -> int:
    t = (n_grid + 1) * (n_grid + 2) // 2
    return 20 + n_samples * 8 * (1 + 5 * m_coeff + 2 * t)


def validate_boundary_identities(dataset: Dataset, tol: float = 1e-12) -> None:
    """Check both kernel boundary identities on every record."""
    grid = TriangularGrid(dataset.n_grid)
    for i, r in enumerate(dataset.samples):
        ks = KernelSet(k1=KernelField(grid, r.k1), k2=KernelField(grid, r.k2))
        d, b = check_boundary_conditions(r.coefficient_set(), ks)
        if d > tol or b > tol:
            raise ValueError(f"sample {i} violates a boundary identity ({d:.2e}, {b:.2e})")
