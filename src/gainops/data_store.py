"""Generation and bit-exact binary persistence of coefficient/kernel datasets.

File layout (little-endian): magic "HKDS", version u32, n_samples u32,
m_coeff u32, n_grid u32, then per sample in index order: q f64, the seven
coefficient arrays (m_coeff f64 each, order lam mu sigma omega theta dlam
dmu), then k1 and k2 in canonical triangular flattening.  The reader
accepts only what ``write`` writes, so every stored record re-solves to its
own kernels.
"""

from __future__ import annotations

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
from .kernel_solver import PlantError, solve_kernels_batch
from .numerics import IntervalGrid, TriangularGrid, read_exact

MAGIC = b"HKDS"
VERSION = 2
# plants solved per batched march; bounds the march's working memory
BLOCK = 256


@dataclass(frozen=True, eq=False)
class SampleRecord(CoefficientSet):
    """A plant and its kernels k1, k2 in canonical triangular flattening."""

    k1: np.ndarray
    k2: np.ndarray

    def coefficient_set(self) -> CoefficientSet:
        """The record itself, which is its plant's CoefficientSet."""
        return self


@dataclass(eq=False)
class Dataset:
    m_coeff: int
    n_grid: int
    samples: list[SampleRecord]

    def __post_init__(self):
        t = (self.n_grid + 1) * (self.n_grid + 2) // 2
        for k, r in enumerate(self.samples):
            if r.lam.size != self.m_coeff or r.k1.shape != (t,) or r.k2.shape != (t,):
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
            samples.append(SampleRecord(**vars(c), k1=k.k1.values, k2=k.k2.values))
    return Dataset(m_coeff=m_coeff, n_grid=n_grid, samples=samples)


def _check_header(n_samples: int, m_coeff: int, n_grid: int) -> None:
    """Raise ValueError for a header that ``read`` refuses."""
    if n_samples == 0 or m_coeff < 3 or n_grid < 2:
        raise ValueError(f"degenerate header: {n_samples} samples, m_coeff {m_coeff}, n_grid {n_grid}")


def _check_records(records: np.ndarray, m_coeff: int) -> None:
    """Raise ValueError for the first row of ``records`` that ``read`` refuses.

    A row is refused for a non-finite value or a transport speed lam or
    mu <= 0; one vectorized pass checks all rows, and the message names the
    row by index.
    """
    lam, mu = records[:, 1 : 1 + m_coeff], records[:, 1 + m_coeff : 1 + 2 * m_coeff]
    nonfinite = ~np.isfinite(records).all(axis=1)
    bad = np.flatnonzero(nonfinite | (lam <= 0).any(axis=1) | (mu <= 0).any(axis=1))
    if bad.size:
        i = int(bad[0])
        if nonfinite[i]:
            raise ValueError(f"dataset record {i} holds non-finite values")
        raise ValueError(f"dataset record {i} has a transport speed lam or mu <= 0")


def write(dataset: Dataset, path) -> None:
    """Serialize to the binary format.

    The records are packed and checked as ``read`` checks them before the
    file is opened, so a dataset that ``read`` would refuse raises ValueError
    and leaves no file.
    """
    _check_header(len(dataset.samples), dataset.m_coeff, dataset.n_grid)
    records = np.array(
        [np.concatenate(([r.q], r.lam, r.mu, r.sigma, r.omega, r.theta, r.dlam, r.dmu, r.k1, r.k2)) for r in dataset.samples],
        dtype="<f8",
    )
    _check_records(records, dataset.m_coeff)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIII", VERSION, len(dataset.samples), dataset.m_coeff, dataset.n_grid))
        f.write(records)


def read(path) -> Dataset:
    """Load a dataset file, validating magic, version, header, length, finite values and positive speeds.

    The whole records are read as one (records, record length) array and
    checked in one vectorized pass; the first bad record is reported by
    index, and a file cut short only after the whole records before the cut.
    """
    with open(path, "rb") as f:
        if read_exact(f, 4, "magic", "dataset file") != MAGIC:
            raise ValueError("not a dataset file (bad magic)")
        version, n_samples, m_coeff, n_grid = struct.unpack("<IIII", read_exact(f, 16, "header", "dataset file"))
        if version != VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        _check_header(n_samples, m_coeff, n_grid)
        t = (n_grid + 1) * (n_grid + 2) // 2
        # a record is q, the seven coefficient arrays, then k1 and k2
        edges = list(accumulate([0, 1] + [m_coeff] * 7 + [t, t]))
        size = os.fstat(f.fileno()).st_size
        if 8 * edges[-1] > size:  # before asking for that much memory
            raise ValueError("dataset file truncated inside record 0: the file is shorter than one record")
        records = np.empty((min(n_samples, (size - f.tell()) // (8 * edges[-1])), edges[-1]), dtype="<f8")
        if f.readinto(records) != records.nbytes:
            raise ValueError("dataset file truncated while reading the records")
        q, lam, mu, sigma, omega, theta, dlam, dmu, k1, k2 = (records[:, a:b] for a, b in zip(edges, edges[1:]))
        _check_records(records, m_coeff)
        if len(records) < n_samples:
            raise ValueError(
                f"dataset file truncated inside record {len(records)}: dataset file truncated while reading the record"
            )
        if f.read(1):
            raise ValueError("dataset file has trailing bytes")
    grid = IntervalGrid(m_coeff - 1)
    samples = [
        SampleRecord(grid, *arrays, float(qi), k1i, k2i)
        for qi, *arrays, k1i, k2i in zip(q[:, 0], lam, dlam, mu, dmu, sigma, omega, theta, k1, k2)
    ]
    return Dataset(m_coeff=m_coeff, n_grid=n_grid, samples=samples)
