import struct
from dataclasses import replace

import numpy as np
import pytest

from gainops.coefficients import CoefficientFamily, gamma_family, sample_random
from gainops.data_store import (
    MAGIC,
    VERSION,
    Dataset,
    generate,
    read,
    sample_seed,
    write,
)
from gainops.kernel_solver import PlantError, solve_kernels, solve_kernels_batch
from gainops.numerics import TriangularGrid

from conftest import expected_file_size, validate_boundary_identities


@pytest.fixture(scope="module")
def small_dataset():
    fam = CoefficientFamily("random_smooth", (0.5, 5.0), 0.5)
    return generate(fam, 10, m_coeff=41, n_grid=16, seed=99)


class TestGenerate:
    def test_sample_count(self, small_dataset):
        assert len(small_dataset.samples) == 10

    def test_deterministic(self, small_dataset):
        fam = CoefficientFamily("random_smooth", (0.5, 5.0), 0.5)
        again = generate(fam, 10, m_coeff=41, n_grid=16, seed=99)
        for a, b in zip(small_dataset.samples, again.samples):
            assert a.q == b.q
            assert np.array_equal(a.k1, b.k1)
            assert np.array_equal(a.k2, b.k2)

    @pytest.mark.parametrize("n_grid", [12, 50])
    @pytest.mark.parametrize("kind", ["gamma", "random_smooth"])
    def test_generate_matches_single_solves(self, kind, n_grid):
        fam = CoefficientFamily(kind)
        grid = TriangularGrid(n_grid)
        ds = generate(fam, 5, m_coeff=101, n_grid=n_grid, seed=11)
        draws = [sample_random(fam, sample_seed(11, i)) for i in range(5)]
        for r, c in zip(ds.samples, draws):
            alone = solve_kernels(c, grid)
            assert r.k1.tobytes() == alone.k1.values.tobytes()
            assert r.k2.tobytes() == alone.k2.values.tobytes()
        # the family's extremes share a batch of 7 with the draws
        plants = [gamma_family(0.5), *draws, gamma_family(5.0)]
        for c, ks in zip(plants, solve_kernels_batch(plants, grid)):
            alone = solve_kernels(c, grid)
            assert ks.k1.values.tobytes() == alone.k1.values.tobytes()
            assert ks.k2.values.tobytes() == alone.k2.values.tobytes()

    def test_neighbouring_seeds_draw_disjoint_plants(self):
        fam = CoefficientFamily("gamma")
        draws = [{r.q for r in generate(fam, 8, m_coeff=11, n_grid=2, seed=s).samples} for s in range(4)]
        for a in range(4):
            assert len(draws[a]) == 8
            for b in range(a):
                assert not draws[a] & draws[b], (a, b)

    def test_batch_failure_names_the_plant(self):
        # no np.errstate: an overflow inside the march must surface as the PlantError
        ok = gamma_family(1.0)
        for theta in (1e155, 1e200, 1e300):
            overflow = replace(ok, theta=np.full(ok.lam.size, theta))
            with pytest.raises(PlantError, match="plant 2: kernel marching produced non-finite") as info:
                solve_kernels_batch([ok, ok, overflow, ok], TriangularGrid(12))
            assert info.value.index == 2

    def test_generate_names_an_overflowing_sample(self, monkeypatch):
        from gainops import data_store

        def draw(family, seed):
            c = sample_random(family, seed)
            return replace(c, theta=np.full(c.theta.size, 1e300)) if seed == sample_seed(7, 2) else c

        monkeypatch.setattr(data_store, "sample_random", draw)
        with pytest.raises(RuntimeError, match="sample 2 failed: plant 2: kernel marching produced non-finite"):
            generate(CoefficientFamily("gamma"), 4, m_coeff=21, n_grid=12, seed=7)

    def test_boundary_identities_hold(self, small_dataset):
        validate_boundary_identities(small_dataset)

    def test_rejects_empty(self):
        fam = CoefficientFamily("gamma")
        with pytest.raises(ValueError):
            generate(fam, 0)


class TestRoundTrip:
    def test_bit_exact(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        back = read(path)
        assert back.m_coeff == small_dataset.m_coeff
        assert back.n_grid == small_dataset.n_grid
        for a, b in zip(small_dataset.samples, back.samples):
            assert a.q == b.q
            for name in ("lam", "mu", "sigma", "omega", "theta", "dlam", "dmu", "k1", "k2"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("kind", ["gamma", "random_smooth"])
    def test_every_record_resolves_to_its_kernels(self, kind, tmp_path):
        ds = generate(CoefficientFamily(kind), 6, m_coeff=101, n_grid=20, seed=5)
        path = tmp_path / "ds.bin"
        write(ds, path)
        grid = TriangularGrid(ds.n_grid)
        for r in ds.samples + read(path).samples:
            ks = solve_kernels(r, grid)
            assert ks.k1.values.tobytes() == r.k1.tobytes()
            assert ks.k2.values.tobytes() == r.k2.tobytes()

    def test_file_size_matches_format(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        assert path.stat().st_size == expected_file_size(10, 41, 16)

    def test_corrupted_magic_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            read(path)

    def test_unknown_version_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        data = bytearray(path.read_bytes())
        for version in (1, 3, 7):
            data[4] = version
            path.write_bytes(bytes(data))
            with pytest.raises(ValueError, match=f"unsupported dataset version {version}"):
                read(path)

    def test_truncation_reports_record_index(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        data = path.read_bytes()
        # cut inside the fourth record
        cut = 20 + 3 * (len(data) - 20) // 10 + 17
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="record 3"):
            read(path)

    def test_trailing_bytes_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            read(path)

    def test_shape_mismatch_rejected(self, small_dataset):
        bad = small_dataset.samples[0]
        with pytest.raises(ValueError):
            Dataset(m_coeff=99, n_grid=16, samples=[bad])

    @pytest.mark.parametrize(
        "header, what",
        [((0, 41, 16), "0 samples"), ((1, 1, 16), "m_coeff 1"), ((1, 2, 16), "m_coeff 2"), ((1, 41, 1), "n_grid 1")],
        ids=["no_samples", "one_coefficient_node", "two_coefficient_nodes", "one_cell_grid"],
    )
    def test_degenerate_header_rejected(self, tmp_path, header, what):
        path = tmp_path / "ds.bin"
        n, m, g = header
        path.write_bytes(MAGIC + struct.pack("<IIII", VERSION, *header) + b"\0" * (expected_file_size(n, m, g) - 20))
        with pytest.raises(ValueError, match=what):
            read(path)

    @pytest.mark.parametrize("case", ["no_samples", "one_cell_grid", "nan_kernel", "column_kernel"])
    def test_write_refuses_what_read_refuses(self, small_dataset, tmp_path, case):
        r = small_dataset.samples[0]
        nan_k1 = r.k1.copy()
        nan_k1[5] = np.nan
        what, make = {
            "no_samples": ("0 samples", lambda: Dataset(41, 16, [])),
            "one_cell_grid": ("n_grid 1", lambda: Dataset(41, 1, [replace(r, k1=np.zeros(3), k2=np.zeros(3))])),
            "nan_kernel": ("record 1 holds non-finite", lambda: Dataset(41, 16, [r, replace(r, k1=nan_k1)])),
            "column_kernel": ("dataset shapes", lambda: Dataset(41, 16, [replace(r, k1=r.k1[:, None])])),
        }[case]
        with pytest.raises(ValueError, match=what):
            write(make(), tmp_path / "ds.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("header", [(1, 101, 2**22), (1, 2**31, 50), (1, 101, 2**32 - 1)])
    def test_header_larger_than_file_rejected(self, tmp_path, header):
        path = tmp_path / "ds.bin"
        path.write_bytes(MAGIC + struct.pack("<IIII", VERSION, *header) + b"\0" * 64)
        with pytest.raises(ValueError, match="shorter than one record"):
            read(path)

    def test_nan_q_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        data = bytearray(path.read_bytes())
        at = 20 + 3 * (expected_file_size(1, 41, 16) - 20)  # q of record 3
        data[at : at + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="record 3 holds non-finite"):
            read(path)

    @pytest.mark.parametrize("block, value", [(0, 0.0), (1, -1.0), (1, 0.0)], ids=["lam_zero", "mu_negative", "mu_zero"])
    def test_nonpositive_speed_rejected(self, small_dataset, tmp_path, block, value):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        data = bytearray(path.read_bytes())
        # node 7 of lam (block 0) or mu (block 1) in record 4
        at = 20 + 4 * (expected_file_size(1, 41, 16) - 20) + 8 + 8 * (41 * block + 7)
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="record 4 has a transport speed"):
            read(path)

    def test_infinite_kernel_value_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "ds.bin"
        write(small_dataset, path)
        data = bytearray(path.read_bytes())
        at = 20 + 6 * (expected_file_size(1, 41, 16) - 20) - 8  # last k2 value of record 5
        data[at : at + 8] = struct.pack("<d", float("inf"))
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="record 5 holds non-finite"):
            read(path)
