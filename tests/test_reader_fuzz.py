"""Fuzzing of the two binary readers: any bytes give a valid object or a ValueError."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gainops import neural_op as nn
from gainops.data_store import Dataset, SampleRecord, read, write

# u32 header values at the edges of what the readers must refuse or accept
EDGE_U32 = [0, 1, 2, 3, 4, 5, 11, 2**31, 2**32 - 1]
FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _near(valid: bytes, header_end: int):
    """Arbitrary bytes, and bytes near a valid file: header fields set to edge
    values, bytes overwritten, the file cut short and any tail appended."""
    fields = st.lists(st.tuples(st.sampled_from(range(4, header_end, 4)), st.sampled_from(EDGE_U32)), max_size=3)
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), max_size=6)

    def build(fields, edits, cut, tail):
        b = bytearray(valid)
        for at, value in fields:
            b[at : at + 4] = struct.pack("<I", value)
        for at, value in edits:
            b[at] = value
        return bytes(b[:cut]) + tail

    near = st.builds(build, fields, edits, st.integers(0, len(valid)), st.binary(max_size=24))
    return st.one_of(st.binary(max_size=64), near)


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "dataset.bin"
    rng = np.random.default_rng(0)
    m, t = 3, 6  # m_coeff 3 on an n_grid 2 triangle of 6 nodes
    samples = [
        SampleRecord(0.5, 1 + rng.random(m), 1 + rng.random(m), *rng.standard_normal((3, m)), *rng.standard_normal((2, t)))
        for _ in range(2)
    ]
    write(Dataset(m_coeff=m, n_grid=2, samples=samples), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_model(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    nn.save_model(nn.init_model(nn.TrainConfig(m_enc=2, p=2, branch_hidden=(3,), trunk_hidden=(3,))), path)
    return path.read_bytes()


def _outcome(reader, path, data):
    path.write_bytes(data)
    try:
        return reader(path)
    except ValueError:
        return None


@FUZZ
@given(data=st.data())
def test_dataset_reader_returns_dataset_or_value_error(tmp_path, valid_dataset, data):
    out = _outcome(read, tmp_path / "fuzz.bin", data.draw(_near(valid_dataset, 20)))
    assert out is None or isinstance(out, Dataset)


@FUZZ
@given(data=st.data())
def test_model_reader_returns_model_or_value_error(tmp_path, valid_model, data):
    # magic, four header words, three branch dims, trunk count, three trunk dims
    out = _outcome(nn.load_model, tmp_path / "fuzz.bin", data.draw(_near(valid_model, 48)))
    assert out is None or isinstance(out, nn.DeepONetModel)
    if out is not None:
        values = [*out.parameters(), out.feat_mean, out.feat_scale, [out.b1, out.b2]]
        assert all(np.all(np.isfinite(v)) for v in values)
