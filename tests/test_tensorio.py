"""Round trips and failure modes of the RTF1 container and IDX ingestion."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from redunet import (
    BadMagicError,
    DataError,
    ShapeError,
    Tensor,
    TruncatedFileError,
    UnknownDtypeError,
    read_idx,
    read_tensor,
    write_tensor,
)
from redunet.tensorio import DTYPE_REAL64, DTYPE_UINT32, ContainerReader


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (2, 2, 2, 3)])
def test_real_round_trip(tmp_path, shape):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(shape)
    path = tmp_path / "t.rtf"
    write_tensor(path, Tensor.from_array(arr))
    back = read_tensor(path)
    assert back.shape == shape
    assert back.dtype == DTYPE_REAL64
    np.testing.assert_array_equal(back.to_array(), arr)


def test_label_round_trip(tmp_path):
    labels = np.array([0, 3, 2, 2**31], dtype=np.uint32)
    path = tmp_path / "labels.rtf"
    write_tensor(path, Tensor.from_array(labels))
    back = read_tensor(path)
    assert back.dtype == DTYPE_UINT32
    np.testing.assert_array_equal(back.to_array(), labels)


@pytest.mark.parametrize("values", [[-1, 3], [2**32 + 5, 1], [2.7, 3e10]])
def test_integers_outside_uint32_are_rejected_not_wrapped(values):
    arr = np.array(values)
    if arr.dtype.kind == "i":
        with pytest.raises(DataError):
            Tensor.from_array(arr)
    # the constructor is checked too, so a label tensor is never wrapped or truncated
    with pytest.raises(DataError):
        Tensor(shape=arr.shape, data=arr, dtype=DTYPE_UINT32)
    whole = Tensor(shape=(2,), data=np.array([3.0, 2**32 - 1]), dtype=DTYPE_UINT32)
    assert whole.data.tolist() == [3, 2**32 - 1]


def test_round_trip_is_byte_stable(tmp_path):
    arr = np.random.default_rng(1).standard_normal((4, 4))
    a, b = tmp_path / "a.rtf", tmp_path / "b.rtf"
    write_tensor(a, Tensor.from_array(arr))
    write_tensor(b, read_tensor(a))
    assert a.read_bytes() == b.read_bytes()


def test_tensor_equality():
    arr = np.arange(6.0).reshape(2, 3)
    assert Tensor.from_array(arr) == Tensor.from_array(arr.copy())
    assert Tensor.from_array(arr) != Tensor.from_array(arr.T)


def test_rank_out_of_range():
    with pytest.raises(ShapeError):
        Tensor(shape=(1, 1, 1, 1, 1), data=np.zeros(1))


def test_an_unknown_dtype_code_is_rejected():
    with pytest.raises(UnknownDtypeError):
        Tensor(shape=(2,), data=np.zeros(2), dtype=7)


@pytest.mark.parametrize("rank", [0, 5])
def test_a_header_rank_outside_1_to_4_is_a_shape_error(tmp_path, rank):
    path = tmp_path / "bad.rtf"
    path.write_bytes(b"RTF1" + bytes([DTYPE_REAL64, rank]) + struct.pack(f"<{rank}Q", *[1] * rank)
                     + bytes(8))
    with pytest.raises(ShapeError):
        read_tensor(path)


def test_element_count_mismatch():
    with pytest.raises(ShapeError):
        Tensor(shape=(2, 3), data=np.zeros(5))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rtf"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagicError):
        read_tensor(path)


def test_unknown_dtype(tmp_path):
    path = tmp_path / "bad.rtf"
    path.write_bytes(b"RTF1" + bytes([9, 1]) + struct.pack("<Q", 1) + b"\x00" * 8)
    with pytest.raises(UnknownDtypeError):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    good = tmp_path / "good.rtf"
    write_tensor(good, Tensor.from_array(np.zeros((4, 4))))
    bad = tmp_path / "bad.rtf"
    bad.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(TruncatedFileError):
        read_tensor(bad)


def test_reading_a_tensor_costs_its_size_once(tmp_path):
    path = tmp_path / "big.rtf"
    write_tensor(path, Tensor.from_array(np.arange(1 << 20, dtype=float)))
    size = path.stat().st_size
    assert size >= 8 << 20
    tracemalloc.start()
    try:
        read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * size


def _idx_labels_bytes(labels):
    return struct.pack(">II", 0x801, len(labels)) + bytes(labels)


def _idx_images_bytes(images):
    m, h, w = images.shape
    return struct.pack(">IIII", 0x803, m, h, w) + images.astype(np.uint8).tobytes()


def test_idx_labels(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(_idx_labels_bytes([1, 9, 0, 4]))
    t = read_idx(path)
    assert t.dtype == DTYPE_UINT32
    np.testing.assert_array_equal(t.to_array(), [1, 9, 0, 4])


def test_idx_images_scaled_to_unit_interval(tmp_path):
    raw = np.arange(2 * 3 * 3).reshape(2, 3, 3) * 10
    path = tmp_path / "images.idx"
    path.write_bytes(_idx_images_bytes(raw))
    t = read_idx(path)
    assert t.shape == (2, 3, 3)
    np.testing.assert_allclose(t.to_array(), raw / 255.0)
    assert t.to_array().max() <= 1.0


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">II", 0x999, 3) + b"\x00\x00\x00")
    with pytest.raises(UnknownDtypeError):
        read_idx(path)


def test_idx_truncated(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">I", 0x801))
    with pytest.raises(TruncatedFileError):
        read_idx(path)


def test_idx_payload_shortfall(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">II", 0x801, 10) + b"\x01\x02")
    with pytest.raises(ShapeError):
        read_idx(path)


def test_a_file_that_shrinks_after_it_was_opened_is_truncated(tmp_path):
    # larger than the reader's buffer, so the missing bytes are not already read
    path = tmp_path / "shrinks.rtf"
    write_tensor(path, Tensor.from_array(np.ones(4096)))
    with ContainerReader(path, b"RTF1") as r:
        os.truncate(path, 64)
        with pytest.raises(TruncatedFileError, match="file ended before byte"):
            r.array("<f8", (4096,))
