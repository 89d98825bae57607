"""Every loader either returns or raises a DataError subclass, whatever the
bytes: truncations, single-byte flips and trailing bytes of valid RTF1, IDX,
RNM1 and RNS1 files, and the CLI maps each of those to exit code 3. A model
that loads is a model that forwards: a bit-flipped RNM1/RNS1 either fails at
load or forward with a DataError/NumericError, or gives finite output."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redunet import (
    DataError,
    FormatError,
    Membership,
    NumericError,
    ShapeError,
    Tensor,
    TruncatedFileError,
    construct,
    construct_inv1d,
    construct_inv2d,
    forward,
    forward_inv1d,
    forward_inv2d,
    load_invariant_model,
    load_model,
    normalize_samples_time,
    read_idx,
    read_tensor,
    save_invariant_model,
    save_model,
    write_tensor,
)
from redunet.cli import main

LOADERS = {
    "rtf1-real": read_tensor,
    "rtf1-uint32": read_tensor,
    "idx-labels": read_idx,
    "idx-images": read_idx,
    "rnm1": load_model,
    "rns1-1d": load_invariant_model,
    "rns1-2d": load_invariant_model,
}
FORWARDS = {"rnm1": forward, "rns1-1d": forward_inv1d, "rns1-2d": forward_inv2d}


def _training_input(name):
    """The unit-norm batch each model file is built from."""
    rng = np.random.default_rng(0)
    if name == "rnm1":
        Z = rng.standard_normal((2, 4))
        return Z / np.linalg.norm(Z, axis=0)
    shape = (4, 2, 3) if name == "rns1-1d" else (4, 1, 2, 2)
    return normalize_samples_time(rng.standard_normal(shape))


def _write_valid(name, path):
    rng = np.random.default_rng(0)
    labels = np.array([0, 1, 0, 1])
    if name == "rtf1-real":
        write_tensor(path, Tensor.from_array(rng.standard_normal((2, 3))))
    elif name == "rtf1-uint32":
        write_tensor(path, Tensor.from_array(np.array([3, 0, 2**31], dtype=np.uint32)))
    elif name == "idx-labels":
        path.write_bytes(struct.pack(">II", 0x801, 3) + bytes([7, 0, 9]))
    elif name == "idx-images":
        path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 3) + bytes(range(0, 240, 20)))
    elif name == "rnm1":
        model, _, _ = construct(_training_input(name), Membership.from_labels(labels),
                                L=1, eta=0.5, eps=0.5)
        save_model(path, model)
    else:
        build = construct_inv1d if name == "rns1-1d" else construct_inv2d
        model, _, _ = build(_training_input(name), Membership.from_labels(labels),
                            L=1, eta=0.5, eps=0.5)
        save_invariant_model(path, model)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """name -> (bytes of a valid file, a scratch path for mutants)."""
    root = tmp_path_factory.mktemp("valid")
    out = {}
    for name in LOADERS:
        _write_valid(name, root / name)
        out[name] = ((root / name).read_bytes(), root / f"{name}.mutant")
    return out


@pytest.mark.parametrize("name", LOADERS)
def test_valid_files_load(valid, name):
    blob, path = valid[name]
    path.write_bytes(blob)
    LOADERS[name](path)


# every prefix of RNM1 and RNS1 files is checked in test_dense and test_spectral
@pytest.mark.parametrize("name", ["rtf1-real", "rtf1-uint32", "idx-labels", "idx-images"])
def test_every_truncation_is_reported(valid, name):
    blob, path = valid[name]
    # IDX reports a short payload as a shape mismatch
    expected = (TruncatedFileError, ShapeError) if name.startswith("idx") else TruncatedFileError
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(expected):
            LOADERS[name](path)


@pytest.mark.parametrize("name", LOADERS)
def test_trailing_bytes_are_rejected(valid, name):
    blob, path = valid[name]
    for extra in (b"\x00", b"\x00" * 16):
        path.write_bytes(blob + extra)
        with pytest.raises(FormatError):
            LOADERS[name](path)


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_single_byte_flips_return_or_raise_data_error(valid, name, data):
    blob, path = valid[name]
    i = data.draw(st.integers(0, len(blob) - 1), label="offset")
    flip = data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:])
    try:
        LOADERS[name](path)
    except DataError:
        pass


@pytest.mark.parametrize("name", FORWARDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_bit_flipped_model_that_loads_forwards_its_training_batch(valid, name, data):
    blob, path = valid[name]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    i = bit // 8
    path.write_bytes(blob[:i] + bytes([blob[i] ^ (1 << bit % 8)]) + blob[i + 1:])
    try:
        out = FORWARDS[name](LOADERS[name](path), _training_input(name))
    except (DataError, NumericError):
        return
    assert np.all(np.isfinite(out))
    norms = np.linalg.norm(out if name == "rnm1" else out.reshape(len(out), -1).T, axis=0)
    if name == "rnm1":
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-9)
    else:
        # the real part of a unit-norm spectrum: exactly 1 unless the flip broke
        # the conjugate symmetry between frequencies p and -p
        assert np.all(norms <= 1 + 1e-9)


# the header doubles eta, lambda, eps follow the integer fields
HEADER_DOUBLES = {"rnm1": 4 + struct.calcsize("<4I"),
                  "rns1-1d": 4 + struct.calcsize("<IBI1I2I"),
                  "rns1-2d": 4 + struct.calcsize("<IBI2I2I")}


@pytest.mark.parametrize("name", HEADER_DOUBLES)
@pytest.mark.parametrize("field, value", [(0, -0.5), (0, np.nan), (1, -500.0)])
def test_a_negative_or_nan_step_parameter_is_rejected_at_load(valid, name, field, value):
    blob, path = valid[name]
    i = HEADER_DOUBLES[name] + 8 * field
    assert struct.unpack_from("<d", blob, i)[0] == (0.5, 500.0)[field]
    path.write_bytes(blob[:i] + struct.pack("<d", value) + blob[i + 8:])
    with pytest.raises(DataError):
        LOADERS[name](path)


def test_huge_declared_shape_is_truncated_not_overflowed(tmp_path):
    path = tmp_path / "huge.rtf"
    path.write_bytes(b"RTF1" + struct.pack("<BB2Q", 1, 2, 2**62, 4))
    with pytest.raises(TruncatedFileError):
        read_tensor(path)


def test_empty_tensor_with_unindexable_extent_is_a_shape_error(tmp_path):
    path = tmp_path / "wide.rtf"
    path.write_bytes(b"RTF1" + struct.pack("<BB2Q", 1, 2, 2**63, 0))
    with pytest.raises(ShapeError):
        read_tensor(path)


def test_zero_width_tensor_round_trips(tmp_path):
    path = tmp_path / "empty.rtf"
    write_tensor(path, Tensor.from_array(np.zeros((5, 0))))
    assert read_tensor(path).to_array().shape == (5, 0)


def test_model_with_empty_layer_blocks_is_rejected(valid, tmp_path):
    blob, _ = valid["rnm1"]
    path = tmp_path / "empty.rnm"
    # zero-dimensional features: a depth of up to 2**32 - 1 would need no bytes
    path.write_bytes(blob[:8] + struct.pack("<3I", 3, 0, 2) + blob[20:60])
    with pytest.raises(ShapeError):
        load_model(path)


def test_cli_exits_3_on_each_malformed_input(valid, tmp_path, capsys):
    feats = tmp_path / "feats.rtf"
    write_tensor(feats, Tensor.from_array(np.eye(2)))
    labels = tmp_path / "labels.rtf"
    write_tensor(labels, Tensor.from_array(np.array([0, 1], dtype=np.uint32)))

    huge = tmp_path / "huge.rtf"
    huge.write_bytes(b"RTF1" + struct.pack("<BB2Q", 1, 2, 2**62, 4))
    assert main(["rate", "--features", str(huge), "--labels", str(labels),
                 "--eps", "0.5"]) == 3

    model = tmp_path / "trailing.rnm"
    model.write_bytes(valid["rnm1"][0] + b"\x00")
    assert main(["forward", "--model", str(model), "--features", str(feats),
                 "--out", str(tmp_path / "out.rtf")]) == 3

    idx = tmp_path / "short.idx"
    idx.write_bytes(valid["idx-images"][0][:-1])
    assert main(["mnist-import", "--images", str(idx), "--labels", str(idx),
                 "--out-images", str(tmp_path / "i.rtf"),
                 "--out-labels", str(tmp_path / "l.rtf")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_nsc_bundle_reads_widths_from_its_basis_files(tmp_path, capsys):
    rng = np.random.default_rng(1)
    feats = tmp_path / "feats.rtf"
    F = rng.standard_normal((4, 12))
    F[:, 6:] = 0.5  # class 1 collapses to its mean: a rank-0 basis
    write_tensor(feats, Tensor.from_array(F))
    labels = tmp_path / "labels.rtf"
    write_tensor(labels, Tensor.from_array(np.repeat([0, 1], 6).astype(np.uint32)))
    bundle = tmp_path / "bundle"
    assert main(["nsc-fit", "--features", str(feats), "--labels", str(labels),
                 "--r", "2", "--out", str(bundle)]) == 0
    assert read_tensor(bundle / "basis_1.rtf").shape == (4, 0)

    def predict(tag):
        out = tmp_path / f"pred_{tag}.rtf"
        code = main(["nsc-predict", "--bundle", str(bundle), "--features", str(feats),
                     "--out", str(out)])
        return code, read_tensor(out) if code == 0 else None

    code, full = predict("full")
    assert code == 0
    # manifest.txt is informational: without its basis_dims line nothing changes
    (bundle / "manifest.txt").write_text("classes=2\n")
    assert predict("bare") == (0, full)
    write_tensor(bundle / "basis_0.rtf", Tensor.from_array(np.zeros((3, 2))))
    assert predict("bad_rows")[0] == 3
    assert "Traceback" not in capsys.readouterr().err
