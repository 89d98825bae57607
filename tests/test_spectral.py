"""Spectral-domain construction checked against explicit circulant algebra."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from circref import family_1d, family_2d, reference_construct
from redunet import (
    BadMagicError,
    DataError,
    FormatError,
    Membership,
    ShapeError,
    SpectralLayer,
    Tensor,
    TruncatedFileError,
    VersionError,
    circulant,
    circular_convolve_1d,
    circular_convolve_2d,
    construct,
    construct_inv1d,
    construct_inv2d,
    dft_1d,
    dft_2d,
    forward_inv1d,
    forward_inv2d,
    idft_1d,
    idft_2d,
    lift_random_filters_1d,
    lift_random_filters_2d,
    load_invariant_model,
    normalize_samples_time,
    rate_reduction,
    save_invariant_model,
    soft_threshold,
    spectral_rate_reduction,
    write_tensor,
)
from redunet import _engine, spectral
from redunet.cli import main
from redunet.spectral import _HalfSpectrum


def _samples_1d(seed=0, m=3, C=2, T=4, k=2):
    rng = np.random.default_rng(seed)
    Z = normalize_samples_time(rng.standard_normal((m, C, T)))
    labels = np.arange(m) % k
    return Z, labels, Membership.from_labels(labels, k=k)


def _samples_2d(seed=0, m=3, C=2, H=3, W=3, k=2):
    rng = np.random.default_rng(seed)
    Z = normalize_samples_time(rng.standard_normal((m, C, H, W)))
    labels = np.arange(m) % k
    return Z, labels, Membership.from_labels(labels, k=k)


def test_dft_is_unitary():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 8))
    np.testing.assert_allclose(idft_1d(dft_1d(x)), x, atol=1e-12)
    # Parseval: energy is preserved
    assert np.linalg.norm(dft_1d(x)) == pytest.approx(np.linalg.norm(x))
    y = rng.standard_normal((4, 6))
    np.testing.assert_allclose(np.real(idft_2d(dft_2d(y))), y, atol=1e-12)
    assert np.linalg.norm(dft_2d(y)) == pytest.approx(np.linalg.norm(y))


def test_circulant_columns_are_shifts():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    M = circulant(z)
    for t in range(4):
        np.testing.assert_array_equal(M[:, t], np.roll(z, t))


def test_circulant_multiplication_is_circular_convolution():
    rng = np.random.default_rng(2)
    z, x = rng.standard_normal((2, 7))
    np.testing.assert_allclose(circulant(z) @ x, circular_convolve_1d(z, x), atol=1e-12)


def test_circulant_eigenvalues_are_the_unscaled_dft():
    # the convolution theorem fixes the sqrt(T) factor between the unitary
    # spectra stored in the model and the circulant eigenvalues
    rng = np.random.default_rng(3)
    z = rng.standard_normal(6)
    T = z.size
    F = np.fft.fft(np.eye(T)) / np.sqrt(T)
    D = F @ circulant(z) @ F.conj().T
    np.testing.assert_allclose(np.diag(D), np.sqrt(T) * dft_1d(z), atol=1e-10)
    np.testing.assert_allclose(D - np.diag(np.diag(D)), 0, atol=1e-10)


def test_circular_convolve_2d_matches_direct_sum():
    rng = np.random.default_rng(4)
    kernel = rng.standard_normal((3, 3))
    image = rng.standard_normal((3, 3))
    direct = np.zeros((3, 3))
    for h in range(3):
        for w in range(3):
            for a in range(3):
                for b in range(3):
                    direct[h, w] += kernel[a, b] * image[(h - a) % 3, (w - b) % 3]
    np.testing.assert_allclose(circular_convolve_2d(kernel, image), direct, atol=1e-12)


def test_soft_threshold():
    v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(soft_threshold(v, 1.0), [-1.0, 0.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_negative_threshold_is_rejected():
    with pytest.raises(DataError):
        soft_threshold(np.ones(3), -1.0)
    with pytest.raises(DataError):
        lift_random_filters_1d(np.ones((2, 8)), C=2, K=3, seed=0, tau=-1.0)
    with pytest.raises(DataError):
        lift_random_filters_2d(np.ones((2, 4, 4)), C=2, K=3, seed=0, tau=-1.0)


def test_spectral_rate_matches_circulant_family_rate():
    Z, labels, Pi = _samples_1d()
    T = Z.shape[2]
    A = np.hstack([family_1d(z) for z in Z])
    Pi_big = Membership.from_labels(np.repeat(labels, T), k=Pi.k)
    R_big, Rc_big, dR_big = rate_reduction(A, Pi_big, 0.1)
    # the public objective takes full (P, C, m) unitary spectra
    R, Rc, dR = spectral_rate_reduction(np.transpose(dft_1d(Z), (2, 1, 0)), Pi, 0.1)
    assert R == pytest.approx(R_big / T, abs=1e-10)
    assert Rc == pytest.approx(Rc_big / T, abs=1e-10)
    assert dR == pytest.approx(dR_big / T, abs=1e-10)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_shift_invariant_construction_matches_circulant_oracle(depth):
    Z, labels, Pi = _samples_1d()
    ref = reference_construct(Z, labels, depth, eta=0.5, eps=0.1, lam=500.0,
                              family=family_1d)
    _, Z_out, _ = construct_inv1d(Z, Pi, L=depth, eta=0.5, eps=0.1)
    np.testing.assert_allclose(Z_out, ref[-1], atol=1e-8)


@pytest.mark.parametrize("depth", [1, 3])
def test_translation_invariant_construction_matches_circulant_oracle(depth):
    Z, labels, Pi = _samples_2d()
    ref = reference_construct(Z, labels, depth, eta=0.5, eps=0.1, lam=500.0,
                              family=family_2d)
    _, Z_out, _ = construct_inv2d(Z, Pi, L=depth, eta=0.5, eps=0.1)
    np.testing.assert_allclose(Z_out, ref[-1], atol=1e-8)


def test_length_one_signals_degenerate_to_the_dense_network():
    rng = np.random.default_rng(5)
    m, C = 8, 3
    Z = normalize_samples_time(rng.standard_normal((m, C, 1)))
    labels = np.arange(m) % 2
    Pi = Membership.from_labels(labels, k=2)
    _, Z_inv, curve_inv = construct_inv1d(Z, Pi, L=4, eta=0.5, eps=0.3)
    _, Z_dense, curve_dense = construct(Z[:, :, 0].T, Pi, L=4, eta=0.5, eps=0.3)
    np.testing.assert_allclose(Z_inv[:, :, 0].T, Z_dense, atol=1e-12)
    np.testing.assert_allclose(curve_inv, curve_dense, atol=1e-10)


def test_forward_replays_construction():
    Z, labels, Pi = _samples_1d(seed=6)
    model, Z_out, _ = construct_inv1d(Z, Pi, L=3, eta=0.5, eps=0.1)
    np.testing.assert_allclose(forward_inv1d(model, Z), Z_out, atol=1e-12)


def test_forward_inv1d_commutes_with_shifts():
    Z, labels, Pi = _samples_1d(seed=7, T=6)
    model, Z_out, _ = construct_inv1d(Z, Pi, L=3, eta=0.5, eps=0.1)
    for shift in (1, 2, 5):
        shifted = forward_inv1d(model, np.roll(Z, shift, axis=-1))
        np.testing.assert_allclose(shifted, np.roll(Z_out, shift, axis=-1), atol=1e-9)


def test_forward_inv2d_commutes_with_translations():
    Z, labels, Pi = _samples_2d(seed=8)
    model, Z_out, _ = construct_inv2d(Z, Pi, L=2, eta=0.5, eps=0.1)
    for p, q in ((1, 0), (0, 2), (2, 1)):
        shifted = forward_inv2d(model, np.roll(Z, (p, q), axis=(-2, -1)))
        np.testing.assert_allclose(
            shifted, np.roll(Z_out, (p, q), axis=(-2, -1)), atol=1e-9
        )


def _block_budget(model, samples):
    """A STEP_BLOCK_BYTES that makes the engine step ``samples`` columns at a time."""
    k, P, d = model.layers[0].C_hat.shape[:3]
    return samples * k * P * d * np.dtype(complex).itemsize


def _count_block_widths(monkeypatch):
    widths = []
    increment = _engine.increment

    def counted(V, *args):
        widths.append(V.shape[-1])
        return increment(V, *args)

    monkeypatch.setattr(_engine, "increment", counted)
    return widths


def test_sample_blocks_match_one_block(monkeypatch):
    Z1, _, Pi1 = _samples_1d(seed=21, m=11, C=3, T=8, k=3)
    Z2, _, Pi2 = _samples_2d(seed=22, m=11, C=2, H=5, W=6, k=3)
    model1, out1, curve1 = construct_inv1d(Z1, Pi1, L=3, eta=0.5, eps=0.5)
    model2, _, _ = construct_inv2d(Z2, Pi2, L=2, eta=0.5, eps=0.5)
    Z2_new, _, _ = _samples_2d(seed=23, m=11, C=2, H=5, W=6)
    fwd2 = forward_inv2d(model2, Z2_new)

    widths = _count_block_widths(monkeypatch)
    monkeypatch.setattr(_engine, "STEP_BLOCK_BYTES", _block_budget(model1, 4))
    blocked1, blocked_out1, blocked_curve1 = construct_inv1d(Z1, Pi1, L=3, eta=0.5, eps=0.5)
    assert widths == [4, 4, 3] * 3
    np.testing.assert_allclose(blocked_curve1.values, curve1.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(blocked_out1, out1, rtol=0, atol=1e-12)
    for a, b in zip(blocked1.layers, model1.layers):
        np.testing.assert_allclose(a.C_hat, b.C_hat, rtol=0, atol=1e-12)

    widths.clear()
    monkeypatch.setattr(_engine, "STEP_BLOCK_BYTES", _block_budget(model2, 4))
    np.testing.assert_allclose(forward_inv2d(model2, Z2_new), fwd2, rtol=0, atol=1e-12)
    assert widths == [4, 4, 3] * 2


def test_forward_of_a_batch_is_the_forward_of_its_halves(monkeypatch):
    Z, _, Pi = _samples_2d(seed=24, m=9, C=2, H=4, W=5, k=3)
    model, _, _ = construct_inv2d(Z, Pi, L=3, eta=0.5, eps=0.5)
    batch, _, _ = _samples_2d(seed=25, m=13, C=2, H=4, W=5)
    monkeypatch.setattr(_engine, "STEP_BLOCK_BYTES", _block_budget(model, 3))
    halves = np.concatenate([forward_inv2d(model, batch[:6]), forward_inv2d(model, batch[6:])])
    np.testing.assert_allclose(forward_inv2d(model, batch), halves, rtol=0, atol=1e-12)


def test_forward_memory_is_the_batch_plus_one_block(monkeypatch):
    # at k = 10 the class products of the whole batch are 10x its spectra;
    # blocked, the traced peak stays a few batches plus one block
    Z, _, Pi = _samples_2d(seed=26, m=20, C=4, H=16, W=16, k=10)
    model, _, _ = construct_inv2d(Z, Pi, L=1, eta=0.5, eps=0.5)
    batch, _, _ = _samples_2d(seed=27, m=400, C=4, H=16, W=16)
    budget = 1 << 20
    spectra = 400 * _HalfSpectrum.size((16, 16)) * 4 * np.dtype(complex).itemsize
    assert model.k * spectra > 30 * budget
    monkeypatch.setattr(_engine, "STEP_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        forward_inv2d(model, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * batch.nbytes + budget


def test_output_samples_stay_unit_norm():
    Z, labels, Pi = _samples_1d(seed=9)
    _, Z_out, _ = construct_inv1d(Z, Pi, L=3, eta=1.0, eps=0.1)
    norms = np.linalg.norm(Z_out.reshape(Z_out.shape[0], -1), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_construct_inv_validates_input():
    Z, labels, Pi = _samples_1d()
    with pytest.raises(DataError):
        construct_inv1d(3.0 * Z, Pi, L=1, eta=0.5, eps=0.1)
    with pytest.raises(DataError):
        construct_inv1d(Z, Pi, L=0, eta=0.5, eps=0.1)
    with pytest.raises(ShapeError):
        construct_inv1d(Z[:, 0], Pi, L=1, eta=0.5, eps=0.1)
    for empty in (Z[:, :0], Z[..., :0]):
        with pytest.raises(ShapeError):
            construct_inv1d(empty, Pi, L=1, eta=0.5, eps=0.1)
    with pytest.raises(ShapeError):
        construct_inv2d(np.zeros((3, 2, 0, 3)), Pi, L=1, eta=0.5, eps=0.1)


def test_construct_inv_rejects_membership_of_another_sample_count():
    Z, _, _ = _samples_1d(m=4)
    with pytest.raises(ShapeError):
        construct_inv1d(Z, Membership.from_labels([0, 1, 0]), L=1, eta=0.5, eps=0.1)


def test_forward_checks_model_kind_and_shape():
    Z1, _, Pi1 = _samples_1d()
    Z2, _, Pi2 = _samples_2d()
    m1, _, _ = construct_inv1d(Z1, Pi1, L=1, eta=0.5, eps=0.1)
    m2, _, _ = construct_inv2d(Z2, Pi2, L=1, eta=0.5, eps=0.1)
    with pytest.raises(ShapeError):
        forward_inv1d(m2, Z1)
    with pytest.raises(ShapeError):
        forward_inv2d(m1, Z2)
    with pytest.raises(ShapeError):
        forward_inv1d(m1, np.roll(Z1, 1, axis=1)[:, :, :3])


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_invariant_model_round_trip(tmp_path, dim):
    if dim == "1d":
        Z, _, Pi = _samples_1d(seed=10)
        model, _, _ = construct_inv1d(Z, Pi, L=2, eta=0.5, eps=0.1)
    else:
        Z, _, Pi = _samples_2d(seed=10)
        model, _, _ = construct_inv2d(Z, Pi, L=2, eta=0.5, eps=0.1)
    path = tmp_path / "model.rns"
    save_invariant_model(path, model)
    back = load_invariant_model(path)
    assert back.kind == model.kind
    assert back.dims == model.dims
    assert (back.eta, back.lam, back.eps) == (model.eta, model.lam, model.eps)
    for la, lb in zip(model.layers, back.layers):
        np.testing.assert_array_equal(la.E_hat, lb.E_hat)
        np.testing.assert_array_equal(la.C_hat, lb.C_hat)
        np.testing.assert_array_equal(la.gamma_j, lb.gamma_j)
    path2 = tmp_path / "model2.rns"
    save_invariant_model(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_invariant_model_load_failures(tmp_path):
    Z, _, Pi = _samples_1d(seed=11)
    model, _, _ = construct_inv1d(Z, Pi, L=1, eta=0.5, eps=0.1)
    path = tmp_path / "model.rns"
    save_invariant_model(path, model)
    blob = path.read_bytes()

    bad = tmp_path / "bad.rns"
    bad.write_bytes(b"ZZZZ" + blob[4:])
    with pytest.raises(BadMagicError):
        load_invariant_model(bad)

    bad.write_bytes(blob[:4] + b"\x07\x00\x00\x00" + blob[8:])
    with pytest.raises(VersionError):
        load_invariant_model(bad)

    bad.write_bytes(blob[:-32])
    with pytest.raises(TruncatedFileError):
        load_invariant_model(bad)


def test_lifting_is_shift_equivariant():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((4, 10))
    lifted = lift_random_filters_1d(X, C=5, K=3, seed=99)
    rolled = lift_random_filters_1d(np.roll(X, 3, axis=-1), C=5, K=3, seed=99)
    np.testing.assert_allclose(rolled, np.roll(lifted, 3, axis=-1), atol=1e-12)


def test_lifting_shapes_and_determinism():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((4, 10))
    a = lift_random_filters_1d(X, C=6, K=4, seed=1)
    b = lift_random_filters_1d(X, C=6, K=4, seed=1)
    c = lift_random_filters_1d(X, C=6, K=4, seed=2)
    assert a.shape == (4, 6, 10)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)

    multi = rng.standard_normal((4, 6, 10))
    out = lift_random_filters_1d(multi, C=3, K=4, seed=1)
    assert out.shape == (4, 3, 10)

    imgs = rng.standard_normal((2, 9, 9))
    out2 = lift_random_filters_2d(imgs, C=7, K=3, seed=1)
    assert out2.shape == (2, 7, 9, 9)
    rolled = lift_random_filters_2d(np.roll(imgs, (2, 1), axis=(-2, -1)), C=7, K=3, seed=1)
    np.testing.assert_allclose(rolled, np.roll(out2, (2, 1), axis=(-2, -1)), atol=1e-12)


def test_lifting_threshold_sparsifies():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((3, 12))
    dense = lift_random_filters_1d(X, C=4, K=3, seed=5, tau=0.0)
    sparse = lift_random_filters_1d(X, C=4, K=3, seed=5, tau=2.0)
    assert np.mean(sparse == 0) > np.mean(dense == 0)


def test_lifting_rejects_oversized_kernel():
    with pytest.raises(DataError):
        lift_random_filters_1d(np.zeros((2, 4)), C=2, K=5, seed=0)


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_every_proper_prefix_of_an_invariant_model_file_is_truncated(tmp_path, dim):
    if dim == "1d":
        Z, _, Pi = _samples_1d(seed=13, T=2)
        model, _, _ = construct_inv1d(Z, Pi, L=2, eta=0.5, eps=0.1)
    else:
        Z, _, Pi = _samples_2d(seed=13, H=2, W=2)
        model, _, _ = construct_inv2d(Z, Pi, L=1, eta=0.5, eps=0.1)
    path = tmp_path / "model.rns"
    save_invariant_model(path, model)
    blob = path.read_bytes()
    bad = tmp_path / "prefix.rns"
    for size in range(len(blob)):
        bad.write_bytes(blob[:size])
        with pytest.raises(TruncatedFileError):
            load_invariant_model(bad)


# ---------------------------------------------------------------------------
# half spectrum


@pytest.mark.parametrize("dims", [(1,), (2,), (7,), (200,), (1, 1), (2, 2), (3, 3), (4, 5),
                                  (5, 4), (1, 6), (6, 1), (16, 15), (28, 28)])
def test_half_spectrum_keeps_one_frequency_per_conjugate_pair(dims):
    half = _HalfSpectrum.of(dims)
    assert len(half.keep) == _HalfSpectrum.size(dims)
    assert half.w.sum() == math.prod(dims)
    # every frequency of the full grid is a representative or the conjugate of one
    coords = np.unravel_index(half.keep, half.shape)
    rep = np.ravel_multi_index(coords, dims)
    conj = np.ravel_multi_index(tuple(-c % n for c, n in zip(coords, dims)), dims)
    assert np.array_equal(np.union1d(rep, conj), np.arange(math.prod(dims)))
    assert np.array_equal(rep == conj, half.real)
    rng = np.random.default_rng(15)
    Z = rng.standard_normal((3, 2, *dims))
    V = spectral._to_spectral(Z)
    assert not np.any(V.imag[half.real])
    np.testing.assert_allclose(spectral._from_spectral(V, dims), Z, atol=1e-12)
    assert np.sum(np.abs(V) ** 2) == pytest.approx(np.sum(Z**2))


def test_a_28_by_28_image_keeps_394_frequencies():
    assert _HalfSpectrum.size((28, 28)) == 394


def _assert_unit_norm_and_real_self_conjugate_operators(model, Z_out):
    norms = np.linalg.norm(Z_out.reshape(len(Z_out), -1), axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
    real = _HalfSpectrum.of(model.dims).real
    for layer in model.layers:
        for block in layer.blocks:
            assert not np.any(block[..., real, :, :].imag)


def test_a_40_layer_network_at_the_criterion_9_shape_stays_unit_norm():
    # m=100, 15 -> 20 channels, T=200, k=10: a full-spectrum engine loses
    # conjugate symmetry here, and its outputs had norms of 0.93 to 0.95
    rng = np.random.default_rng(16)
    Z = normalize_samples_time(
        lift_random_filters_1d(rng.standard_normal((100, 15, 200)), C=20, K=5, seed=43))
    Pi = Membership.from_labels(np.repeat(np.arange(10), 10), k=10)
    model, Z_out, _ = construct_inv1d(Z, Pi, L=40, eta=0.5, eps=0.1)
    _assert_unit_norm_and_real_self_conjugate_operators(model, Z_out)


@pytest.mark.parametrize("H, W", [(16, 16), (9, 7)])
def test_a_30_layer_2d_network_stays_unit_norm(H, W):
    rng = np.random.default_rng(17)
    Z = normalize_samples_time(
        lift_random_filters_2d(rng.standard_normal((20, H, W)), C=4, K=3, seed=42))
    Pi = Membership.from_labels(np.repeat([0, 1], 10), k=2)
    model, Z_out, _ = construct_inv2d(Z, Pi, L=30, eta=0.5, eps=0.1)
    _assert_unit_norm_and_real_self_conjugate_operators(model, Z_out)


def _write_v1(path, model):
    """An RNS1 version-1 file: the model's layers mirrored to the full DFT grid."""
    half = _HalfSpectrum.of(model.dims)
    coords = np.unravel_index(half.keep, half.shape)
    rep = np.ravel_multi_index(coords, model.dims)
    conj = np.ravel_multi_index(tuple(-c % n for c, n in zip(coords, model.dims)), model.dims)

    def mirror(block):
        full = np.empty((*block.shape[:-3], math.prod(model.dims), *block.shape[-2:]),
                        dtype=complex)
        full[..., conj, :, :] = block.conj()
        full[..., rep, :, :] = block
        return full

    header = b"RNS1" + struct.pack(
        f"<IBI{len(model.dims)}I2I3d", 1, 1 if model.kind == "shift1d" else 2,
        model.channels, *model.dims, model.k, model.depth, model.eta, model.lam, model.eps)
    layers = [SpectralLayer(mirror(la.E_hat), mirror(la.C_hat), la.gamma_j)
              for la in model.layers]
    _engine.write_layers(path, header, layers, "<c16")


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_a_version_1_model_loads_as_its_half_spectrum(tmp_path, dim):
    if dim == "1d":
        Z, _, Pi = _samples_1d(seed=18, m=6, T=8)
        model, Z_out, _ = construct_inv1d(Z, Pi, L=4, eta=0.5, eps=0.1)
        forward = forward_inv1d
    else:
        Z, _, Pi = _samples_2d(seed=18, m=6, H=4, W=5)
        model, Z_out, _ = construct_inv2d(Z, Pi, L=4, eta=0.5, eps=0.1)
        forward = forward_inv2d
    path = tmp_path / "v1.rns"
    _write_v1(path, model)
    back = load_invariant_model(path)
    for la, lb in zip(model.layers, back.layers, strict=True):
        np.testing.assert_array_equal(la.E_hat, lb.E_hat)
        np.testing.assert_array_equal(la.C_hat, lb.C_hat)
    np.testing.assert_allclose(forward(back, Z), Z_out, rtol=0, atol=1e-12)
    # it is written back as version 2, at half the operator bytes
    save_invariant_model(tmp_path / "v2.rns", back)
    blob = (tmp_path / "v2.rns").read_bytes()
    assert struct.unpack_from("<I", blob, 4) == (2,)
    assert len(blob) < path.stat().st_size


def test_a_version_2_operator_that_is_not_real_at_a_self_conjugate_frequency_is_rejected(
        tmp_path):
    Z, _, Pi = _samples_1d(seed=19, T=6)
    model, _, _ = construct_inv1d(Z, Pi, L=2, eta=0.5, eps=0.1)
    layers = list(model.layers)
    C_hat = layers[1].C_hat.copy()
    C_hat[1, 3, 0, 1] += 1e-300j  # frequency 3 of T=6 is its own conjugate
    layers[1] = SpectralLayer(layers[1].E_hat, C_hat, layers[1].gamma_j)
    path = tmp_path / "bad.rns"
    save_invariant_model(path, type(model)(**{**vars(model), "layers": tuple(layers)}))
    with pytest.raises(FormatError):
        load_invariant_model(path)
    feats = tmp_path / "sig.rtf"
    write_tensor(feats, Tensor.from_array(Z))
    assert main(["forward-inv1d", "--model", str(path), "--features", str(feats),
                 "--out", str(tmp_path / "out.rtf")]) == 3
