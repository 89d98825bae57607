"""Spectral-domain construction checked against explicit circulant algebra."""

import numpy as np
import pytest

from circref import family_1d, family_2d, reference_construct
from redunet import (
    BadMagicError,
    DataError,
    Membership,
    ShapeError,
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
)
from redunet.spectral import _to_spectral


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
    R, Rc, dR = spectral_rate_reduction(_to_spectral(Z), Pi, 0.1)
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
