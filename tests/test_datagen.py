"""Synthetic generators, polar resampling, and cyclic augmentation."""

import itertools
import math

import numpy as np
import pytest

from redunet import (
    DataError,
    GaussianMixtureSpec,
    ShapeError,
    SubspaceSpec,
    augment_shifts,
    gen_gaussian_sphere,
    gen_orthogonal_subspaces,
    polar_resample,
    translate2d,
)


def test_gaussian_sphere_columns_are_unit_norm():
    Z, Pi = gen_gaussian_sphere(GaussianMixtureSpec(n=3, k=3, m_per_class=50,
                                                    sigma=0.1, seed=0))
    assert Z.shape == (3, 150)
    np.testing.assert_allclose(np.linalg.norm(Z, axis=0), 1.0, atol=1e-12)
    np.testing.assert_array_equal(Pi.class_sizes, [50, 50, 50])


def test_gaussian_sphere_collapses_to_means_as_sigma_vanishes():
    means = np.eye(3)
    spec = GaussianMixtureSpec(n=3, k=3, m_per_class=10, sigma=1e-12, seed=1,
                               means=means)
    Z, Pi = gen_gaussian_sphere(spec)
    labels = np.argmax(Pi.weights, axis=0)
    for j in range(3):
        block = Z[:, labels == j]
        np.testing.assert_allclose(
            block, np.broadcast_to(means[j][:, None], block.shape), atol=1e-9
        )


def test_gaussian_sphere_within_class_concentration():
    Z, Pi = gen_gaussian_sphere(GaussianMixtureSpec(n=3, k=3, m_per_class=500,
                                                    sigma=0.1, seed=2))
    labels = np.argmax(Pi.weights, axis=0)
    for j in range(3):
        block = Z[:, labels == j]
        center = block.mean(axis=1)
        center /= np.linalg.norm(center)
        # unit columns: inner products with the mean direction are cosines
        assert (center @ block).mean() > 0.98


def test_gaussian_sphere_deterministic_per_seed():
    spec = GaussianMixtureSpec(n=4, k=2, m_per_class=8, sigma=0.2, seed=3)
    Za, _ = gen_gaussian_sphere(spec)
    Zb, _ = gen_gaussian_sphere(spec)
    np.testing.assert_array_equal(Za, Zb)
    Zc, _ = gen_gaussian_sphere(GaussianMixtureSpec(n=4, k=2, m_per_class=8,
                                                    sigma=0.2, seed=4))
    assert not np.array_equal(Za, Zc)


def test_gaussian_sphere_validates_spec():
    with pytest.raises(DataError):
        gen_gaussian_sphere(GaussianMixtureSpec(n=3, k=2, m_per_class=5,
                                                sigma=0.0, seed=0))
    with pytest.raises(DataError):
        gen_gaussian_sphere(GaussianMixtureSpec(n=3, k=2, m_per_class=5,
                                                sigma=0.1, seed=0,
                                                means=2 * np.ones((2, 3))))


def test_gaussian_sphere_means_must_be_k_by_n():
    with pytest.raises(ShapeError):
        gen_gaussian_sphere(GaussianMixtureSpec(n=3, k=2, m_per_class=5, sigma=0.1, seed=0,
                                                means=np.eye(3)))


@pytest.mark.parametrize("d_j, k, m_per_class", [(0, 2, 5), (2, 0, 5), (2, 2, 0)])
def test_subspaces_need_positive_dimensions_and_counts(d_j, k, m_per_class):
    with pytest.raises(DataError):
        gen_orthogonal_subspaces(SubspaceSpec(n=10, k=k, d_j=d_j, m_per_class=m_per_class,
                                              seed=0))


def test_orthogonal_subspaces_have_zero_cross_class_cosines():
    Z, Pi = gen_orthogonal_subspaces(SubspaceSpec(n=20, k=4, d_j=3,
                                                  m_per_class=15, seed=5))
    labels = np.argmax(Pi.weights, axis=0)
    for a in range(4):
        for b in range(a + 1, 4):
            cross = Z[:, labels == a].T @ Z[:, labels == b]
            assert np.max(np.abs(cross)) < 1e-12


def test_subspace_blocks_have_the_requested_rank():
    Z, Pi = gen_orthogonal_subspaces(SubspaceSpec(n=16, k=3, d_j=4,
                                                  m_per_class=12, seed=6))
    labels = np.argmax(Pi.weights, axis=0)
    for j in range(3):
        s = np.linalg.svd(Z[:, labels == j], compute_uv=False)
        assert np.sum(s > 1e-10) == 4


def test_nonorthogonal_subspaces_still_unit_norm_and_ranked():
    Z, Pi = gen_orthogonal_subspaces(SubspaceSpec(n=8, k=4, d_j=3,
                                                  m_per_class=10, seed=7,
                                                  orthogonal=False))
    np.testing.assert_allclose(np.linalg.norm(Z, axis=0), 1.0, atol=1e-12)


def test_infeasible_orthogonality_is_rejected():
    with pytest.raises(DataError):
        gen_orthogonal_subspaces(SubspaceSpec(n=10, k=4, d_j=3,
                                              m_per_class=5, seed=0))


def test_polar_resample_radially_symmetric_image_gives_constant_rows():
    H = W = 31
    yy, xx = np.mgrid[0:H, 0:W]
    r = np.hypot(yy - (H - 1) / 2, xx - (W - 1) / 2)
    out = polar_resample(np.exp(-r / 5), Gamma=24, C=6)
    assert out.shape == (6, 24)
    # affine interpolation of a radial profile is only near-constant per row
    assert np.max(np.ptp(out, axis=1)) < 0.03


def test_polar_resample_zero_image():
    np.testing.assert_array_equal(polar_resample(np.zeros((9, 9)), 8, 3), 0.0)


def test_polar_resample_rotation_becomes_cyclic_shift():
    # an affine image is reproduced exactly by bilinear interpolation, so
    # rotating it about the center must shift the angular axis by one step
    H = W = 64
    Gamma, C = 16, 8
    delta = 2 * np.pi / Gamma
    cy, cx = (H - 1) / 2, (W - 1) / 2
    yy, xx = np.mgrid[0:H, 0:W]
    a, b = 0.3, -0.7

    def affine(phi):
        # the plane a*x + b*y rotated by phi about the image center
        ca, sa = np.cos(phi), np.sin(phi)
        xr = ca * (xx - cx) + sa * (yy - cy)
        yr = -sa * (xx - cx) + ca * (yy - cy)
        return a * xr + b * yr

    out0 = polar_resample(affine(0.0), Gamma, C)
    out1 = polar_resample(affine(delta), Gamma, C)
    # the outermost ring can leave the pixel grid; compare the inner rings
    np.testing.assert_allclose(
        out1[:-1], np.roll(out0, 1, axis=1)[:-1], atol=1e-9
    )


def test_polar_resample_of_a_stack_equals_the_per_image_results():
    images = np.random.default_rng(4).random((5, 11, 14))
    np.testing.assert_array_equal(
        polar_resample(images, 9, 4), np.stack([polar_resample(img, 9, 4) for img in images]))


def _polar_reference(image, Gamma, C):
    """Bilinear samples of one H x W image on the polar grid, one sample at a
    time, each corner off the image read as 0 by an explicit bounds check."""
    H, W = image.shape
    radii = (np.arange(1, C + 1) / C) * (min(H, W) / 2.0)
    angles = np.arange(Gamma) * (2.0 * np.pi / Gamma)
    ys = (H - 1) / 2.0 + radii[:, None] * np.sin(angles)[None, :]
    xs = (W - 1) / 2.0 + radii[:, None] * np.cos(angles)[None, :]

    def pixel(y, x):
        return image[y, x] if 0 <= y < H and 0 <= x < W else 0.0

    out = np.empty((C, Gamma))
    for i, l in np.ndindex(C, Gamma):
        y0, x0 = math.floor(ys[i, l]), math.floor(xs[i, l])
        fy, fx = ys[i, l] - y0, xs[i, l] - x0
        out[i, l] = (pixel(y0, x0) * (1 - fy) * (1 - fx) + pixel(y0, x0 + 1) * (1 - fy) * fx
                     + pixel(y0 + 1, x0) * fy * (1 - fx) + pixel(y0 + 1, x0 + 1) * fy * fx)
    return out


@pytest.mark.parametrize("Gamma, C", [(200, 15), (7, 3), (1, 1), (40, 6)])
@pytest.mark.parametrize("H, W", [(1, 1), (2, 3), (3, 3), (5, 9), (16, 7), (28, 28)])
def test_polar_resample_is_the_bounds_checked_bilinear_reference(H, W, Gamma, C):
    # the outer ring reaches half a pixel past the image edge, so its corners
    # read the zero border; a single image and a stack get the same bits
    images = np.random.default_rng(H * W + C).standard_normal((2, H, W))
    reference = np.stack([_polar_reference(img, Gamma, C) for img in images])
    assert polar_resample(images[0], Gamma, C).tobytes() == reference[0].tobytes()
    assert polar_resample(images, Gamma, C).tobytes() == reference.tobytes()


@pytest.mark.parametrize("shape", [(7,), (2, 3, 7, 7)])
def test_polar_resample_rejects_other_ranks(shape):
    with pytest.raises(ShapeError):
        polar_resample(np.zeros(shape), 8, 3)


def test_translate2d_identity_and_wrap():
    img = np.random.default_rng(8).standard_normal((5, 7))
    np.testing.assert_array_equal(translate2d(img, 0, 0), img)
    np.testing.assert_array_equal(translate2d(img, 5, 7), img)


def test_translate2d_of_a_1d_array_is_a_shape_error():
    with pytest.raises(ShapeError):
        translate2d(np.arange(5.0), 1, 1)


def test_translate2d_group_law_and_multiset():
    img = np.random.default_rng(9).standard_normal((6, 6))
    lhs = translate2d(translate2d(img, 1, 2), 3, 4)
    np.testing.assert_array_equal(lhs, translate2d(img, 4, 6))
    np.testing.assert_array_equal(
        np.sort(translate2d(img, 2, 5).ravel()), np.sort(img.ravel())
    )


def test_augment_counts_1d():
    X = np.zeros((3, 200))
    labels = np.array([0, 1, 2])
    out, out_labels = augment_shifts(X, labels, stride=10, kind="1d")
    assert out.shape == (60, 200)
    np.testing.assert_array_equal(out_labels, np.repeat(labels, 20))


def test_augment_counts_2d():
    X = np.random.default_rng(10).standard_normal((2, 28, 28))
    out, out_labels = augment_shifts(X, [0, 1], stride=7, kind="2d")
    assert out.shape == (32, 28, 28)
    np.testing.assert_array_equal(out_labels, np.repeat([0, 1], 16))
    # the first copy of each group is the original sample
    np.testing.assert_array_equal(out[0], X[0])
    np.testing.assert_array_equal(out[16], X[1])


def test_augment_identity_when_stride_covers_the_axis():
    X = np.random.default_rng(11).standard_normal((4, 12))
    out, out_labels = augment_shifts(X, np.arange(4), stride=12, kind="1d")
    np.testing.assert_array_equal(out, X)
    np.testing.assert_array_equal(out_labels, np.arange(4))


@pytest.mark.parametrize("kind, shape, stride", [
    ("1d", (3, 2, 10), 3),
    ("1d", (2, 12), 4),
    ("2d", (3, 2, 7, 5), 3),
    ("2d", (2, 6, 8), 2),
    # strides above an extent: only the zero shift along that axis
    ("1d", (2, 3, 5), 7),
    ("2d", (2, 4, 6), 5),
    ("2d", (2, 3, 3), 4),
])
def test_augment_matches_per_sample_shifts(kind, shape, stride):
    X = np.random.default_rng(12).standard_normal(shape)
    labels = np.arange(shape[0])
    out, out_labels = augment_shifts(X, labels, stride=stride, kind=kind)
    axes = (-1,) if kind == "1d" else (-2, -1)
    shifts = list(itertools.product(*(range(0, shape[a], stride) for a in axes)))
    expected = np.stack([np.roll(x, s, axis=axes) for x in X for s in shifts])
    assert out.tobytes() == expected.tobytes() and out.shape == expected.shape
    np.testing.assert_array_equal(out_labels, np.repeat(labels, len(shifts)))


def test_augment_rejects_bad_arguments():
    X = np.zeros((2, 8))
    with pytest.raises(DataError):
        augment_shifts(X, [0, 1], stride=0, kind="1d")
    with pytest.raises(DataError):
        augment_shifts(X, [0, 1], stride=2, kind="3d")
