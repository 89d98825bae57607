"""Nearest-subspace classifier behavior on analytically constructed data."""

import numpy as np
import pytest

from redunet import (
    EmptyClassError,
    Membership,
    ShapeError,
    SubspaceClassifier,
    accuracy,
    class_cosine_stats,
    cosine_similarity_matrix,
    fit_nsc,
    predict_nsc,
)
from redunet.classify import BASIS_ORTHO_TOL, GRAM_TOL, RANK_TOL


def _subspace_data(seed=0, n=6, k=3, d=2, per_class=20, noise=0.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, k * d)))
    cols, labels = [], []
    for j in range(k):
        U = Q[:, j * d : (j + 1) * d]
        X = U @ rng.standard_normal((d, per_class))
        X += noise * rng.standard_normal(X.shape)
        cols.append(X)
        labels.append(np.full(per_class, j))
    return np.concatenate(cols, axis=1), np.concatenate(labels)


def test_perfect_recovery_on_disjoint_subspaces():
    Z, labels = _subspace_data()
    clf = fit_nsc(Z, labels, r=2)
    pred = predict_nsc(clf, Z)
    assert accuracy(pred, labels) == 1.0


def test_generalizes_to_fresh_points_from_the_same_subspaces():
    Z, labels = _subspace_data(seed=1)
    clf = fit_nsc(Z, labels, r=2)
    # regenerate with the same QR seed so the subspaces match
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    fresh = np.concatenate(
        [Q[:, 2 * j : 2 * j + 2] @ np.random.default_rng(7 + j).standard_normal((2, 10))
         for j in range(3)],
        axis=1,
    )
    fresh_labels = np.repeat(np.arange(3), 10)
    assert accuracy(predict_nsc(clf, fresh), fresh_labels) == 1.0


def test_requested_dimension_is_clamped_to_numerical_rank():
    rng = np.random.default_rng(3)
    direction = rng.standard_normal(5)
    # class 0 is a line, class 1 a plane; ask for far more dimensions
    Z0 = np.outer(direction, rng.standard_normal(8))
    plane = rng.standard_normal((5, 2))
    Z1 = plane @ rng.standard_normal((2, 8))
    Z = np.concatenate([Z0, Z1], axis=1)
    labels = np.repeat([0, 1], 8)
    clf = fit_nsc(Z, labels, r=30)
    # centering a rank-1 line along its own direction keeps rank 1
    assert clf.bases[0].shape[1] <= 2
    assert clf.bases[1].shape[1] <= 2
    for U in clf.bases:
        np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-10)


def test_zero_dimensional_subspaces_reduce_to_nearest_mean():
    Z = np.array([[0.0, 0.0, 4.0, 4.0], [-1.0, 1.0, -1.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    clf = fit_nsc(Z, labels, r=0)
    assert all(U.shape[1] == 0 for U in clf.bases)
    pred = predict_nsc(clf, np.array([[0.5, 3.9], [0.0, 0.0]]))
    np.testing.assert_array_equal(pred, [0, 1])


def test_ties_go_to_the_smallest_class_index():
    means = np.array([[1.0, 0.0], [-1.0, 0.0]])
    clf = SubspaceClassifier(
        means=means, bases=(np.zeros((2, 0)), np.zeros((2, 0)))
    )
    assert predict_nsc(clf, np.zeros(2)) == 0


def _explicit_predict(clf, Z):
    """Reference: the residual of each class from an explicit centred copy
    of the queries and its projection."""
    residuals = []
    for mu, U in zip(clf.means, clf.bases):
        D = Z - mu[:, None]
        residuals.append(np.linalg.norm(D - U @ (U.T @ D), axis=0))
    return np.argmin(residuals, axis=0)


def _random_bundle(rng, n, widths, offset):
    means = offset + rng.standard_normal((len(widths), n))
    bases = tuple(np.linalg.qr(rng.standard_normal((n, r)))[0] for r in widths)
    return SubspaceClassifier(means=means, bases=bases)


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("seed", range(4))
def test_predictions_match_the_explicit_residuals(seed, offset):
    rng = np.random.default_rng(seed)
    n = 8
    # mixed widths with rank-0 classes and one class spanning all of R^n,
    # whose residual is 0 (clamped) for every query
    for widths in ([0, 3, 1, 0, 5], [2, 0, 7, 1], [0, n, 2, 4]):
        clf = _random_bundle(rng, n, widths, offset)
        Z = offset + 2.0 * rng.standard_normal((n, 200))
        # half the queries sit near a class mean so every class wins some
        near = rng.integers(len(widths), size=100)
        Z[:, :100] = clf.means[near].T + 0.3 * rng.standard_normal((n, 100))
        pred = predict_nsc(clf, Z)
        np.testing.assert_array_equal(pred, _explicit_predict(clf, Z))
        if n in widths:
            assert np.all(pred == widths.index(n))
        for i in range(3):
            assert predict_nsc(clf, Z[:, i]) == pred[i]


def test_exact_class_members_are_recovered_when_another_mean_is_nearer():
    rng = np.random.default_rng(8)
    n, widths = 6, [2, 1, 3, 2]
    for j in range(len(widths)):
        clf = _random_bundle(rng, n, widths, offset=0.0)
        U = clf.bases[j]
        x = clf.means[j] + U @ (5.0 * rng.standard_normal(U.shape[1]))
        # put the next class's mean right beside the query
        other = (j + 1) % len(widths)
        clf.means[other] = x + 0.1 * rng.standard_normal(n)
        assert np.argmin(np.linalg.norm(clf.means - x, axis=1)) == other
        assert predict_nsc(clf, x) == j


def test_single_query_returns_a_scalar():
    Z, labels = _subspace_data(seed=4)
    clf = fit_nsc(Z, labels, r=2)
    pred = predict_nsc(clf, Z[:, 0])
    assert np.ndim(pred) == 0


@pytest.mark.parametrize("n", [6, 40])  # C C^T and C^T C Grams (m_j = 20)
def test_columns_permuted_with_their_class_order_kept_fit_the_same_bytes(n):
    Z, labels = _subspace_data(seed=7, n=n, noise=0.05)
    shuffled = np.random.default_rng(8).permutation(labels)
    Zs = np.empty_like(Z)
    for j in range(3):
        Zs[:, shuffled == j] = Z[:, labels == j]
    clf, clf_s = fit_nsc(Z, labels, r=4), fit_nsc(Zs, shuffled, r=4)
    assert clf.means.tobytes() == clf_s.means.tobytes()
    assert [U.tobytes() for U in clf.bases] == [U.tobytes() for U in clf_s.bases]


def test_missing_class_is_rejected():
    Z = np.random.default_rng(5).standard_normal((4, 6))
    with pytest.raises(EmptyClassError):
        fit_nsc(Z, np.array([0, 0, 0, 2, 2, 2]), r=2)


def test_shape_mismatches_are_rejected():
    Z, labels = _subspace_data(seed=6)
    for short in (labels[:-1], []):
        with pytest.raises(ShapeError, match="feature columns but"):
            fit_nsc(Z, short, r=2)
    clf = fit_nsc(Z, labels, r=2)
    with pytest.raises(ShapeError):
        predict_nsc(clf, Z[:-1])
    for pred, labels in ((np.zeros(3), np.zeros(4)), ([], [])):
        with pytest.raises(ShapeError):
            accuracy(pred, labels)


def test_cosine_similarity_matrix_basics():
    Z = np.array([[1.0, 0.0, -2.0], [0.0, 3.0, 0.0]])
    S = cosine_similarity_matrix(Z)
    np.testing.assert_allclose(np.diag(S), 1.0)
    np.testing.assert_allclose(S, S.T)
    assert S[0, 1] == pytest.approx(0.0)
    assert S[0, 2] == pytest.approx(-1.0)


def test_class_cosine_stats():
    Z = np.array([[1.0, 1.0, 0.0], [0.0, 0.1, 1.0]])
    Pi = Membership.from_labels([0, 0, 1], k=2)
    S = cosine_similarity_matrix(Z)
    min_within, max_between = class_cosine_stats(S, Pi)
    assert min_within == pytest.approx(S[0, 1])
    assert max_between == pytest.approx(max(abs(S[0, 2]), abs(S[1, 2])))


# ---------------------------------------------------------------------------
# fit_nsc's Gram path against the thin SVD it falls back to


def _svd_bases(Z, labels, r):
    """Reference: each class's top left singular vectors of its centred block,
    at most r and no more than its numerical rank."""
    bases = []
    for j in range(labels.max() + 1):
        block = Z[:, labels == j]
        U, s, _ = np.linalg.svd(block - block.mean(axis=1)[:, None], full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
        bases.append(np.ascontiguousarray(U[:, : min(r, rank)]))
    return bases


def _spectrum_data(seed, n, m, spectra):
    """One n x m class block per spectrum, whose centred singular values are
    that spectrum (at most min(n, m - 1) of them), around a random mean."""
    rng = np.random.default_rng(seed)
    blocks = []
    for s in spectra:
        U = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
        V = rng.standard_normal((m, len(s)))
        V = np.linalg.qr(V - V.mean(axis=0))[0]  # columns orthogonal to the ones vector
        blocks.append(U * s @ V.T + rng.standard_normal((n, 1)))
    return np.concatenate(blocks, axis=1), np.repeat(np.arange(len(spectra)), m)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _fit_checked(Z, labels, r):
    clf = fit_nsc(Z, labels, r=r)
    for U in clf.bases:
        assert np.max(np.abs(U.T @ U - np.eye(U.shape[1])), initial=0.0) <= BASIS_ORTHO_TOL
    return clf


# (n, m_j): C C^T is the smaller Gram when n <= m_j, C^T C otherwise
LAYOUTS = [(10, 30), (40, 12)]


@pytest.mark.parametrize("n, m", LAYOUTS)
@pytest.mark.parametrize("ratio", [2e-3, 1e-2, 0.1])
def test_gram_bases_span_the_svd_subspaces(n, m, ratio, svd_calls):
    r = 4
    # r kept values from 1 down to s_r / s_0 = ratio, then a gap of 10x to the rest
    spectra = [np.concatenate((np.geomspace(1, ratio, r),
                               0.1 * ratio * np.geomspace(1, 0.5, min(n, m - 1) - r)))
               for _ in range(2)]
    Z, labels = _spectrum_data(1, n, m, spectra)
    clf = _fit_checked(Z, labels, r)
    assert not svd_calls
    for U, V in zip(clf.bases, _svd_bases(Z, labels, r)):
        assert U.shape == V.shape == (n, r)
        np.testing.assert_allclose(U @ U.T, V @ V.T, rtol=0, atol=1e-8)


def _fallback_cases():
    n, m, r = 40, 12, 4
    below = np.concatenate((np.geomspace(1, 0.9 * GRAM_TOL, r), np.full(3, 1e-4)))
    yield "just below GRAM_TOL", _spectrum_data(2, n, m, [below] * 2), r
    yield "rank deficient", _spectrum_data(3, n, m, [np.geomspace(1, 0.5, r - 2)] * 2), r
    yield "r >= m_j", _spectrum_data(4, n, m, [np.geomspace(1, 0.1, m - 1)] * 2), m
    # the Gram of a scaled block overflows or is subnormal, while the SVD scales its input
    for scale in (1e160, 1e-160):
        for n, m in LAYOUTS:
            Z, labels = _spectrum_data(5, n, m, [np.geomspace(1, 0.5, 6)] * 2)
            yield f"Z * {scale:g}, {n} x {m}", (Z * scale, labels), r


@pytest.mark.parametrize("case", [name for name, _, _ in _fallback_cases()])
def test_blocks_the_gram_cannot_resolve_get_the_svd_bases(case, svd_calls):
    (Z, labels), r = next((data, r) for name, data, r in _fallback_cases() if name == case)
    expected = _svd_bases(Z, labels, r)
    del svd_calls[:]
    clf = _fit_checked(Z, labels, r)
    assert len(svd_calls) == len(expected)
    for U, V in zip(clf.bases, expected):
        assert U.shape == V.shape and U.tobytes() == V.tobytes()
