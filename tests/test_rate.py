"""Coding rate values and gradients checked against independent oracles.

The gradient oracle is central finite differences of the rate functions
themselves; the value oracle is the naive logdet formula evaluated without
the Gram-routing shortcut.
"""

import numpy as np
import pytest

from redunet import (
    DataError,
    EmptyClassError,
    Membership,
    NumericError,
    RateParams,
    ShapeError,
    coding_rate,
    coding_rate_partitioned,
    compression_operator,
    expansion_operator,
    logdet_spd,
    rate_gradient,
    rate_reduction,
)
from redunet.rate import CLASS_LIMIT

FD_STEP = 1e-5
FD_RTOL = 1e-5


def _central_difference(f, Z):
    grad = np.zeros_like(Z)
    for idx in np.ndindex(Z.shape):
        Zp = Z.copy()
        Zp[idx] += FD_STEP
        Zm = Z.copy()
        Zm[idx] -= FD_STEP
        grad[idx] = (f(Zp) - f(Zm)) / (2 * FD_STEP)
    return grad


def _assert_close_rel(actual, expected):
    mask = np.abs(expected) > 1e-8
    np.testing.assert_allclose(actual[mask], expected[mask], rtol=FD_RTOL)
    np.testing.assert_allclose(actual[~mask], expected[~mask], atol=1e-7)


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    k = int(rng.integers(2, 4))
    m = int(rng.integers(k, 13))
    Z = rng.standard_normal((n, m))
    labels = rng.integers(0, k, size=m)
    labels[:k] = np.arange(k)  # keep every class nonempty
    return Z, Membership.from_labels(labels, k=k), 0.3 + rng.random()


@pytest.mark.parametrize("seed", range(10))
def test_whole_rate_gradient_matches_finite_differences(seed):
    Z, Pi, eps = _random_instance(seed)
    params = RateParams.compute(Z.shape[0], Pi, eps)
    analytic = expansion_operator(Z, params) @ Z
    numeric = _central_difference(lambda W: coding_rate(W, eps), Z)
    _assert_close_rel(analytic, numeric)


@pytest.mark.parametrize("seed", range(10))
def test_rate_reduction_gradient_matches_finite_differences(seed):
    Z, Pi, eps = _random_instance(seed + 100)
    params = RateParams.compute(Z.shape[0], Pi, eps)
    analytic = rate_gradient(Z, Pi, params)
    numeric = _central_difference(lambda W: rate_reduction(W, Pi, eps)[2], Z)
    _assert_close_rel(analytic, numeric)


def test_gradient_with_an_empty_soft_class_matches_finite_differences():
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((4, 9))
    w = rng.random((3, 9))
    w[1] = 0.0
    Pi = Membership(w / w.sum(axis=0))
    params = RateParams.compute(4, Pi, 0.5)
    assert params.alpha_j[1] == 0.0 and params.gamma_j[1] == 0.0
    numeric = _central_difference(lambda W: rate_reduction(W, Pi, 0.5)[2], Z)
    _assert_close_rel(rate_gradient(Z, Pi, params), numeric)


def _naive_rate(Z, eps, weights=None):
    n, m = Z.shape
    W = Z if weights is None else Z * weights
    scale = n / ((m if weights is None else weights.sum()) * eps**2)
    sign, val = np.linalg.slogdet(np.eye(n) + scale * (W @ Z.T))
    assert sign > 0
    return 0.5 * val


@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (8, 8)])
def test_gram_routing_matches_naive_formula(shape):
    Z = np.random.default_rng(5).standard_normal(shape)
    assert coding_rate(Z, 0.5) == pytest.approx(_naive_rate(Z, 0.5), rel=1e-12)


def test_partitioned_rate_matches_naive_formula():
    Z, Pi, eps = _random_instance(42)
    expected = sum(
        (Pi.class_sizes[j] / Pi.m) * _naive_rate(Z, eps, Pi.weights[j])
        for j in range(Pi.k)
    )
    assert coding_rate_partitioned(Z, Pi, eps) == pytest.approx(expected, rel=1e-12)


def test_zero_features_have_zero_rate():
    assert coding_rate(np.zeros((4, 6)), 0.5) == 0.0
    # features of dimension 0 carry no rate at any eps
    assert rate_reduction(np.zeros((0, 3)), Membership.from_labels([0, 1, 1]), 0.5) == (0, 0, 0)


def test_single_class_rate_reduction_is_zero():
    Z = np.random.default_rng(3).standard_normal((4, 9))
    Pi = Membership.from_labels(np.zeros(9, dtype=int))
    R, Rc, dR = rate_reduction(Z, Pi, 0.5)
    assert dR == pytest.approx(0.0, abs=1e-12)
    assert Rc == pytest.approx(R)


def test_empty_class_contributes_zero():
    Z = np.random.default_rng(4).standard_normal((4, 6))
    full = Membership.from_labels([0, 0, 0, 1, 1, 1], k=2)
    padded = Membership.from_labels([0, 0, 0, 1, 1, 1], k=3)
    assert coding_rate_partitioned(Z, padded, 0.5) == pytest.approx(
        coding_rate_partitioned(Z, full, 0.5)
    )


def test_compression_operator_rejects_empty_class():
    Z = np.random.default_rng(4).standard_normal((4, 6))
    Pi = Membership.from_labels([0, 0, 0, 1, 1, 1], k=3)
    params = RateParams.compute(4, Pi, 0.5)
    with pytest.raises(EmptyClassError):
        compression_operator(Z, Pi, 2, params)


def test_logdet_spd_matches_slogdet():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((7, 7))
    S = A @ A.T + 7 * np.eye(7)
    assert logdet_spd(S) == pytest.approx(np.linalg.slogdet(S)[1], rel=1e-12)


def test_logdet_spd_rejects_indefinite():
    with pytest.raises(NumericError):
        logdet_spd(np.diag([1.0, -1.0]))


def test_non_finite_features_rejected():
    Z = np.zeros((3, 3))
    Z[0, 0] = np.nan
    with pytest.raises(NumericError):
        coding_rate(Z, 0.5)


def test_eps_must_be_positive():
    with pytest.raises(DataError):
        coding_rate(np.eye(3), 0.0)


def test_membership_columns_must_sum_to_one():
    with pytest.raises(DataError):
        Membership(np.array([[0.5, 0.5], [0.4, 0.5]]))


def test_membership_weights_must_be_probabilities():
    with pytest.raises(DataError):
        Membership(np.array([[1.5], [-0.5]]))


def test_membership_from_labels():
    Pi = Membership.from_labels([0, 2, 1], k=3)
    assert Pi.k == 3 and Pi.m == 3
    np.testing.assert_array_equal(Pi.class_sizes, [1, 1, 1])
    np.testing.assert_array_equal(np.argmax(Pi.weights, axis=0), [0, 2, 1])


@pytest.mark.parametrize("labels, k", [
    (np.repeat([0, 1, 2], [3, 4, 5]), None),
    (np.random.default_rng(8).permutation(np.repeat([0, 1, 2], [3, 4, 5])), None),
    (np.repeat([2, 0, 3], [3, 4, 5]), 5),
], ids=["contiguous", "shuffled", "empty-classes"])
def test_label_built_rates_operators_and_gradient_match_the_one_hot_weights(labels, k):
    Pi = Membership.from_labels(labels, k)
    w = np.zeros((Pi.k, len(labels)))
    w[labels, np.arange(len(labels))] = 1.0
    hot = Membership(w)
    np.testing.assert_array_equal(Pi.weights, w)
    np.testing.assert_array_equal(Pi.labels, hot.labels)
    Z = np.random.default_rng(9).standard_normal((4, len(labels)))
    params, params1 = RateParams.compute(4, Pi, 0.5), RateParams.compute(4, hot, 0.5)
    np.testing.assert_allclose(rate_reduction(Z, Pi, 0.5), rate_reduction(Z, hot, 0.5),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(rate_gradient(Z, Pi, params), rate_gradient(Z, hot, params1),
                               rtol=1e-12, atol=1e-14)
    for j in np.flatnonzero(Pi.class_sizes):
        np.testing.assert_allclose(compression_operator(Z, Pi, j, params),
                                   compression_operator(Z, hot, j, params1), rtol=1e-12, atol=1e-14)


def test_class_columns_are_a_view_when_contiguous_and_weighted_when_soft():
    Z = np.arange(12.0).reshape(2, 6)
    # labels in class order: every class is a slice between its bounds, a view of Z
    Pi = Membership.from_labels([0, 0, 1, 1, 1, 2])
    for j, cols_j in enumerate([slice(0, 2), slice(2, 5), slice(5, 6)]):
        U, cols, root = Pi.columns(Z, j)
        assert cols == cols_j and root is None and np.shares_memory(U, Z)
    # labels in no class order: a class whose columns are adjacent is still a view,
    # any other class the gather of its columns in the stable class order
    shuffled = Membership.from_labels([0, 0, 1, 2, 1, 2])
    U, cols, root = shuffled.columns(Z, 0)
    assert cols == slice(0, 2) and root is None and np.shares_memory(U, Z)
    for j, cols_j in ((1, [2, 4]), (2, [3, 5])):
        U, cols, root = shuffled.columns(Z, j)
        np.testing.assert_array_equal(cols, cols_j)
        np.testing.assert_array_equal(U, Z[:, cols_j])
        assert root is None and not np.shares_memory(U, Z)
    # classes in blocks but not in ascending order: every class a view
    blocks = Membership.from_labels([2, 0, 0, 1, 1, 1])
    for j, cols_j in enumerate([slice(1, 3), slice(3, 6), slice(0, 1)]):
        U, cols, _ = blocks.columns(Z, j)
        assert cols == cols_j and np.shares_memory(U, Z)
        np.testing.assert_array_equal(U, Z[:, cols_j])
    soft = Membership([[0.25, 0.0, 1.0], [0.75, 1.0, 0.0]])
    U, cols, root = soft.columns(Z[:, :3], 0)
    np.testing.assert_array_equal(cols, [0, 2])
    np.testing.assert_array_equal(root, [0.5, 1.0])
    np.testing.assert_array_equal(U, Z[:, [0, 2]] * [0.5, 1.0])
    for Pi_, X in ((Pi, Z[:, :5]), (shuffled, Z[:, :5]), (shuffled, np.hstack([Z, Z]))):
        with pytest.raises(ShapeError, match="membership covers 6 samples, features have"):
            Pi_.columns(X, 0)


def test_an_explicit_class_count_past_the_samples_and_the_class_limit_is_refused():
    # k sizes the class bounds and sizes: 10**12 classes would ask for 7.28 TiB
    for labels, k in (([0, 1], 10**12), ([0, 1], CLASS_LIMIT + 1),
                      (np.zeros(CLASS_LIMIT + 7, int), CLASS_LIMIT + 8),
                      ([0, 2**31], 2**31 + 1)):
        with pytest.raises(DataError, match="class count k must be a whole number"):
            Membership.from_labels(labels, k)
    # the largest k each rule takes: CLASS_LIMIT for 2 samples, m past it
    many = np.zeros(CLASS_LIMIT + 7, int)
    assert Membership.from_labels([0, 1], CLASS_LIMIT).k == CLASS_LIMIT
    assert Membership.from_labels(many, many.size).k == many.size
    empty = Membership.from_labels([], k=2)
    assert empty.k == 2 and empty.m == 0 and empty.class_sizes.tolist() == [0, 0]


def test_an_inferred_class_count_past_the_samples_names_the_first_empty_class():
    with pytest.raises(EmptyClassError, match="labels name 6 classes for only 3 samples: "
                                              "class 1 has none"):
        Membership.from_labels([5, 0, 2])
    with pytest.raises(EmptyClassError, match="class 3 has none"):
        Membership.from_labels([2**31, 1, 0, 2])


def test_expansion_operator_is_symmetric_pd():
    Z, Pi, eps = _random_instance(7)
    params = RateParams.compute(Z.shape[0], Pi, eps)
    E = expansion_operator(Z, params)
    np.testing.assert_allclose(E, E.T)
    evals = np.linalg.eigvalsh(E)
    assert evals.min() > 0
    assert evals.max() <= params.alpha * (1 + 1e-12)


def test_membership_rejects_labels_outside_the_classes():
    with pytest.raises(DataError):
        Membership.from_labels([-1, 0])
    with pytest.raises(DataError):
        Membership.from_labels([0, 3], k=3)
