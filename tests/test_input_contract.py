"""The input contract: labels, whole-number arguments, eps/eta/lambda,
features and model headers are each checked in one place, NaN fails every
check, and every CLI subcommand fed malformed input exits 2, 3 or 4 instead
of raising or writing a wrong answer."""

import argparse
import dataclasses
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from redunet import (
    DataError,
    DenseLayer,
    EmptyClassError,
    GaussianMixtureSpec,
    Membership,
    NumericError,
    RateParams,
    ShapeError,
    SpectralLayer,
    SubspaceClassifier,
    SubspaceSpec,
    Tensor,
    augment_shifts,
    circulant,
    circular_convolve_1d,
    class_cosine_stats,
    coding_rate_partitioned,
    compression_operator,
    construct,
    construct_inv1d,
    construct_inv2d,
    cosine_similarity_matrix,
    estimate_membership,
    expansion_operator,
    fit_nsc,
    forward,
    forward_inv1d,
    gen_gaussian_sphere,
    gen_orthogonal_subspaces,
    layer_increment,
    lift_random_filters_1d,
    lift_random_filters_2d,
    normalize_samples_time,
    polar_resample,
    predict_nsc,
    rate_reduction,
    read_tensor,
    save_model,
    soft_threshold,
    sphere_project,
    translate2d,
    write_tensor,
)
from redunet.cli import build_parser, main
from redunet.rate import _check_features, check_labels
from redunet.spectral import spectral_rate_reduction

NAN = float("nan")
INF = float("inf")


def _dense_problem():
    Z = np.random.default_rng(0).standard_normal((3, 6))
    return Z / np.linalg.norm(Z, axis=0), np.repeat([0, 1], 3)


def _signal_problem():
    X = normalize_samples_time(np.random.default_rng(1).standard_normal((6, 2, 4)))
    return X, np.repeat([0, 1], 3)


def _with_nan(X):
    X = np.array(X, dtype=float)
    X.flat[1] = NAN
    return X


# ---------------------------------------------------------------------------
# labels: rate.check_labels is the one owner


BAD_LABELS = [[0.7, 1.2, 0.2], [0, NAN, 1], [0, INF, 1], [-1, 0, 1], [0, 2.0**32, 1],
              # not cast to float: the imaginary part would be dropped, the text parsed
              [1 + 2j, 0j, 1], [1 + 0j, 0j, 1], ["1", "0", "1"], np.array([1, 0, 1], dtype=object)]


@pytest.mark.parametrize("labels", BAD_LABELS)
def test_labels_must_be_nonnegative_whole_numbers(labels):
    with pytest.raises(DataError, match="whole numbers"):
        check_labels(labels)
    with pytest.raises(DataError, match="whole numbers"):
        Membership.from_labels(labels)
    with pytest.raises(DataError, match="whole numbers"):
        fit_nsc(np.eye(3), labels, r=1)
    with pytest.raises(DataError, match="whole numbers"):
        augment_shifts(np.eye(3), labels, stride=1, kind="1d")


def test_whole_number_labels_come_back_as_ints():
    y = check_labels(np.array([[2.0], [0.0], [1.0]]))
    assert y.dtype.kind == "i"
    np.testing.assert_array_equal(y, [2, 0, 1])


def test_an_inferred_class_count_above_the_sample_count_allocates_nothing():
    # 2**31 + 1 classes for two samples would ask for 32 GiB
    with pytest.raises(DataError, match="classes for only 2 samples"):
        Membership.from_labels([0, 2**31])
    assert Membership.from_labels([0, 2, 2]).k == 3  # an empty class within m is kept


def test_labels_that_name_a_class_per_sample_need_no_k_by_m_matrix(tmp_path, capsys):
    # one label 4999 among 5000 samples names 5000 classes, 4998 of them empty:
    # their k x m weight matrix alone would take 200 MB
    m = 5000
    y = np.zeros(m, dtype=np.uint32)
    y[-1] = m - 1
    Z = np.random.default_rng(6).standard_normal((3, m))
    Z /= np.linalg.norm(Z, axis=0)
    tracemalloc.start()
    try:
        Pi = Membership.from_labels(y)
        rates = rate_reduction(Z, Pi, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Pi.k == m and peak < 4e6, peak
    # an empty class adds nothing: the rates of the two classes present
    np.testing.assert_allclose(rates, rate_reduction(Z, Membership.from_labels(y > 0), 0.5),
                               rtol=1e-12, atol=0)
    write_tensor(tmp_path / "z.rtf", Tensor.from_array(Z))
    write_tensor(tmp_path / "y.rtf", Tensor.from_array(y))
    capsys.readouterr()
    assert main(["rate", "--features", str(tmp_path / "z.rtf"), "--labels", str(tmp_path / "y.rtf"),
                 "--eps", "0.5"]) == 0
    assert capsys.readouterr().out == ",".join(format(r, ".12g") for r in rates) + "\n"


def test_fit_nsc_stops_at_the_first_empty_class():
    Z, _ = _dense_problem()
    with pytest.raises(EmptyClassError, match="class 1"):
        fit_nsc(Z, [0, 0, 0, 2**31, 2**31, 2**31], r=1)


# ---------------------------------------------------------------------------
# eps, eta and lambda: rate._coefficients and _engine.check_step

# eps whose n / (m eps^2) leaves the float range at n = 3, m = 6: eps^2
# underflows to 0, to a subnormal that makes the coefficient inf, or overflows
EPS_OUTSIDE_FLOAT_RANGE = [1e-170, 1e-160, 1e200]

BAD_STEPS = [dict(eps=NAN), dict(eps=INF), dict(eps=-0.5), dict(eta=NAN), dict(eta=-1.0),
             dict(eta=0.0), dict(eta=INF), dict(lam=-1.0), dict(lam=NAN), dict(lam=INF)
             ] + [dict(eps=eps) for eps in EPS_OUTSIDE_FLOAT_RANGE]


@pytest.mark.parametrize("bad", BAD_STEPS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
@pytest.mark.parametrize("build", ["dense", "inv1d"])
def test_construct_rejects_bad_step_parameters(build, bad):
    X, y = _dense_problem() if build == "dense" else _signal_problem()
    params = dict(L=1, eta=0.5, eps=0.5, lam=500.0) | bad
    with pytest.raises(DataError):
        (construct if build == "dense" else construct_inv1d)(X, Membership.from_labels(y),
                                                             **params)


@pytest.mark.parametrize("eps", [NAN, INF, 0.0, *EPS_OUTSIDE_FLOAT_RANGE])
def test_rate_rejects_eps_outside_zero_to_infinity(eps):
    Z, y = _dense_problem()
    with pytest.raises(DataError):
        rate_reduction(Z, Membership.from_labels(y), eps)


@pytest.mark.parametrize("name", ["eps", "eta", "lam"])
def test_construct_rejects_an_int_parameter_beyond_the_float_range(name):
    # float(10**400) raises OverflowError; the range checks must see it as inf
    Z, y = _dense_problem()
    params = dict(L=1, eta=0.5, eps=0.5, lam=500.0) | {name: 10**400}
    with pytest.raises(DataError):
        construct(Z, Membership.from_labels(y), **params)


def test_rate_rejects_an_int_eps_beyond_the_float_range():
    Z, y = _dense_problem()
    with pytest.raises(DataError):
        rate_reduction(Z, Membership.from_labels(y), 10**400)


def test_a_membership_of_no_samples_is_a_shape_error():
    Z, _ = _dense_problem()
    empty = Membership.from_labels([])
    for call in (lambda: RateParams.compute(3, empty, 0.5),
                 lambda: coding_rate_partitioned(Z, empty, 0.5),
                 lambda: construct(Z, empty, L=1, eta=0.5, eps=0.5)):
        with pytest.raises(ShapeError):
            call()


def test_estimate_membership_rejects_a_nan_lambda():
    Z, y = _dense_problem()
    model, _, _ = construct(Z, Membership.from_labels(y), L=1, eta=0.5, eps=0.5)
    z = Z[:, 0]
    cases = [(z, lam, DataError) for lam in (NAN, -1.0, np.inf)]
    cases += [(z[:2], 1.0, ShapeError), (np.append(z, 0.0), 1.0, ShapeError),
              (_with_nan(z), 1.0, NumericError), (np.where(z == z[0], INF, z), 1.0, NumericError)]
    for fn in (estimate_membership, layer_increment):
        for v, lam, error in cases:
            with pytest.raises(error):
                fn(v, model.layers[0], lam)


def test_construct_rejects_a_class_with_no_members():
    Z, _ = _dense_problem()
    X, _ = _signal_problem()
    gap = Membership.from_labels([0, 0, 0, 2, 2, 2])  # class 1 is empty
    for call in (lambda: construct(Z, gap, L=1, eta=0.5, eps=0.5),
                 lambda: construct_inv1d(X, gap, L=1, eta=0.5, eps=0.5)):
        with pytest.raises(DataError, match="every class must have nonzero total membership"):
            call()


def test_partitioned_rate_on_a_sample_count_mismatch_is_a_shape_error():
    Z, y = _dense_problem()
    with pytest.raises(ShapeError):
        coding_rate_partitioned(Z[:, :-1], Membership.from_labels(y), 0.5)


# ---------------------------------------------------------------------------
# non-finite features and parameters


def test_forward_on_nan_features_is_a_numeric_error():
    Z, y = _dense_problem()
    model, _, _ = construct(Z, Membership.from_labels(y), L=2, eta=0.5, eps=0.5)
    with pytest.raises(NumericError):
        forward(model, _with_nan(Z))
    X, y = _signal_problem()
    model, _, _ = construct_inv1d(X, Membership.from_labels(y), L=2, eta=0.5, eps=0.5)
    with pytest.raises(NumericError):
        forward_inv1d(model, _with_nan(X))


def test_invariant_construction_on_a_nan_sample_is_a_numeric_error():
    X, y = _signal_problem()
    Pi = Membership.from_labels(y)
    with pytest.raises(NumericError, match="features contain non-finite entries"):
        construct_inv1d(_with_nan(X), Pi, L=1, eta=0.5, eps=0.5)
    images = _with_nan(np.ones((6, 1, 2, 2)) / 2)
    with pytest.raises(NumericError, match="features contain non-finite entries"):
        construct_inv2d(images, Pi, L=1, eta=0.5, eps=0.5)


def test_forward_names_the_layer_whose_update_fails(tmp_path, capsys):
    Z, y = _dense_problem()
    model, _, _ = construct(Z, Membership.from_labels(y), L=3, eta=0.5, eps=0.5)
    model.layers[1].E[0, 0] = NAN
    with pytest.raises(NumericError, match="layer 1"):
        forward(model, Z)
    save_model(tmp_path / "model.rnm", model)
    write_tensor(tmp_path / "feats.rtf", Tensor.from_array(Z))
    assert main(["forward", "--model", str(tmp_path / "model.rnm"), "--features",
                 str(tmp_path / "feats.rtf"), "--out", str(tmp_path / "out.rtf")]) == 4
    assert capsys.readouterr().err.startswith("error: layer 1: ")


@pytest.mark.parametrize("V", [np.ones((4, 3)), np.ones((0, 3, 6)), np.ones((4, 0, 6)),
                               np.ones((4, 3, 0))], ids=["2-D", "P=0", "C=0", "m=0"])
def test_spectral_rate_reduction_needs_nonempty_3d_spectra(V):
    with pytest.raises(ShapeError):
        spectral_rate_reduction(V, Membership.from_labels([0, 0, 0, 1, 1, 1]), 0.5)


def test_spectral_rate_reduction_rejects_non_finite_spectra():
    V = np.fft.fft(_signal_problem()[0], axis=-1, norm="ortho").T
    Pi = Membership.from_labels(_signal_problem()[1])
    assert np.all(np.isfinite(spectral_rate_reduction(V, Pi, 0.5)))
    for bad in (NAN, INF):
        W = V.copy()
        W[1, 0, 2] = bad
        with pytest.raises(NumericError):
            spectral_rate_reduction(W, Pi, 0.5)


def test_classifier_inputs_must_be_finite_feature_matrices():
    Z, y = _dense_problem()
    clf = fit_nsc(Z, y, r=1)
    with pytest.raises(NumericError):
        predict_nsc(clf, _with_nan(Z))
    with pytest.raises(NumericError):
        fit_nsc(_with_nan(Z), y, r=1)
    with pytest.raises(NumericError):
        cosine_similarity_matrix(_with_nan(Z))
    with pytest.raises(ShapeError):
        cosine_similarity_matrix(Z[0])


# hand-built (E, C, gamma_j) made from the operators of a k = 2 layer
BAD_OPERATORS = {
    "short gamma": lambda E, C, g: (E, C, g[:1]),
    "gamma as a row": lambda E, C, g: (E, C, g[None]),
    "C of another d": lambda E, C, g: (E, C[..., :1, :1], g),
    "C of another P or n": lambda E, C, g: (E, C[:, :-1], g),
    "non-square E and C": lambda E, C, g: (E[..., :1], C[..., :1], g),
    "E with an extra axis": lambda E, C, g: (E[None], C, g),
    "no class": lambda E, C, g: (E, C[:0], g[:0]),
}


@pytest.mark.parametrize("bad", BAD_OPERATORS)
@pytest.mark.parametrize("kind", ["dense", "spectral"])
def test_a_hand_built_layer_checks_its_operator_shapes(kind, bad):
    if kind == "dense":
        Z, y = _dense_problem()
        layer = construct(Z, Membership.from_labels(y), L=1, eta=0.5, eps=0.5)[0].layers[0]
        cls, operators = DenseLayer, (layer.E, layer.C, layer.gamma_j)
    else:
        X, y = _signal_problem()
        layer = construct_inv1d(X, Membership.from_labels(y), L=1, eta=0.5, eps=0.5)[0].layers[0]
        cls, operators = SpectralLayer, (layer.E_hat, layer.C_hat, layer.gamma_j)
    cls(*operators)
    with pytest.raises(ShapeError):
        cls(*BAD_OPERATORS[bad](*operators))


def test_features_too_large_to_square_are_a_numeric_error(tmp_path):
    # ||z||^2 overflows, so every residual is inf - inf; this fit used to
    # predict class 0 for both columns, and class 1 once they were scaled down
    Z, y = _dense_problem()
    clf = fit_nsc(Z, y, r=1)
    queries = np.zeros((3, 2))
    queries[0] = [1e160, -1e160]
    assert np.all(predict_nsc(clf, queries * 1e-150) == 1)
    with pytest.raises(NumericError, match="not finite"):
        predict_nsc(clf, queries)
    bundle, feats, pred = tmp_path / "bundle", tmp_path / "q.rtf", tmp_path / "pred.rtf"
    write_tensor(tmp_path / "z.rtf", Tensor.from_array(Z))
    write_tensor(tmp_path / "y.rtf", Tensor.from_array(y.astype("<u4")))
    write_tensor(feats, Tensor.from_array(queries))
    assert main(["nsc-fit", "--features", str(tmp_path / "z.rtf"), "--labels",
                 str(tmp_path / "y.rtf"), "--r", "1", "--out", str(bundle)]) == 0
    assert main(["nsc-predict", "--bundle", str(bundle), "--features", str(feats),
                 "--out", str(pred)]) == 4
    assert not pred.exists()


# field changes that leave a 1D model's layers as they are
BAD_MODEL_FIELDS = {
    "channels": (dict(channels=3), ShapeError),
    "dims": (dict(dims=(10,)), ShapeError),
    "k": (dict(k=5), ShapeError),
    "kind": (dict(kind="shift3d"), DataError),
    "kind of another rank": (dict(kind="translate2d"), ShapeError),
    "no layers": (dict(layers=()), ShapeError),
    "negative eta": (dict(eta=-0.5), DataError),
    "NaN eps": (dict(eps=NAN), DataError),
}


@pytest.mark.parametrize("bad", BAD_MODEL_FIELDS)
def test_an_invariant_model_checks_its_fields_against_its_layers(bad):
    X, y = _signal_problem()
    model = construct_inv1d(X, Membership.from_labels(y), L=2, eta=0.5, eps=0.5)[0]
    fields, error = BAD_MODEL_FIELDS[bad]
    assert dataclasses.replace(model, layers=model.layers[1:]).depth == 1
    with pytest.raises(error):
        dataclasses.replace(model, **fields)


# field changes that leave a dense model's layers as they are
BAD_DENSE_MODEL_FIELDS = {
    "n": (dict(n=4), ShapeError),
    "k": (dict(k=5), ShapeError),
    "no layers": (dict(layers=()), ShapeError),
    "negative eta": (dict(eta=-0.5), DataError),
    "NaN lambda": (dict(lam=NAN), DataError),
    "NaN eps": (dict(eps=NAN), DataError),
}


@pytest.mark.parametrize("bad", BAD_DENSE_MODEL_FIELDS)
def test_a_dense_model_checks_its_fields_against_its_layers(bad):
    Z, y = _dense_problem()
    model = construct(Z, Membership.from_labels(y), L=2, eta=0.5, eps=0.5)[0]
    fields, error = BAD_DENSE_MODEL_FIELDS[bad]
    assert dataclasses.replace(model, layers=model.layers[1:]).depth == 1
    with pytest.raises(error):
        dataclasses.replace(model, **fields)


def _model_and_layer_class(kind):
    """A two-layer model of ``kind`` and its hand-built layer class."""
    if kind == "dense":
        Z, y = _dense_problem()
        return construct(Z, Membership.from_labels(y), L=2, eta=0.5, eps=0.5)[0], DenseLayer
    X, y = _signal_problem()
    return construct_inv1d(X, Membership.from_labels(y), L=2, eta=0.5, eps=0.5)[0], SpectralLayer


@pytest.mark.parametrize("kind", ["dense", "spectral"])
def test_every_layer_of_a_model_has_the_gamma_of_layer_0(kind):
    # the containers store gamma_j once, so a hand-built layer with other
    # shares used to forward with them and reload with layer 0's
    model, cls = _model_and_layer_class(kind)
    first, last = model.layers[0], model.layers[1]
    operators = (last.E, last.C) if kind == "dense" else (last.E_hat, last.C_hat)
    equal = cls(*operators, first.gamma_j.copy())
    assert dataclasses.replace(model, layers=(first, equal)).depth == 2
    other = cls(*operators, first.gamma_j + [0.25, -0.25])
    with pytest.raises(DataError, match="gamma_j"):
        dataclasses.replace(model, layers=(first, other))


@pytest.mark.parametrize("kind", ["dense", "spectral"])
def test_a_model_needs_nonempty_blocks(kind):
    # a layer of 0 x 0 operators passes the layer's shape check, but no
    # container stores it: the loaders reject empty layer blocks
    model, cls = _model_and_layer_class(kind)
    g = model.layers[0].gamma_j
    if kind == "dense":
        empty, fields = cls(np.zeros((0, 0)), np.zeros((2, 0, 0)), g), dict(n=0)
    else:
        P = model.layers[0].stack.shape[0]
        empty, fields = cls(np.zeros((P, 0, 0)), np.zeros((2, P, 0, 0)), g), dict(channels=0)
    with pytest.raises(ShapeError, match="nonempty blocks"):
        dataclasses.replace(model, layers=(empty,), **fields)


def _layer_operators(kind):
    """Layer 0 of a two-layer model of ``kind``, its hand-built layer class
    and its (E, C, gamma_j) by name."""
    model, cls = _model_and_layer_class(kind)
    layer = model.layers[0]
    E, C = (layer.E, layer.C) if kind == "dense" else (layer.E_hat, layer.C_hat)
    return layer, cls, dict(E=E, C=C, gamma_j=layer.gamma_j)


@pytest.mark.parametrize("kind, operand, dtype", [
    *(pytest.param("dense", operand, complex, id=operand) for operand in ("E", "C", "gamma_j")),
    pytest.param("spectral", "gamma_j", complex, id="spectral-gamma_j"),
    *(pytest.param(kind, operand, dtype, id=f"{kind}-{operand}-{dtype.__name__}")
      for kind in ("dense", "spectral") for operand in ("E", "C") for dtype in (object, str)),
])
def test_a_dense_layer_needs_real_operators(kind, operand, dtype):
    # complex dense operators used to forward to complex features and save
    # with their imaginary parts dropped, a complex spectral gamma_j used to
    # forward into numpy's bare UFuncTypeError, and object or string operators
    # into a bare TypeError; every layer's gamma_j is real, while a spectral
    # layer's E_hat and C_hat may be complex
    layer, cls, operators = _layer_operators(kind)
    X = operators[operand]
    operators[operand] = X + 1e-3j if dtype is complex else X.astype(dtype)
    with pytest.raises(DataError, match="real"):
        cls(*operators.values())
    if kind == "spectral" and dtype is complex:
        E, C = operators["E"], operators["C"]
        complex_layer = cls(E + 1e-3j, C + 1e-3j, layer.gamma_j)
        np.testing.assert_array_equal(complex_layer.C_hat, C + 1e-3j)


@pytest.mark.parametrize("kind, stack_dtype", [("dense", np.float64), ("spectral", np.complex128)])
@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
def test_a_hand_built_layer_gets_the_element_type_of_its_kind(kind, stack_dtype, dtype):
    # a dense stack is float64 and a spectral one complex128, whatever real
    # or integer type the operators come in; gamma_j is float64
    _, cls, operators = _layer_operators(kind)
    E, C = (operators[name].real.round(3).astype(dtype) for name in ("E", "C"))
    built = cls(E, C, [1, 2])
    assert built.stack.dtype == stack_dtype and built.gamma_j.dtype == np.float64
    np.testing.assert_array_equal(built.stack[:, 0], E.reshape(built.stack[:, 0].shape))
    np.testing.assert_array_equal(built.gamma_j, [1.0, 2.0])


# bases for the means zeros((2, 2)); the first is the non-orthonormal
# pair under which predict_nsc used to put z = (1, 1.5) in class 0
BAD_BASES = {
    "scaled": (np.array([[2.0], [0.0]]), np.array([[0.0], [1.0]])),
    "skewed": (np.array([[1.0, 0.6], [0.0, 0.8]]), np.eye(2)),
    "non-finite": (np.array([[NAN], [0.0]]), np.eye(2)),
    "three rows": (np.zeros((3, 1)), np.eye(2)),
    "wider than tall": (np.eye(2, 3), np.eye(2)),
    "a vector": (np.array([1.0, 0.0]), np.eye(2)),
    "one basis for two classes": (np.eye(2),),
}


@pytest.mark.parametrize("bad", BAD_BASES)
def test_a_classifier_needs_one_orthonormal_basis_of_n_rows_per_class(bad):
    SubspaceClassifier(means=np.zeros((2, 2)), bases=(np.eye(2, 1), np.zeros((2, 0))))
    with pytest.raises(DataError):
        SubspaceClassifier(means=np.zeros((2, 2)), bases=BAD_BASES[bad])


def test_a_classifier_needs_finite_means_of_at_least_one_class():
    with pytest.raises(DataError):
        SubspaceClassifier(means=np.zeros((0, 2)), bases=())
    with pytest.raises(NumericError):
        SubspaceClassifier(means=_with_nan(np.zeros((2, 2))), bases=(np.eye(2), np.eye(2)))


@pytest.mark.parametrize("sigma", [NAN, INF])
def test_gaussian_mixture_needs_a_finite_positive_sigma(sigma):
    with pytest.raises(DataError):
        gen_gaussian_sphere(GaussianMixtureSpec(n=3, k=2, m_per_class=2, sigma=sigma, seed=0))


def test_gaussian_mixture_means_with_nan_are_rejected():
    means = np.array([[1.0, 0.0], [NAN, 0.0]])
    with pytest.raises(DataError):
        gen_gaussian_sphere(GaussianMixtureSpec(n=2, k=2, m_per_class=2, sigma=0.1, seed=0,
                                                means=means))


def test_membership_weights_with_nan_are_rejected():
    with pytest.raises(DataError):
        Membership(np.array([[NAN, 1.0], [NAN, 0.0]]))


def test_membership_weights_are_a_real_matrix_or_one_class():
    for weights, (k, m) in ((1.0, (1, 1)), (np.ones(4), (1, 4)), (np.eye(3), (3, 3))):
        Pi = Membership(weights)
        assert (Pi.k, Pi.m, Pi.class_sizes.shape) == (k, m, (k,))
    for weights in (np.ones((1, 4, 2)), np.ones((2, 1, 3, 1))):
        with pytest.raises(ShapeError, match="matrix"):
            Membership(weights)
    for weights in (np.eye(2) + 0j, [["1", "0"], ["0", "1"]]):
        with pytest.raises(DataError, match="real"):
            Membership(weights)


def test_non_finite_samples_cannot_be_normalized():
    with pytest.raises(NumericError):
        normalize_samples_time(_with_nan(np.ones((2, 3))))
    with pytest.raises(NumericError):
        sphere_project(np.array([NAN, 1.0]))


def test_2d_augmentation_of_1d_features_is_a_shape_error():
    with pytest.raises(ShapeError):
        augment_shifts(np.ones(4), np.zeros(4), stride=1, kind="2d")


def test_cosine_stats_need_one_similarity_per_pair_of_samples():
    Z, y = _dense_problem()
    S, Pi = cosine_similarity_matrix(Z), Membership.from_labels(y)
    for bad in (S[:-1, :-1], np.pad(S, 1), S[:, :-1], S[0]):
        with pytest.raises(ShapeError):
            class_cosine_stats(bad, Pi)
    assert class_cosine_stats(S.tolist(), Pi) == class_cosine_stats(S, Pi)


# ---------------------------------------------------------------------------
# counts, seeds, shifts and class indices: rate.check_whole is the one owner


def _gaussians(**fields):
    spec = dict(n=3, k=2, m_per_class=2, sigma=0.1, seed=0) | fields
    return gen_gaussian_sphere(GaussianMixtureSpec(**spec))[0]


def _subspaces(**fields):
    spec = dict(n=6, k=2, d_j=2, m_per_class=3, seed=0) | fields
    return gen_orthogonal_subspaces(SubspaceSpec(**spec))[0]


def _dense_construct(L):
    Z, y = _dense_problem()
    return construct(Z, Membership.from_labels(y), L=L, eta=0.5, eps=0.5)[1]


def _dense_operator(j):
    Z, y = _dense_problem()
    Pi = Membership.from_labels(y)
    return compression_operator(Z, Pi, j, RateParams.compute(3, Pi, 0.5))


_IMAGE = np.arange(30.0).reshape(5, 6)
_SIGNALS = np.random.default_rng(3).standard_normal((2, 6))

# argument -> (the call with that argument set to x, a valid value, a value past
# its bound, {further value accepted: its output, or None where any output will do})
WHOLE_ARGUMENTS = {
    "construct-L": (_dense_construct, 2, 0, {}),
    "fit_nsc-r": (lambda x: fit_nsc(*_dense_problem(), r=x).bases[0], 1, -1, {}),
    **{f"gaussians-{f}": (lambda x, f=f: _gaussians(**{f: x}), 2, 0, {})
       for f in ("n", "k", "m_per_class")},
    "gaussians-seed": (lambda x: _gaussians(seed=x), 1, -1, {2**70: None}),
    **{f"subspaces-{f}": (lambda x, f=f: _subspaces(**{f: x}), good, 0, {})
       for f, good in (("n", 6), ("k", 2), ("d_j", 2), ("m_per_class", 3))},
    "subspaces-seed": (lambda x: _subspaces(seed=x), 1, -1, {2**70: None}),
    "polar-Gamma": (lambda x: polar_resample(_IMAGE, x, 3), 12, 0, {}),
    "polar-C": (lambda x: polar_resample(_IMAGE, 12, x), 3, 0, {}),
    # a shift may have any sign, so the value "past its bound" is a float of whole value
    "translate-p": (lambda x: translate2d(_IMAGE, x, np.int64(2)), 1, 1.0,
                    {-3: np.roll(_IMAGE, (-3, 2), axis=(0, 1))}),
    "translate-q": (lambda x: translate2d(_IMAGE, -3, x), 2, 2.0,
                    {np.int64(2): np.roll(_IMAGE, (-3, 2), axis=(0, 1))}),
    "augment-stride": (lambda x: augment_shifts(_SIGNALS, [0, 1], x, "1d")[0], 2, 0, {}),
    "lift1d-C": (lambda x: lift_random_filters_1d(_SIGNALS, x, 3, 0), 2, 0, {}),
    "lift1d-K": (lambda x: lift_random_filters_1d(_SIGNALS, 2, x, 0), 3, 7, {6: None}),
    "lift1d-seed": (lambda x: lift_random_filters_1d(_SIGNALS, 2, 3, x), 1, -1, {2**70: None}),
    "lift2d-K": (lambda x: lift_random_filters_2d(_IMAGE[None], 2, x, 0), 3, 6, {5: None}),
    "from_labels-k": (lambda x: Membership.from_labels([0, 2, 1], k=x).weights, 3, 2, {}),
    "from_labels-k-empty": (lambda x: Membership.from_labels([], k=x).weights, 2, -1, {0: None}),
    "compression-j": (_dense_operator, 1, 2, {0: None}),
    "compression-j-negative": (_dense_operator, 0, -1, {}),
}


# every argument above but seeds, shifts and class indices is a count, which
# must also lie below numpy's index range
NOT_COUNTS = {"gaussians-seed", "subspaces-seed", "lift1d-seed", "translate-p", "translate-q",
              "compression-j", "compression-j-negative"}


@pytest.mark.parametrize("argument", WHOLE_ARGUMENTS)
def test_every_count_seed_shift_and_class_index_is_a_whole_number_in_range(argument):
    call, good, past, accepted = WHOLE_ARGUMENTS[argument]
    for bad in (2.5, NAN, past, *([] if argument in NOT_COUNTS else [10**20])):
        with pytest.raises(DataError, match="must be a whole number"):
            call(bad)
    np.testing.assert_array_equal(call(np.int64(good)), call(good))
    for value, expected in accepted.items():
        out = call(value)
        if expected is not None:
            np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------------------
# real numbers: rate._as_real and rate._as_float are the one owner


def _dense_setup():
    """Unit features (3, 6), their membership, a one-layer model and a classifier."""
    Z, y = _dense_problem()
    Pi = Membership.from_labels(y)
    return Z, Pi, construct(Z, Pi, L=1, eta=0.5, eps=0.5)[0], fit_nsc(Z, y, r=1)


def _signal_setup():
    """Unit (6, 2, 4) samples, their membership and a one-layer 1D model."""
    X, y = _signal_problem()
    Pi = Membership.from_labels(y)
    return X, Pi, construct_inv1d(X, Pi, L=1, eta=0.5, eps=0.5)[0]


_Z, _PI, _MODEL, _CLF = _dense_setup()
_X, _PI_X, _MODEL_X = _signal_setup()
_IMAGES = normalize_samples_time(np.random.default_rng(4).standard_normal((6, 1, 2, 3)))

# intake -> (the call with that real array set to x, a valid x)
REAL_ARRAYS = {
    "rate_reduction": (lambda x: rate_reduction(x, _PI, 0.5), _Z),
    "expansion_operator": (lambda x: expansion_operator(x, RateParams.compute(3, _PI, 0.5)), _Z),
    "construct": (lambda x: construct(x, _PI, L=1, eta=0.5, eps=0.5), _Z),
    "forward": (lambda x: forward(_MODEL, x), _Z),
    "layer_increment": (lambda x: layer_increment(x, _MODEL.layers[0], 500.0), _Z[:, 0]),
    "estimate_membership": (lambda x: estimate_membership(x, _MODEL.layers[0], 500.0), _Z[:, 0]),
    "fit_nsc": (lambda x: fit_nsc(x, _PI.labels, r=1), _Z),
    "predict_nsc": (lambda x: predict_nsc(_CLF, x), _Z),
    "classifier-means": (lambda x: SubspaceClassifier(means=x, bases=(np.eye(2, 1),) * 2),
                         np.zeros((2, 2))),
    "classifier-bases": (lambda x: SubspaceClassifier(means=np.zeros((2, 2)),
                                                      bases=(x, np.eye(2, 1))), np.eye(2, 1)),
    "cosine_similarity_matrix": (cosine_similarity_matrix, _Z),
    "class_cosine_stats": (lambda x: class_cosine_stats(x, _PI), cosine_similarity_matrix(_Z)),
    "construct_inv1d": (lambda x: construct_inv1d(x, _PI_X, L=1, eta=0.5, eps=0.5), _X),
    "construct_inv2d": (lambda x: construct_inv2d(x, _PI_X, L=1, eta=0.5, eps=0.5), _IMAGES),
    "forward_inv1d": (lambda x: forward_inv1d(_MODEL_X, x), _X),
    "normalize_samples_time": (normalize_samples_time, _SIGNALS),
    "lift1d": (lambda x: lift_random_filters_1d(x, 2, 3, 0), _SIGNALS),
    "lift2d": (lambda x: lift_random_filters_2d(x, 2, 3, 0), _IMAGE[None]),
    "circulant": (circulant, _SIGNALS[0]),
    "convolve-kernel": (lambda x: circular_convolve_1d(x, _SIGNALS[1]), _SIGNALS[0]),
    "convolve-signal": (lambda x: circular_convolve_1d(_SIGNALS[0], x), _SIGNALS[1]),
    "polar_resample": (lambda x: polar_resample(x, 12, 3), _IMAGE),
    "gaussians-means": (lambda x: _gaussians(means=x), np.eye(2, 3)),
}

# each used to be read as its real part (numpy's ComplexWarning the only sign)
# or parsed from text
NOT_REAL = {
    "complex": lambda X: X + 1e-3j,
    "complex of zero imaginary part": lambda X: X + 0j,
    "numeric text": lambda X: X.astype(str),
    "objects": lambda X: X.astype(object),
}


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("intake", REAL_ARRAYS)
def test_every_real_array_intake_refuses_complex_text_and_objects(intake, bad):
    call, good = REAL_ARRAYS[intake]
    call(good)
    with pytest.raises(DataError, match="real"):
        call(NOT_REAL[bad](good))


# parameter -> the call with that parameter set to x
REAL_PARAMETERS = {
    "construct-eta": lambda x: construct(_Z, _PI, L=1, eta=x, eps=0.5),
    "construct_inv1d-eta": lambda x: construct_inv1d(_X, _PI_X, L=1, eta=x, eps=0.5),
    "construct-lambda": lambda x: construct(_Z, _PI, L=1, eta=0.5, eps=0.5, lam=x),
    "estimate_membership-lambda": lambda x: estimate_membership(_Z[:, 0], _MODEL.layers[0], x),
    "construct-eps": lambda x: construct(_Z, _PI, L=1, eta=0.5, eps=x),
    "rate_reduction-eps": lambda x: rate_reduction(_Z, _PI, x),
    "model-eps": lambda x: dataclasses.replace(_MODEL, eps=x),
    "soft_threshold-tau": lambda x: soft_threshold(_SIGNALS, x),
    "lift1d-tau": lambda x: lift_random_filters_1d(_SIGNALS, 2, 3, 0, tau=x),
    "gaussians-sigma": lambda x: _gaussians(sigma=x),
}


@pytest.mark.parametrize("bad", [1j, "0.5", None, np.array([0.5, 0.5])], ids=repr)
@pytest.mark.parametrize("parameter", REAL_PARAMETERS)
def test_every_parameter_is_one_real_number(parameter, bad):
    # a complex or text eta, tau or sigma, and a None eta, used to die in a bare TypeError
    call = REAL_PARAMETERS[parameter]
    for good in (0.5, np.float32(0.5), np.array(0.5)):
        call(good)
    with pytest.raises(DataError, match="must be a real number"):
        call(bad)


@pytest.mark.parametrize("dtype", [int, bool, np.float32])
def test_integer_bool_and_float32_features_read_as_float64(dtype):
    Z = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]]).astype(dtype)
    Pi = Membership.from_labels([0, 0, 1, 1])
    assert rate_reduction(Z, Pi, 0.5) == rate_reduction(Z.astype(float), Pi, 0.5)
    np.testing.assert_array_equal(cosine_similarity_matrix(Z),
                                  cosine_similarity_matrix(Z.astype(float)))


def test_a_float64_feature_bank_is_read_in_place():
    # the transposed view of a flattened (N, n) bank, as the CLI reads one
    bank = np.random.default_rng(5).standard_normal((12, 3)).T
    assert bank.flags.f_contiguous and _check_features(bank) is bank
    assert _check_features(bank, 3) is bank
    with pytest.raises(ShapeError, match=r"\(4, m\)"):
        _check_features(bank, 4)


def test_spectra_may_be_complex_but_not_text_or_objects():
    V = np.fft.fft(_X, axis=-1, norm="ortho").T
    rates = spectral_rate_reduction(V, _PI_X, 0.5)
    assert spectral_rate_reduction(V.tolist(), _PI_X, 0.5) == rates
    for bad in (V.astype(str), V.astype(object)):
        with pytest.raises(DataError, match="spectra"):
            spectral_rate_reduction(bad, _PI_X, 0.5)


# ---------------------------------------------------------------------------
# every CLI subcommand, one by one


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """name -> path of a valid or malformed input file."""
    root = tmp_path_factory.mktemp("contract")
    Z, y = _dense_problem()
    X, _ = _signal_problem()
    images = normalize_samples_time(np.random.default_rng(2).standard_normal((6, 1, 4, 4)))
    arrays = {
        "feats": Z, "nan_feats": _with_nan(Z), "vec": Z[0], "cube": Z.reshape(3, 2, 3),
        "zero_col": np.hstack([Z[:, :5], np.zeros((3, 1))]),
        "signals": X, "nan_signals": _with_nan(X), "empty_signals": X[:0],
        "images": images, "nan_images": _with_nan(images), "empty_images": images[:0],
        "labels": y.astype(np.uint32), "short_labels": y[:-1].astype(np.uint32),
        "neg_labels": y - 1.0, "real_labels": y + 0.5,
        "gap_labels": 2 * y.astype(np.uint32),
        "huge_labels": np.array([0, 0, 0, 1, 1, 2**31], dtype=np.uint32),
    }
    paths = {}
    for name, arr in arrays.items():
        paths[name] = root / f"{name}.rtf"
        write_tensor(paths[name], Tensor.from_array(arr))
    common = ["--labels", str(paths["labels"]), "--layers", "1", "--eta", "0.5", "--eps", "0.5"]
    for cmd, feats, model in (("construct", "feats", "rnm"), ("construct-inv1d", "signals", "rns1"),
                              ("construct-inv2d", "images", "rns2")):
        paths[model] = root / f"model.{model}"
        assert main([cmd, "--features", str(paths[feats]), *common,
                     "--model-out", str(paths[model])]) == 0
        # flip the sign bit of eta, the first header double equal to 0.5
        blob = paths[model].read_bytes()
        i = blob.index(struct.pack("<d", 0.5)) + 7
        paths[f"neg_eta_{model}"] = root / f"neg_eta.{model}"
        paths[f"neg_eta_{model}"].write_bytes(blob[:i] + bytes([blob[i] ^ 0x80]) + blob[i + 1:])
    paths["bundle"] = root / "bundle"
    assert main(["nsc-fit", "--features", str(paths["feats"]), "--labels", str(paths["labels"]),
                 "--r", "1", "--out", str(paths["bundle"])]) == 0
    for part in ("means", "basis_0"):
        paths[f"nan_{part}"] = root / f"nan_{part}"
        shutil.copytree(paths["bundle"], paths[f"nan_{part}"])
        blob = paths[f"nan_{part}"] / f"{part}.rtf"
        write_tensor(blob, Tensor.from_array(_with_nan(read_tensor(blob).to_array())))
    paths["short_idx"] = root / "short.idx"
    paths["short_idx"].write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(7))
    return {name: str(path) for name, path in paths.items()}


def _construct_cases(cmd, feats, nan_feats, wrong_rank, empty=None):
    good = ["--layers", "1", "--eta", "0.5", "--eps", "0.5"]
    cases = [
        (feats, "labels", ["--layers", "1", "--eta", "0.5", "--eps", "nan"]),
        (feats, "labels", ["--layers", "1", "--eta", "0.5", "--eps", "inf"]),
        (feats, "labels", ["--layers", "1", "--eta", "0.5", "--eps-sq", "-1"]),
        *[(feats, "labels", ["--layers", "1", "--eta", "0.5", "--eps", str(eps)])
          for eps in EPS_OUTSIDE_FLOAT_RANGE],
        (feats, "labels", ["--layers", "1", "--eta", "0.5"]),
        (feats, "labels", ["--layers", "1", "--eta", "nan", "--eps", "0.5"]),
        (feats, "labels", ["--layers", "1", "--eta", "-1", "--eps", "0.5"]),
        (feats, "labels", ["--layers", "0", "--eta", "0.5", "--eps", "0.5"]),
        (feats, "labels", ["--layers", str(10**20), "--eta", "0.5", "--eps", "0.5"]),
        (feats, "labels", good + ["--lambda", "-5"]),
        (feats, "labels", good + ["--lambda", "nan"]),
        (nan_feats, "labels", good),
        (wrong_rank, "labels", good),
        (feats, "neg_labels", good),
        (feats, "huge_labels", good),
        (feats, "short_labels", good),
        (feats, "gap_labels", good),
    ] + ([(empty, "labels", good)] if empty else [])
    return [[cmd, "--features", f, "--labels", y, "--model-out", "out", *flags]
            for f, y, flags in cases]


def _forward_cases(cmd, feats, nan_feats, model, wrong_model, empty=None):
    return [
        [cmd, "--model", model, "--features", nan_feats, "--out", "out"],
        [cmd, "--model", f"neg_eta_{model}", "--features", feats, "--out", "out"],
        [cmd, "--model", wrong_model, "--features", feats, "--out", "out"],
        [cmd, "--model", model, "--features", "vec", "--out", "out"],
    ] + ([[cmd, "--model", model, "--features", empty, "--out", "out"]] if empty else [])


CASES = {
    "gen-gaussians": [
        ["gen-gaussians", "--dims", "3", "--classes", "2", "--per-class", per_class,
         "--sigma", sigma, "--seed", "0", "--out-features", "out", "--out-labels", "out"]
        for per_class, sigma in (("2", "nan"), ("2", "inf"), ("2", "-1"), ("0", "0.1"),
                                 (str(10**20), "0.1"))
    ] + [
        ["gen-gaussians", "--dims", "3", "--classes", "2", "--per-class", "2", "--sigma", "0.1",
         "--seed", "-1", "--out-features", "out", "--out-labels", "out_labels"],
    ],
    "rate": [
        ["rate", "--features", "feats", "--labels", "labels", "--eps", "nan"],
        ["rate", "--features", "feats", "--labels", "labels", "--eps", "inf"],
        ["rate", "--features", "feats", "--labels", "labels", "--eps", "-1"],
        ["rate", "--features", "feats", "--labels", "labels", "--eps-sq", "nan"],
        *[["rate", "--features", "feats", "--labels", "labels", "--eps", str(eps)]
          for eps in EPS_OUTSIDE_FLOAT_RANGE],
        ["rate", "--features", "nan_feats", "--labels", "labels", "--eps", "0.5"],
        ["rate", "--features", "vec", "--labels", "labels", "--eps", "0.5"],
        ["rate", "--features", "feats", "--labels", "neg_labels", "--eps", "0.5"],
        ["rate", "--features", "feats", "--labels", "real_labels", "--eps", "0.5"],
        ["rate", "--features", "feats", "--labels", "huge_labels", "--eps", "0.5"],
    ],
    "construct": _construct_cases("construct", "feats", "nan_feats", "signals"),
    "construct-inv1d": _construct_cases("construct-inv1d", "signals", "nan_signals", "images",
                                        "empty_signals"),
    "construct-inv2d": _construct_cases("construct-inv2d", "images", "nan_images", "signals",
                                        "empty_images"),
    "forward": _forward_cases("forward", "feats", "nan_feats", "rnm", "rns1")
    + [["forward", "--model", "rnm", "--features", "cube", "--out", "out"]],
    "forward-inv1d": _forward_cases("forward-inv1d", "signals", "nan_signals", "rns1", "rns2",
                                    "empty_signals"),
    "forward-inv2d": _forward_cases("forward-inv2d", "images", "nan_images", "rns2", "rns1",
                                    "empty_images"),
    "lift1d": [
        ["lift1d", "--features", "feats", "--channels", "2", "--kernel-size", "2", "--seed", "0",
         "--tau", tau, "--out", "out"] for tau in ("nan", "-1")
    ] + [
        ["lift1d", "--features", "images", "--channels", "2", "--kernel-size", "2",
         "--seed", "0", "--out", "out"],
        ["lift1d", "--features", "feats", "--channels", "2", "--kernel-size", "9",
         "--seed", "0", "--out", "out"],
        ["lift1d", "--features", "feats", "--channels", "2", "--kernel-size", "2",
         "--seed", "-1", "--out", "out"],
    ],
    "polar": [
        ["polar", "--images", "vec", "--gamma", "4", "--radii", "2", "--out", "out"],
        ["polar", "--images", "images", "--gamma", "4", "--radii", "2", "--out", "out"],
        ["polar", "--images", "feats", "--gamma", "0", "--radii", "2", "--out", "out"],
    ],
    "augment": [
        ["augment", "--features", "signals", "--labels", "neg_labels", "--stride", "1",
         "--kind", "1d", "--out-features", "out", "--out-labels", "out"],
        ["augment", "--features", "vec", "--labels", "labels", "--stride", "1",
         "--kind", "2d", "--out-features", "out", "--out-labels", "out"],
        ["augment", "--features", "signals", "--labels", "labels", "--stride", "0",
         "--kind", "1d", "--out-features", "out", "--out-labels", "out"],
        ["augment", "--features", "signals", "--labels", "short_labels", "--stride", "1",
         "--kind", "1d", "--out-features", "out", "--out-labels", "out"],
    ],
    "nsc-fit": [
        ["nsc-fit", "--features", feats, "--labels", labels, "--r", r, "--out", "out_bundle"]
        for feats, labels, r in (("nan_feats", "labels", "1"), ("feats", "neg_labels", "1"),
                                 ("feats", "huge_labels", "1"), ("feats", "labels", "-1"),
                                 ("vec", "labels", "1"), ("feats", "short_labels", "1"))
    ],
    "nsc-predict": [
        ["nsc-predict", "--bundle", "bundle", "--features", "nan_feats", "--out", "out"],
        ["nsc-predict", "--bundle", "bundle", "--features", "signals", "--out", "out"],
        ["nsc-predict", "--bundle", "bundle", "--features", "feats", "--out", "out",
         "--labels", "neg_labels"],
        ["nsc-predict", "--bundle", "bundle", "--features", "feats", "--out", "out",
         "--labels", "short_labels"],
        ["nsc-predict", "--bundle", "feats", "--features", "feats", "--out", "out"],
        ["nsc-predict", "--bundle", "nan_means", "--features", "feats", "--out", "out"],
        ["nsc-predict", "--bundle", "nan_basis_0", "--features", "feats", "--out", "out"],
    ],
    "cossim": [
        ["cossim", "--features", "nan_feats"],
        ["cossim", "--features", "vec"],
        ["cossim", "--features", "zero_col"],
        ["cossim", "--features", "signals", "--out", "out"],
    ],
    "mnist-import": [
        ["mnist-import", "--images", "short_idx", "--labels", "short_idx",
         "--out-images", "out", "--out-labels", "out"],
        ["mnist-import", "--images", "feats", "--labels", "feats",
         "--out-images", "out", "--out-labels", "out"],
    ],
}


def test_every_subcommand_is_walked():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(CASES) == sorted(sub.choices)


def _run(files, argv, tmp_path, capsys):
    # file names refer to the fixture; "out" and "out_bundle" are fresh paths
    argv = [files.get(a, str(tmp_path / a) if a.startswith("out") else a) for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: "), (argv, err)
    return code


@pytest.mark.parametrize("command", CASES)
def test_malformed_input_exits_2_3_or_4_without_raising(files, command, tmp_path, capsys):
    for argv in CASES[command]:
        assert _run(files, argv, tmp_path, capsys) in (2, 3, 4), argv
    assert not any(p.name.endswith(".manifest.json") for p in tmp_path.iterdir())


@pytest.mark.parametrize("command", ["rate", "construct", "construct-inv1d", "construct-inv2d"])
def test_eps_outside_the_float_range_and_an_empty_class_exit_3(files, command, tmp_path, capsys):
    bad = {str(eps) for eps in EPS_OUTSIDE_FLOAT_RANGE} | {"gap_labels"}
    cases = [argv for argv in CASES[command] if bad & set(argv)]
    assert len(cases) == (3 if command == "rate" else 4)
    for argv in cases:
        assert _run(files, argv, tmp_path, capsys) == 3, argv


@pytest.mark.parametrize("command", ["gen-gaussians", "lift1d"])
def test_a_negative_seed_exits_3_and_writes_nothing(files, command, tmp_path, capsys):
    (argv,) = [argv for argv in CASES[command] if argv[argv.index("--seed") + 1] == "-1"]
    assert _run(files, argv, tmp_path, capsys) == 3
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gen-gaussians", "construct", "construct-inv1d",
                                     "construct-inv2d"])
def test_a_count_past_the_numpy_index_range_exits_3_and_writes_nothing(files, command, tmp_path,
                                                                       capsys):
    (argv,) = [argv for argv in CASES[command] if str(10**20) in argv]
    assert _run(files, argv, tmp_path, capsys) == 3
    assert not any(tmp_path.iterdir())
