"""The input contract: labels, eps/eta/lambda, features and model headers are
each checked in one place, NaN fails every check, and every CLI subcommand
fed malformed input exits 2, 3 or 4 instead of raising or writing a wrong
answer."""

import argparse
import shutil
import struct

import numpy as np
import pytest

from redunet import (
    DataError,
    EmptyClassError,
    GaussianMixtureSpec,
    Membership,
    NumericError,
    ShapeError,
    Tensor,
    augment_shifts,
    coding_rate_partitioned,
    construct,
    construct_inv1d,
    cosine_similarity_matrix,
    estimate_membership,
    fit_nsc,
    forward,
    forward_inv1d,
    gen_gaussian_sphere,
    normalize_samples_time,
    predict_nsc,
    rate_reduction,
    read_tensor,
    sphere_project,
    write_tensor,
)
from redunet.cli import build_parser, main
from redunet.rate import check_labels

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


BAD_LABELS = [[0.7, 1.2, 0.2], [0, NAN, 1], [0, INF, 1], [-1, 0, 1], [0, 2.0**32, 1]]


@pytest.mark.parametrize("labels", BAD_LABELS)
def test_labels_must_be_nonnegative_whole_numbers(labels):
    with pytest.raises(DataError, match="whole numbers"):
        check_labels(labels)
    with pytest.raises(DataError, match="whole numbers"):
        Membership.from_labels(labels)
    with pytest.raises(DataError, match="whole numbers"):
        fit_nsc(np.eye(3), labels, r=1)


def test_whole_number_labels_come_back_as_ints():
    y = check_labels(np.array([[2.0], [0.0], [1.0]]))
    assert y.dtype.kind == "i"
    np.testing.assert_array_equal(y, [2, 0, 1])


def test_an_inferred_class_count_above_the_sample_count_allocates_nothing():
    # 2**31 + 1 classes for two samples would ask for 32 GiB
    with pytest.raises(DataError, match="classes for only 2 samples"):
        Membership.from_labels([0, 2**31])
    assert Membership.from_labels([0, 2, 2]).k == 3  # an empty class within m is kept


def test_fit_nsc_stops_at_the_first_empty_class():
    Z, _ = _dense_problem()
    with pytest.raises(EmptyClassError, match="class 1"):
        fit_nsc(Z, [0, 0, 0, 2**31, 2**31, 2**31], r=1)


# ---------------------------------------------------------------------------
# eps, eta and lambda: rate.check_eps and _engine.check_step


BAD_STEPS = [dict(eps=NAN), dict(eps=INF), dict(eps=-0.5), dict(eta=NAN), dict(eta=-1.0),
             dict(eta=0.0), dict(eta=INF), dict(lam=-1.0), dict(lam=NAN), dict(lam=INF)]


@pytest.mark.parametrize("bad", BAD_STEPS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
@pytest.mark.parametrize("build", ["dense", "inv1d"])
def test_construct_rejects_bad_step_parameters(build, bad):
    X, y = _dense_problem() if build == "dense" else _signal_problem()
    params = dict(L=1, eta=0.5, eps=0.5, lam=500.0) | bad
    with pytest.raises(DataError):
        (construct if build == "dense" else construct_inv1d)(X, Membership.from_labels(y),
                                                             **params)


@pytest.mark.parametrize("eps", [NAN, INF, 0.0])
def test_rate_rejects_eps_outside_zero_to_infinity(eps):
    Z, y = _dense_problem()
    with pytest.raises(DataError):
        rate_reduction(Z, Membership.from_labels(y), eps)


def test_estimate_membership_rejects_a_nan_lambda():
    Z, y = _dense_problem()
    model, _, _ = construct(Z, Membership.from_labels(y), L=1, eta=0.5, eps=0.5)
    with pytest.raises(DataError):
        estimate_membership(Z[:, 0], model.layers[0], NAN)


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


def test_non_finite_samples_cannot_be_normalized():
    with pytest.raises(NumericError):
        normalize_samples_time(_with_nan(np.ones((2, 3))))
    with pytest.raises(NumericError):
        sphere_project(np.array([NAN, 1.0]))


def test_2d_augmentation_of_1d_features_is_a_shape_error():
    with pytest.raises(ShapeError):
        augment_shifts(np.ones(4), np.zeros(4), stride=1, kind="2d")


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
        "signals": X, "nan_signals": _with_nan(X),
        "images": images, "nan_images": _with_nan(images),
        "labels": y.astype(np.uint32), "short_labels": y[:-1].astype(np.uint32),
        "neg_labels": y - 1.0, "real_labels": y + 0.5,
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


def _construct_cases(cmd, feats, nan_feats, wrong_rank):
    good = ["--layers", "1", "--eta", "0.5", "--eps", "0.5"]
    cases = [
        (feats, "labels", ["--layers", "1", "--eta", "0.5", "--eps", "nan"]),
        (feats, "labels", ["--layers", "1", "--eta", "0.5", "--eps", "inf"]),
        (feats, "labels", ["--layers", "1", "--eta", "0.5", "--eps-sq", "-1"]),
        (feats, "labels", ["--layers", "1", "--eta", "0.5"]),
        (feats, "labels", ["--layers", "1", "--eta", "nan", "--eps", "0.5"]),
        (feats, "labels", ["--layers", "1", "--eta", "-1", "--eps", "0.5"]),
        (feats, "labels", ["--layers", "0", "--eta", "0.5", "--eps", "0.5"]),
        (feats, "labels", good + ["--lambda", "-5"]),
        (feats, "labels", good + ["--lambda", "nan"]),
        (nan_feats, "labels", good),
        (wrong_rank, "labels", good),
        (feats, "neg_labels", good),
        (feats, "huge_labels", good),
        (feats, "short_labels", good),
    ]
    return [[cmd, "--features", f, "--labels", y, "--model-out", "out", *flags]
            for f, y, flags in cases]


def _forward_cases(cmd, feats, nan_feats, model, wrong_model):
    return [
        [cmd, "--model", model, "--features", nan_feats, "--out", "out"],
        [cmd, "--model", f"neg_eta_{model}", "--features", feats, "--out", "out"],
        [cmd, "--model", wrong_model, "--features", feats, "--out", "out"],
        [cmd, "--model", model, "--features", "vec", "--out", "out"],
    ]


CASES = {
    "gen-gaussians": [
        ["gen-gaussians", "--dims", "3", "--classes", "2", "--per-class", "2", "--sigma", sigma,
         "--seed", "0", "--out-features", "out", "--out-labels", "out"]
        for sigma in ("nan", "inf", "-1")
    ],
    "rate": [
        ["rate", "--features", "feats", "--labels", "labels", "--eps", "nan"],
        ["rate", "--features", "feats", "--labels", "labels", "--eps", "inf"],
        ["rate", "--features", "feats", "--labels", "labels", "--eps", "-1"],
        ["rate", "--features", "feats", "--labels", "labels", "--eps-sq", "nan"],
        ["rate", "--features", "nan_feats", "--labels", "labels", "--eps", "0.5"],
        ["rate", "--features", "vec", "--labels", "labels", "--eps", "0.5"],
        ["rate", "--features", "feats", "--labels", "neg_labels", "--eps", "0.5"],
        ["rate", "--features", "feats", "--labels", "real_labels", "--eps", "0.5"],
        ["rate", "--features", "feats", "--labels", "huge_labels", "--eps", "0.5"],
    ],
    "construct": _construct_cases("construct", "feats", "nan_feats", "signals"),
    "construct-inv1d": _construct_cases("construct-inv1d", "signals", "nan_signals", "images"),
    "construct-inv2d": _construct_cases("construct-inv2d", "images", "nan_images", "signals"),
    "forward": _forward_cases("forward", "feats", "nan_feats", "rnm", "rns1")
    + [["forward", "--model", "rnm", "--features", "cube", "--out", "out"]],
    "forward-inv1d": _forward_cases("forward-inv1d", "signals", "nan_signals", "rns1", "rns2"),
    "forward-inv2d": _forward_cases("forward-inv2d", "images", "nan_images", "rns2", "rns1"),
    "lift1d": [
        ["lift1d", "--features", "feats", "--channels", "2", "--kernel-size", "2", "--seed", "0",
         "--tau", tau, "--out", "out"] for tau in ("nan", "-1")
    ] + [
        ["lift1d", "--features", "images", "--channels", "2", "--kernel-size", "2",
         "--seed", "0", "--out", "out"],
        ["lift1d", "--features", "feats", "--channels", "2", "--kernel-size", "9",
         "--seed", "0", "--out", "out"],
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


@pytest.mark.parametrize("command", CASES)
def test_malformed_input_exits_2_3_or_4_without_raising(files, command, tmp_path, capsys):
    for argv in CASES[command]:
        # file names refer to the fixture; "out" and "out_bundle" are fresh paths
        argv = [files.get(a, str(tmp_path / a) if a.startswith("out") else a) for a in argv]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (2, 3, 4), (argv, code)
        assert err.startswith("error: "), (argv, err)
    assert not any(p.name.endswith(".manifest.json") for p in tmp_path.iterdir())
