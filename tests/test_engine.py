"""The layer engine: its operator stack and the class columns it is filled
from, the stacked class products, the flushed softmin and the file layout of
the stack."""

import pickle
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from redunet import (
    Membership,
    RateParams,
    Tensor,
    class_cosine_stats,
    compression_operator,
    construct,
    construct_inv1d,
    construct_inv2d,
    cosine_similarity_matrix,
    forward,
    forward_inv1d,
    forward_inv2d,
    load_invariant_model,
    load_model,
    normalize_samples_time,
    rate_gradient,
    rate_reduction,
    save_invariant_model,
    save_model,
    write_tensor,
)
from redunet import _engine
from redunet.cli import main
from redunet.tensorio import ContainerReader


def _random(rng, shape, dtype):
    X = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        X += 1j * rng.standard_normal(shape)
    return X


def _unflushed_membership(CV, lam):
    """The softmin of the class residual norms with no flush."""
    scaled = lam * np.sqrt(_engine._sq_norms(CV, "pjax,pjax->jx"))
    w = np.exp(-(scaled - scaled.min(axis=0)))
    return w / w.sum(axis=0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_membership_flushes_weights_past_the_gap_and_keeps_the_rest(dtype):
    rng = np.random.default_rng(30)
    P, k, d, m = 3, 6, 2, 400
    CV = _random(rng, (P, k, d, m), dtype)
    # residual norms spread so that the gaps cover normal, tiny, subnormal
    # and underflowing exp(-gap)
    CV *= rng.uniform(0.0, 1.0, (1, k, 1, m))
    lam = 400.0
    scaled = lam * np.sqrt(_engine._sq_norms(CV, "pjax,pjax->jx"))
    gap = scaled - scaled.min(axis=0)
    flushed = gap > 460
    np.testing.assert_array_equal(flushed, np.exp(-gap) < _engine.SOFTMIN_FLUSH)
    assert np.any(flushed & (gap < 708)) and np.any(gap > 745)
    assert np.any(~flushed & (gap > 400))

    w = _engine.membership(CV, lam)
    assert np.all(w[flushed] == 0.0)
    np.testing.assert_array_equal(w[~flushed], _unflushed_membership(CV, lam)[~flushed])
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-15)


def _one_hot(labels, k):
    """The soft membership of the same labels: the dense k x m matrix of 0s and 1s."""
    w = np.zeros((k, len(labels)))
    w[labels, np.arange(len(labels))] = 1.0
    return Membership(w)


# name -> (labels, explicit k or None); class sizes differ, so two classes with
# their columns swapped give other blocks
LABELINGS = {
    "contiguous": (np.repeat([0, 1, 2], [3, 4, 5]), None),
    "shuffled": (np.random.default_rng(33).permutation(np.repeat([0, 1, 2], [3, 4, 5])), None),
    "empty-classes": (np.repeat([2, 0, 3], [3, 4, 5]), 5),  # classes 1 and 4 are empty
}


@pytest.mark.parametrize("labeling", LABELINGS)
@pytest.mark.parametrize("P, dtype", [(1, float), (4, complex)], ids=["dense", "spectral"])
def test_factor_fills_each_class_block_from_the_class_columns(labeling, P, dtype):
    labels, k = LABELINGS[labeling]
    Pi = Membership.from_labels(labels, k)
    hot = _one_hot(labels, Pi.k)
    np.testing.assert_array_equal(Pi.weights, hot.weights)
    rng = np.random.default_rng(34)
    d = 3
    V = _random(rng, (P, d, len(labels)), dtype)
    share = rng.uniform(0.5, 1.0, P)
    share /= share.sum()
    coef, A, rates = _engine.factor(V, share, Pi, RateParams.compute(d, Pi, 0.5))
    coef1, A1, rates1 = _engine.factor(V, share, hot, RateParams.compute(d, hot, 0.5))
    np.testing.assert_array_equal(coef, coef1)
    np.testing.assert_allclose(rates, rates1, rtol=1e-12, atol=0)
    # the blocks I + (a_j / s_p) V(p) diag(Pi_j) V(p)^H, filled over all m samples
    W = np.vstack([np.ones(len(labels)), hot.weights])
    full = np.eye(d) + np.einsum("j,p,pax,jx,pbx->pjab", coef, 1 / share, V, W, V.conj())
    for stack in (A, A1):
        np.testing.assert_allclose(stack, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())
    for j in np.flatnonzero(Pi.class_sizes == 0):
        np.testing.assert_array_equal(A[:, 1 + j], np.broadcast_to(np.eye(d), (P, d, d)))


@pytest.mark.parametrize("dtype", [float, complex], ids=["dense", "spectral"])
def test_factor_and_operators_peak_under_three_stacks(dtype):
    # the stack A and its inverse are the only stack-sized arrays: the
    # Cholesky factor is dropped before the inverse is made
    P, k, d, m = 200, 10, 6, 30
    V = _random(np.random.default_rng(36), (P, d, m), dtype)
    V /= np.sqrt(_engine._sq_norms(V, "pax,pax->x"))
    Pi = Membership.from_labels(np.repeat(np.arange(k), m // k))
    params = RateParams.compute(d, Pi, 0.5)
    stack = P * (1 + k) * d * d * np.dtype(dtype).itemsize
    tracemalloc.start()
    try:
        _engine.operators(*_engine.factor(V, np.full(P, 1 / P), Pi, params)[:2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * stack


@pytest.mark.parametrize("labeling", ["contiguous", "shuffled"])
@pytest.mark.parametrize("kind", ["dense", "inv1d"])
def test_a_label_built_and_a_one_hot_membership_build_the_same_network(labeling, kind):
    labels, _ = LABELINGS[labeling]
    rng = np.random.default_rng(35)
    if kind == "dense":
        Z = rng.standard_normal((3, len(labels)))
        Z, build = Z / np.linalg.norm(Z, axis=0), construct
    else:
        Z, build = normalize_samples_time(rng.standard_normal((len(labels), 2, 6))), construct_inv1d
    runs = [build(Z, Pi, L=3, eta=0.5, eps=0.5, lam=3.0)
            for Pi in (Membership.from_labels(labels), _one_hot(labels, 3))]
    (model, out, curve), (model1, out1, curve1) = runs
    np.testing.assert_allclose(out, out1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curve.values, curve1.values, rtol=1e-12, atol=0)
    for layer, layer1 in zip(model.layers, model1.layers):
        np.testing.assert_allclose(layer.stack, layer1.stack, rtol=0,
                                   atol=1e-12 * np.abs(layer1.stack).max())


def test_no_engine_reference_or_cli_path_makes_the_weights_of_labels(monkeypatch, tmp_path):
    monkeypatch.setattr(Membership, "weights", property(lambda _: pytest.fail("weights made")))
    labels, _ = LABELINGS["shuffled"]
    Pi = Membership.from_labels(labels)
    rng = np.random.default_rng(36)
    Z = rng.standard_normal((3, len(labels)))
    Z /= np.linalg.norm(Z, axis=0)
    construct(Z, Pi, L=2, eta=0.5, eps=0.5)
    construct_inv1d(normalize_samples_time(rng.standard_normal((12, 2, 6))), Pi, 2, 0.5, 0.5)
    construct_inv2d(normalize_samples_time(rng.standard_normal((12, 2, 4, 3))), Pi, 2, 0.5, 0.5)
    params = RateParams.compute(3, Pi, 0.5)
    rate_reduction(Z, Pi, 0.5)
    rate_gradient(Z, Pi, params)
    compression_operator(Z, Pi, 1, params)
    class_cosine_stats(cosine_similarity_matrix(Z), Pi)
    feats, y = str(tmp_path / "z.rtf"), str(tmp_path / "y.rtf")
    write_tensor(feats, Tensor.from_array(Z))
    write_tensor(y, Tensor.from_array(labels.astype(np.uint32)))
    for argv in (["gen-gaussians", "--dims", "3", "--classes", "3", "--per-class", "4",
                  "--sigma", "0.1", "--seed", "0", "--out-features", str(tmp_path / "g.rtf"),
                  "--out-labels", str(tmp_path / "gy.rtf")],
                 ["rate", "--features", feats, "--labels", y, "--eps", "0.5"],
                 ["construct", "--features", feats, "--labels", y, "--layers", "2", "--eta", "0.5",
                  "--eps", "0.5", "--model-out", str(tmp_path / "m.rnm")]):
        assert main(argv) == 0, argv


def _naive_increment(V, S, gamma, lam):
    """E V - sum_j gamma_j pihat_j C_j V, one class at a time."""
    E, k = S[:, 0], S.shape[1] - 1
    CV = [S[:, 1 + j] @ V for j in range(k)]
    r = lam * np.sqrt([np.sum(np.abs(cv) ** 2, axis=(0, 1)) for cv in CV])
    w = np.exp(-(r - r.min(axis=0)))
    w /= w.sum(axis=0)
    return E @ V - sum(gamma[j] * w[j] * CV[j] for j in range(k))


_SHAPES = [(1, 3, 3, 7, float), (1, 1, 4, 5, float), (4, 3, 2, 6, complex),
           (1, 2, 3, 4, complex), (5, 1, 2, 3, complex)]


@pytest.mark.parametrize("P, k, d, b, dtype", _SHAPES)
@pytest.mark.parametrize("lam", [0.0, 3.0, 500.0])
def test_increment_is_the_per_class_loop(P, k, d, b, dtype, lam):
    rng = np.random.default_rng(31)
    S, V = _random(rng, (P, 1 + k, d, d), dtype), _random(rng, (P, d, b), dtype)
    gamma = rng.uniform(0.1, 1.0, k)
    np.testing.assert_allclose(_engine.increment(V, S, gamma, lam),
                               _naive_increment(V, S, gamma, lam), rtol=0, atol=1e-13)


@pytest.mark.parametrize("P, k, d, b, dtype", _SHAPES)
def test_a_step_whose_last_block_is_narrower_is_the_per_class_loop(monkeypatch, P, k, d, b,
                                                                   dtype):
    rng = np.random.default_rng(32)
    S, V = _random(rng, (P, 1 + k, d, d), dtype), _random(rng, (P, d, 2 * b + 1), dtype)
    gamma = rng.uniform(0.1, 1.0, k)
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(_engine, "STEP_BLOCK_BYTES", b * k * P * d * itemsize)
    assert _engine.samples_per_block(S) == b
    out = _engine.step(V, SimpleNamespace(stack=S, gamma_j=gamma), 0.5, 3.0, 0)
    expected = V + 0.5 * _naive_increment(V, S, gamma, 3.0)
    expected /= np.sqrt(np.sum(np.abs(expected) ** 2, axis=(0, 1)))
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13)


def _layer_stream(model, dtype, E_name, C_name):
    """gamma as <f8, then per layer E and C^1..C^k, built from the public arrays."""
    parts = [np.asarray(model.layers[0].gamma_j, "<f8").tobytes()]
    for layer in model.layers:
        parts.append(np.asarray(getattr(layer, E_name), dtype).tobytes())
        parts += [np.asarray(C_j, dtype).tobytes() for C_j in getattr(layer, C_name)]
    return b"".join(parts)


def test_the_rnm1_layer_stream_is_gamma_then_e_and_each_c(tmp_path):
    rng = np.random.default_rng(33)
    Z = rng.standard_normal((4, 12))
    Z /= np.linalg.norm(Z, axis=0)
    model, _, _ = construct(Z, Membership.from_labels(np.arange(12) % 3), L=2, eta=0.5,
                            eps=0.3)
    path = tmp_path / "model.rnm"
    save_model(path, model)
    blob = path.read_bytes()
    assert blob[4 + struct.calcsize("<4I3d"):] == _layer_stream(model, "<f8", "E", "C")
    # the loaded stack writes the same stream
    save_model(tmp_path / "again.rnm", load_model(path))
    assert (tmp_path / "again.rnm").read_bytes() == blob


def test_the_rns1_layer_stream_is_gamma_then_e_and_each_c(tmp_path):
    rng = np.random.default_rng(34)
    Z = normalize_samples_time(rng.standard_normal((9, 2, 4, 5)))
    model, _, _ = construct_inv2d(Z, Membership.from_labels(np.arange(9) % 3), L=2,
                                  eta=0.5, eps=0.1)
    path = tmp_path / "model.rns"
    save_invariant_model(path, model)
    blob = path.read_bytes()
    header = 4 + struct.calcsize("<IBI2I2I3d")
    assert blob[header:] == _layer_stream(model, "<c16", "E_hat", "C_hat")
    save_invariant_model(tmp_path / "again.rns", load_invariant_model(path))
    assert (tmp_path / "again.rns").read_bytes() == blob


_MAKERS = {"construct": (construct, forward), "construct_inv1d": (construct_inv1d, forward_inv1d),
           "construct_inv2d": (construct_inv2d, forward_inv2d)}


def _model(name, seed):
    """A two-layer model made by ``name`` and the samples it was made from."""
    rng = np.random.default_rng(seed)
    if name == "construct":
        X = rng.standard_normal((4, 9))
        X /= np.linalg.norm(X, axis=0)
    else:
        X = normalize_samples_time(
            rng.standard_normal((9, 2, 6) if name == "construct_inv1d" else (9, 2, 4, 5)))
    Pi = Membership.from_labels(np.arange(9) % 3)
    return _MAKERS[name][0](X, Pi, L=2, eta=0.5, eps=0.3)[0], X


def _recorded(monkeypatch, owner, name):
    """The results of every later call of ``owner.name``, in call order."""
    results, call = [], getattr(owner, name)

    def record(*args):
        results.append(call(*args))
        return results[-1]

    monkeypatch.setattr(owner, name, record)
    return results


@pytest.mark.parametrize("source", ["construct", "construct_inv1d", "construct_inv2d",
                                    "load_model"])
def test_engine_and_loader_layers_sit_on_their_stack_without_a_copy(monkeypatch, tmp_path,
                                                                    source):
    if source == "load_model":
        save_model(tmp_path / "model.rnm", _model("construct", 35)[0])
        stacks = _recorded(monkeypatch, ContainerReader, "array")
        model = load_model(tmp_path / "model.rnm")
    else:
        stacks = _recorded(monkeypatch, _engine, "operators")
        model = _model(source, 35)[0]
    # the last arrays made are the layers' stacks; a dense file's array is one too
    for layer, stack in zip(model.layers, stacks[-model.depth:], strict=True):
        assert np.shares_memory(layer.stack, stack)


class _ClassAndOperators:
    """Pickles as layers used to: ``__reduce__`` gives the layer class and
    its (E, C, gamma_j), so unpickling calls the public constructor."""

    def __init__(self, cls, E, C, gamma_j):
        self.reduced = cls, (E, C, gamma_j)

    def __reduce__(self):
        return self.reduced


@pytest.mark.parametrize("source", ["construct", "construct_inv2d"])
def test_a_layer_pickled_as_its_class_and_operators_still_loads(source):
    model, X = _model(source, 36)
    E, C = ("E", "C") if source == "construct" else ("E_hat", "C_hat")
    layers = tuple(pickle.loads(pickle.dumps(_ClassAndOperators(
        type(la), getattr(la, E), getattr(la, C), la.gamma_j))) for la in model.layers)
    for la, lb in zip(model.layers, layers):
        assert type(lb) is type(la)
        with pytest.raises(AttributeError):
            setattr(lb, E, getattr(lb, E))
    run = _MAKERS[source][1]
    np.testing.assert_array_equal(run(replace(model, layers=layers), X), run(model, X))
