"""The layer engine: its operator stack, the stacked class products, the
flushed softmin and the file layout of the stack."""

import pickle
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from redunet import (
    Membership,
    construct,
    construct_inv1d,
    construct_inv2d,
    forward,
    forward_inv1d,
    forward_inv2d,
    load_invariant_model,
    load_model,
    normalize_samples_time,
    save_invariant_model,
    save_model,
)
from redunet import _engine
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
