"""Dense network construction, replay, and the RNM1 container."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from redunet import (
    BadMagicError,
    DataError,
    DenseLayer,
    Membership,
    NumericError,
    RateParams,
    ShapeError,
    TruncatedFileError,
    VersionError,
    compression_operator,
    construct,
    estimate_membership,
    expansion_operator,
    forward,
    layer_increment,
    load_model,
    rate_gradient,
    save_model,
    sphere_project,
)
from redunet import _engine


def _toy_problem(seed=0, n=4, k=3, per_class=5):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, k * per_class))
    Z /= np.linalg.norm(Z, axis=0)
    labels = np.repeat(np.arange(k), per_class)
    return Z, Membership.from_labels(labels, k=k)


def test_construct_reports_loss_curve_per_layer():
    Z, Pi = _toy_problem()
    model, Z_out, curve = construct(Z, Pi, L=4, eta=0.5, eps=0.3)
    assert model.depth == 4
    assert len(curve) == 4
    for R, Rc, dR in curve:
        assert dR == pytest.approx(R - Rc)
    # entry 0 describes the raw input, before any update
    from redunet import rate_reduction

    assert curve[0] == pytest.approx(rate_reduction(Z, Pi, 0.3))


def test_loss_curve_reads_as_a_list_of_float_triples():
    Z, Pi = _toy_problem()
    _, _, curve = construct(Z, Pi, L=3, eta=0.5, eps=0.3)
    as_list = [tuple(map(float, row)) for row in curve.values]
    assert curve == as_list and as_list == list(curve)
    assert curve[-1] == as_list[-1] and curve[1:] == as_list[1:]
    assert np.asarray(curve).shape == (3, 3)


def test_forward_replays_construction_exactly():
    Z, Pi = _toy_problem(seed=1)
    model, Z_out, _ = construct(Z, Pi, L=6, eta=0.5, eps=0.3)
    np.testing.assert_array_equal(forward(model, Z), Z_out)


def test_shuffled_labels_build_the_class_sorted_network_to_rounding():
    # every class block is filled from the same columns in the same order, but the
    # whole-set Gram V V^T sums the samples in the caller's order, so a shuffled batch
    # builds its class-sorted copy's network up to rounding; forward replays it exactly
    rng = np.random.default_rng(40)
    Z = rng.standard_normal((3, 1536))
    Z /= np.linalg.norm(Z, axis=0)
    labels = rng.integers(0, 3, Z.shape[1])
    order = np.argsort(labels, kind="stable")
    model, Z_out, curve = construct(Z, Membership.from_labels(labels), L=20, eta=0.5, eps=0.5)
    model_s, Z_out_s, curve_s = construct(np.ascontiguousarray(Z[:, order]),
                                          Membership.from_labels(labels[order]),
                                          L=20, eta=0.5, eps=0.5)
    np.testing.assert_allclose(Z_out[:, order], Z_out_s, rtol=0, atol=1e-13)
    np.testing.assert_allclose(curve.values, curve_s.values, rtol=0, atol=1e-14)
    for layer, layer_s in zip(model.layers, model_s.layers):
        np.testing.assert_allclose(layer.stack, layer_s.stack, rtol=1e-12)
        np.testing.assert_array_equal(layer.gamma_j, layer_s.gamma_j)
    np.testing.assert_array_equal(forward(model, Z), Z_out)


def _reference_forward(model, Z):
    """Each layer as one unblocked update: V + eta * increment(V), renormalized."""
    V = Z[None]
    for layer in model.layers:
        V = V + model.eta * _engine.increment(V, layer.stack, layer.gamma_j, model.lam)
        V = V / np.sqrt(_engine._sq_norms(V, "pax,pax->x"))
    return V[0]


def test_construct_and_forward_are_the_unblocked_update_exactly():
    Z, Pi = _toy_problem(seed=2, n=3, k=3, per_class=40)
    model, Z_out, _ = construct(Z, Pi, L=8, eta=0.5, eps=0.3)
    np.testing.assert_array_equal(Z_out, _reference_forward(model, Z))
    Z_new, _ = _toy_problem(seed=3, n=3, k=3, per_class=25)
    np.testing.assert_array_equal(forward(model, Z_new), _reference_forward(model, Z_new))


def _layer_inputs(model, Z):
    """The features each stored layer was built from."""
    inputs = [Z]
    for depth in range(1, model.depth):
        inputs.append(forward(replace(model, layers=model.layers[:depth]), Z))
    return inputs


def test_construct_gradient_diagnostic_passes():
    # with the true labels in place of the estimated memberships, every
    # stored layer's increment is the exact rate gradient at its input
    Z, Pi = _toy_problem(seed=2)
    model, _, _ = construct(Z, Pi, L=3, eta=0.1, eps=0.5)
    for layer, Zl in zip(model.layers, _layer_inputs(model, Z)):
        labeled = layer.E @ Zl - sum(
            g * (Cj @ (Zl * w)) for g, Cj, w in zip(layer.gamma_j, layer.C, Pi.weights)
        )
        grad = rate_gradient(Zl, Pi, RateParams.compute(Z.shape[0], Pi, 0.5))
        assert np.max(np.abs(labeled - grad)) <= 1e-9


def test_layer_operators_match_rate_reference():
    Z, Pi = _toy_problem(seed=12)
    model, _, _ = construct(Z, Pi, L=4, eta=0.5, eps=0.3)
    for layer, Zl in zip(model.layers, _layer_inputs(model, Z)):
        params = RateParams.compute(Z.shape[0], Pi, 0.3)
        assert layer.C.shape == (Pi.k, Z.shape[0], Z.shape[0])
        np.testing.assert_allclose(layer.E, expansion_operator(Zl, params), rtol=0, atol=1e-12)
        for j, Cj in enumerate(layer.C):
            np.testing.assert_allclose(
                Cj, compression_operator(Zl, Pi, j, params), rtol=0, atol=1e-12
            )


def _in_one_stack(E, C, stack):
    """E and C are disjoint views that together make up all of ``stack``."""
    return (np.shares_memory(stack, E) and np.shares_memory(stack, C)
            and stack.nbytes == E.nbytes + C.nbytes)


@pytest.mark.parametrize("source", ["construct", "load_model", "deepcopy", "pickle"])
def test_layer_operators_are_views_of_one_stack(tmp_path, source):
    Z, Pi = _toy_problem(seed=10)
    model, _, _ = construct(Z, Pi, L=2, eta=0.5, eps=0.3)
    if source == "load_model":
        save_model(tmp_path / "model.rnm", model)
        model = load_model(tmp_path / "model.rnm")
    elif source != "construct":
        model = copy.deepcopy(model) if source == "deepcopy" else pickle.loads(pickle.dumps(model))
    for layer in model.layers:
        assert _in_one_stack(layer.E, layer.C, layer.stack)
    before = forward(model, Z)
    model.layers[1].E[...] *= 2.0
    assert not np.allclose(forward(model, Z), before)


def test_a_hand_built_layer_copies_its_arrays_into_its_own_stack():
    Z, Pi = _toy_problem(seed=11)
    model, _, _ = construct(Z, Pi, L=3, eta=0.5, eps=0.3)
    layers = tuple(DenseLayer(la.E.copy(), la.C.copy(), la.gamma_j) for la in model.layers)
    for la, lb in zip(model.layers, layers):
        assert _in_one_stack(lb.E, lb.C, lb.stack)
        assert not np.shares_memory(la.stack, lb.stack)
    np.testing.assert_array_equal(forward(replace(model, layers=layers), Z), forward(model, Z))


def test_construct_rejects_membership_of_another_sample_count():
    Z, _ = _toy_problem(n=3, k=3, per_class=1)
    Z = np.hstack([Z, Z[:, :1]])  # 4 samples, 3 labels
    with pytest.raises(ShapeError):
        construct(Z, Membership.from_labels([0, 1, 2]), L=1, eta=0.5, eps=0.3)


def test_output_columns_stay_on_sphere():
    Z, Pi = _toy_problem(seed=3)
    _, Z_out, _ = construct(Z, Pi, L=5, eta=1.0, eps=0.2)
    np.testing.assert_allclose(np.linalg.norm(Z_out, axis=0), 1.0, atol=1e-12)


def test_construct_rejects_unnormalized_input():
    Z, Pi = _toy_problem()
    with pytest.raises(DataError):
        construct(2.0 * Z, Pi, L=1, eta=0.5, eps=0.3)


def test_construct_requires_at_least_one_layer():
    Z, Pi = _toy_problem()
    with pytest.raises(DataError):
        construct(Z, Pi, L=0, eta=0.5, eps=0.3)


def test_estimated_membership_is_a_distribution():
    Z, Pi = _toy_problem(seed=4)
    model, _, _ = construct(Z, Pi, L=1, eta=0.5, eps=0.3)
    pi = estimate_membership(Z[:, 0], model.layers[0], model.lam)
    assert pi.shape == (Pi.k,)
    assert pi.min() >= 0
    assert pi.sum() == pytest.approx(1.0)


def test_zero_temperature_membership_is_uniform():
    Z, Pi = _toy_problem(seed=5)
    model, _, _ = construct(Z, Pi, L=1, eta=0.5, eps=0.3)
    pi = estimate_membership(Z[:, 0], model.layers[0], 0.0)
    np.testing.assert_allclose(pi, 1.0 / Pi.k)


def test_single_vector_increment_matches_batch():
    Z, Pi = _toy_problem(seed=6)
    model, _, _ = construct(Z, Pi, L=1, eta=0.5, eps=0.3)
    inc = layer_increment(Z[:, 2], model.layers[0], model.lam)
    assert inc.shape == (Z.shape[0],)


def test_a_held_out_component_outside_its_class_span_grows_when_eta_alpha_exceeds_2():
    # m_j = 2 < n = 6: C_0 leaves the directions outside class 0's span
    # uncompressed (eigenvalue alpha_0), and gamma_0 alpha_0 = alpha, so a
    # held-out sample softmin-assigned to class 0 has its component u inside
    # the data span but outside class 0's span scaled by 1 + eta (u'Eu - alpha)
    # per layer, while training samples have no such component
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((6, 4))
    Z /= np.linalg.norm(Z, axis=0)
    Pi = Membership.from_labels(np.array([0, 0, 1, 1]))
    eta, eps, lam = 0.5, 0.5, 500.0
    layer = construct(Z, Pi, L=1, eta=eta, eps=eps, lam=lam)[0].layers[0]
    params = RateParams.compute(6, Pi, eps)
    alpha, alpha_0 = params.alpha, params.alpha_j[0]
    assert (alpha, eta * alpha) == (6.0, 3.0)
    Q0 = np.linalg.qr(Z[:, :2])[0]
    u = Z[:, 2] - Q0 @ (Q0.T @ Z[:, 2])
    u /= np.linalg.norm(u)
    np.testing.assert_allclose(layer.C[0] @ u, alpha_0 * u, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(layer.gamma_j * params.alpha_j, alpha)
    z = Z[:, 0] + 0.05 * u
    z /= np.linalg.norm(z)
    np.testing.assert_array_equal(estimate_membership(z, layer, lam), [1.0, 0.0])
    predicted = u @ layer.E @ z - alpha * (u @ z)
    assert abs(u @ layer_increment(z, layer, lam) - predicted) < 1e-13
    assert abs(1 + eta * (u @ layer.E @ u - alpha)) > 1


def test_sphere_project():
    v = sphere_project(np.array([3.0, 4.0]))
    np.testing.assert_allclose(v, [0.6, 0.8])
    with pytest.raises(NumericError):
        sphere_project(np.zeros(2))


def test_forward_rejects_wrong_width():
    Z, Pi = _toy_problem()
    model, _, _ = construct(Z, Pi, L=1, eta=0.5, eps=0.3)
    with pytest.raises(ShapeError):
        forward(model, np.ones((Z.shape[0] + 1, 2)))


def test_model_round_trip_is_exact(tmp_path):
    Z, Pi = _toy_problem(seed=7)
    model, _, _ = construct(Z, Pi, L=3, eta=0.5, eps=0.3)
    path = tmp_path / "model.rnm"
    save_model(path, model)
    back = load_model(path)
    assert back.depth == model.depth
    np.testing.assert_array_equal(forward(back, Z), forward(model, Z))
    assert (back.eta, back.lam, back.eps) == (model.eta, model.lam, model.eps)
    for la, lb in zip(model.layers, back.layers):
        np.testing.assert_array_equal(la.E, lb.E)
        np.testing.assert_array_equal(la.gamma_j, lb.gamma_j)
        for Ca, Cb in zip(la.C, lb.C):
            np.testing.assert_array_equal(Ca, Cb)
    # saving the loaded model again is byte-identical
    path2 = tmp_path / "model2.rnm"
    save_model(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_size_is_predictable(tmp_path):
    # header 44 bytes + k gammas + L * (1 + k) * n * n doubles
    Z, Pi = _toy_problem(seed=8, n=3, k=3, per_class=4)
    model, _, _ = construct(Z, Pi, L=2, eta=0.5, eps=0.3)
    path = tmp_path / "model.rnm"
    save_model(path, model)
    assert path.stat().st_size == 44 + 8 * 3 + 2 * (1 + 3) * 3 * 3 * 8 == 644


def test_model_load_failures(tmp_path):
    Z, Pi = _toy_problem(seed=9)
    model, _, _ = construct(Z, Pi, L=1, eta=0.5, eps=0.3)
    path = tmp_path / "model.rnm"
    save_model(path, model)
    blob = path.read_bytes()

    bad = tmp_path / "bad.rnm"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(BadMagicError):
        load_model(bad)

    bad.write_bytes(blob[:4] + b"\x09\x00\x00\x00" + blob[8:])
    with pytest.raises(VersionError):
        load_model(bad)

    bad.write_bytes(blob[:-16])
    with pytest.raises(TruncatedFileError):
        load_model(bad)


def test_every_proper_prefix_of_a_model_file_is_truncated(tmp_path):
    Z, Pi = _toy_problem(seed=10, n=3, k=2, per_class=3)
    model, _, _ = construct(Z, Pi, L=2, eta=0.5, eps=0.3)
    path = tmp_path / "model.rnm"
    save_model(path, model)
    blob = path.read_bytes()
    bad = tmp_path / "prefix.rnm"
    for size in range(len(blob)):
        bad.write_bytes(blob[:size])
        with pytest.raises(TruncatedFileError):
            load_model(bad)
