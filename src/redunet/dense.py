"""Forward construction and evaluation of the dense rate-reduction network.

Each layer stores the expansion operator and the per-class compression
operators built from the training features at that depth. Construction is
plain projected gradient ascent on the rate reduction, one layer per step,
with the per-sample class weights estimated by a softmin over compression
residual norms (never the labels, matching the stated construction).

A dense network is the real one-frequency case of the invariant network:
construction and evaluation run through the shared layer engine on the
stack ``Z[None]``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import NumericError
from .rate import Membership, _check_features
from .tensorio import ContainerReader

MODEL_MAGIC = b"RNM1"
MODEL_VERSION = 1


@dataclass(frozen=True, eq=False, init=False)
class DenseLayer(_engine.Layer):
    """E (n, n) and C, the k compression operators as one (k, n, n) array,
    are views of the (1, 1 + k, n, n) stack. ``DenseLayer(E, C, gamma_j)``
    copies them into a new float64 stack, after checking their shapes
    against gamma_j (k,) and that all three are real; construction and
    loading make no copy."""

    def __init__(self, E: np.ndarray, C: np.ndarray, gamma_j: np.ndarray) -> None:
        super().__init__(*_engine.layer_stack(E, C, gamma_j, 0))

    @property
    def E(self) -> np.ndarray:
        return self.stack[0, 0]

    @property
    def C(self) -> np.ndarray:
        return self.stack[0, 1:]


@dataclass(frozen=True)
class ReduNetModel:
    """A stack of dense layers with the step parameters that forward and the
    RNM1 writer read beside them, checked wherever it is made by the model
    rule, :func:`redunet._engine.check_model`, against the (1, 1 + k, n, n) stack."""

    layers: tuple[DenseLayer, ...]
    eta: float
    lam: float
    eps: float
    n: int
    k: int

    def __post_init__(self) -> None:
        _engine.check_model(self.layers, (1, 1 + self.k, self.n, self.n), self.eta, self.lam,
                            self.eps)

    @property
    def depth(self) -> int:
        return len(self.layers)


def sphere_project(z: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm; zero vectors are rejected."""
    norm = np.linalg.norm(z)
    if not 0 < norm < np.inf:
        raise NumericError("cannot project a zero or non-finite vector onto the sphere")
    return z / norm


def estimate_membership(z: np.ndarray, layer: DenseLayer, lam: float) -> np.ndarray:
    """Softmin over lam * ||C_j z||: entries in [0,1], summing to one."""
    _engine.check_step(lam=lam)
    V = _check_features(np.reshape(z, (-1, 1)), layer.stack.shape[-1])[None]
    return _engine.membership(_engine.class_products(layer.stack, V), lam).ravel()


def layer_increment(z: np.ndarray, layer: DenseLayer, lam: float) -> np.ndarray:
    """E z - sum_j gamma_j pihat_j(z) C_j z for a single feature vector."""
    _engine.check_step(lam=lam)
    V = _check_features(np.reshape(z, (-1, 1)), layer.stack.shape[-1])[None]
    return _engine.increment(V, layer.stack, layer.gamma_j, lam).ravel()


def construct(
    Z1: np.ndarray,
    Pi: Membership,
    L: int,
    eta: float,
    eps: float,
    lam: float = 500.0,
) -> tuple[ReduNetModel, np.ndarray, _engine.LossCurve]:
    """Build the network layer by layer from unit-norm training features.

    Returns the model, the final features, and the per-layer loss curve
    (R, Rc, dR) recorded before each update, so entry 0 describes the input.
    """
    Z = _check_features(Z1)
    layers, V, curve = _engine.construct(Z[None], np.ones(1), Pi, L, eta, eps, lam,
                                         DenseLayer.on)
    model = ReduNetModel(
        layers=tuple(layers), eta=eta, lam=lam, eps=eps, n=Z.shape[0], k=Pi.k
    )
    return model, V[0], curve


def forward(model: ReduNetModel, X: np.ndarray) -> np.ndarray:
    """Apply the stored layers to new unit-norm feature columns."""
    single = np.ndim(X) == 1
    Z = _check_features(np.reshape(X, (-1, 1)) if single else X, model.n)
    out = _engine.forward(Z[None], model.layers, model.eta, model.lam)[0]
    return out.ravel() if single else out


def save_model(path, model: ReduNetModel) -> None:
    """RNM1 container: header, gammas, then per layer E and C^1..C^k."""
    header = MODEL_MAGIC + struct.pack("<4I3d", MODEL_VERSION, model.depth, model.n, model.k,
                                       model.eta, model.lam, model.eps)
    _engine.write_layers(path, header, model.layers, "<f8")


def load_model(path) -> ReduNetModel:
    with ContainerReader(path, MODEL_MAGIC, (MODEL_VERSION,)) as r:
        L, n, k, eta, lam, eps = r.unpack("<3I3d")
        layers = _engine.read_layers(r, "<f8", L, k, 1, n, DenseLayer.on)
    return ReduNetModel(layers=layers, eta=eta, lam=lam, eps=eps, n=n, k=k)
