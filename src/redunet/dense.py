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
from .errors import NumericError, ShapeError
from .rate import Membership, _check_features
from .tensorio import ContainerReader

MODEL_MAGIC = b"RNM1"
MODEL_VERSION = 1


@dataclass(frozen=True)
class DenseLayer:
    """E is (n, n); C stacks the k compression operators as one (k, n, n)
    array, which iterates class by class."""

    E: np.ndarray
    C: np.ndarray
    gamma_j: np.ndarray

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        return self.E, self.C[:, None]


@dataclass(frozen=True)
class ReduNetModel:
    layers: tuple[DenseLayer, ...]
    eta: float
    lam: float
    eps: float
    n: int
    k: int

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
    _, C = layer.blocks
    return _engine.membership(C @ np.reshape(z, (1, -1, 1)), lam).ravel()


def layer_increment(z: np.ndarray, layer: DenseLayer, lam: float) -> np.ndarray:
    """E z - sum_j gamma_j pihat_j(z) C_j z for a single feature vector."""
    V = np.reshape(z, (1, -1, 1))
    return _engine.increment(V, *layer.blocks, layer.gamma_j, lam).ravel()


def _dense_layer(E: np.ndarray, C: np.ndarray, gamma: np.ndarray) -> DenseLayer:
    return DenseLayer(E=E[0], C=C[:, 0], gamma_j=gamma)


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
                                         _dense_layer)
    model = ReduNetModel(
        layers=tuple(layers), eta=eta, lam=lam, eps=eps, n=Z.shape[0], k=Pi.k
    )
    return model, V[0], curve


def forward(model: ReduNetModel, X: np.ndarray) -> np.ndarray:
    """Apply the stored layers to new unit-norm feature columns."""
    single = np.ndim(X) == 1
    Z = _check_features(np.reshape(X, (-1, 1)) if single else X)
    if Z.shape[0] != model.n:
        raise ShapeError(f"expected {model.n} rows, got {Z.shape[0]}")
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
        _engine.check_step(eta, lam)
        layers = _engine.read_layers(r, "<f8", L, k, 1, n, _dense_layer)
    return ReduNetModel(layers=layers, eta=eta, lam=lam, eps=eps, n=n, k=k)
