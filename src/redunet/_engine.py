"""The one layer engine behind the dense and the invariant networks.

Every ReduNet layer is one closed-form gradient step on the rate reduction.
The engine takes that step on a stack ``V`` of shape (P, d, m): P
frequencies of d-dimensional features for m samples. A dense network is the
real one-frequency case and passes its (n, m) features as ``Z[None]``; an
invariant network passes the unitary spectra of its samples (complex).

Per layer the whole-set matrix and the k class matrices

    A_j = I + a_j P V W_j V^H      (W_0 = I, W_j = diag(Pi_j))

are filled into one (1 + k, P, d, d) stack and Cholesky-factored once. The
log-diagonal of that factor gives the loss-curve entry, and its inverse
gives the operators a_j A_j^-1 = a_j L^-H L^-1. :mod:`redunet.rate` is the
readable per-matrix reference the engine is tested against.

A layer is any object with ``gamma_j`` and ``blocks``, the pair (E, C) in
stack layout: E broadcasts against (P, d, d) and C against (k, P, d, d).
The RNM1 and RNS1 containers store layers in that layout (:func:`write_layers`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .rate import Membership, check_eps

UNIT_NORM_TOL = 1e-9


def _herm(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (a view for real input)."""
    Xt = np.swapaxes(X, -1, -2)
    return Xt.conj() if np.iscomplexobj(Xt) else Xt


def _sq_norms(X: np.ndarray, subscripts: str) -> np.ndarray:
    """Sums of |x|^2 by ``einsum(subscripts, X, X)``, whose last index is the
    sample. Complex entries are read as (re, im) pairs along that axis, so
    no temporary of the size of X is made."""
    Xr = X.view(np.float64)
    s = np.einsum(subscripts, Xr, Xr)
    if np.iscomplexobj(X):
        s = s.reshape(*s.shape[:-1], -1, 2).sum(axis=-1)
    return s


@dataclass(frozen=True, eq=False)
class LossCurve(Sequence):
    """Per-layer (R, Rc, dR) of a construction; entry i describes the input
    of layer i. Entries read as tuples of floats but are kept as one (L, 3)
    array: a sixth of the memory of L tuples, for callers that keep the
    curves of many deep constructions."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        row = self.values[i]
        return tuple(row.tolist()) if row.ndim == 1 else LossCurve(row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def check_step(eta: float = 1.0, lam: float = 0.0) -> None:
    """The step rule every layer obeys: a finite step size eta > 0 and a
    finite softmin temperature lam >= 0."""
    if not (0 < eta < np.inf and 0 <= lam < np.inf):
        raise DataError(f"need 0 < eta < inf and 0 <= lambda < inf, got {eta} and {lam}")


def factor(V: np.ndarray, Pi: Membership, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients a_j (a_0 for the whole set) and the Cholesky factors
    of the (1 + k, P, d, d) stack. Empty classes get a_j = 0, so their block
    is the identity and adds nothing to the rate."""
    P, d, m = V.shape
    if Pi.m != m:
        raise ShapeError(f"membership covers {Pi.m} samples, features have {m}")
    check_eps(eps)
    sizes = np.concatenate(([m], Pi.class_sizes))
    with np.errstate(divide="ignore"):
        coef = np.where(sizes > 0, d / (sizes * eps**2), 0.0)
    Vh = _herm(V)
    A = np.empty((1 + Pi.k, P, d, d), dtype=V.dtype)
    np.matmul(V, Vh, out=A[0])
    for j, w in enumerate(Pi.weights, start=1):
        np.matmul(V * w, Vh, out=A[j])
    A *= (coef * P)[:, None, None, None]
    A += np.eye(d)
    try:
        return coef, np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError("operator argument lost positive definiteness") from exc


def rates(L: np.ndarray, gamma: np.ndarray) -> tuple[float, float, float]:
    """(R, Rc, dR) from the factors: row j contributes logdet(A_j) / (2P),
    which is the rate of the whole shift family divided by its P copies."""
    half_logdet = np.log(np.diagonal(L, axis1=-2, axis2=-1).real).sum(axis=(1, 2))
    half_logdet /= L.shape[1]
    R = float(half_logdet[0])
    Rc = float(gamma @ half_logdet[1:])
    return R, Rc, R - Rc


def operators(coef: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expansion (P, d, d) and compression (k, P, d, d) operators
    a_j L^-H L^-1 from one inverse of the whole factor stack."""
    Linv = np.linalg.inv(L)
    Lh = _herm(Linv)
    E = Lh[0] @ Linv[0]
    E *= coef[0]
    C = Lh[1:] @ Linv[1:]
    C *= coef[1:, None, None, None]
    return E, C


def membership(CV: np.ndarray, lam: float) -> np.ndarray:
    """Softmin over lam * ||C_j v||, the class residual norms aggregated over
    every frequency; CV is (k, P, d, m), the result (k, m)."""
    scaled = lam * np.sqrt(_sq_norms(CV, "jpax,jpax->jx"))
    w = np.exp(-(scaled - scaled.min(axis=0)))
    return w / w.sum(axis=0)


def increment(V: np.ndarray, E: np.ndarray, C: np.ndarray, gamma: np.ndarray,
              lam: float) -> np.ndarray:
    """E V - sum_j gamma_j pihat_j C_j V with memberships from the softmin."""
    CV = C @ V
    CV *= (gamma[:, None] * membership(CV, lam))[:, None, None, :]
    return E @ V - CV.sum(axis=0)


def step(V: np.ndarray, layer, eta: float, lam: float) -> np.ndarray:
    """One layer: V + eta * increment, renormalized to unit sample norm. A zero
    or non-finite norm raises NumericError, so callers silence numpy's warnings."""
    V = V + eta * increment(V, *layer.blocks, layer.gamma_j, lam)
    norms = np.sqrt(_sq_norms(V, "pax,pax->x"))
    if not np.all((norms > 0) & (norms < np.inf)):
        raise NumericError("a sample collapsed to zero or became non-finite during the update")
    return V / norms


def construct(V: np.ndarray, Pi: Membership, L: int, eta: float, eps: float,
              lam: float, make_layer) -> tuple[list, np.ndarray, LossCurve]:
    """Build L layers from unit-norm samples. ``make_layer(E, C, gamma)``
    wraps the operators; the output is produced by :func:`step` on the
    stored layer, exactly as :func:`forward` replays it. The loss curve
    entry of each layer describes its input."""
    if L < 1:
        raise DataError("at least one layer is required")
    check_step(eta, lam)
    norms = np.sqrt(_sq_norms(V, "pax,pax->x"))
    if not np.all(np.isfinite(norms)):
        raise NumericError("features contain non-finite entries")
    if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
        raise DataError("every sample must have unit norm")
    if not np.all(Pi.class_sizes > 0):
        raise DataError("every class must have nonzero total membership")
    gamma = Pi.class_sizes / Pi.m
    layers, curve = [], np.empty((L, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(L):
            coef, Lf = factor(V, Pi, eps)
            curve[i] = rates(Lf, gamma)
            layers.append(make_layer(*operators(coef, Lf), gamma))
            V = step(V, layers[-1], eta, lam)
    return layers, V, LossCurve(curve)


def forward(V: np.ndarray, layers, eta: float, lam: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in layers:
            V = step(V, layer, eta, lam)
    return V


def write_layers(path, header: bytes, layers, dtype: str) -> None:
    """A model container: ``header``, then the layer stream, which is gamma
    as float64 and per layer E and C^1..C^k in stack layout as ``dtype``."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(layers[0].gamma_j, dtype="<f8").tobytes())
        for layer in layers:
            for block in layer.blocks:
                fh.write(np.ascontiguousarray(block, dtype=dtype).tobytes())


def read_layers(r, dtype: str, L: int, k: int, P: int, d: int, make_layer) -> tuple:
    """Inverse of :func:`write_layers` from a ContainerReader positioned after
    the header; the stream must end the file. Layers are made by
    ``make_layer(E, C, gamma)``, as in :func:`construct`."""
    if P * d == 0:
        raise ShapeError(f"{r.path}: a model needs nonempty layer blocks")
    gamma = r.array("<f8", (k,))
    r.require(L * (1 + k) * P * d * d * np.dtype(dtype).itemsize)
    layers = tuple(make_layer(r.array(dtype, (P, d, d)), r.array(dtype, (k, P, d, d)), gamma)
                   for _ in range(L))
    r.end()
    return layers
