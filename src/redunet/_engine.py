"""The one layer engine behind the dense and the invariant networks.

Every ReduNet layer is one closed-form gradient step on the rate reduction.
The engine takes that step on a stack ``V`` of shape (P, d, m): P
frequencies of d-dimensional features for m samples. Frequency p stands
for w_p frequencies of a full spectrum that share one operator; its slice
is scaled by sqrt(w_p), so sums of |V|^2 over the stack are full-spectrum
sums. The engine takes the weights as the shares s_p = w_p / sum(w) of the
full spectrum, which sum to 1. A dense network is the
real one-frequency case and passes its (n, m) features as ``Z[None]`` with
s = [1]; an invariant network passes one frequency per conjugate pair of its
samples' spectra (complex).

Per layer the whole-set matrix and the k class matrices

    A_j(p) = I + (a_j / s_p) V(p) W_j V(p)^H      (W_0 = I, W_j = diag(Pi_j))

are filled into one (1 + k, P, d, d) stack and Cholesky-factored once. The
s-weighted log-diagonal of that factor gives the loss-curve entry, and its
inverse gives the operators a_j A_j^-1 = a_j L^-H L^-1. The weights enter
only there, in :func:`factor` and :func:`rates`: the update, the residual
norms of the softmin and the renormalization are sums over the scaled
stack and need no weights. :mod:`redunet.rate` is the readable per-matrix
reference the engine is tested against.

The update of a sample depends on that sample alone: its increment and its
softmin membership read only its own column. :func:`step` therefore takes
the update on blocks of samples, sized so that one block's (k, P, d, b)
class products C_j V fit in STEP_BLOCK_BYTES. Construction and serving
hold the batch, its update and one block, not k copies of the batch.

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
STEP_BLOCK_BYTES = 16 << 20  # one block's class products C_j V in step(); see there


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


def factor(V: np.ndarray, share: np.ndarray, Pi: Membership,
           eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients a_j (a_0 for the whole set) and the Cholesky factors
    of the (1 + k, P, d, d) stack for frequency shares ``share``. Empty classes
    get a_j = 0, so their block is the identity and adds nothing to the rate."""
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
    for j, pi_j in enumerate(Pi.weights, start=1):
        np.matmul(V * pi_j, Vh, out=A[j])
    A *= np.divide.outer(coef, share)[:, :, None, None]
    A += np.eye(d)
    try:
        return coef, np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError("operator argument lost positive definiteness") from exc


def rates(L: np.ndarray, share: np.ndarray, gamma: np.ndarray) -> tuple[float, float, float]:
    """(R, Rc, dR) from the factors: row j contributes sum_p s_p logdet(A_j(p))
    / 2, the rate of the whole shift family divided by its copies."""
    half_logdet = np.log(np.diagonal(L, axis1=-2, axis2=-1).real).sum(axis=-1) @ share
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
    """One layer: V + eta * increment, renormalized to unit sample norm.

    The update is taken on blocks of b samples, b the most (at least one)
    whose (k, P, d, b) class products fit in STEP_BLOCK_BYTES, and renormalized
    in place. A batch that fits one block, m * k * P * d * itemsize <=
    STEP_BLOCK_BYTES, gets the values of the unblocked update bit for bit: the
    same operations run on the same operands. A zero or non-finite norm raises
    NumericError, so callers silence numpy's warnings."""
    E, C = layer.blocks
    P, d, m = V.shape
    per_sample = len(layer.gamma_j) * P * d * np.result_type(V, C).itemsize
    b = max(1, STEP_BLOCK_BYTES // max(1, per_sample))
    out = np.empty(V.shape, np.result_type(V, E, C))
    for start in range(0, m, b):
        cols = np.s_[..., start:start + b]
        dV = increment(V[cols], E, C, layer.gamma_j, lam)
        dV *= eta
        np.add(V[cols], dV, out=out[cols])
    norms = np.sqrt(_sq_norms(out, "pax,pax->x"))
    if not np.all((norms > 0) & (norms < np.inf)):
        raise NumericError("a sample collapsed to zero or became non-finite during the update")
    out /= norms
    return out


def construct(V: np.ndarray, share: np.ndarray, Pi: Membership, L: int, eta: float,
              eps: float, lam: float, make_layer) -> tuple[list, np.ndarray, LossCurve]:
    """Build L layers from unit-norm samples with frequency shares ``share``.
    ``make_layer(E, C, gamma)`` wraps the operators; the output is produced by :func:`step` on the
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
            coef, Lf = factor(V, share, Pi, eps)
            curve[i] = rates(Lf, share, gamma)
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
        fh.write(np.ascontiguousarray(layers[0].gamma_j, dtype="<f8"))
        for layer in layers:
            for block in layer.blocks:
                fh.write(np.ascontiguousarray(block, dtype=dtype))


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
