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

    A_0(p) = I + (a_0 / s_p) V(p) V(p)^H,   A_j(p) = I + (a_j / s_p) U_j(p) U_j(p)^H

are filled into one (P, 1 + k, d, d) stack A and Cholesky-factored once. U_j
is class j's own columns of V (:meth:`redunet.rate.Membership.columns`):
for labels a view of V when the class is contiguous, else a gather, and for
soft weights the columns of nonzero pi_j scaled by sqrt(pi_j); so U_j U_j^H =
V diag(Pi_j) V^H, and class j's product reads its m_j samples, not all m. The
coefficients a_0 = alpha, a_j = alpha_j and the class shares gamma_j come
from :class:`redunet.rate.RateParams`, computed once per construction,
where an empty class has alpha_j = 0, so its block is the identity. The
s-weighted log-diagonal of that factor gives the loss-curve entry and its
success the definiteness check; nothing else reads it. The operators
a_j A_j^-1, the paper's closed forms, are one inverse of A scaled in place
by a_j, a stack of the same shape: the expansion operator E is its row 0
and the compression operators C its rows 1..k, both views of it.
Each frequency's k class operators are thus one contiguous (k d, d) matrix,
so the class products C_j V of all classes are one matrix product per
frequency (:func:`class_products`), read by the softmin and the weighted
sum as one (P, k, d, b) block. The weights enter
only there and in :func:`factor`: the update, the residual
norms of the softmin and the renormalization are sums over the scaled
stack and need no weights. :mod:`redunet.rate` is the readable per-matrix
reference the engine is tested against.

The update of a sample depends on that sample alone: its increment and its
softmin membership read only its own column. :func:`step` therefore takes
the update on blocks of samples, sized from the layer's operator stack so
that one block's (P, k, d, b) class products C_j V fit in STEP_BLOCK_BYTES
(:func:`samples_per_block`, the one reader of that budget). Construction
and the dense forward hold the batch, its update and one block, not k
copies of the batch; the invariant forward takes each block through every
layer in turn, so it holds its input, its output and one block.
Every scaling by a real factor in the update (the class weights gamma_j
pihat_j, eta and the sample norms) runs on the float64 view of the stack,
where complex entries are (re, im) pairs along the sample axis and the
per-sample factors are repeated to match; a real stack is its own view.

A layer (:class:`Layer`) is its (P, 1 + k, d, d) operator stack and gamma_j;
the layers of :mod:`redunet.dense` and :mod:`redunet.spectral` subclass it
with E and C as views of the stack, so writing through them changes the
layer. The engine and the loaders make each layer on its stack without a
copy (:meth:`Layer.on`); only a layer built by hand from separate E and C
copies them into a new stack by :func:`layer_stack`, the one check of
hand-built layers. The RNM1 and RNS1 containers store each layer
class-major, E then C^1..C^k, each over every frequency: the stack
transposed to (1 + k, P, d, d) (:func:`write_layers`). :func:`read_layers`
transposes it back once, which for a dense (P = 1) layer moves no data.
A model is its layers, which share one gamma_j that the containers store
once, and eta, lambda and eps: :func:`check_model` holds that rule for
both kinds of model, wherever one is made.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .rate import Membership, RateParams, _as_float, _as_real, _cholesky, check_whole

UNIT_NORM_TOL = 1e-9
STEP_BLOCK_BYTES = 16 << 20  # one block's class products C_j V; see samples_per_block()
SOFTMIN_FLUSH = np.exp(-460.0)  # smaller softmin weights (about 1e-200) are 0; see membership()


def _herm(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (a view for real input, whose
    ``conj`` is the array itself)."""
    return np.swapaxes(X, -1, -2).conj()


def _real(X: np.ndarray) -> np.ndarray:
    """X as float64: a complex (..., m) array reads as (..., 2m), its (re, im)
    pairs along the last axis; a real array is itself."""
    return X.view(np.float64)


def _per_entry(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-sample factors w (..., m) laid out along the last axis of
    ``_real(X)``: each repeated for its (re, im) pair if X is complex, w
    itself (no copy) if X is real."""
    return np.repeat(w, 2, axis=-1) if np.iscomplexobj(X) else w


def _sq_norms(X: np.ndarray, subscripts: str) -> np.ndarray:
    """Sums of |x|^2 by ``einsum(subscripts, X, X)``, whose last index is the
    sample. Complex entries are read as (re, im) pairs along that axis, so
    no temporary of the size of X is made."""
    Xr = _real(X)
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


@dataclass(frozen=True, eq=False)
class Layer:
    """A layer as :func:`step` reads it: its operator stack and gamma_j."""

    stack: np.ndarray
    gamma_j: np.ndarray

    @classmethod
    def on(cls, stack: np.ndarray, gamma_j: np.ndarray) -> "Layer":
        """A layer of this class on ``stack`` itself: no copy is made."""
        layer = object.__new__(cls)
        Layer.__init__(layer, stack, gamma_j)
        return layer


def layer_stack(E, C, gamma_j, nf: int) -> tuple[np.ndarray, np.ndarray]:
    """The checked copy of a hand-built layer: E (*F, d, d) and C (k, *F, d, d),
    F being nf frequency axes (none if dense) of product P, in a new (P, 1 + k,
    d, d) stack of float64 if dense, else complex128, and gamma_j (k,), k >= 1,
    as float64; an operand that does not cast to its type same_kind is refused."""
    e, c, g = np.shape(E), np.shape(C), np.shape(gamma_j)
    if not (len(e) == nf + 2 and e[-2] == e[-1] and len(g) == 1 and g[0] >= 1 and c == g + e):
        F = "P, " * nf
        raise ShapeError(f"need E ({F}d, d), C (k, {F}d, d) and gamma_j (k,) with k >= 1, "
                         f"got {e}, {c} and {g}")
    message = "a layer needs real gamma_j and numeric E and C, a dense layer real ones"
    E, C = (_as_real(X, message, np.complex128 if nf else np.float64) for X in (E, C))
    M = np.concatenate(([E], C)).reshape((1 + g[0], np.prod(e[:nf], dtype=int)) + e[-2:])
    return np.ascontiguousarray(M.swapaxes(0, 1)), _as_real(gamma_j, message)


def check_step(eta: float = 1.0, lam: float = 0.0) -> None:
    """The step rule every layer obeys: a finite step size eta > 0 and a
    finite softmin temperature lam >= 0."""
    if not (0 < _as_float(eta, "eta") < np.inf and 0 <= _as_float(lam, "lambda") < np.inf):
        raise DataError(f"need 0 < eta < inf and 0 <= lambda < inf, got {eta} and {lam}")


def check_model(layers, shape: tuple, eta: float, lam: float, eps: float) -> None:
    """The model rule: the step rule, 0 < eps < inf, a layer, a class, nonempty
    blocks, every operator stack of the (P, 1 + k, d, d) ``shape`` the fields
    imply and layer 0's gamma_j in every layer, which RNM1/RNS1 store once."""
    check_step(eta, lam)
    if not 0 < _as_float(eps, "eps") < np.inf:
        raise DataError(f"need 0 < eps < inf, got {eps}")
    if not layers or shape[1] < 2 or 0 in shape:
        raise ShapeError(f"a model needs a layer, a class and nonempty blocks, got "
                         f"{len(layers)} layers of shape {shape}")
    gamma = layers[0].gamma_j
    for i, layer in enumerate(layers):
        if layer.stack.shape != shape:
            raise ShapeError(f"layer {i} has operator stack shape {layer.stack.shape}, not {shape}")
        if not (layer.gamma_j is gamma or np.array_equal(layer.gamma_j, gamma)):
            raise DataError(f"layer {i} has other class shares gamma_j than layer 0")


def factor(V: np.ndarray, share: np.ndarray, Pi: Membership,
           params: RateParams) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float]]:
    """The coefficients a_j, the filled (P, 1 + k, d, d) stack A for frequency
    shares ``share`` and the (R, Rc, dR) on the diagonal of A's Cholesky
    factor, which is made, checked (NumericError where A is not positive
    definite) and dropped here: a_0 = alpha and a_j = alpha_j from ``params``,
    0 for an empty class, whose block is the identity and adds nothing to the
    rate. Class j's block is filled from its own columns U_j of V
    (:meth:`Membership.columns`) as U_j U_j^H. Row j adds sum_p s_p
    logdet(A_j(p)) / 2, the rate of the whole shift family over its copies."""
    P, d, _ = V.shape
    coef = np.concatenate(([params.alpha], params.alpha_j))
    A = np.empty((P, 1 + Pi.k, d, d), dtype=V.dtype)
    np.matmul(V, _herm(V), out=A[:, 0])
    for j in range(Pi.k):
        U = Pi.columns(V, j)[0]
        np.matmul(U, _herm(U), out=A[:, 1 + j])
    A *= (coef / share[:, None])[:, :, None, None]
    A += np.eye(d)
    logs = np.log(np.diagonal(_cholesky(A), axis1=-2, axis2=-1).real).sum(axis=-1)
    half_logdet = np.ascontiguousarray(logs.T) @ share
    R = float(half_logdet[0])
    Rc = float(params.gamma_j @ half_logdet[1:])
    return coef, A, (R, Rc, R - Rc)


def operators(coef: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The (P, 1 + k, d, d) operator stack a_j A^-1 from one inverse of the
    filled stack A, scaled in place: the expansion operator E at row 0 and
    the compression operators C at rows 1..k."""
    M = np.linalg.inv(A)
    M *= coef[:, None, None]
    return M


def class_products(S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """C_j V for every class of the stack S as one (P, k, d, b) block, from V
    (P, d, b): per frequency, one product of the k class operators, a (k d, d)
    view of S, with V(p)."""
    P, k1, d, _ = S.shape
    return (S[:, 1:].reshape(P, (k1 - 1) * d, d) @ V).reshape(P, k1 - 1, d, -1)


def membership(CV: np.ndarray, lam: float) -> np.ndarray:
    """Softmin over lam * ||C_j v||, the class residual norms aggregated over
    every frequency; CV is the (P, k, d, m) block of :func:`class_products`,
    the result (k, m).

    An unnormalized weight exp(-gap), with gap = lam ||C_j v|| - min_i lam
    ||C_i v||, below SOFTMIN_FLUSH = e^-460 (about 1e-200; a gap above 460)
    is set to exactly 0. That keeps subnormal weights, which slow the
    weighted sum by an order of magnitude, out of the update, and it changes
    no rounded result: the largest unnormalized weight is exactly 1, so a
    flushed term is more than 10^183 times smaller than half an ulp of the
    sums it joins, unless such a sum cancels to about 1e-184."""
    scaled = lam * np.sqrt(_sq_norms(CV, "pjax,pjax->jx"))
    w = np.exp(scaled.min(axis=0) - scaled)
    if w.min() < SOFTMIN_FLUSH:  # one reduction where nothing is flushed, not a full mask
        np.putmask(w, w < SOFTMIN_FLUSH, 0.0)
    return w / w.sum(axis=0)


def increment(V: np.ndarray, S: np.ndarray, gamma: np.ndarray, lam: float) -> np.ndarray:
    """E V - sum_j gamma_j pihat_j C_j V for the operator stack S, with
    memberships from the softmin. The class products are one (P, k, d, b)
    block (:func:`class_products`) and E V its own (P, d, b) product; the
    class-weighted sum is one real einsum over the float64 views, the
    per-sample weights repeated to the (re, im) pairs."""
    CV = class_products(S, V)
    weights = _per_entry(gamma[:, None] * membership(CV, lam), CV)
    dV = S[:, 0] @ V
    dVr = _real(dV)
    dVr -= np.einsum("pjax,jx->pax", _real(CV), weights)
    return dV


def samples_per_block(S: np.ndarray) -> int:
    """The most samples b, at least one, whose (P, k, d, b) class products
    C_j V fit in STEP_BLOCK_BYTES, sized from the (P, 1 + k, d, d) operator
    stack S and its itemsize."""
    P, k1, d, _ = S.shape
    return max(1, STEP_BLOCK_BYTES // max(1, (k1 - 1) * P * d * S.itemsize))


def step(V: np.ndarray, layer, eta: float, lam: float, index: int) -> np.ndarray:
    """Layer ``index``: V + eta * increment, renormalized to unit sample norm.

    The update is taken on blocks of :func:`samples_per_block` samples. Per
    block it makes the class products C_j V, one product per frequency, and
    E V, subtracts the weighted sum of the class
    products, scales by eta and adds V into the output; then one pass finds
    the sample norms and one divides by them. Every scaling by a real factor
    (weights, eta, norms) runs on the float64 views, so a complex stack is
    never multiplied or divided as complex; the sum V + eta * increment is a
    plain add. A batch of at most ``samples_per_block(layer.stack)`` samples
    gets the values of the unblocked update bit for bit: the same operations
    run on the same operands. A zero or non-finite norm raises
    NumericError naming the layer, so callers silence numpy's warnings."""
    S = layer.stack
    out = np.empty(V.shape, np.result_type(V, S))
    b = samples_per_block(S)
    for start in range(0, V.shape[-1], b):
        cols = np.s_[..., start:start + b]
        dV = increment(V[cols], S, layer.gamma_j, lam)
        dVr = _real(dV)
        dVr *= eta
        np.add(V[cols], dV, out=out[cols])
    norms = np.sqrt(_sq_norms(out, "pax,pax->x"))
    if not (norms.min() > 0 and norms.max() < np.inf):  # a NaN fails both
        raise NumericError(f"layer {index}: a sample collapsed to zero or became non-finite "
                           "during the update")
    outr = _real(out)
    outr /= _per_entry(norms, out)
    return out


def construct(V: np.ndarray, share: np.ndarray, Pi: Membership, L: int, eta: float,
              eps: float, lam: float, make_layer) -> tuple[list, np.ndarray, LossCurve]:
    """Build L layers from unit-norm samples with frequency shares ``share``.
    ``make_layer(stack, gamma)`` makes each layer on the stack of :func:`operators`;
    the output is produced by :func:`step` on the stored layer, exactly as
    :func:`forward` replays it. The loss curve entry of each layer describes its input."""
    L = check_whole(L, "layer count L")
    check_step(eta, lam)
    norms = np.sqrt(_sq_norms(V, "pax,pax->x"))
    if not np.all(np.isfinite(norms)):
        raise NumericError("features contain non-finite entries")
    if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
        raise DataError("every sample must have unit norm")
    if not np.all(Pi.class_sizes > 0):
        raise DataError("every class must have nonzero total membership")
    params = RateParams.compute(V.shape[1], Pi, eps)
    layers, curve = [], np.empty((L, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(L):
            coef, A, curve[i] = factor(V, share, Pi, params)
            layers.append(make_layer(operators(coef, A), params.gamma_j))
            V = step(V, layers[-1], eta, lam, i)
    return layers, V, LossCurve(curve)


def forward(V: np.ndarray, layers, eta: float, lam: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(layers):
            V = step(V, layer, eta, lam, i)
    return V


def write_layers(path, header: bytes, layers, dtype: str) -> None:
    """A model container: ``header``, then the layer stream, which is gamma
    as float64 and per layer E and C^1..C^k, each (P, d, d), as ``dtype``:
    the operator stack transposed to (1 + k, P, d, d)."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(layers[0].gamma_j, dtype="<f8"))
        for layer in layers:
            fh.write(np.ascontiguousarray(layer.stack.swapaxes(0, 1), dtype=dtype))


def read_layers(r, dtype: str, L: int, k: int, P: int, d: int, make_layer) -> tuple:
    """Inverse of :func:`write_layers` from a ContainerReader positioned after
    the header; the stream must end the file. Each layer is read as one
    (1 + k, P, d, d) array, and ``make_layer(stack, gamma)`` makes the layer
    on its contiguous transpose: a view of it for P = 1, else its one copy."""
    if L * P * d == 0:  # no bytes to read: the file would bound neither L nor P
        raise ShapeError(f"{r.path}: a model needs a layer and nonempty layer blocks")
    gamma = r.array("<f8", (k,))
    r.require(L * (1 + k) * P * d * d * np.dtype(dtype).itemsize)
    stacks = (r.array(dtype, (1 + k, P, d, d)) for _ in range(L))
    layers = tuple(make_layer(np.ascontiguousarray(M.swapaxes(0, 1)), gamma) for M in stacks)
    r.end()
    return layers
