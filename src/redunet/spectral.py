"""Shift- and translation-invariant network construction in the spectral domain.

Imposing invariance to cyclic shifts means working with the full shift
family of every multi-channel signal. The resulting expansion/compression
operators are (doubly) block circulant, so after a unitary DFT along the
signal axes they act frequency by frequency as small channel-space matrices.
Construction therefore only ever inverts C x C blocks, one per frequency.

Fourier convention: every transform here is numpy's with norm="ortho", the
unitary DFT, except the circular convolutions (lifting included), which run
through one real-input transform pair whose scalings cancel. Lifting kernels
are drawn at extent K and zero-padded to the signal extent by that transform.

Scaling convention: features are carried as unitary DFTs (Parseval holds, so
spherical normalization can be done in either domain), while the eigenvalues
of a circulant built from z are the UNSCALED DFT of z. The per-frequency
covariance of the shift family is therefore P * V(p) V(p)^H where P is the
number of frequencies; the factor is fixed by the explicit-circulant oracle
in the test suite.

The samples are real, so V(-p) = conj V(p), and the operators at -p are the
conjugates of those at p. The networks therefore run on half spectra: one
representative p of each conjugate pair, of weight w_p = 1 if p = -p (a
self-conjugate frequency) and 2 otherwise, carried as sqrt(w_p) V(p). Sums
of |.|^2 over a half spectrum are full-spectrum sums, and sum(w) is the full
count P. V(p) and the operators at self-conjugate frequencies are real, and
are kept exactly real.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import BadMagicError, DataError, FormatError, NumericError, ShapeError
from .rate import Membership, RateParams, check_whole
from .tensorio import ContainerReader

INV_MAGIC = b"RNS1"
INV_VERSION = 2

KIND_SHIFT1D = "shift1d"
KIND_TRANSLATE2D = "translate2d"
# each kind's signal axes; its RNS1 kind code is 1 + its index here, which is its number of axes
_KIND_AXES = {KIND_SHIFT1D: ("T",), KIND_TRANSLATE2D: ("H", "W")}


# ---------------------------------------------------------------------------
# DFT utilities and circulant structure


def dft_1d(x: np.ndarray) -> np.ndarray:
    """Unitary DFT along the last axis (1/sqrt(T) scaling)."""
    return np.fft.fft(x, axis=-1, norm="ortho")


def idft_1d(v: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dft_1d`."""
    return np.fft.ifft(v, axis=-1, norm="ortho")


def dft_2d(x: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT over the last two axes."""
    return np.fft.fft2(x, axes=(-2, -1), norm="ortho")


def idft_2d(v: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(v, axes=(-2, -1), norm="ortho")


def circulant(z: np.ndarray) -> np.ndarray:
    """T x T matrix whose column t is z cyclically shifted down by t;
    multiplication by it performs circular convolution with z."""
    z = np.asarray(z, dtype=float).ravel()
    T = z.size
    idx = (np.arange(T)[:, None] - np.arange(T)[None, :]) % T
    return z[idx]


def _convolve(kernels: np.ndarray, x: np.ndarray, spec: str, nd: int) -> np.ndarray:
    """Circular convolution of real arrays over the trailing ``nd`` axes,
    whose extents are those of ``x``: the real-input spectra are combined by
    ``einsum(spec, ...)``, so sums over other axes happen per frequency.
    Kernels of a smaller extent are zero-padded by the transform."""
    dims, axes = x.shape[-nd:], tuple(range(-nd, 0))
    kf = np.fft.rfftn(kernels, s=dims, axes=axes)
    xf = np.fft.rfftn(x, axes=axes)
    return np.fft.irfftn(np.einsum(spec, kf, xf), s=dims, axes=axes)


def _circular_convolve(kernel: np.ndarray, signal: np.ndarray, nd: int) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if signal.ndim < nd or kernel.shape[-nd:] != signal.shape[-nd:]:
        raise ShapeError(f"kernel extent {kernel.shape[-nd:]} differs from signal "
                         f"extent {signal.shape[-nd:]}")
    return _convolve(kernel, signal, "...,...->...", nd)


def circular_convolve_1d(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """z conv x on the cyclic group of order T, over the last axis of both."""
    return _circular_convolve(z, x, 1)


def circular_convolve_2d(kernel: np.ndarray, image: np.ndarray) -> np.ndarray:
    """2D circular convolution over the last two axes of ``image``."""
    return _circular_convolve(kernel, image, 2)


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0), applied entrywise, for tau >= 0."""
    if not tau >= 0:
        raise DataError(f"threshold must be nonnegative, got {tau}")
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


# ---------------------------------------------------------------------------
# Random-filter lifting


def _lift(X: np.ndarray, C: int, K: int, seed: int, tau: float, nd: int) -> np.ndarray:
    """(m, C_in, *dims) signals lifted to (m, C, *dims): circular convolution
    with seeded standard-normal (C, C_in) + (K,) * nd kernels, zero-padded to
    ``dims``, each output channel summing the responses over the input
    channels; then a soft threshold at ``tau``."""
    dims = X.shape[2:]
    C, K = check_whole(C, "C"), check_whole(K, "K", below=min(dims) + 1)
    kernels = np.random.default_rng(check_whole(seed, "seed", 0, math.inf)).standard_normal(
        (C, X.shape[1]) + (K,) * nd)
    return soft_threshold(_convolve(kernels, X, "kc...,mc...->mk...", nd), tau)


def lift_random_filters_1d(
    X: np.ndarray, C: int, K: int, seed: int, tau: float = 0.0
) -> np.ndarray:
    """Lift samples to C channels by circular convolution with seeded
    standard-normal kernels of length K (zero-padded to T), followed by a
    soft threshold at ``tau``.

    ``X`` may be (m, T) single-channel or (m, C_in, T) multi-channel; in the
    latter case each output channel sums the responses over input channels.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X = X[:, None, :]
    if X.ndim != 3:
        raise ShapeError("expected (m, T) or (m, C_in, T) input")
    return _lift(X, C, K, seed, tau, 1)


def lift_random_filters_2d(
    X: np.ndarray, C: int, K: int, seed: int, tau: float = 0.0
) -> np.ndarray:
    """2D analog of :func:`lift_random_filters_1d` for (m, H, W) images,
    with K x K kernels; returns (m, C, H, W)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ShapeError("expected (m, H, W) input")
    return _lift(X[:, None], C, K, seed, tau, 2)


# ---------------------------------------------------------------------------
# Spectral-domain model


@dataclass(frozen=True, eq=False, init=False)
class SpectralLayer(_engine.Layer):
    """E_hat (P', C, C) and C_hat (k, P', C, C), P' the representatives of
    the conjugate pairs, are views of the (P', 1 + k, C, C) stack.
    ``SpectralLayer(E_hat, C_hat, gamma_j)`` copies them into a new
    complex128 stack, after checking their shapes against gamma_j (k,) and
    that gamma_j is real; construction and loading make no copy."""

    def __init__(self, E_hat: np.ndarray, C_hat: np.ndarray, gamma_j: np.ndarray) -> None:
        super().__init__(*_engine.layer_stack(E_hat, C_hat, gamma_j, 1))

    @property
    def E_hat(self) -> np.ndarray:
        return self.stack[:, 0]

    @property
    def C_hat(self) -> np.ndarray:
        return self.stack[:, 1:].swapaxes(0, 1)


@dataclass(frozen=True)
class InvariantModel:
    """A stack of spectral layers with the facts that forward and the RNS1
    writer read beside them, checked at construction: a known ``kind`` and
    one extent >= 1 in ``dims`` per signal axis of that kind, then the model
    rule, :func:`redunet._engine.check_model`, against the (P', 1 + k,
    channels, channels) stack, P' the size of the half spectrum of ``dims``,
    and then real operators at its self-conjugate frequencies."""

    kind: str
    layers: tuple[SpectralLayer, ...]
    eta: float
    lam: float
    eps: float
    channels: int
    dims: tuple[int, ...]  # (T,) or (H, W)
    k: int

    def __post_init__(self) -> None:
        if self.kind not in _KIND_AXES:
            raise DataError(f"unknown model kind {self.kind!r}")
        axes = _KIND_AXES[self.kind]
        if len(self.dims) != len(axes) or not all(n >= 1 for n in self.dims):
            raise ShapeError(f"a {self.kind} model needs extents ({', '.join(axes)}) >= 1, "
                             f"got {self.dims}")
        shape = (_HalfSpectrum.size(self.dims), 1 + self.k, self.channels, self.channels)
        _engine.check_model(self.layers, shape, self.eta, self.lam, self.eps)
        _HalfSpectrum.of(self.dims).check_real(self.layers, DataError, "model")

    @property
    def depth(self) -> int:
        return len(self.layers)


def spectral_rate_reduction(
    V: np.ndarray, Pi: Membership, eps: float
) -> tuple[float, float, float]:
    """Shift-invariant rate reduction evaluated from full unitary spectra
    (P, C, m): the rates of the full shift family, divided by the number of
    copies it contains. The spectra must be finite, with every extent >= 1."""
    V = np.asarray(V)
    if V.ndim != 3 or not all(V.shape):
        raise ShapeError(f"expected (P, C, m) spectra with every extent >= 1, got shape {V.shape}")
    if not np.all(np.isfinite(V)):
        raise NumericError("spectra contain non-finite entries")
    share = np.full(len(V), 1 / len(V))
    params = RateParams.compute(V.shape[1], Pi, eps)
    return _engine.factor(V, share, Pi, params)[2]


@dataclass(frozen=True)
class _HalfSpectrum:
    """The half spectrum of real signals of extent ``dims``, on the rfftn grid
    ``shape`` = (*dims[:-1], dims[-1] // 2 + 1) flattened row-major. Only
    the edge columns 0 and dims[-1] / 2 hold both frequencies of a conjugate
    pair; of those the entry of larger index is dropped.

    keep: grid indices of the representatives, in grid order;
    w: their weights, 1 at self-conjugate frequencies and 2 elsewhere;
    dropped, partner: grid indices of the dropped entries and of their conjugates.
    """

    dims: tuple[int, ...]
    shape: tuple[int, ...]
    keep: np.ndarray
    w: np.ndarray
    dropped: np.ndarray
    partner: np.ndarray

    @classmethod
    def of(cls, dims: tuple[int, ...]) -> "_HalfSpectrum":
        shape = (*dims[:-1], dims[-1] // 2 + 1)
        grid = np.indices(shape).reshape(len(shape), -1)
        mirror = -grid % np.reshape(dims, (-1, 1))
        edge = mirror[-1] == grid[-1]
        # off the edge columns an entry stands for itself and its unseen conjugate
        conj = np.ravel_multi_index(np.where(edge, mirror, grid), shape)
        index = np.arange(conj.size)
        keep = conj >= index
        w = np.where(edge & (conj == index), 1.0, 2.0)
        return cls(tuple(dims), shape, np.flatnonzero(keep), w[keep], np.flatnonzero(~keep),
                   conj[~keep])

    @staticmethod
    def size(dims: tuple[int, ...]) -> int:
        """len(keep) without building the grid: sum(w) is the full count P,
        and the self-conjugate frequencies are those whose every coordinate
        is 0 or half its extent."""
        P = math.prod(dims)
        return (P + math.prod(2 - n % 2 for n in dims)) // 2 if P else 0

    @property
    def share(self) -> np.ndarray:
        """w / sum(w): the share of the full spectrum each representative stands for."""
        return self.w / self.w.sum()

    @property
    def real(self) -> np.ndarray:
        """Mask of the self-conjugate representatives."""
        return self.w == 1

    def check_real(self, layers, error: type[DataError], path) -> None:
        """RNS1 version 2 needs every operator real at the self-conjugate frequencies."""
        if any(np.any(layer.stack[self.real].imag != 0) for layer in layers):
            raise error(f"{path}: an operator at a self-conjugate frequency is not real")


def _to_spectral(Zbar: np.ndarray, half: _HalfSpectrum) -> np.ndarray:
    """(m, C, *half.dims) real -> (P, C, m) sqrt(w)-scaled unitary spectra at
    the representatives of ``half``, exactly real at self-conjugate frequencies."""
    m, C = Zbar.shape[:2]
    V = np.fft.rfftn(Zbar, axes=range(2, Zbar.ndim), norm="ortho").reshape(m, C, -1).T
    V = np.ascontiguousarray(V[half.keep])
    Vr = _engine._real(V)
    Vr *= np.sqrt(half.w)[:, None, None]
    V.imag[half.real] = 0.0
    return V


def _from_spectral(V: np.ndarray, half: _HalfSpectrum) -> np.ndarray:
    """Inverse of :func:`_to_spectral`: (P, C, m) -> (m, C, *half.dims) real.
    The representatives are divided by sqrt(w) straight into the grid, V
    left as it is, and each dropped entry is its partner's conjugate."""
    P, C, m = V.shape
    grid = np.empty((math.prod(half.shape), C, m), dtype=complex)
    _engine._real(grid)[half.keep] = _engine._real(V) / np.sqrt(half.w)[:, None, None]
    grid[half.dropped] = grid[half.partner].conj()
    grid = grid.T.reshape(m, C, *half.shape)
    return np.fft.irfftn(grid, s=half.dims, axes=range(2, grid.ndim), norm="ortho")


def normalize_samples_time(Zbar: np.ndarray) -> np.ndarray:
    """Scale every sample (first axis) to unit Frobenius norm."""
    Zbar = np.asarray(Zbar, dtype=float)
    norms = np.sqrt(np.sum(Zbar**2, axis=tuple(range(1, Zbar.ndim)), keepdims=True))
    if not np.all((norms > 0) & (norms < np.inf)):
        raise NumericError("cannot normalize a zero or non-finite sample")
    return Zbar / norms


def _construct_inv(
    kind: str, Zbar: np.ndarray, Pi: Membership, L: int, eta: float, eps: float, lam: float
) -> tuple[InvariantModel, np.ndarray, _engine.LossCurve]:
    Zbar = np.asarray(Zbar, dtype=float)
    axes = _KIND_AXES[kind]
    if Zbar.ndim != 2 + len(axes) or not all(Zbar.shape):
        raise ShapeError(f"expected (m, C, {', '.join(axes)}) input with m, C and extents >= 1")
    half = _HalfSpectrum.of(Zbar.shape[2:])
    layers, V, curve = _engine.construct(
        _to_spectral(Zbar, half), half.share, Pi, L, eta, eps, lam, SpectralLayer.on)
    model = InvariantModel(
        kind=kind,
        layers=tuple(layers),
        eta=eta,
        lam=lam,
        eps=eps,
        channels=Zbar.shape[1],
        dims=Zbar.shape[2:],
        k=Pi.k,
    )
    return model, _from_spectral(V, half), curve


def construct_inv1d(
    Zbar: np.ndarray, Pi: Membership, L: int, eta: float, eps: float, lam: float = 500.0
) -> tuple[InvariantModel, np.ndarray, _engine.LossCurve]:
    """Build the shift-invariant network from (m, C, T) unit-norm samples.

    All work happens on the per-frequency spectra; the returned features are
    transformed back to the time domain.
    """
    return _construct_inv(KIND_SHIFT1D, Zbar, Pi, L, eta, eps, lam)


def construct_inv2d(
    Zbar: np.ndarray, Pi: Membership, L: int, eta: float, eps: float, lam: float = 500.0
) -> tuple[InvariantModel, np.ndarray, _engine.LossCurve]:
    """2D analog of :func:`construct_inv1d` for (m, C, H, W) samples."""
    return _construct_inv(KIND_TRANSLATE2D, Zbar, Pi, L, eta, eps, lam)


def _forward_inv(kind: str, model: InvariantModel, Zbar: np.ndarray) -> np.ndarray:
    Zbar = np.asarray(Zbar, dtype=float)
    if model.kind != kind:
        raise ShapeError(f"model was built for {model.kind}, not {kind}")
    expected = (model.channels, *model.dims)
    if Zbar.shape[1:] != expected or not len(Zbar):
        raise ShapeError(f"expected (m, {', '.join(map(str, expected))}) input with m >= 1, "
                         f"got {Zbar.shape}")
    half = _HalfSpectrum.of(model.dims)
    b = _engine.samples_per_block(model.layers[0].stack)
    out = np.empty(Zbar.shape)
    for start in range(0, len(Zbar), b):
        rows = np.s_[start:start + b]
        V = _engine.forward(_to_spectral(Zbar[rows], half), model.layers, model.eta, model.lam)
        out[rows] = _from_spectral(V, half)
    return out


def forward_inv1d(model: InvariantModel, Zbar: np.ndarray) -> np.ndarray:
    """Evaluate the stored layers on new (m, C, T) samples; commutes exactly
    with cyclic shifts of the input.

    Each sample's output depends on that sample alone, so the samples are
    served block by block: a block of :func:`redunet._engine.samples_per_block`
    samples goes through the DFT, every layer and the inverse DFT into the
    output. The call holds its input, its output, the model and one block."""
    return _forward_inv(KIND_SHIFT1D, model, Zbar)


def forward_inv2d(model: InvariantModel, Zbar: np.ndarray) -> np.ndarray:
    """2D analog of :func:`forward_inv1d` for (m, C, H, W) samples, served
    block by block in the same way."""
    return _forward_inv(KIND_TRANSLATE2D, model, Zbar)


# ---------------------------------------------------------------------------
# RNS1 container


def save_invariant_model(path, model: InvariantModel) -> None:
    """RNS1 version 2: the operators at the representative frequencies of the
    half spectrum, complex entries stored as interleaved re/im float64."""
    header = INV_MAGIC + struct.pack(
        f"<IBI{len(model.dims)}I2I3d", INV_VERSION, len(_KIND_AXES[model.kind]), model.channels,
        *model.dims, model.k, model.depth, model.eta, model.lam, model.eps)
    _HalfSpectrum.of(model.dims).check_real(model.layers, DataError, path)
    _engine.write_layers(path, header, model.layers, "<c16")


def load_invariant_model(path) -> InvariantModel:
    """Read RNS1 version 2, or version 1, whose full-spectrum layers are cut
    to the half spectrum. A version-2 operator that is not real at a
    self-conjugate frequency raises FormatError."""
    with ContainerReader(path, INV_MAGIC, (1, INV_VERSION)) as r:
        (code,) = r.unpack("<B")
        if not 1 <= code <= len(_KIND_AXES):
            raise BadMagicError(f"{path}: unknown model kind {code}")
        kind = list(_KIND_AXES)[code - 1]
        (channels,) = r.unpack("<I")
        dims = r.unpack(f"<{len(_KIND_AXES[kind])}I")
        k, L, eta, lam, eps = r.unpack("<2I3d")
        P = math.prod(dims) if r.version == 1 else _HalfSpectrum.size(dims)
        layers = _engine.read_layers(r, "<c16", L, k, P, channels, SpectralLayer.on)
    # the grid is built only once the file has shown it holds the layers
    half = _HalfSpectrum.of(dims)
    if r.version == 1:  # cut each stack to the half spectrum, real where self-conjugate
        full_index = np.ravel_multi_index(np.unravel_index(half.keep, half.shape), dims)
        layers = tuple(SpectralLayer.on(la.stack[full_index], la.gamma_j) for la in layers)
        for layer in layers:
            layer.stack.imag[half.real] = 0.0
    half.check_real(layers, FormatError, path)
    return InvariantModel(
        kind=kind,
        layers=layers,
        eta=eta,
        lam=lam,
        eps=eps,
        channels=channels,
        dims=dims,
        k=k,
    )
