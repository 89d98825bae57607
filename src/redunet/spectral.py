"""Shift- and translation-invariant network construction in the spectral domain.

Imposing invariance to cyclic shifts means working with the full shift
family of every multi-channel signal. The resulting expansion/compression
operators are (doubly) block circulant, so after a unitary DFT along the
signal axes they act frequency by frequency as small channel-space matrices.
Construction therefore only ever inverts C x C blocks, one per frequency.

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
from .rate import Membership
from .tensorio import ContainerReader

INV_MAGIC = b"RNS1"
INV_VERSION = 2

KIND_SHIFT1D = "shift1d"
KIND_TRANSLATE2D = "translate2d"
_KIND_CODES = {KIND_SHIFT1D: 1, KIND_TRANSLATE2D: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_KIND_AXES = {KIND_SHIFT1D: ("T",), KIND_TRANSLATE2D: ("H", "W")}


# ---------------------------------------------------------------------------
# DFT utilities and circulant structure


def dft_1d(x: np.ndarray) -> np.ndarray:
    """Unitary DFT along the last axis (1/sqrt(T) scaling)."""
    x = np.asarray(x)
    return np.fft.fft(x, axis=-1) / np.sqrt(x.shape[-1])


def idft_1d(v: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dft_1d`."""
    v = np.asarray(v)
    return np.fft.ifft(v, axis=-1) * np.sqrt(v.shape[-1])


def dft_2d(x: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT over the last two axes."""
    x = np.asarray(x)
    return np.fft.fft2(x, axes=(-2, -1)) / np.sqrt(x.shape[-2] * x.shape[-1])


def idft_2d(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    return np.fft.ifft2(v, axes=(-2, -1)) * np.sqrt(v.shape[-2] * v.shape[-1])


def circulant(z: np.ndarray) -> np.ndarray:
    """T x T matrix whose column t is z cyclically shifted down by t;
    multiplication by it performs circular convolution with z."""
    z = np.asarray(z, dtype=float).ravel()
    T = z.size
    idx = (np.arange(T)[:, None] - np.arange(T)[None, :]) % T
    return z[idx]


def circular_convolve_1d(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """z conv x on the cyclic group of order T, via the FFT."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.real(np.fft.ifft(np.fft.fft(z) * np.fft.fft(x, axis=-1), axis=-1))


def circular_convolve_2d(kernel: np.ndarray, image: np.ndarray) -> np.ndarray:
    """2D circular convolution over the last two axes of ``image``."""
    kernel = np.asarray(kernel, dtype=float)
    image = np.asarray(image, dtype=float)
    return np.real(
        np.fft.ifft2(np.fft.fft2(kernel) * np.fft.fft2(image, axes=(-2, -1)), axes=(-2, -1))
    )


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0), applied entrywise, for tau >= 0."""
    if not tau >= 0:
        raise DataError(f"threshold must be nonnegative, got {tau}")
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


# ---------------------------------------------------------------------------
# Random-filter lifting


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
    m, c_in, T = X.shape
    if K > T:
        raise DataError(f"kernel length {K} exceeds signal length {T}")
    rng = np.random.default_rng(seed)
    kernels = np.zeros((C, c_in, T))
    kernels[:, :, :K] = rng.standard_normal((C, c_in, K))
    # (C, c_in, T) x (m, c_in, T) -> (m, C, T), summing over input channels
    kf = np.fft.fft(kernels, axis=-1)
    xf = np.fft.fft(X, axis=-1)
    out = np.real(np.fft.ifft(np.einsum("kct,mct->mkt", kf, xf), axis=-1))
    return soft_threshold(out, tau)


def lift_random_filters_2d(
    X: np.ndarray, C: int, K: int, seed: int, tau: float = 0.0
) -> np.ndarray:
    """2D analog of :func:`lift_random_filters_1d` for (m, H, W) images,
    with K x K kernels; returns (m, C, H, W)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ShapeError("expected (m, H, W) input")
    m, H, W = X.shape
    if K > H or K > W:
        raise DataError(f"kernel size {K} exceeds image extent {H}x{W}")
    rng = np.random.default_rng(seed)
    kernels = np.zeros((C, H, W))
    kernels[:, :K, :K] = rng.standard_normal((C, K, K))
    kf = np.fft.fft2(kernels)
    xf = np.fft.fft2(X)
    out = np.real(np.fft.ifft2(kf[None, :, :, :] * xf[:, None, :, :]))
    return soft_threshold(out, tau)


# ---------------------------------------------------------------------------
# Spectral-domain model


@dataclass(frozen=True)
class SpectralLayer:
    """Per-frequency operators on the half spectrum: E_hat is (P', C, C),
    C_hat is (k, P', C, C), with P' the representatives of the conjugate pairs."""

    E_hat: np.ndarray
    C_hat: np.ndarray
    gamma_j: np.ndarray

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        return self.E_hat, self.C_hat


@dataclass(frozen=True)
class InvariantModel:
    kind: str
    layers: tuple[SpectralLayer, ...]
    eta: float
    lam: float
    eps: float
    channels: int
    dims: tuple[int, ...]  # (T,) or (H, W)
    k: int

    @property
    def depth(self) -> int:
        return len(self.layers)


def spectral_rate_reduction(
    V: np.ndarray, Pi: Membership, eps: float
) -> tuple[float, float, float]:
    """Shift-invariant rate reduction evaluated from full unitary spectra
    (P, C, m): the rates of the full shift family, divided by the number of
    copies it contains."""
    share = np.full(len(V), 1 / len(V))
    _, L = _engine.factor(V, share, Pi, eps)
    return _engine.rates(L, share, Pi.class_sizes / Pi.m)


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
        return cls(shape, np.flatnonzero(keep), w[keep], np.flatnonzero(~keep), conj[~keep])

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


def _to_spectral(Zbar: np.ndarray) -> np.ndarray:
    """(m, C, *dims) real -> (P, C, m) sqrt(w)-scaled unitary half spectra,
    exactly real at self-conjugate frequencies."""
    m, C, *dims = Zbar.shape
    half = _HalfSpectrum.of(tuple(dims))
    V = np.fft.rfftn(Zbar, axes=range(2, Zbar.ndim), norm="ortho").reshape(m, C, -1).T
    V = np.ascontiguousarray(V[half.keep])
    V *= np.sqrt(half.w)[:, None, None]
    V.imag[half.real] = 0.0
    return V


def _from_spectral(V: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_to_spectral`: (P, C, m) -> (m, C, *dims) real."""
    P, C, m = V.shape
    half = _HalfSpectrum.of(dims)
    grid = np.empty((math.prod(half.shape), C, m), dtype=complex)
    grid[half.keep] = V / np.sqrt(half.w)[:, None, None]
    grid[half.dropped] = grid[half.partner].conj()
    grid = grid.T.reshape(m, C, *half.shape)
    return np.fft.irfftn(grid, s=dims, axes=range(2, grid.ndim), norm="ortho")


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
    if Zbar.ndim != 2 + len(axes) or not all(Zbar.shape[1:]):
        raise ShapeError(f"expected (m, C, {', '.join(axes)}) input with nonzero C and extents")
    layers, V, curve = _engine.construct(
        _to_spectral(Zbar), _HalfSpectrum.of(Zbar.shape[2:]).share, Pi, L, eta, eps, lam,
        SpectralLayer,
    )
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
    return model, _from_spectral(V, model.dims), curve


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
    if Zbar.shape[1:] != expected:
        raise ShapeError(f"expected (m, {', '.join(map(str, expected))}) input, got {Zbar.shape}")
    V = _engine.forward(_to_spectral(Zbar), model.layers, model.eta, model.lam)
    return _from_spectral(V, model.dims)


def forward_inv1d(model: InvariantModel, Zbar: np.ndarray) -> np.ndarray:
    """Evaluate the stored layers on new (m, C, T) samples; commutes exactly
    with cyclic shifts of the input."""
    return _forward_inv(KIND_SHIFT1D, model, Zbar)


def forward_inv2d(model: InvariantModel, Zbar: np.ndarray) -> np.ndarray:
    """2D analog of :func:`forward_inv1d` for (m, C, H, W) samples."""
    return _forward_inv(KIND_TRANSLATE2D, model, Zbar)


# ---------------------------------------------------------------------------
# RNS1 container


def save_invariant_model(path, model: InvariantModel) -> None:
    """RNS1 version 2: the operators at the representative frequencies of the
    half spectrum, complex entries stored as interleaved re/im float64."""
    header = INV_MAGIC + struct.pack(
        f"<IBI{len(model.dims)}I2I3d", INV_VERSION, _KIND_CODES[model.kind], model.channels,
        *model.dims, model.k, model.depth, model.eta, model.lam, model.eps)
    _engine.write_layers(path, header, model.layers, "<c16")


def _cut_v1_layer(layer: SpectralLayer, full_index: np.ndarray,
                  real: np.ndarray) -> SpectralLayer:
    """A version-1 layer, stored on the full DFT grid, cut to the half
    spectrum at ``full_index``; operators at the self-conjugate frequencies
    ``real`` lose their imaginary part."""
    E, C = layer.E_hat[full_index], layer.C_hat[:, full_index]
    E.imag[real] = 0.0
    C.imag[:, real] = 0.0
    return SpectralLayer(E, C, layer.gamma_j)


def load_invariant_model(path) -> InvariantModel:
    """Read RNS1 version 2, or version 1, whose full-spectrum layers are cut
    to the half spectrum. A version-2 operator that is not real at a
    self-conjugate frequency raises FormatError."""
    with ContainerReader(path, INV_MAGIC, (1, INV_VERSION)) as r:
        (kind_code,) = r.unpack("<B")
        if kind_code not in _KIND_NAMES:
            raise BadMagicError(f"{path}: unknown model kind {kind_code}")
        kind = _KIND_NAMES[kind_code]
        (channels,) = r.unpack("<I")
        dims = r.unpack(f"<{len(_KIND_AXES[kind])}I")
        k, L, eta, lam, eps = r.unpack("<2I3d")
        _engine.check_step(eta, lam)
        P = math.prod(dims) if r.version == 1 else _HalfSpectrum.size(dims)
        layers = _engine.read_layers(r, "<c16", L, k, P, channels, SpectralLayer)
    if layers:  # the grid is built only once the file has shown it holds the layers
        half = _HalfSpectrum.of(dims)
        if r.version == 1:
            full_index = np.ravel_multi_index(np.unravel_index(half.keep, half.shape), dims)
            layers = tuple(_cut_v1_layer(layer, full_index, half.real) for layer in layers)
        elif any(np.any(block[..., half.real, :, :].imag != 0)
                 for layer in layers for block in layer.blocks):
            raise FormatError(f"{path}: an operator at a self-conjugate frequency is not real")
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
