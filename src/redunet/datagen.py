"""Synthetic datasets and cyclic augmentation.

Generators draw from a seeded PCG64 generator (numpy's default_rng) so a
seed pins the output exactly. Feature matrices carry samples as columns and
come paired with hard label memberships.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .rate import Membership

_SHIFT_AXES = {"1d": (-1,), "2d": (-2, -1)}


@dataclass(frozen=True)
class GaussianMixtureSpec:
    n: int
    k: int
    m_per_class: int
    sigma: float
    seed: int
    means: np.ndarray | None = None  # (k, n) unit vectors; random if omitted


@dataclass(frozen=True)
class SubspaceSpec:
    n: int
    k: int
    d_j: int
    m_per_class: int
    seed: int
    orthogonal: bool = True


def _unit_rows(M: np.ndarray) -> np.ndarray:
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def gen_gaussian_sphere(spec: GaussianMixtureSpec) -> tuple[np.ndarray, Membership]:
    """Mixture of k isotropic Gaussians with unit-norm means, every sample
    projected back onto the unit sphere. Returns (n x k*m features, labels)."""
    if not 0 < spec.sigma < np.inf:
        raise DataError(f"sigma must be positive and finite, got {spec.sigma}")
    if spec.m_per_class < 1 or spec.k < 1 or spec.n < 1:
        raise DataError("dimensions and counts must be positive")
    rng = np.random.default_rng(spec.seed)
    if spec.means is None:
        means = _unit_rows(rng.standard_normal((spec.k, spec.n)))
    else:
        means = np.asarray(spec.means, dtype=float)
        if means.shape != (spec.k, spec.n):
            raise ShapeError(f"means must be ({spec.k}, {spec.n}), got {means.shape}")
        if not np.all(np.abs(np.linalg.norm(means, axis=1) - 1.0) <= 1e-9):
            raise DataError("mixture means must be unit vectors")
    cols = []
    labels = []
    for j in range(spec.k):
        X = means[j][:, None] + spec.sigma * rng.standard_normal((spec.n, spec.m_per_class))
        cols.append(X / np.linalg.norm(X, axis=0))
        labels.append(np.full(spec.m_per_class, j))
    Z = np.concatenate(cols, axis=1)
    return Z, Membership.from_labels(np.concatenate(labels), k=spec.k)


def gen_orthogonal_subspaces(spec: SubspaceSpec) -> tuple[np.ndarray, Membership]:
    """Samples from k low-dimensional subspaces, one per class, with every
    column normalized to the unit sphere.

    With ``orthogonal`` the class bases are disjoint column blocks of a
    single QR factor, so between-class inner products vanish. Otherwise each
    class gets an independent random orthonormal basis.
    """
    d, k, n = spec.d_j, spec.k, spec.n
    if d < 1 or k < 1 or spec.m_per_class < 1:
        raise DataError("dimensions and counts must be positive")
    if d > n or (spec.orthogonal and k * d > n):
        raise DataError(
            f"cannot fit {k} mutually orthogonal {d}-dimensional subspaces in R^{n}"
        )
    rng = np.random.default_rng(spec.seed)
    if spec.orthogonal:
        Q, _ = np.linalg.qr(rng.standard_normal((n, k * d)))
        bases = [Q[:, j * d : (j + 1) * d] for j in range(k)]
    else:
        bases = []
        for _ in range(k):
            Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
            bases.append(Q)
    cols = []
    labels = []
    for j in range(k):
        X = bases[j] @ rng.standard_normal((d, spec.m_per_class))
        cols.append(X / np.linalg.norm(X, axis=0))
        labels.append(np.full(spec.m_per_class, j))
    Z = np.concatenate(cols, axis=1)
    return Z, Membership.from_labels(np.concatenate(labels), k=k)


def polar_resample(image: np.ndarray, Gamma: int, C: int) -> np.ndarray:
    """Resample an H x W image on a polar grid about its center.

    Output row i holds the bilinear samples at radius r_i = (i+1)/C *
    min(H, W)/2 and angles l * 2*pi/Gamma, l = 0..Gamma-1, so a rotation of
    the underlying image by one angle step becomes a cyclic shift along the
    row. Samples falling outside the image are zero.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ShapeError("expected an H x W image")
    if Gamma < 1 or C < 1:
        raise DataError("angle and radius counts must be positive")
    H, W = image.shape
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    radii = (np.arange(1, C + 1) / C) * (min(H, W) / 2.0)
    angles = np.arange(Gamma) * (2.0 * np.pi / Gamma)
    ys = cy + radii[:, None] * np.sin(angles)[None, :]
    xs = cx + radii[:, None] * np.cos(angles)[None, :]

    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy = ys - y0
    fx = xs - x0

    def sample(yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
        inside = (yy >= 0) & (yy < H) & (xx >= 0) & (xx < W)
        out = np.zeros_like(yy, dtype=float)
        out[inside] = image[yy[inside], xx[inside]]
        return out

    return (
        sample(y0, x0) * (1 - fy) * (1 - fx)
        + sample(y0, x0 + 1) * (1 - fy) * fx
        + sample(y0 + 1, x0) * fy * (1 - fx)
        + sample(y0 + 1, x0 + 1) * fy * fx
    )


def translate2d(image: np.ndarray, p: int, q: int) -> np.ndarray:
    """Cyclic translation: output(h, w) = input(h - p mod H, w - q mod W)."""
    image = np.asarray(image)
    if image.ndim < 2:
        raise ShapeError("expected at least a 2D image")
    return np.roll(image, (p, q), axis=(-2, -1))


def augment_shifts(
    X: np.ndarray, labels: np.ndarray, stride: int, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate cyclic shifts at multiples of ``stride`` along the signal
    axes and replicate the labels.

    For ``kind='1d'`` the input is (m, ..., T) and the last axis is shifted;
    for ``kind='2d'`` the input is (m, ..., H, W) and both trailing axes are
    shifted. Augmented copies of a sample are grouped together in order of
    increasing shift.
    """
    X = np.asarray(X)
    labels = np.asarray(labels).ravel()
    if stride <= 0:
        raise DataError("stride must be positive")
    if kind not in _SHIFT_AXES:
        raise DataError(f"unknown augmentation kind {kind!r}")
    axes = _SHIFT_AXES[kind]
    if X.ndim <= len(axes):
        raise ShapeError(f"{kind} augmentation needs a sample axis and {len(axes)} signal axes")
    if X.shape[0] != labels.size:
        raise ShapeError(f"{X.shape[0]} samples but {labels.size} labels")
    shifts = list(itertools.product(*(range(0, X.shape[a], stride) for a in axes)))
    out = np.concatenate(
        [np.stack([np.roll(x, s, axis=axes) for s in shifts]) for x in X]
    )
    return out, np.repeat(labels, len(shifts))
