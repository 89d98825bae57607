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
from .rate import Membership, check_whole

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


def _labeled_unit_columns(blocks: list[np.ndarray]) -> tuple[np.ndarray, Membership]:
    """The class blocks side by side, every column scaled to unit norm and
    labeled by the block it came from."""
    Z = np.concatenate(blocks, axis=1)
    Z /= np.linalg.norm(Z, axis=0)
    labels = np.repeat(np.arange(len(blocks)), [X.shape[1] for X in blocks])
    return Z, Membership.from_labels(labels, k=len(blocks))


def gen_gaussian_sphere(spec: GaussianMixtureSpec) -> tuple[np.ndarray, Membership]:
    """Mixture of k isotropic Gaussians with unit-norm means, every sample
    projected back onto the unit sphere. Returns (n x k*m features, labels)."""
    if not 0 < spec.sigma < np.inf:
        raise DataError(f"sigma must be positive and finite, got {spec.sigma}")
    for name in ("n", "k", "m_per_class"):
        check_whole(getattr(spec, name), name)
    rng = np.random.default_rng(check_whole(spec.seed, "seed", 0, np.inf))
    if spec.means is None:
        means = rng.standard_normal((spec.k, spec.n))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
    else:
        means = np.asarray(spec.means, dtype=float)
        if means.shape != (spec.k, spec.n):
            raise ShapeError(f"means must be ({spec.k}, {spec.n}), got {means.shape}")
        if not np.all(np.abs(np.linalg.norm(means, axis=1) - 1.0) <= 1e-9):
            raise DataError("mixture means must be unit vectors")
    return _labeled_unit_columns(
        [mean[:, None] + spec.sigma * rng.standard_normal((spec.n, spec.m_per_class))
         for mean in means])


def gen_orthogonal_subspaces(spec: SubspaceSpec) -> tuple[np.ndarray, Membership]:
    """Samples from k low-dimensional subspaces, one per class, with every
    column normalized to the unit sphere.

    With ``orthogonal`` the class bases are disjoint column blocks of a
    single QR factor, so between-class inner products vanish. Otherwise each
    class gets an independent random orthonormal basis.
    """
    for name in ("n", "k", "d_j", "m_per_class"):
        check_whole(getattr(spec, name), name)
    d, k, n = spec.d_j, spec.k, spec.n
    if d > n or (spec.orthogonal and k * d > n):
        raise DataError(
            f"cannot fit {k} mutually orthogonal {d}-dimensional subspaces in R^{n}"
        )
    rng = np.random.default_rng(check_whole(spec.seed, "seed", 0, np.inf))
    if spec.orthogonal:
        Q, _ = np.linalg.qr(rng.standard_normal((n, k * d)))
        bases = np.split(Q, k, axis=1)
    else:
        bases, _ = np.linalg.qr(rng.standard_normal((k, n, d)))
    return _labeled_unit_columns([U @ rng.standard_normal((d, spec.m_per_class)) for U in bases])


def polar_resample(image: np.ndarray, Gamma: int, C: int) -> np.ndarray:
    """Resample an H x W image, or each image of an m x H x W stack, on a
    polar grid about its center.

    Output row i holds the bilinear samples at radius r_i = (i+1)/C *
    min(H, W)/2 and angles l * 2*pi/Gamma, l = 0..Gamma-1, so a rotation of
    the underlying image by one angle step becomes a cyclic shift along the
    row. Samples falling outside the image are zero. The grid is built once
    per call; a stack gives the (m, C, Gamma) stack of the per-image results.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim not in (2, 3):
        raise ShapeError("expected an H x W image or an m x H x W stack")
    Gamma, C = check_whole(Gamma, "Gamma"), check_whole(C, "C")
    H, W = image.shape[-2:]
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    radii = (np.arange(1, C + 1) / C) * (min(H, W) / 2.0)
    angles = np.arange(Gamma) * (2.0 * np.pi / Gamma)
    ys = cy + radii[:, None] * np.sin(angles)[None, :]
    xs = cx + radii[:, None] * np.cos(angles)[None, :]

    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    fy, fx = ys - y0, xs - x0
    # every corner lies in rows -1..H and columns -1..W, so one zero border
    # holds those off the image: padded row y + 1 is image row y
    pad = np.pad(image, [(0, 0)] * (image.ndim - 2) + [(1, 1), (1, 1)])
    y, x = y0 + 1, x0 + 1
    return (
        pad[..., y, x] * (1 - fy) * (1 - fx)
        + pad[..., y, x + 1] * (1 - fy) * fx
        + pad[..., y + 1, x] * fy * (1 - fx)
        + pad[..., y + 1, x + 1] * fy * fx
    )


def translate2d(image: np.ndarray, p: int, q: int) -> np.ndarray:
    """Cyclic translation: output(h, w) = input(h - p mod H, w - q mod W)."""
    image = np.asarray(image)
    if image.ndim < 2:
        raise ShapeError("expected at least a 2D image")
    p, q = check_whole(p, "p", -np.inf, np.inf), check_whole(q, "q", -np.inf, np.inf)
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
    stride = check_whole(stride, "stride")
    if kind not in _SHIFT_AXES:
        raise DataError(f"unknown augmentation kind {kind!r}")
    axes = _SHIFT_AXES[kind]
    if X.ndim <= len(axes):
        raise ShapeError(f"{kind} augmentation needs a sample axis and {len(axes)} signal axes")
    if X.shape[0] != labels.size:
        raise ShapeError(f"{X.shape[0]} samples but {labels.size} labels")
    shifts = list(itertools.product(*(range(0, X.shape[a], stride) for a in axes)))
    m, count = X.shape[0], len(shifts)
    out = np.empty((m, count) + X.shape[1:], dtype=X.dtype)
    for i, s in enumerate(shifts):
        # a cyclic shift by t of an axis of extent N moves [0, N - t) to [t, N) and
        # [N - t, N) to [0, t): at most 2 ** len(axes) block copies of the whole batch
        pieces = [[(slice(t, None), slice(None, X.shape[a] - t))]
                  + ([(slice(None, t), slice(X.shape[a] - t, None))] if t else [])
                  for a, t in zip(axes, s)]
        for piece in itertools.product(*pieces):
            dst, src = zip(*piece)
            out[(slice(None), i, Ellipsis, *dst)] = X[(Ellipsis, *src)]
    return out.reshape((m * count,) + X.shape[1:]), np.repeat(labels, count)
