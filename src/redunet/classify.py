"""Nearest-subspace classification on learned features.

Each class is summarized by its mean and the top principal directions of its
centered features; a query is assigned to the class whose affine subspace
leaves the smallest residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyClassError, ShapeError
from .rate import Membership, _check_features, check_labels

RANK_TOL = 1e-10
BASIS_ORTHO_TOL = 1e-8  # largest |U^T U - I|; fit_nsc's SVD bases are orthonormal to about 1e-15


@dataclass(frozen=True)
class SubspaceClassifier:
    """Per-class means (k, n) and orthonormal bases, one (n, r_j) each,
    checked at construction because the residual formula of :func:`predict_nsc`
    needs them: k >= 1, all finite, n rows, r_j <= n and |U^T U - I| <= 1e-8."""

    means: np.ndarray
    bases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        k, n = _check_features(self.means).shape
        if k == 0 or len(self.bases) != k:
            raise DataError(f"need k >= 1 class means and one basis each, got {k} means "
                            f"and {len(self.bases)} bases")
        for j, U in enumerate(map(np.asarray, self.bases)):
            if U.ndim != 2 or U.shape[0] != n or U.shape[1] > n or not np.all(np.isfinite(U)):
                raise DataError(f"basis {j} must be a finite matrix with {n} rows and at most "
                                f"{n} columns, got shape {U.shape}")
            if np.max(np.abs(U.T @ U - np.eye(U.shape[1])), initial=0.0) > BASIS_ORTHO_TOL:
                raise DataError(f"basis {j} is not orthonormal")

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def n(self) -> int:
        return self.means.shape[1]


def fit_nsc(Z: np.ndarray, labels: np.ndarray, r: int = 30) -> SubspaceClassifier:
    """Fit per-class subspaces from n x m features and integer labels.

    Each basis keeps at most ``r`` left singular vectors of the centered
    class block, never more than its numerical rank (singular values below
    1e-10 of the largest are treated as zero).
    """
    Z = _check_features(Z)
    labels = check_labels(labels)
    if Z.shape[1] != labels.size:
        raise ShapeError(f"{Z.shape[1]} feature columns but {labels.size} labels")
    if r < 0:
        raise DataError("subspace dimension must be nonnegative")
    means, bases, fitted = [], [], 0
    while fitted < labels.size:  # classes 0, 1, ... until every sample is used
        block = Z[:, labels == len(means)]
        if block.shape[1] == 0:
            raise EmptyClassError(f"class {len(means)} has no training samples")
        fitted += block.shape[1]
        mu = block.mean(axis=1)
        means.append(mu)
        U, s, _ = np.linalg.svd(block - mu[:, None], full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
        bases.append(np.ascontiguousarray(U[:, : min(r, rank)]))
    return SubspaceClassifier(means=np.array(means), bases=tuple(bases))


def predict_nsc(clf: SubspaceClassifier, Z: np.ndarray) -> np.ndarray:
    """Assign each column z of Z to the class j with the smallest residual
    after projecting z - mu_j onto that class's subspace.

    With orthonormal bases (U_j^T U_j = I) the squared residual is

        ||z - mu_j||^2 - ||U_j^T (z - mu_j)||^2,   clamped at 0,

    computed from one stacked product [U_1 ... U_k, M^T]^T Z, where the
    columns of M^T are the class means, so Z is read a constant number of
    times whatever k is. Its rounding error is of order machine epsilon times
    ||z||^2 + ||mu_j||^2. The class is the argmin of the squared residual,
    which orders classes as the residual does; ties go to the smallest class
    index.
    """
    single = np.ndim(Z) == 1
    Z = _check_features(np.reshape(Z, (-1, 1)) if single else Z)
    if Z.shape[0] != clf.n:
        raise ShapeError(f"expected {clf.n} rows, got {Z.shape[0]}")
    widths = [U.shape[1] for U in clf.bases]
    B = np.concatenate([*clf.bases, clf.means.T], axis=1)  # n x (sum r_j + k)
    proj = B.T @ Z
    r = sum(widths)
    mean_proj = np.concatenate([U.T @ mu for U, mu in zip(clf.bases, clf.means)])
    owner = np.repeat(np.arange(clf.k), widths) == np.arange(clf.k)[:, None]  # k x sum r_j
    in_span = owner.astype(float) @ np.square(proj[:r] - mean_proj[:, None])
    dist = (np.einsum("ij,ij->j", Z, Z)[None, :] - 2.0 * proj[r:]
            + np.einsum("ij,ij->i", clf.means, clf.means)[:, None])
    residual_sq = np.maximum(dist - in_span, 0.0)
    pred = np.argmin(residual_sq, axis=0).astype(np.uint32)
    return pred[0] if single else pred


def accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    pred = np.asarray(pred).ravel()
    labels = np.asarray(labels).ravel()
    if pred.size != labels.size:
        raise ShapeError("prediction and label counts differ")
    return float(np.mean(pred == labels))


def cosine_similarity_matrix(Z: np.ndarray) -> np.ndarray:
    """m x m matrix of cosine similarities between feature columns."""
    Z = _check_features(Z)
    norms = np.linalg.norm(Z, axis=0)
    if not np.all(norms > 0):
        raise DataError("cosine similarity is undefined for zero columns")
    U = Z / norms
    S = U.T @ U
    return np.clip(S, -1.0, 1.0)


def class_cosine_stats(
    S: np.ndarray, Pi: Membership
) -> tuple[float, float]:
    """(minimum within-class, maximum absolute between-class) cosine
    similarity over distinct pairs, using hard label membership."""
    labels = np.argmax(Pi.weights, axis=0)
    m = S.shape[0]
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(m, dtype=bool)
    within = S[same & off]
    between = S[~same]
    min_within = float(within.min()) if within.size else 1.0
    max_between = float(np.abs(between).max()) if between.size else 0.0
    return min_within, max_between
