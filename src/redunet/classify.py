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


@dataclass(frozen=True)
class SubspaceClassifier:
    """Per-class means (k, n) and orthonormal bases, one (n, r_j) each."""

    means: np.ndarray
    bases: tuple[np.ndarray, ...]

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
    """Assign each column of Z to the class with the smallest residual
    after projecting the centered query onto that class's subspace. Ties go
    to the smallest class index."""
    single = np.ndim(Z) == 1
    Z = _check_features(np.reshape(Z, (-1, 1)) if single else Z)
    if Z.shape[0] != clf.n:
        raise ShapeError(f"expected {clf.n} rows, got {Z.shape[0]}")
    residuals = np.empty((clf.k, Z.shape[1]))
    for j in range(clf.k):
        D = Z - clf.means[j][:, None]
        U = clf.bases[j]
        if U.shape[1]:
            D = D - U @ (U.T @ D)
        residuals[j] = np.linalg.norm(D, axis=0)
    pred = np.argmin(residuals, axis=0).astype(np.uint32)
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
