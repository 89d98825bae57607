"""Nearest-subspace classification on learned features.

Each class is summarized by its mean and the top principal directions of its
centered features; a query is assigned to the class whose affine subspace
leaves the smallest residual.

The principal directions of a centered n x m_j class block C come from the
eigendecomposition of its Gram matrix on the smaller side: C C^T (n x n)
when n <= m_j, whose eigenvectors are the basis, and C^T C (m_j x m_j)
otherwise, whose eigenvectors W give the basis C W / s after one Cholesky
re-orthonormalisation. The Gram squares the singular values s, so it
resolves a direction only while s stays well above sqrt(eps) s_0. Where it
cannot (a non-finite or subnormal Gram, or a kept singular value below
GRAM_TOL s_0, which every rank-deficient block has) the block's thin SVD
gives the basis instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyClassError, NumericError, ShapeError
from .rate import Membership, _check_features, check_whole

RANK_TOL = 1e-10
# smallest kept s_q / s_0 the Gram path accepts; its eigenvalues carry an error
# of about eps s_0^2, so s_q keeps about 10 digits and the basis about as many
GRAM_TOL = 1e-3
BASIS_ORTHO_TOL = 1e-8  # largest |U^T U - I|; fit_nsc's bases are orthonormal to about 1e-15


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

    Each basis keeps the top ``min(r, n, m_j)`` principal directions of the
    centered class block, from the eigenvectors of its Gram matrix on the
    smaller side (see the module docstring). When the Gram cannot resolve
    them, the basis is the block's top left singular vectors instead, at
    most ``r`` of them and never more than the block's numerical rank
    (singular values below RANK_TOL of the largest are treated as zero).
    Where the spectrum has a gap after the kept values, the two span the
    same subspace to about 1e-10.

    The columns are gathered once in the stable class order that
    :meth:`Membership.from_labels <redunet.rate.Membership.from_labels>`
    keeps, so each class is a view of one copy of Z between its class
    bounds, centered in place; classes 0, 1, ... must each have a sample, up
    to the largest label.
    """
    Z = _check_features(Z)
    Pi = Membership.from_labels(labels)
    if Z.shape[1] != Pi.m:
        raise ShapeError(f"{Z.shape[1]} feature columns but {Pi.m} labels")
    r = check_whole(r, "subspace dimension r", 0)
    if Pi.class_sizes.min() == 0:
        raise EmptyClassError(f"class {np.argmin(Pi.class_sizes)} has no training samples")
    # one gather of Z in the membership's class order, column-major as numpy lays out a
    # column gather: each class block is a view of one array, faster than k copies, and
    # its mean and Gram sum in one order, whatever order the labels came in
    blocks = np.split(Z[:, Pi._order], Pi._bounds[1:-1], axis=1)
    means = np.array([U.mean(axis=1) for U in blocks])
    bases = tuple(_principal_basis(np.subtract(U, mean[:, None], out=U), r)
                  for U, mean in zip(blocks, means))
    return SubspaceClassifier(means=means, bases=bases)


def _principal_basis(C: np.ndarray, r: int) -> np.ndarray:
    """Top principal directions of the centered n x m_j block C, as an
    orthonormal n x q matrix: from the Gram matrix on the smaller side when
    its q-th kept eigenvalue, q = min(r, n, m_j), is a normal number of at
    least GRAM_TOL^2 times the largest, else from the thin SVD."""
    n, m = C.shape
    q = min(r, n, m)
    if q:
        tall = n > m
        with np.errstate(over="ignore", invalid="ignore"):
            G = C.T @ C if tall else C @ C.T
        if np.all(np.isfinite(G)):
            w, W = np.linalg.eigh(G)
            # eigenvectors of the q largest eigenvalues, descending, contiguous for BLAS
            top = np.ascontiguousarray(W[:, : -q - 1 : -1])
            if w[-q] >= max(GRAM_TOL**2 * w[-1], np.finfo(float).tiny):
                if not tall:
                    return top
                U = C @ top
                U /= np.sqrt(w[: -q - 1 : -1])
                return U @ np.linalg.inv(np.linalg.cholesky(U.T @ U)).T
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    return np.ascontiguousarray(U[:, : min(r, rank)])


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
    index. A residual that is not finite, from a NaN or inf entry of Z or from
    features too large to square, raises NumericError.
    """
    single = np.ndim(Z) == 1
    Z = np.asarray(np.reshape(Z, (-1, 1)) if single else Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] == 0 or Z.shape[0] != clf.n:
        raise ShapeError(f"expected an ({clf.n}, m) feature matrix with m >= 1, "
                         f"got shape {Z.shape}")
    widths = [U.shape[1] for U in clf.bases]
    B = np.concatenate([*clf.bases, clf.means.T], axis=1)  # n x (sum r_j + k)
    r = sum(widths)
    mean_proj = np.concatenate([U.T @ mu for U, mu in zip(clf.bases, clf.means)])
    owner = np.repeat(np.arange(clf.k), widths) == np.arange(clf.k)[:, None]  # k x sum r_j
    with np.errstate(over="ignore", invalid="ignore"):
        proj = B.T @ Z
        in_span = owner.astype(float) @ np.square(proj[:r] - mean_proj[:, None])
        dist = (np.einsum("ij,ij->j", Z, Z)[None, :] - 2.0 * proj[r:]
                + np.einsum("ij,ij->i", clf.means, clf.means)[:, None])
        residual_sq = np.maximum(dist - in_span, 0.0)
    if not np.all(np.isfinite(residual_sq)):
        raise NumericError("class residuals are not finite: the features hold a NaN or an inf, "
                           "or are too large to square")
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
    labels = Pi.labels
    S = np.asarray(S)
    if S.shape != (Pi.m, Pi.m):
        raise ShapeError(f"expected an ({Pi.m}, {Pi.m}) similarity matrix, got shape {S.shape}")
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(Pi.m, dtype=bool)
    within = S[same & off]
    between = S[~same]
    min_within = float(within.min()) if within.size else 1.0
    max_between = float(np.abs(between).max()) if between.size else 0.0
    return min_within, max_between
