"""Coding rate objectives on labeled feature matrices and their exact gradients.

Features are n x m matrices with samples as columns. The whole-set rate is
    R(Z) = 1/2 logdet(I + (n / (m eps^2)) Z Z^T)
and the class-partitioned rate weights each class block by its share of the
samples. The gradient splits into an expansion operator acting on all
features and one compression operator per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyClassError, NumericError, ShapeError

COLUMN_SUM_TOL = 1e-9
LABEL_LIMIT = 2**32  # label files store uint32
COUNT_LIMIT = int(np.iinfo(np.intp).max)  # a count must index a numpy axis; see check_whole()
CLASS_LIMIT = 2**16  # an explicit k past both m and this is refused; see Membership.from_labels()


def check_labels(labels) -> np.ndarray:
    """Class labels as a flat int array: finite, nonnegative whole numbers
    below LABEL_LIMIT."""
    y = np.asarray(labels, dtype=float).ravel()
    if not np.all((y >= 0) & (y < LABEL_LIMIT) & (y == np.floor(y))):
        raise DataError(f"labels must be whole numbers in 0..{LABEL_LIMIT - 1}")
    return y.astype(int)


def check_whole(x, name: str, least=1, below=COUNT_LIMIT) -> int:
    """x as an int, if it is a Python or numpy integer (a bool reads as 0 or
    1, as in range()) with least <= x < below; else DataError, for a float
    of whole value too. The one owner of the rule for counts, seeds, shifts
    and class indices. The default bound keeps a count inside numpy's index
    range; seeds and shifts, which size no axis, pass below=inf."""
    if not (isinstance(x, (int, np.integer)) and least <= x < below):
        raise DataError(f"{name} must be a whole number in {least}..{below - 1}, got {x!r}")
    return int(x)


class Membership:
    """The assignment of m samples to k classes. ``Membership(weights)`` takes
    soft weights: row j of the (k, m) matrix holds the diagonal of the j-th
    class weighting matrix Pi_j, and columns sum to one. :meth:`from_labels`
    keeps hard labels, one stable order of the samples by class and the k + 1
    bounds of the classes in that order, and makes the k x m ``weights``
    only when they are read. It is the one owner of class order:
    :meth:`columns` is the one way the engine and the rate reference reach a
    class, and ``fit_nsc`` gathers its classes by the same order and bounds."""

    def __init__(self, weights) -> None:
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        if not np.all((w >= -COLUMN_SUM_TOL) & (w <= 1 + COLUMN_SUM_TOL)):
            raise DataError("membership weights must lie in [0, 1]")
        deviation = np.abs(w.sum(axis=0) - 1.0)
        if not np.all(deviation <= COLUMN_SUM_TOL):
            raise DataError(
                f"membership columns must sum to 1 (max deviation {np.max(deviation):.3e})"
            )
        self._weights, self._labels, self._sizes = w, None, w.sum(axis=1)

    @classmethod
    def from_labels(cls, labels, k: int | None = None) -> "Membership":
        """Sample i in class labels[i], of k classes: the largest label + 1 if
        k is None, which may not exceed the number of samples m (else
        EmptyClassError naming the first empty class); an explicit k may not
        exceed m or CLASS_LIMIT, whichever is larger. The samples' class
        order is kept as one stable permutation, with the class bounds in
        that order, and class j's share of it as a slice when its columns
        are adjacent; no k x m matrix is made."""
        labels = check_labels(labels)
        m, least = labels.size, int(labels.max(initial=-1)) + 1
        if k is None and least > m:  # one of the classes 0..m is empty: name the first
            empty = np.argmin(np.bincount(labels[labels <= m], minlength=m + 1))
            raise EmptyClassError(f"labels name {least} classes for only {m} samples: "
                                  f"class {empty} has none")
        k = least if k is None else check_whole(k, "class count k", least, max(m, CLASS_LIMIT) + 1)
        labels.flags.writeable = False  # Pi.labels keeps matching the order kept below
        sizes = np.bincount(labels, minlength=k)
        Pi = object.__new__(cls)
        Pi._weights, Pi._labels, Pi._sizes = None, labels, sizes.astype(float)
        Pi._bounds = np.concatenate(([0], np.cumsum(sizes)))
        Pi._order = np.argsort(labels, kind="stable")  # numpy's stable sort: linear if sorted
        cols = (Pi._order[lo:hi] for lo, hi in zip(Pi._bounds[:-1], Pi._bounds[1:]))
        Pi._cols = tuple(slice(int(c[0]), int(c[-1]) + 1) if c.size and c[-1] - c[0] == c.size - 1
                         else c for c in cols)
        return Pi

    @property
    def weights(self) -> np.ndarray:
        if self._labels is None:
            return self._weights
        w = np.zeros((self.k, self.m))
        w[self._labels, np.arange(self.m)] = 1.0
        return w

    @property
    def labels(self) -> np.ndarray:
        """Each sample's class: its label, or for soft weights the class of
        largest weight."""
        return np.argmax(self._weights, axis=0) if self._labels is None else self._labels

    @property
    def k(self) -> int:
        return len(self._sizes)

    @property
    def m(self) -> int:
        return self._weights.shape[1] if self._labels is None else self._labels.size

    @property
    def class_sizes(self) -> np.ndarray:
        return self._sizes

    def columns(self, X: np.ndarray, j: int) -> tuple:
        """Class j's columns of X (..., m) as (U, cols, root), with U U^H =
        X Pi_j X^H. Label-built: U = X[..., cols], cols class j's share of
        the stable class order, a view if class j's columns are adjacent, and
        root None. Soft: cols are the columns where pi_j > 0 (weights that
        the tolerance lets fall below 0 count as 0), root = sqrt(pi_j) there
        and U = X[..., cols] * root."""
        if X.shape[-1] != self.m:
            raise ShapeError(f"membership covers {self.m} samples, features have {X.shape[-1]}")
        if self._labels is not None:
            return X[..., self._cols[j]], self._cols[j], None
        cols = np.flatnonzero(self._weights[j] > 0)
        root = np.sqrt(self._weights[j, cols])
        return X[..., cols] * root, cols, root


def _as_float(x) -> float:
    """x as a float; a Python int beyond the float range reads as +-inf, which
    every range check on a parameter rejects."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _coefficients(n: int, counts, eps: float) -> np.ndarray:
    """n / (count eps^2) for each count, in float64, and 0 for an empty count
    (count <= 0), which adds nothing to a rate. The one owner of the eps rule:
    raises DataError unless 0 < eps < inf and every coefficient is finite, and
    positive where n and the count are, so eps^2 may neither underflow nor
    overflow."""
    counts = np.asarray(counts, dtype=float)
    e = _as_float(eps)
    with np.errstate(all="ignore"):
        a = np.where(counts > 0, n / (counts * np.float64(e) ** 2), 0.0)
    if not (0 < e < np.inf and np.all((a < np.inf) & ((a > 0) | (n * counts <= 0)))):
        raise DataError("eps must be positive, with n / (m eps^2) finite and positive for "
                        f"every nonzero count m; got eps = {eps} for n = {n}")
    return a


@dataclass(frozen=True)
class RateParams:
    """The coefficients of the rates at precision eps, for n-dimensional
    features: alpha = n / (m eps^2) for the whole set, and for class j
    alpha_j = n / (tr(Pi_j) eps^2) (0 if the class is empty) and its share
    gamma_j = tr(Pi_j) / m. Every rate and operator takes them from here."""

    eps: float
    alpha: float
    alpha_j: np.ndarray
    gamma_j: np.ndarray

    @classmethod
    def compute(cls, n: int, Pi: Membership, eps: float) -> "RateParams":
        sizes = Pi.class_sizes
        a = _coefficients(n, np.concatenate(([Pi.m], sizes)), eps)
        if Pi.m == 0:
            raise ShapeError("membership covers no samples")
        return cls(eps=float(eps), alpha=float(a[0]), alpha_j=a[1:], gamma_j=sizes / Pi.m)


def _check_features(Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] == 0:
        raise ShapeError(f"expected an (n, m) feature matrix with m >= 1, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise NumericError("feature matrix contains non-finite entries")
    return Z


def _cholesky(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError("matrix is not positive definite") from exc


def logdet_spd(A: np.ndarray) -> float:
    """logdet of a symmetric (or Hermitian) positive definite matrix via
    Cholesky; raises NumericError on loss of positive-definiteness."""
    return 2.0 * float(np.sum(np.log(np.real(np.diagonal(_cholesky(A))))))


def _rate_from_scatter(scale: float, W: np.ndarray) -> float:
    """1/2 logdet(I + scale * W W^T), from the Gram matrix of W on its smaller
    side: logdet(I + c W W^T) = logdet(I + c W^T W)."""
    G = W.T @ W if W.shape[1] < W.shape[0] else W @ W.T
    return 0.5 * logdet_spd(np.eye(len(G)) + scale * G)


def coding_rate(Z: np.ndarray, eps: float) -> float:
    """Whole-set coding rate at distortion ``eps``."""
    Z = _check_features(Z)
    n, m = Z.shape
    return _rate_from_scatter(float(_coefficients(n, m, eps)), Z)


def coding_rate_partitioned(Z: np.ndarray, Pi: Membership, eps: float) -> float:
    """Membership-weighted sum of per-class coding rates. An empty class has
    alpha_j = 0 and contributes gamma_j logdet(I) = 0."""
    Z = _check_features(Z)
    params = RateParams.compute(len(Z), Pi, eps)
    total = 0.0
    for j, (a_j, g_j) in enumerate(zip(params.alpha_j, params.gamma_j)):
        total += g_j * _rate_from_scatter(a_j, Pi.columns(Z, j)[0])
    return total


def rate_reduction(Z: np.ndarray, Pi: Membership, eps: float) -> tuple[float, float, float]:
    """Returns (R, Rc, dR) with dR = R - Rc."""
    R = coding_rate(Z, eps)
    Rc = coding_rate_partitioned(Z, Pi, eps)
    return R, Rc, R - Rc


def _operator(a: float, W: np.ndarray) -> np.ndarray:
    """a * (I + a W W^T)^-1, symmetrised, from one Cholesky factor."""
    inv_L = np.linalg.inv(_cholesky(np.eye(len(W)) + a * (W @ W.T)))
    M = a * (inv_L.T @ inv_L)
    return 0.5 * (M + M.T)


def expansion_operator(Z: np.ndarray, params: RateParams) -> np.ndarray:
    """alpha * (I + alpha Z Z^T)^-1: symmetric PD, eigenvalues in (0, alpha]."""
    return _operator(params.alpha, _check_features(Z))


def compression_operator(
    Z: np.ndarray, Pi: Membership, j: int, params: RateParams
) -> np.ndarray:
    """alpha_j * (I + alpha_j Z Pi_j Z^T)^-1 for a nonempty class j."""
    Z = _check_features(Z)
    j = check_whole(j, "class index j", 0, Pi.k)
    if Pi.class_sizes[j] <= 0:
        raise EmptyClassError(f"class {j} has zero total membership")
    return _operator(params.alpha_j[j], Pi.columns(Z, j)[0])


def rate_gradient(Z: np.ndarray, Pi: Membership, params: RateParams) -> np.ndarray:
    """Exact gradient of the rate reduction with respect to Z:
    E Z - sum_j gamma_j C_j Z Pi_j, where Z Pi_j is U root on class j's
    columns (:meth:`Membership.columns`) and 0 elsewhere. An empty class has
    alpha_j = 0, so C_j = 0."""
    Z = _check_features(Z)
    grad = _operator(params.alpha, Z) @ Z
    for j, (a_j, g_j) in enumerate(zip(params.alpha_j, params.gamma_j)):
        U, cols, root = Pi.columns(Z, j)
        grad[:, cols] -= g_j * (_operator(a_j, U) @ (U if root is None else U * root))
    return grad
