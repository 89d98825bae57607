"""Coding rate objectives on labeled feature matrices and their exact gradients.

Features are n x m matrices with samples as columns. The whole-set rate is
    R(Z) = 1/2 logdet(I + (n / (m eps^2)) Z Z^T)
and the class-partitioned rate weights each class block by its share of the
samples. The gradient splits into an expansion operator acting on all
features and one compression operator per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyClassError, NumericError, ShapeError

COLUMN_SUM_TOL = 1e-9
LABEL_LIMIT = 2**32  # label files store uint32


def check_labels(labels) -> np.ndarray:
    """Class labels as a flat int array: finite, nonnegative whole numbers
    below LABEL_LIMIT."""
    y = np.asarray(labels, dtype=float).ravel()
    if not np.all((y >= 0) & (y < LABEL_LIMIT) & (y == np.floor(y))):
        raise DataError(f"labels must be whole numbers in 0..{LABEL_LIMIT - 1}")
    return y.astype(int)


def check_eps(eps: float) -> None:
    if not 0 < eps < np.inf:
        raise DataError(f"eps must be positive and finite, got {eps}")


@dataclass(frozen=True)
class Membership:
    """Soft class-assignment weights: row j holds the diagonal of the j-th
    class weighting matrix. Columns sum to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if not np.all((w >= -COLUMN_SUM_TOL) & (w <= 1 + COLUMN_SUM_TOL)):
            raise DataError("membership weights must lie in [0, 1]")
        deviation = np.abs(w.sum(axis=0) - 1.0)
        if not np.all(deviation <= COLUMN_SUM_TOL):
            raise DataError(
                f"membership columns must sum to 1 (max deviation {np.max(deviation):.3e})"
            )
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_labels(cls, labels, k: int | None = None) -> "Membership":
        labels = check_labels(labels)
        if k is None:
            k = int(labels.max(initial=-1)) + 1
            if k > labels.size:
                raise DataError(f"labels name {k} classes for only {labels.size} samples")
        elif labels.size and labels.max() >= k:
            raise DataError(f"labels must lie in 0..{k - 1}")
        w = np.zeros((k, labels.size))
        w[labels, np.arange(labels.size)] = 1.0
        return cls(w)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def m(self) -> int:
        return self.weights.shape[1]

    @property
    def class_sizes(self) -> np.ndarray:
        return self.weights.sum(axis=1)


@dataclass(frozen=True)
class RateParams:
    """Precision and the derived per-class coefficients."""

    eps: float
    alpha: float
    alpha_j: np.ndarray
    gamma_j: np.ndarray

    @classmethod
    def compute(cls, n: int, Pi: Membership, eps: float) -> "RateParams":
        check_eps(eps)
        m = Pi.m
        sizes = Pi.class_sizes
        with np.errstate(divide="ignore"):
            alpha_j = np.where(sizes > 0, n / (sizes * eps**2), np.inf)
        return cls(
            eps=float(eps),
            alpha=n / (m * eps**2),
            alpha_j=alpha_j,
            gamma_j=sizes / m,
        )


def _check_features(Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] == 0:
        raise ShapeError(f"expected an (n, m) feature matrix with m >= 1, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise NumericError("feature matrix contains non-finite entries")
    return Z


def logdet_spd(A: np.ndarray) -> float:
    """logdet of a symmetric (or Hermitian) positive definite matrix via
    Cholesky; raises NumericError on loss of positive-definiteness."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.real(np.diagonal(L)))))


def _rate_from_scatter(scale: float, Z: np.ndarray, weights: np.ndarray | None) -> float:
    """1/2 logdet(I + scale * Z W Z^T), routed through the smaller Gram form."""
    n, m = Z.shape
    if weights is None:
        if m < n:
            G = Z.T @ Z
        else:
            G = Z @ Z.T
    else:
        if m < n:
            Ws = Z * np.sqrt(weights)
            G = Ws.T @ Ws
        else:
            G = (Z * weights) @ Z.T
    A = np.eye(G.shape[0]) + scale * G
    return 0.5 * logdet_spd(A)


def coding_rate(Z: np.ndarray, eps: float) -> float:
    """Whole-set coding rate at distortion ``eps``."""
    Z = _check_features(Z)
    check_eps(eps)
    n, m = Z.shape
    return _rate_from_scatter(n / (m * eps**2), Z, None)


def coding_rate_partitioned(Z: np.ndarray, Pi: Membership, eps: float) -> float:
    """Membership-weighted sum of per-class coding rates. Empty classes
    contribute zero."""
    Z = _check_features(Z)
    check_eps(eps)
    n, m = Z.shape
    if Pi.m != m:
        raise ShapeError(f"membership covers {Pi.m} samples, features have {m}")
    total = 0.0
    sizes = Pi.class_sizes
    for j in range(Pi.k):
        mj = sizes[j]
        if mj <= 0:
            continue
        rate = _rate_from_scatter(n / (mj * eps**2), Z, Pi.weights[j])
        total += (mj / m) * rate
    return total


def rate_reduction(Z: np.ndarray, Pi: Membership, eps: float) -> tuple[float, float, float]:
    """Returns (R, Rc, dR) with dR = R - Rc."""
    R = coding_rate(Z, eps)
    Rc = coding_rate_partitioned(Z, Pi, eps)
    return R, Rc, R - Rc


def _spd_inverse(A: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError("operator argument lost positive definiteness") from exc
    inv_L = np.linalg.inv(L)
    return inv_L.conj().T @ inv_L


def expansion_operator(Z: np.ndarray, params: RateParams) -> np.ndarray:
    """alpha * (I + alpha Z Z^T)^-1: symmetric PD, eigenvalues in (0, alpha]."""
    Z = _check_features(Z)
    n = Z.shape[0]
    a = params.alpha
    E = a * _spd_inverse(np.eye(n) + a * (Z @ Z.T))
    return 0.5 * (E + E.T)


def compression_operator(
    Z: np.ndarray, Pi: Membership, j: int, params: RateParams
) -> np.ndarray:
    """alpha_j * (I + alpha_j Z Pi_j Z^T)^-1 for a nonempty class j."""
    Z = _check_features(Z)
    if Pi.class_sizes[j] <= 0:
        raise EmptyClassError(f"class {j} has zero total membership")
    n = Z.shape[0]
    a = params.alpha_j[j]
    C = a * _spd_inverse(np.eye(n) + a * ((Z * Pi.weights[j]) @ Z.T))
    return 0.5 * (C + C.T)


def rate_gradient(Z: np.ndarray, Pi: Membership, params: RateParams) -> np.ndarray:
    """Exact gradient of the rate reduction with respect to Z:
    E Z - sum_j gamma_j C_j Z Pi_j."""
    Z = _check_features(Z)
    grad = expansion_operator(Z, params) @ Z
    for j in range(Pi.k):
        if Pi.class_sizes[j] <= 0:
            continue
        Cj = compression_operator(Z, Pi, j, params)
        grad -= params.gamma_j[j] * (Cj @ (Z * Pi.weights[j]))
    return grad
