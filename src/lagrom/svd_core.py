"""Reduced SVD and share-based rank truncation shared by the POD and DMD fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SnapshotMatrix
from .errors import EmptySpectrum, NumericalFailure, RankOutOfRange


@dataclass(frozen=True)
class TruncatedSvd:
    """Factors U, sigma, V with orthonormal columns and descending sigma.

    ``full_singular_values`` keeps the complete computed spectrum for
    diagnostics such as projection-error bounds.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    full_singular_values: np.ndarray
    rank: int

    def validate(self, tol: float = 1e-10) -> None:
        r = self.rank
        u, s, v = self.left_vectors, self.singular_values, self.right_vectors
        if np.max(np.abs(u.T @ u - np.eye(r))) > tol:
            raise NumericalFailure("left vectors lost orthonormality")
        if np.max(np.abs(v.T @ v - np.eye(r))) > tol:
            raise NumericalFailure("right vectors lost orthonormality")
        if np.any(s <= 0) or np.any(np.diff(s) > 0):
            raise NumericalFailure("singular values must be positive and descending")


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Make the leading significant entry of each left vector nonnegative.

    Keeps factors reproducible across LAPACK builds; the compensating flip is
    applied to the right vectors so the product is unchanged.
    """
    for k in range(u.shape[1]):
        col = u[:, k]
        cutoff = 1e-12 * np.max(np.abs(col))
        idx = np.argmax(np.abs(col) > cutoff)
        if col[idx] < 0:
            u[:, k] = -col
            v[:, k] = -v[:, k]


def reduced_svd(matrix) -> TruncatedSvd:
    """SVD keeping the numerically nonzero part of the spectrum."""
    x = matrix.data if isinstance(matrix, SnapshotMatrix) else np.asarray(matrix, dtype=float)
    if x.size == 0:
        raise EmptySpectrum("cannot factor an empty matrix")
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("matrix contains NaN or Inf")
    try:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed to converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        raise EmptySpectrum("matrix is identically zero")
    cutoff = max(x.shape) * s[0] * np.finfo(float).eps
    rank = int(np.sum(s > cutoff))
    rank = max(rank, 1)
    u = u[:, :rank].copy()
    v = vh[:rank].T.copy()
    _fix_signs(u, v)
    return TruncatedSvd(u, s[:rank].copy(), v, s.copy(), rank)


def truncation_rank(singular_values: np.ndarray, epsilon: float) -> int:
    """Number of modes whose normalized share sigma_k / sum(sigma) meets epsilon."""
    s = np.asarray(singular_values, dtype=float)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if s.size == 0 or np.all(s == 0.0):
        raise EmptySpectrum("all singular values are zero")
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("singular values must be nonnegative and descending")
    shares = s / np.sum(s)
    return max(int(np.sum(shares >= epsilon)), 1)


def check_rank_rule(epsilon: float = None, fixed_rank: int = None) -> None:
    """Reject a rank rule before any factoring: exactly one of ``epsilon``
    (in (0, 1)) or ``fixed_rank`` (at least 1) must be given."""
    if (epsilon is None) == (fixed_rank is None):
        raise ValueError("provide exactly one of epsilon or fixed_rank")
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon {epsilon:g} must lie in (0, 1)")
    if fixed_rank is not None and fixed_rank < 1:
        raise RankOutOfRange(f"fixed_rank {fixed_rank} must be at least 1")


def select_rank(svd: TruncatedSvd, epsilon: float = None, fixed_rank: int = None) -> int:
    """The rank both fits keep under a rule that passed ``check_rank_rule``:
    the share count at ``epsilon``, or ``fixed_rank`` clamped to the
    numerical rank, whose trailing singular values carry no information and
    whose inverses would poison a reduced operator."""
    if epsilon is not None:
        return truncation_rank(svd.singular_values, epsilon)
    return min(int(fixed_rank), svd.rank)


def truncate(svd: TruncatedSvd, r: int) -> TruncatedSvd:
    """Keep the leading r singular triplets."""
    if not 1 <= r <= svd.rank:
        raise RankOutOfRange(f"rank {r} outside [1, {svd.rank}]")
    if r == svd.rank:
        return svd
    return TruncatedSvd(
        svd.left_vectors[:, :r],
        svd.singular_values[:r],
        svd.right_vectors[:, :r],
        svd.full_singular_values,
        r,
    )
