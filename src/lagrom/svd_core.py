"""One factorization per training window, and the share-based rank rule
shared by the POD and DMD fits.

A training window X (n rows, m snapshot columns) is factored once by a
Householder QR, X = QR (LAPACK ``dgeqrf``), with Q kept implicit as its
reflectors. The R of the first k columns is ``R[:, :k]``, so one QR serves
every leading column block: the POD fit takes the SVD of ``R[:, :m]`` and the
DMD fit that of ``R[:, :m-1]`` (Demmel, Grigori, Hoemmen & Langou, SISC
2012). A fit applies the numerical-rank cut and its rank rule to that small
spectrum, and only then forms its r kept left vectors, U = Q·[U_R; 0], with
one ``dormqr``; U is orthonormal to rounding. The cheaper U = X V Σ⁻¹ is not
used: it lost orthonormality to 1.3e-8 at rank 34 on the full-size test4
window. Nor is the Gram route (method of snapshots): the rank cut sits at
shares near 1e-8, where squaring the condition number loses the last kept σ.

``bench.run_experiment`` factors each window once and passes the factor to
both of its fits, so the second fit's ``fit_seconds`` excludes the shared
QR. A fit given no factor factors its own window with ``reduced_svd``.

``reduced_svd`` calls ``dgeqrf`` through ``lapack``, on the OpenBLAS that
numpy loads, and ``WindowFactor.lift`` calls ``dormqr`` the same way. The
QR's workspace query and factorization both run on one Fortran-order
float64 array, with the optimal ``lwork`` the query returns (the blocked
path rounds differently from the unblocked one, and the emitted CSVs depend
on it; ``scipy.linalg.qr`` chooses the same ``lwork``, and the tests compare
the two bit for bit). Any input, a ``SnapshotMatrix`` or a caller's real
array (``core.real_array`` refuses complex data), writable or not, is copied
into that array once and left as it was. Only a window wrapped in
``HandedOverWindow`` is factored in its own memory: the reflectors
overwrite it, and no copy of it is made. ``bench`` hands over the level-set
window alone, whose full-size QR would otherwise copy 800 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import lapack
from .core import real_array
from .errors import DimensionMismatch, EmptySpectrum, NumericalFailure, RankOutOfRange

# Cells of float64 per column block of reduced_svd's finiteness check, so
# its boolean temporary stays at 1 MB whatever the window.
FINITE_CHECK_CELLS = 1 << 20


@dataclass(frozen=True)
class TruncatedSvd:
    """Factors U, sigma, V of a leading column block of a factored window,
    with orthonormal columns and descending sigma.

    ``r_left_vectors`` are the left vectors in the coordinates of the
    window's R, so that U = Q·[U_R; 0]. ``left_vectors`` is U itself, which
    ``WindowFactor.lift`` forms for the kept rank only; it is None before.
    ``full_singular_values`` keeps the complete computed spectrum for
    diagnostics such as projection-error bounds.
    """

    r_left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    full_singular_values: np.ndarray
    rank: int
    left_vectors: Optional[np.ndarray] = None

    def validate(self, tol: float = 1e-10) -> None:
        r = self.rank
        s, v = self.singular_values, self.right_vectors
        for name, vectors in (("left", self.left_vectors), ("R-coordinate left", self.r_left_vectors), ("right", v)):
            if vectors is not None and np.max(np.abs(vectors.T @ vectors - np.eye(r))) > tol:
                raise NumericalFailure(f"{name} vectors lost orthonormality")
        if np.any(s <= 0) or np.any(np.diff(s) > 0):
            raise NumericalFailure("singular values must be positive and descending")


@dataclass(frozen=True)
class WindowFactor:
    """Householder QR X = QR of one training window.

    ``reflectors`` and ``tau`` are ``dgeqrf``'s output, Q in implicit form;
    ``r`` is the upper-trapezoidal R with min(n, m) rows and m columns.
    """

    reflectors: np.ndarray
    tau: np.ndarray
    r: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.reflectors.shape[0]

    @property
    def n_cols(self) -> int:
        return self.r.shape[1]

    def svd(self, columns: int = None) -> TruncatedSvd:
        """SVD of the window's first ``columns`` columns (all by default), in
        R coordinates, keeping the numerically nonzero part of the spectrum."""
        columns = self.n_cols if columns is None else columns
        try:
            u_r, s, vh = np.linalg.svd(self.r[:, :columns], full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"SVD failed to converge: {exc}") from exc
        if s[0] == 0.0:
            raise EmptySpectrum("matrix is identically zero")
        cutoff = max(self.n_rows, columns) * s[0] * np.finfo(float).eps
        rank = max(int(np.sum(s > cutoff)), 1)
        return TruncatedSvd(u_r[:, :rank], s[:rank], vh[:rank].T, s, rank)

    def lift(self, svd: TruncatedSvd) -> TruncatedSvd:
        """``svd`` with its left vectors formed as U = Q·[U_R; 0] by one
        ``dormqr``, and each kept triplet's sign fixed so that the leading
        significant entry of its left vector is nonnegative. The sign keeps
        the factors reproducible across LAPACK builds; U_R and V take the
        same flip, so every product is unchanged."""
        u_r = svd.r_left_vectors
        u = np.zeros((self.n_rows, svd.rank), order="F")
        u[: u_r.shape[0]] = u_r  # [U_R; 0], which dormqr overwrites with U
        info = lapack.ormqr(self.reflectors, self.tau, u)
        if info != 0:
            raise NumericalFailure(f"applying the implicit Q failed (dormqr info {info})")
        signs = np.ones(svd.rank)
        for j in range(svd.rank):
            magnitudes = np.abs(u[:, j])
            if u[np.argmax(magnitudes > 1e-12 * magnitudes.max()), j] < 0:
                signs[j] = -1.0
        # U is returned row-major: products with it round by its layout, and
        # a model reloaded from disk predicts bit-identically only if its
        # row-major factors match the fitted ones.
        u = np.multiply(u, signs, order="C")
        return replace(svd, r_left_vectors=u_r * signs, right_vectors=svd.right_vectors * signs, left_vectors=u)


@dataclass(frozen=True)
class HandedOverWindow:
    """A training window whose memory its owner gives to ``reduced_svd``.

    ``data`` is factored in place when it is a writable Fortran-order float64
    array (else it is copied like any input): the QR's reflectors overwrite
    it, so the owner must not read it as the window again.
    """

    data: np.ndarray


def _all_finite(x: np.ndarray) -> bool:
    step = max(1, FINITE_CHECK_CELLS // max(x.shape[0], 1))
    return all(np.isfinite(x[:, lo : lo + step]).all() for lo in range(0, x.shape[1], step))


def reduced_svd(matrix) -> WindowFactor:
    """The one factorization of a training window: its Householder QR, from
    which ``WindowFactor.svd`` takes the SVD of any leading column block.

    ``matrix`` is a ``SnapshotMatrix``, an array, or a ``HandedOverWindow``;
    only the last is overwritten (see the module docstring)."""
    handed_over = isinstance(matrix, HandedOverWindow)
    x = real_array(matrix.data if handed_over else matrix)
    if x.ndim != 2:
        raise DimensionMismatch(f"a training window must be 2-D, not {x.ndim}-D")
    if x.size == 0:
        raise EmptySpectrum("cannot factor an empty matrix")
    if not _all_finite(x):
        raise NumericalFailure("matrix contains NaN or Inf")
    if not (handed_over and x.flags.f_contiguous and x.flags.writeable):
        x = np.array(x, dtype=float, order="F")
    tau, info = lapack.geqrf(x)
    if info != 0:
        raise NumericalFailure(f"the window QR failed (dgeqrf info {info})")
    return WindowFactor(x, tau, np.triu(x[: min(x.shape)]))


def window_factor(matrix, factor: WindowFactor = None) -> WindowFactor:
    """The QR a fit works from: ``factor``, shared with the other fit of the
    same window, or else ``reduced_svd(matrix)``."""
    if factor is None:
        return reduced_svd(matrix)
    shape = real_array(matrix).shape
    if shape != (factor.n_rows, factor.n_cols):
        raise DimensionMismatch(f"factor of a {factor.n_rows} x {factor.n_cols} window given for a {shape} window")
    return factor


def fit_svd(factor: WindowFactor, columns: int, epsilon: float = None, fixed_rank: int = None) -> TruncatedSvd:
    """The SVD a fit keeps of the window's first ``columns`` columns: the
    spectrum of ``R[:, :columns]``, cut by a rule that passed
    ``check_rank_rule``, with only the kept left vectors formed."""
    svd = factor.svd(columns)
    return factor.lift(truncate(svd, select_rank(svd, epsilon, fixed_rank)))


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
        svd.r_left_vectors[:, :r],
        svd.singular_values[:r],
        svd.right_vectors[:, :r],
        svd.full_singular_values,
        r,
        None if svd.left_vectors is None else svd.left_vectors[:, :r],
    )
