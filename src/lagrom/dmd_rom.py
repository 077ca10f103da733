"""Dynamic mode decomposition: plain state-observable fits and the
moving-frame variant whose observable stacks grid positions over carried
values.

A fitted model holds the orthonormal data basis U, the reduced one-step
operator K and the projected anchor snapshot U^T y_base. Prediction at a
future index k is ``U @ K^k @ (U^T y_base)`` (the projector form of exact
DMD; no time stepping in the full dimension). ``prediction_blocks`` is the
one prediction path: over h indices it walks them in sorted order and
advances the reduced vector by K^gap, one r x r matvec per adjacent index,
then lifts the reduced rows by U in blocks of ``LIFT_COLUMNS`` indices, each
an n x r by r x 64 product (n observable rows), checked as it is made.
``predict_series`` puts the blocks side by side; ``bench`` scores them as
they come, so a whole-horizon observable exists only when a caller asks for
one. The lift width is load-bearing. Blocks of 4 to 128 rows gave the
single n x r by r x h product bit for bit on every preset; blocks of 1 or 3
did not. At full size, 16-row blocks took 1.8 times as long as the single
product, and 64-row blocks about as long.

``predict`` is ``predict_series`` at one index, where the walk is one r x r
matrix power (about log2 k products) and the lift one n x r matvec, whatever
the horizon. The form keeps every intermediate at the scale of the data: for
snapshot data whose one-step operator is nearly defective (for example a
state growing linearly in time) the eigenvector basis is ill-conditioned,
and a superposition of modes would cancel about half of its floating-point
digits.

The fit works from the window's QR X = QR (``svd_core.reduced_svd``), which
it may share with the POD fit of the same window. It takes the SVD of
``R[:, :m-1]`` and forms U = Q·[U_R; 0] for the kept rank only; everything
else it computes from the window stays in R coordinates: the reduced
operator K = U_R^T R[:, 1:m] V S^-1, the projected anchor U_R^T R[:, 0], and
the training residual, the largest column norm of
R[:, 1:m] - U_R K U_R^T R[:, :m-1]. When the QR is shared, the fit's
``fit_seconds`` in ``lagrom run`` excludes it if the POD fit ran first.

The model also keeps K's eigenvalues and its r x r eigenvectors W
(K W = W diag(eigenvalues)), from ``_eigenpairs``. The DMD modes are the
projected modes U W (Schmid, JFM 2010), formed only when ``DmdModel.modes``
is read; since U has orthonormal columns, pinv(U W) = W^-1 U^T, so the
left-inverse check and the error bound's ||pinv(modes)||_F need only W.
The data are real (``core.real_array``), so only the eigenpairs may be
complex: a model file stores the real factors U, K and U^T y_base, and
``load_dmd_model`` derives the eigenpairs again. Prediction never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .core import NUMBER_FORMAT, first_time_index, real_array, side_by_side, write_number_table
from .errors import DimensionMismatch, NumericalFailure, TooFewSnapshots
from .svd_core import WindowFactor, check_rank_rule, fit_svd, window_factor

OBSERVABLE_STATE = "state"
OBSERVABLE_STACKED = "lagrangian-stacked"
OBSERVABLE_LEVELSET = "levelset-field"

# Indices lifted per block by prediction_blocks (2 MB of the full-size
# stacked observable). Load-bearing, see above.
LIFT_COLUMNS = 64


@dataclass(frozen=True)
class DmdModel:
    eigenvalues: np.ndarray
    # Eigenvectors W of the reduced operator, one per column (r x r).
    eigenvectors: np.ndarray
    observable_kind: str
    base_time_index: int
    training_count: int
    train_residual: float
    requested_rank: Optional[int]
    # Orthonormal data basis, reduced one-step operator, and projected anchor
    # snapshot: the factors every prediction is evaluated from.
    projector: np.ndarray
    reduced_operator: np.ndarray
    projected_anchor: np.ndarray

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def n_rows(self) -> int:
        return self.projector.shape[0]

    @property
    def modes(self) -> np.ndarray:
        """The projected DMD modes U W (n x r), formed on each read."""
        return self.projector @ self.eigenvectors


def split_pairs(snapshots) -> Tuple[np.ndarray, np.ndarray]:
    """Shifted column pairs (Y1, Y2) = (columns 1..m-1, columns 2..m)."""
    data = real_array(snapshots)
    if data.ndim != 2 or data.shape[1] < 2:
        raise TooFewSnapshots("need at least two snapshot columns")
    return data[:, :-1], data[:, 1:]


def _resolve_training(snapshots, base_time_index):
    base = first_time_index(snapshots)
    return real_array(snapshots), base if base_time_index is None else int(base_time_index)


def _eigenpairs(k_tilde: np.ndarray, n_rows: int):
    """K's eigenvalues and eigenvectors W, for the fit and ``load_dmd_model``.

    pinv(U W) = W^-1 U^T for the n_rows x r basis U, so the modes' left
    inverse is checked on W alone. As in np.linalg.pinv of the modes, W is
    singular from cond(W) = 1/(n eps): an exact LU can invert a W far past
    that, as for a nilpotent K.
    """
    eigvals, w = np.linalg.eig(k_tilde)
    if np.linalg.cond(w) * n_rows * np.finfo(float).eps >= 1 or (
        np.max(np.abs(np.linalg.inv(w) @ w - np.eye(w.shape[0]))) > 1e-8
    ):
        raise NumericalFailure("mode pseudoinverse lost left-inverse property")
    return eigvals, w


def fit_dmd(
    snapshots,
    epsilon: float = None,
    fixed_rank: int = None,
    observable_kind: str = OBSERVABLE_STATE,
    base_time_index: int = None,
    factor: WindowFactor = None,
) -> DmdModel:
    """Fit a DMD model on consecutive snapshot columns.

    Exactly one of ``epsilon`` (share-based rank selection) or ``fixed_rank``
    must be given; ``svd_core.select_rank`` applies the rule to the first
    data block, clamping a fixed rank to its numerical rank. ``factor`` is
    the window's QR (``svd_core.reduced_svd``), which a POD fit of the same
    window may share; without one the fit factors the window itself.
    """
    check_rank_rule(epsilon, fixed_rank)
    data, base = _resolve_training(snapshots, base_time_index)
    split_pairs(data)  # rejects a window of fewer than two columns
    m = data.shape[1]
    factor = window_factor(data, factor)

    svd = fit_svd(factor, m - 1, epsilon, fixed_rank)

    # With X = QR and U = Q [U_R; 0], U^T maps a window column X[:, j] to
    # U_R^T R[:, j]: the window algebra below runs on R's columns.
    u, u_r, s, v = svd.left_vectors, svd.r_left_vectors, svd.singular_values, svd.right_vectors
    r1, r2 = factor.r[:, :-1], factor.r[:, 1:]
    k_tilde = (u_r.T @ r2 @ v) / s[None, :]
    eigvals, w = _eigenpairs(k_tilde, data.shape[0])
    anchor_proj = u_r.T @ factor.r[:, 0]

    # One-step training residual max_j ||Y2_j - U K U^T Y1_j||, a fit
    # diagnostic kept on the model and saved with it; Q keeps column norms,
    # so it is taken on R's columns. The error bound does not read it; its
    # slope comes from error_analysis.estimate_eps_m on the data the caller
    # scores against.
    stepped = u_r @ (k_tilde @ (u_r.T @ r1))
    resid = float(np.max(np.linalg.norm(r2 - stepped, axis=0)))

    return DmdModel(
        eigenvalues=eigvals,
        eigenvectors=w,
        observable_kind=observable_kind,
        base_time_index=base,
        training_count=m,
        train_residual=resid,
        requested_rank=fixed_rank,
        projector=u,
        reduced_operator=k_tilde,
        projected_anchor=anchor_proj,
    )


def fit_lagrangian_dmd(
    stacked_snapshots, epsilon: float = None, fixed_rank: int = None, factor: WindowFactor = None
) -> DmdModel:
    """DMD on the stacked [positions; values] observable (rows must be 2N)."""
    if real_array(stacked_snapshots).shape[0] % 2:
        raise DimensionMismatch("stacked observable matrix must have an even row count")
    return fit_dmd(
        stacked_snapshots, epsilon=epsilon, fixed_rank=fixed_rank, observable_kind=OBSERVABLE_STACKED, factor=factor
    )


def one_step_map(model: DmdModel, columns: np.ndarray) -> np.ndarray:
    """Apply the fitted one-step propagator to each column."""
    return model.projector @ (model.reduced_operator @ (model.projector.T @ np.asarray(columns)))


def _checked_finite(result: np.ndarray, indices) -> np.ndarray:
    """A prediction block (n x k) whose columns belong to ``indices``;
    raises at the block's first column that overflowed."""
    failing = ~np.isfinite(result).all(axis=0)
    if failing.any():
        first = int(indices[int(np.argmax(failing))])
        raise NumericalFailure(f"prediction at time index {first} is not finite", time_index=first)
    return result


def predict(model: DmdModel, k: int) -> np.ndarray:
    """Observable at time index k: ``U @ K^(k - base) @ (U^T y_base)``."""
    return predict_series(model, [k])[:, 0]


def prediction_blocks(model: DmdModel, indices) -> Iterator[np.ndarray]:
    """The columns of ``predict_series(model, indices)``, in the caller's
    order, as column-contiguous blocks of ``LIFT_COLUMNS`` (the last may be
    narrower).

    The indices are visited once, in sorted order: the projected anchor
    advances by ``K^gap`` between consecutive distinct indices (one r x r
    matvec when they are adjacent), which gives every r-wide reduced row
    before the first block is lifted. Each block is then one product of its
    reduced rows with ``U``, checked for overflow, so no full-horizon
    observable exists unless a caller collects one.
    """
    idx = np.asarray(indices, dtype=int)
    if np.any(idx < model.base_time_index):
        raise ValueError("prediction indices precede the anchor snapshot")
    op = model.reduced_operator
    current = model.projected_anchor
    reduced_t = np.empty((idx.size, current.size), dtype=np.result_type(op, current))
    power = 0
    for j in np.argsort(idx, kind="stable"):
        gap = int(idx[j]) - model.base_time_index - power
        if gap == 1:
            current = op @ current
        elif gap:
            current = np.linalg.matrix_power(op, gap) @ current
        power += gap
        reduced_t[j] = current
    lift = model.projector.T
    for start in range(0, idx.size, LIFT_COLUMNS):
        cols = slice(start, start + LIFT_COLUMNS)
        yield _checked_finite((reduced_t[cols] @ lift).T, idx[cols])


def predict_series(model: DmdModel, indices) -> np.ndarray:
    """Column-stacked predictions for many indices, in the caller's order:
    the blocks of ``prediction_blocks`` side by side, column-contiguous
    (Fortran order)."""
    idx = np.asarray(indices, dtype=int)
    return side_by_side(prediction_blocks(model, idx), model.n_rows, idx.size, order="F")


# The factor blocks of a model file, in file order.
_FACTORS = ("projector", "reduced_operator", "projected_anchor")


def save_dmd_model(model: DmdModel, path) -> None:
    """Plain-text serialization: header lines, then one CSV block per real
    factor (U, K and the projected anchor, which takes one row)."""
    with open(path, "wb") as fh:
        fh.write(
            (
                "lagrom-dmd-v3\n"
                f"kind={model.observable_kind}\n"
                f"base_time_index={model.base_time_index}\n"
                f"training_count={model.training_count}\n"
                f"train_residual={NUMBER_FORMAT % model.train_residual}\n"
                f"requested_rank={'' if model.requested_rank is None else model.requested_rank}\n"
            ).encode()
        )
        for name in _FACTORS:
            fh.write(f"[{name}]\n".encode())
            write_number_table(fh, np.atleast_2d(getattr(model, name)))


def load_dmd_model(path) -> DmdModel:
    """Read a model written by ``save_dmd_model``, with K's eigenpairs
    derived again by ``_eigenpairs``.

    Raises ValueError for a file that is not a complete ``lagrom-dmd-v3``
    model: unknown format (``lagrom-dmd-v2`` and ``-v1`` included), a
    missing factor block, or blocks whose shapes disagree (U is n x r, K is
    r x r and the anchor 1 x r); and NumericalFailure, as the fit does, when
    K's eigenvectors fail the left-inverse check.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != "lagrom-dmd-v3":
        raise ValueError("not a recognized model file")
    header, blocks, current = {}, {}, None
    for ln in lines[1:]:
        if ln.startswith("[") and ln.endswith("]"):
            current = blocks[ln[1:-1]] = []
        elif current is None:
            key, _, val = ln.partition("=")
            header[key] = val
        elif ln:
            current.append([float(x) for x in ln.split(",")])
    for name in _FACTORS:
        if not blocks.get(name):
            raise ValueError(f"model file lacks the [{name}] block")
    # ragged rows raise ValueError here
    projector, reduced_op, anchor = (np.array(blocks[name]) for name in _FACTORS)
    rows, rank = projector.shape
    if reduced_op.shape != (rank, rank) or anchor.shape != (1, rank):
        raise ValueError(
            f"factor blocks of shapes {projector.shape}, {reduced_op.shape} and {anchor.shape} "
            "do not have the shapes n x r, r x r and 1 x r"
        )
    eigvals, eigvecs = _eigenpairs(reduced_op, rows)
    req = header.get("requested_rank", "")
    return DmdModel(
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        observable_kind=header["kind"],
        base_time_index=int(header["base_time_index"]),
        training_count=int(header["training_count"]),
        train_residual=float(header["train_residual"]),
        requested_rank=int(req) if req else None,
        projector=projector,
        reduced_operator=reduced_op,
        projected_anchor=anchor[0],
    )
