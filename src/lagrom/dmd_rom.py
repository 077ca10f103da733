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
product, and 64-row blocks about as long. ``predict`` is ``predict_series`` at one index, where the walk is
one r x r matrix power (about log2 k products) and the lift one n x r
matvec, whatever the horizon.
The form keeps every intermediate at the scale of the data: for
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
(K W = W diag(eigenvalues)). The DMD modes are the projected modes U W
(Schmid, JFM 2010), formed only when ``DmdModel.modes`` is read; since U has
orthonormal columns, pinv(U W) = W^-1 U^T, so the fit's left-inverse check
and the error bound's ||pinv(modes)||_F need only W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .core import NUMBER_FORMAT, SnapshotMatrix, side_by_side, write_number_table
from .errors import DimensionMismatch, NumericalFailure, TooFewSnapshots
from .svd_core import WindowFactor, check_rank_rule, fit_svd, window_factor

OBSERVABLE_STATE = "state"
OBSERVABLE_STACKED = "lagrangian-stacked"
OBSERVABLE_LEVELSET = "levelset-field"

_IMAG_TOL = 1e-6
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
    real_input: bool
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
    data = snapshots.data if isinstance(snapshots, SnapshotMatrix) else np.asarray(snapshots)
    if data.ndim != 2 or data.shape[1] < 2:
        raise TooFewSnapshots("need at least two snapshot columns")
    return data[:, :-1], data[:, 1:]


def _resolve_training(snapshots, base_time_index):
    if isinstance(snapshots, SnapshotMatrix):
        data = snapshots.data
        if not snapshots.has_unit_stride():
            raise DimensionMismatch("training snapshots must have unit time stride")
        base = int(snapshots.col_times[0]) if snapshots.n_snapshots else 0
    else:
        data = np.asarray(snapshots, dtype=float)
        base = 1
    if base_time_index is not None:
        base = int(base_time_index)
    return data, base


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
    r = svd.rank

    # With X = QR and U = Q [U_R; 0], U^T maps a window column X[:, j] to
    # U_R^T R[:, j]: the window algebra below runs on R's columns.
    u, u_r, s, v = svd.left_vectors, svd.r_left_vectors, svd.singular_values, svd.right_vectors
    r1, r2 = factor.r[:, :-1], factor.r[:, 1:]
    k_tilde = (u_r.T @ r2 @ v) / s[None, :]
    eigvals, w = np.linalg.eig(k_tilde)
    # pinv(U W) = W^-1 U^T, so the modes' left inverse is checked on W alone.
    # As in np.linalg.pinv of the modes, W is singular from cond(W) = 1/(n eps):
    # an exact LU can invert a W far past that, as for a nilpotent K.
    if np.linalg.cond(w) * data.shape[0] * np.finfo(float).eps >= 1 or (
        np.max(np.abs(np.linalg.inv(w) @ w - np.eye(r))) > 1e-8
    ):
        raise NumericalFailure("mode pseudoinverse lost left-inverse property")
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
        real_input=bool(np.isrealobj(data)),
        projector=u,
        reduced_operator=k_tilde,
        projected_anchor=anchor_proj,
    )


def fit_lagrangian_dmd(
    stacked_snapshots, epsilon: float = None, fixed_rank: int = None, factor: WindowFactor = None
) -> DmdModel:
    """DMD on the stacked [positions; values] observable (rows must be 2N)."""
    data = stacked_snapshots.data if isinstance(stacked_snapshots, SnapshotMatrix) else np.asarray(stacked_snapshots)
    if data.shape[0] % 2:
        raise DimensionMismatch("stacked observable matrix must have an even row count")
    return fit_dmd(
        stacked_snapshots, epsilon=epsilon, fixed_rank=fixed_rank, observable_kind=OBSERVABLE_STACKED, factor=factor
    )


def one_step_map(model: DmdModel, columns: np.ndarray) -> np.ndarray:
    """Apply the fitted one-step propagator to each column."""
    cols = np.asarray(columns)
    out = model.projector @ (model.reduced_operator @ (model.projector.T.conj() @ cols))
    return out.real if model.real_input else out


def _checked_finite(result: np.ndarray, indices) -> np.ndarray:
    """Real part of a prediction block (n x k) whose columns belong to
    ``indices``; raises at the block's first column that overflowed.

    A real-input model's factors are real (a fit makes them so, and
    ``load_dmd_model`` checks a file's), so its blocks are real already.
    """
    failing = ~np.isfinite(result).all(axis=0)
    if failing.any():
        first = int(indices[int(np.argmax(failing))])
        raise NumericalFailure(f"prediction at time index {first} is not finite", time_index=first)
    return result.real


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


def save_dmd_model(model: DmdModel, path) -> None:
    """Plain-text serialization: header lines then CSV blocks of the factors.

    Every factor is written as a ``[name_re]`` block and a ``[name_im]``
    block; vectors take one row.
    """
    blocks = (
        ("eigenvalues", model.eigenvalues[None, :]),
        ("eigenvectors", model.eigenvectors),
        ("projector", model.projector),
        ("reduced_operator", model.reduced_operator),
        ("projected_anchor", model.projected_anchor[None, :]),
    )
    with open(path, "wb") as fh:
        fh.write(
            (
                "lagrom-dmd-v2\n"
                f"kind={model.observable_kind}\n"
                f"base_time_index={model.base_time_index}\n"
                f"training_count={model.training_count}\n"
                f"rank={model.rank}\n"
                f"rows={model.n_rows}\n"
                f"train_residual={NUMBER_FORMAT % model.train_residual}\n"
                f"real_input={int(model.real_input)}\n"
                f"requested_rank={'' if model.requested_rank is None else model.requested_rank}\n"
            ).encode()
        )
        for name, matrix in blocks:
            matrix = np.asarray(matrix, dtype=complex)
            for part, values in (("re", matrix.real), ("im", matrix.imag)):
                fh.write(f"[{name}_{part}]\n".encode())
                write_number_table(fh, values)


def _real_factor(name: str, values: np.ndarray) -> np.ndarray:
    """The real part of a real-input model's factor read from a file.

    Raises ValueError when the factor's largest imaginary magnitude exceeds
    ``_IMAG_TOL`` of its largest real one. Largest magnitudes, not norms, so
    entries past the square root of the largest double compare exactly.
    """
    imag = float(np.max(np.abs(values.imag), initial=0.0))
    scale = float(np.max(np.abs(values.real), initial=0.0))
    if not imag <= _IMAG_TOL * scale:
        raise ValueError(
            f"[{name}_im] of a real-input model: imaginary part {imag:.3e} exceeds {_IMAG_TOL:g} of magnitude {scale:.3e}"
        )
    return np.ascontiguousarray(values.real)


def load_dmd_model(path) -> DmdModel:
    """Read a model written by ``save_dmd_model``.

    Raises ValueError for a file that is not a complete ``lagrom-dmd-v2``
    model: unknown format (``lagrom-dmd-v1`` included), a missing factor
    block, block shapes that disagree with the header's ``rows`` and
    ``rank``, or, for a real-input model, a factor whose imaginary part is
    not negligible (``_real_factor``).
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != "lagrom-dmd-v2":
        raise ValueError("not a recognized model file")
    header = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("["):
        key, _, val = lines[i].partition("=")
        header[key] = val
        i += 1
    blocks = {}
    current = None
    for ln in lines[i:]:
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            blocks[current] = []
        elif current is not None and ln:
            blocks[current].append(np.array([float(x) for x in ln.split(",")]))

    try:
        rows, rank = int(header["rows"]), int(header["rank"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"model header lacks a valid rows/rank entry: {exc}") from exc

    def complex_block(name, shape):
        # Assigned part by part: ``re + 1j * im`` would turn an imaginary -0 into +0.
        out = np.empty(shape, dtype=complex)
        for label, part in ((f"{name}_re", out.real), (f"{name}_im", out.imag)):
            if not blocks.get(label):
                raise ValueError(f"model file lacks the [{label}] block")
            values = np.array(blocks[label])  # ragged rows raise ValueError here
            if values.shape != shape:
                raise ValueError(f"[{label}] block does not have shape {shape} (rows={rows}, rank={rank})")
            part[...] = values
        return out

    eigvals = complex_block("eigenvalues", (1, rank))[0]
    eigvecs = complex_block("eigenvectors", (rank, rank))
    projector = complex_block("projector", (rows, rank))
    reduced_op = complex_block("reduced_operator", (rank, rank))
    anchor = complex_block("projected_anchor", (1, rank))[0]
    real_input = bool(int(header.get("real_input", "1")))
    if real_input and not eigvals.imag.any():
        # np.linalg.eig returns real factors for a real operator's real spectrum
        eigvals, eigvecs = (np.ascontiguousarray(a.real) for a in (eigvals, eigvecs))
    if real_input:
        projector, reduced_op, anchor = (
            _real_factor(name, values)
            for name, values in (("projector", projector), ("reduced_operator", reduced_op), ("projected_anchor", anchor))
        )
    req = header.get("requested_rank", "")
    return DmdModel(
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        observable_kind=header["kind"],
        base_time_index=int(header["base_time_index"]),
        training_count=int(header["training_count"]),
        train_residual=float(header["train_residual"]),
        requested_rank=int(req) if req else None,
        real_input=real_input,
        projector=projector,
        reduced_operator=reduced_op,
        projected_anchor=anchor,
    )
