"""Level-set embedding of a 1-D conservation law into 2-D linear transport.

A state u(x, t) solving u_t + f(u) u_x = 0 is represented implicitly by a
field c(x, y, t) initialized to c0 = y - u0(x): each horizontal row advects
independently at the constant speed f(y_row), and the zero contour of c in
the (x, y) plane recovers u. The 2-D field is linear dynamics, so a DMD fit
on flattened field snapshots gives an iteration-free surrogate whose contours
approximate the nonlinear solution.

One step path: the step stream ``levelset_steps`` checks the row speeds
f(y) (``ProblemSpec.speed``) with ``core.check_courant`` and steps the raw
field with ``kernels.levelset_step``.
``extract_zero_contour``, the run and the surrogate's one rollout path,
``contour_blocks`` (one block of contours per chunk of ``CONTOUR_CHUNK``
indices; ``predict_contours`` collects them and ``predicted_contour`` takes
one index), all take contours with ``zero_contour``. The y grid is fixed
(``levelset_grids``), so the stream checks the row Courant number once per
run, and each field's finiteness. Under that check each upwind update is a
convex combination of neighbours, so every field stays within the range of
c^0.

The stream steps the field in column-major (Fortran) order, so a field's
column-major flattening is its own memory, and stores nothing:
``bench.run_experiment`` keeps only its training window. ``run_levelset_hfm``
collects it with one contour per step: each of the first m steps is one
contiguous row of a preallocated (m, n_x·n_y) C-order store, and each
contour one row of an (M+1, n_x) store, both read-only after the loop.
``snapshots.data`` and ``contours`` are their transposed views, and the
snapshot matrix adopts its view without a copy. A ``LevelSetField`` is
built only for ``final_field``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from . import kernels
from .core import Grid1D, ProblemSpec, SnapshotMatrix, StateVector, check_courant, real_array, side_by_side
from .errors import (
    MultipleSignChanges,
    NoSignChange,
    NumericalFailure,
    RangeNotCovered,
)
from .dmd_rom import OBSERVABLE_LEVELSET, DmdModel, fit_dmd, prediction_blocks
from .svd_core import WindowFactor

DEFAULT_MARGIN_FRAC = 0.1
# Indices predicted per chunk by contour_blocks (about 100 MB of fields at
# full size).
CONTOUR_CHUNK = 32


@dataclass(frozen=True)
class LevelSetField:
    """2-D sample of c on the tensor grid (rows follow y, columns follow x)."""

    x_grid: Grid1D
    y_grid: Grid1D
    values: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        vals = np.array(real_array(self.values))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != (len(self.y_grid), len(self.x_grid)):
            raise RangeNotCovered(
                f"field shape {vals.shape} does not match (n_y, n_x) = "
                f"({len(self.y_grid)}, {len(self.x_grid)})"
            )


def value_grid_for(u0_samples: np.ndarray, n_y: int) -> Grid1D:
    """y nodes spanning the sampled data range plus a safety margin."""
    lo, hi = float(np.min(u0_samples)), float(np.max(u0_samples))
    margin = DEFAULT_MARGIN_FRAC * max(hi - lo, 1e-12)
    if hi == lo:
        margin = max(margin, 0.1 * max(abs(hi), 1.0))
    return Grid1D(np.linspace(lo - margin, hi + margin, n_y), uniform=True)


def embed_initial(u0, x_grid: Grid1D, y_grid: Grid1D) -> LevelSetField:
    """Build c0(x, y) = y - u0(x); the zero contour is exactly the initial curve."""
    u_samples = real_array(u0(x_grid.nodes))
    lo, hi = float(np.min(u_samples)), float(np.max(u_samples))
    required = DEFAULT_MARGIN_FRAC * (hi - lo)
    tol = 1e-12 * max(abs(hi), abs(lo), 1.0)
    if y_grid.nodes[0] > lo - required + tol or y_grid.nodes[-1] < hi + required - tol:
        raise RangeNotCovered(
            f"y range [{y_grid.nodes[0]:.4g}, {y_grid.nodes[-1]:.4g}] does not cover "
            f"[{lo - required:.4g}, {hi + required:.4g}]"
        )
    values = y_grid.nodes[:, None] - u_samples[None, :]
    return LevelSetField(x_grid, y_grid, values, 0)


def zero_contour(c: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-column linear root in y of the (n_y, n_x) field ``c`` sampled at
    rows ``y`` and columns ``x``; exact for fields affine in y.

    ``c`` may also hold k fields side by side, (n_y, n_x·k); an error names
    the failing column's x node, ``col % n_x``.
    """
    nonneg = c >= 0.0
    flips = np.sum(nonneg[1:, :] != nonneg[:-1, :], axis=0)
    if np.any(flips == 0):
        col = int(np.argmax(flips == 0)) % x.size
        raise NoSignChange(f"column {col} (x = {x[col]:.4g}) never crosses zero")
    if np.any(flips > 1):
        j = int(np.argmax(flips > 1))
        col = j % x.size
        raise MultipleSignChanges(f"column {col} (x = {x[col]:.4g}) crosses zero {int(flips[j])} times")
    idx = np.argmax(nonneg[1:, :] != nonneg[:-1, :], axis=0)
    cols = np.arange(c.shape[1])
    c_lo = c[idx, cols]
    c_hi = c[idx + 1, cols]
    frac = c_lo / (c_lo - c_hi)
    return y[idx] + frac * (y[idx + 1] - y[idx])


def extract_zero_contour(field: LevelSetField) -> StateVector:
    """Per-column linear root of c in y; exact for fields affine in y."""
    roots = zero_contour(field.values, field.y_grid.nodes, field.x_grid.nodes)
    return StateVector(roots, field.x_grid, field.time_index)


@dataclass
class LevelSetRun:
    """Training snapshots, contour trajectory, and final field of one 2-D run.

    ``snapshots.data`` and ``contours`` (n_x, M+1) are read-only views of
    the run's time-major stores.
    """

    snapshots: SnapshotMatrix
    contours: np.ndarray
    x_grid: Grid1D
    y_grid: Grid1D
    final_field: LevelSetField
    wall_seconds: float


def levelset_grids(spec: ProblemSpec, n_y: int = None) -> Tuple[Grid1D, Grid1D]:
    """The run's x grid and its y grid of ``n_y`` rows (by default a tenth
    of the x nodes, at least 8) spanning u0's range plus the margin."""
    x_grid = spec.grid()
    if n_y is None:
        n_y = max(len(x_grid) // 10, 8)
    return x_grid, value_grid_for(spec.initial_state(), n_y)


def levelset_steps(spec: ProblemSpec, x_grid: Grid1D, y_grid: Grid1D) -> Iterator[np.ndarray]:
    """The embedded run as a stream of read-only column-major (n_y, n_x)
    fields c^0..c^M. Nothing is stored, so a consumer that reads the fields
    as they come holds one at a time; ``run_levelset_hfm`` collects them."""
    dx = x_grid.spacing
    speeds = spec.speed(y_grid.nodes)
    check_courant(speeds, spec.dt, dx, 1, "row Courant number")
    c = np.asfortranarray(embed_initial(spec.initial_u0, x_grid, y_grid).values)
    for index in range(spec.n_steps + 1):
        if index:
            c = kernels.levelset_step(c, speeds, spec.dt / dx, spec.periodic)
        if not np.isfinite(c).all():
            raise NumericalFailure(f"non-finite field at time index {index}", time_index=index)
        c.setflags(write=False)  # the next step reads it
        yield c


def run_levelset_hfm(spec: ProblemSpec, n_store: int, n_y: int = None) -> LevelSetRun:
    """Collect ``levelset_steps`` over the problem's full time horizon, with
    one contour per field; the snapshots are the first n_store post-initial
    fields."""
    if n_store > spec.n_steps:
        raise ValueError("n_store cannot exceed the number of steps")
    started = time.perf_counter()
    x_grid, y_grid = levelset_grids(spec, n_y)
    x, y = x_grid.nodes, y_grid.nodes
    contours = np.empty((spec.n_steps + 1, x.size))
    store = np.empty((n_store, x.size * y.size))
    for index, c in enumerate(levelset_steps(spec, x_grid, y_grid)):
        contours[index] = zero_contour(c, y, x)
        if 1 <= index <= n_store:
            store[index - 1] = c.ravel(order="F")
    contours.setflags(write=False)
    store.setflags(write=False)
    snaps = SnapshotMatrix(store.T, np.arange(1, n_store + 1))
    final_field = LevelSetField(x_grid, y_grid, np.ascontiguousarray(c), spec.n_steps)
    elapsed = time.perf_counter() - started
    return LevelSetRun(snaps, contours.T, x_grid, y_grid, final_field, elapsed)


def levelset_dmd(snapshots, epsilon: float = None, fixed_rank: int = None, factor: WindowFactor = None) -> DmdModel:
    """DMD on flattened field snapshots."""
    return fit_dmd(snapshots, epsilon=epsilon, fixed_rank=fixed_rank, observable_kind=OBSERVABLE_LEVELSET, factor=factor)


def contour_blocks(model: DmdModel, indices, x_grid: Grid1D, y_grid: Grid1D) -> Iterator[np.ndarray]:
    """The columns of ``predict_contours``, one (n_x, k) block per
    ``prediction_blocks`` lift block of a ``CONTOUR_CHUNK``-index chunk
    (one lift block while the chunk is no wider than ``LIFT_COLUMNS``).
    The blocks are row-major, like the collected contours: the scorer sums
    their column norms in that layout's order.

    Holds one block of fields at a time and reads its column-major fields as
    one (n_y, n_x·k) view for a single ``zero_contour`` call.
    """
    idx = np.asarray(indices, dtype=int)
    x, y = x_grid.nodes, y_grid.nodes
    for start in range(0, idx.size, CONTOUR_CHUNK):
        for fields in prediction_blocks(model, idx[start : start + CONTOUR_CHUNK]):
            k = fields.shape[1]
            roots = zero_contour(fields.reshape((y.size, x.size * k), order="F"), y, x)
            yield np.ascontiguousarray(roots.reshape((x.size, k), order="F"))


def predict_contours(model: DmdModel, indices, x_grid: Grid1D, y_grid: Grid1D) -> np.ndarray:
    """Zero contours (n_x, len(indices)) of the predicted fields at ``indices``:
    the blocks of ``contour_blocks`` side by side."""
    idx = np.asarray(indices, dtype=int)
    return side_by_side(contour_blocks(model, idx, x_grid, y_grid), x_grid.nodes.size, idx.size)


def predicted_contour(model: DmdModel, k: int, x_grid: Grid1D, y_grid: Grid1D) -> StateVector:
    """Zero contour of the predicted field at index k."""
    return StateVector(predict_contours(model, [k], x_grid, y_grid)[:, 0], x_grid, k)
