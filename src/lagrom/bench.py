"""Experiment runner: high-fidelity solves, reduced-model fits, and their
scoring in one pass. ``rundir`` holds the record it fills and the files it
writes.

Solvers: the three solvers run as step streams (``eulerian_steps``,
``lagrangian_steps``, ``levelset_steps``), each read through a ``_Frame``
that keeps its first m+1 states, the training window, for the fits, the POD
initial states, the scoring and the solver CSVs. Later fixed-grid and
moving-grid states pass through one reused buffer as the scoring reaches
them; what it did not reach runs after it, so a solver failure propagates
with its time index and is never recorded as a method's. The level set is
scored against the fixed-grid solver, so its frame pulls m steps and no
more. ``hfm_*_seconds`` is the time spent in the streams.

Windows: each solver's window is built just before its own fits, in the
order the methods are listed; one with no fit (the fixed-grid window of the
Lagrangian and level-set presets) is built last. The loop over a window's
fits owns its QR (``svd_core.reduced_svd``): the first fit makes it, timed
in its ``fit_seconds``, the second reuses it, and the loop releases it on
leaving the window, also when the first fit failed after its QR. The
level-set window alone is factored in place (``svd_core.HandedOverWindow``),
so ``levelset_snapshots.csv`` is written before that fit. The record, the
manifest and the scoring keep the listed method order.

Methods: ``_fit_method`` fits a method and sets up the scorer of its
rollout: POD's Galerkin steps (``pod_rom.pod_steps``), DMD's observable
(``dmd_rom.prediction_blocks``, the blocks of ``predict_series``) or the
level set's contours (``levelset.contour_blocks``). Only the Eulerian and
Lagrangian DMD carry the bound. ``rollout_seconds`` is the time spent
producing the rollout's blocks, not scoring them.

Scoring: a run has one block width (``_block_width``), ``SCORE_BLOCK_CELLS``
cells of its widest observable, cut to a divisor of ``dmd_rom.LIFT_COLUMNS``
in a run with a DMD method. ``_score_all`` walks the horizon in blocks
of that width: each reads the fixed-grid frame once, and the moving frame
while a moving-frame method is live, with one overlap column for the bound's
residual, and every live method (one ``_Scorer`` each) scores it. The views
have the column layout of a whole-run store, so every error sums as it did
over one. A method's rollout columns are gathered per block into new arrays
that are dropped once the block is scored: between blocks a method holds
only the stream block it is reading (a DMD lift block, or one POD state).
Both moving-frame methods' stacked states are taken to the fixed grid here,
by ``core.stacked_to_grid``, which checks their positions for tangles. Only
eps_m depends on where the blocks start: the one-step map's matrix product
rounds by block width. A method's ``LagromError`` ends that method alone.
A DMD observable stream is
one ``K^gap`` walk over every index, so the scored observable is
``predict_series``'s bit for bit (restarting the walk per chunk moved the
full-size test4 L-DMD errors by up to 6e-8 relative).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .core import SnapshotMatrix, stacked_to_grid
from .dmd_rom import LIFT_COLUMNS, fit_dmd, fit_lagrangian_dmd, prediction_blocks
from .errors import DimensionMismatch, LagromError
from .error_analysis import (
    ErrorReport,
    error_bound_series,
    estimate_eps_m,
    last_training_index,
    phi_pinv_fnorm,
    relative_l2,
    truncation_error,
)
from .hfm_eulerian import eulerian_steps
from .hfm_lagrangian import lagrangian_steps
from .levelset import contour_blocks, levelset_dmd, levelset_grids, levelset_steps
from .pod_rom import FRAME_EULERIAN, FRAME_LAGRANGIAN, PodBasis, fit_pod, pod_steps
from .presets import (
    METHOD_EULERIAN_DMD,
    METHOD_EULERIAN_POD,
    METHOD_LAGRANGIAN_DMD,
    METHOD_LAGRANGIAN_POD,
    METHOD_LEVELSET_DMD,
    ExperimentConfig,
    ResolvedExperiment,
    resolve,
)
from .rundir import MethodResult, RunDirectory, RunRecord, default_output_dir, snapshot_names, write_run
from .svd_core import HandedOverWindow, reduced_svd

# Cells per column block of the scoring, so each scoring temporary holds at
# most 512 KiB of float64: 16 columns of the full-size stacked 2N = 4000
# rows, and one block for the whole horizon at desk size, where per-block
# calls would cost more than the memory they save.
SCORE_BLOCK_CELLS = 1 << 16
# The methods whose rollout comes in ``prediction_blocks`` lift blocks.
_DMD_METHODS = (METHOD_EULERIAN_DMD, METHOD_LAGRANGIAN_DMD, METHOD_LEVELSET_DMD)
# The solver window each method is fitted on.
_WINDOW = {
    METHOD_EULERIAN_DMD: "eulerian", METHOD_EULERIAN_POD: "eulerian",
    METHOD_LAGRANGIAN_DMD: "lagrangian", METHOD_LAGRANGIAN_POD: "lagrangian",
    METHOD_LEVELSET_DMD: "levelset",
}


class _Timed:
    """Iterates ``blocks``, adding up the seconds spent producing them."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)
        self.seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        started = time.perf_counter()
        try:
            return next(self.blocks)
        finally:
            self.seconds += time.perf_counter() - started


class _Frame:
    """One solver's states at time indices 0..M, read as column blocks
    while the solver streams them.

    ``rows`` is the solver's step stream, one 1-D state per index (timed).
    Rows 0..m are kept in the read-only time-major ``window``, whose rows
    1..m are ``snapshots``. ``columns(lo, hi)`` is the column-contiguous
    (rows, hi - lo) view of indices lo..hi-1: of the window when hi <= m + 1,
    else of one reused time-major buffer. Requests past the window are
    consecutive blocks of one width (the last may be narrower) that share one
    column: each ``lo`` is the ``hi - 1`` before it. The first sizes the
    buffer and copies in the window's rows it needs; each later one keeps the
    shared row and pulls the rest from the stream.
    """

    def __init__(self, rows, n_store: int):
        self.rows = _Timed(rows)
        first = next(self.rows)
        self.window = np.empty((n_store + 1, first.size))
        self.window[0] = first
        for index in range(1, n_store + 1):
            self.window[index] = next(self.rows)
        self.window.setflags(write=False)
        self.snapshots = SnapshotMatrix(self.window[1:].T, np.arange(1, n_store + 1))
        self.buffer = None

    def columns(self, lo: int, hi: int) -> np.ndarray:
        window = self.window
        if hi <= len(window):
            return window[lo:hi].T
        if self.buffer is None:
            self.buffer = np.empty((hi - lo, window.shape[1]))
            first = lo
        else:  # the block before was as wide as the buffer
            self.buffer[0] = self.buffer[-1]
            first = lo + 1
        for index in range(first, hi):
            self.buffer[index - lo] = window[index] if index < len(window) else next(self.rows)
        return self.buffer[: hi - lo].T

    def drain(self) -> None:
        """Run the solver to its last step, so a failure past the scored
        indices still surfaces and the stream's seconds cover the run."""
        for _ in self.rows:
            pass


def _layout(block: np.ndarray) -> str:
    """The memory order of a column block: "C" when its rows are contiguous."""
    return "C" if not block.flags.f_contiguous and block.strides[0] > block.strides[1] else "F"


class _Scorer:
    """One method's error report, built one scoring block at a time.

    ``blocks`` is the method's rollout: column blocks in time order, indices
    1..M, of its observable: fixed-grid states (N rows) or, when ``stacked``,
    moving-frame [x; u] states (2N rows), which are taken to the fixed grid
    here (``stacked_to_grid``, whose tangle check names the time index).

    Each ``score`` pulls the rollout (timed in ``rollout``) up to its next
    block of ``width`` columns (``_next_block``) and scores it: the
    observable error, the tangle check and the fixed-grid states, and the
    relative state error. Neither the observable nor a scoring temporary
    grows with the horizon, and no gathered block is held while another
    method scores. Fixed-grid states are kept only with
    ``keep_states`` (column-contiguous). A failure, in the rollout or in the
    scoring, ends the method at the block where it shows.

    With a DMD ``model`` the report carries the affine bound past the
    training window. Its slope eps_m is the worst one-step residual of the
    fitted propagator over the whole reference trajectory (not just the
    training window), taken over reference blocks that overlap by one column
    so every consecutive pair is seen: the training-window residual alone
    understates how far an extrapolated trajectory leaves the learned
    subspace and would not stay above the measured error.
    """

    def __init__(self, blocks, stacked: bool, spec, width: int, model=None, keep_states: bool = False):
        self.spec = spec
        self.grid = spec.grid()
        self.horizon = spec.n_steps
        self.stacked = stacked
        self.model = model
        self.width = width
        self.rollout = _Timed(blocks)
        self.pending, self.taken = None, 0
        self.err_obs = np.empty(self.horizon)
        self.rel_state = np.empty(self.horizon)
        self.states = np.empty((len(self.grid), self.horizon), order="F") if keep_states else None
        self.eps_m = 0.0
        self.scored = 0
        self.failure = None

    def _next_block(self):
        """The rollout's next ``width`` columns, fewer where it ends (None
        when it has ended). They are a view where one stream block covers
        them; otherwise they are gathered into a new array in the stream's
        memory layout, so the column norms of a scoring block sum in the same
        order as over the whole horizon stored that way. Only the stream
        block being read is held between calls, and none while the stream
        makes the next."""
        out, filled = None, 0
        while filled < self.width:
            if self.pending is None:
                self.pending, self.taken = next(self.rollout, None), 0
                if self.pending is None:
                    break
            at = self.taken
            take = min(self.width - filled, self.pending.shape[1] - at)
            if out is None and take == self.width:
                out = self.pending[:, at : at + take]
            else:
                if out is None:
                    out = np.empty((self.pending.shape[0], self.width), order=_layout(self.pending))
                out[:, filled : filled + take] = self.pending[:, at : at + take]
            filled, self.taken = filled + take, at + take
            if self.taken == self.pending.shape[1]:
                self.pending = None
        return None if out is None else out[:, :filled]

    def score(self, reference: np.ndarray, states: np.ndarray) -> None:
        """Score the next block. ``reference`` holds the reference
        observables at its indices and at the one after it (when there is
        one), ``states`` the fixed-grid reference states at its indices.
        A rollout that ends short of the block fails the method."""
        start = self.scored
        block = self._next_block()
        width = 0 if block is None else block.shape[1]
        if width < min(self.width, self.horizon - start):
            raise DimensionMismatch(f"scored {start + width} columns of a {self.horizon}-index horizon")
        cols = slice(start, start + width)
        self.err_obs[cols] = truncation_error(reference[:, :width], block)
        if self.model is not None:
            self.eps_m = max(self.eps_m, estimate_eps_m(self.model, reference[:, : width + 1]))
        if self.stacked:
            on_grid = stacked_to_grid(block, self.grid, self.spec.period, first_index=start + 1)
        else:
            on_grid = block
        if self.states is not None:
            self.states[:, cols] = on_grid
        self.rel_state[cols] = relative_l2(states[:, :width], on_grid)
        self.scored = start + width

    def report(self) -> ErrorReport:
        times = np.arange(1, self.horizon + 1)
        bound_terms = {}
        model = self.model
        if model is not None:
            m_last = last_training_index(model)
            anchor = float(self.err_obs[m_last - 1])
            bound = np.full(self.horizon, np.nan)
            tail = times >= m_last
            bound[tail] = error_bound_series(model, times[tail], anchor, self.eps_m)
            bound_terms = dict(
                bound=bound,
                phi_pinv_fnorm=phi_pinv_fnorm(model),
                eps_m=self.eps_m,
                anchor_error=anchor,
                anchor_index=m_last,
            )
        return ErrorReport(times, times * self.spec.dt, self.rel_state, self.err_obs, **bound_terms)


def _block_width(spec, methods) -> int:
    """The run's scoring block width: ``SCORE_BLOCK_CELLS`` over the rows of
    its widest observable (2N when a moving-frame method is listed), at
    least one column and at most the horizon. Below the horizon, a run with
    a DMD method takes the largest divisor of ``LIFT_COLUMNS`` not above
    that, so each DMD scoring block is a view of one lift block rather than
    a copy gathered across two."""
    rows = spec.n_cells * (2 if any(_WINDOW[method] == "lagrangian" for method in methods) else 1)
    width = max(1, min(SCORE_BLOCK_CELLS // rows, spec.n_steps))
    if width < spec.n_steps and any(method in _DMD_METHODS for method in methods):
        width = max(d for d in range(1, width + 1) if LIFT_COLUMNS % d == 0)
    return width


def _score_all(scorers, width: int, euler: _Frame, lagr: Optional[_Frame]) -> None:
    """Score every method in one pass over the horizon, in blocks of
    ``width`` indices.

    Each block reads the Eulerian frame once, and the Lagrangian frame while
    a method with a stacked observable is live, both with the column after
    the block that the bound's residual pairs with. Every live method then
    scores the block, a stacked one against the Lagrangian columns (its
    fixed-grid states still come from the Eulerian frame). Once no method is
    live, no further solver step is pulled. A method's ``LagromError`` ends
    that method alone (``failure``); a solver's propagates.
    """
    live = list(scorers)
    horizon = live[0].horizon if live else 0
    for lo in range(1, horizon + 1, width):
        if not live:
            return
        hi = min(lo + width + 1, horizon + 1)
        fixed = euler.columns(lo, hi)
        moving = lagr.columns(lo, hi) if any(scorer.stacked for scorer in live) else None
        for scorer in list(live):
            try:
                scorer.score(moving if scorer.stacked else fixed, fixed)
            except LagromError as exc:
                scorer.failure = exc
                live.remove(scorer)


def _pod_columns(steps, newton):
    """A ``pod_steps`` stream past its initial projection, as one-column
    blocks of its reconstructions; appends each step's Newton iterations to
    ``newton``."""
    next(steps)
    for step in steps:
        newton.append(step.iterations)
        yield step.full[:, None]


def _fit_method(method, resolved, frame, window_qr: list, width: int, keep_states=False, level_grids=None):
    """Fit one method on its solver ``frame``'s snapshots and set up the
    scorer of its rollout over the whole horizon, in blocks of ``width``;
    returns (result so far, scorer). Only the rollout and the bound differ
    by method. ``window_qr`` is the window loop's: while it is empty, the fit
    factors the window (timed in its ``fit_seconds``) and leaves the QR
    there for the window's other fit."""
    spec = resolved.spec
    rule = dict(epsilon=resolved.epsilon, fixed_rank=resolved.fixed_rank)
    snapshots = window = frame.snapshots
    if method == METHOD_LEVELSET_DMD:  # its QR overwrites rows 1..m in place
        frame.window.setflags(write=True)
        window = HandedOverWindow(frame.window[1:].T)
    started = time.perf_counter()
    if not window_qr:
        window_qr.append(reduced_svd(window))
    factor = window_qr[0]
    if method == METHOD_EULERIAN_DMD:
        model = fit_dmd(snapshots, factor=factor, **rule)
    elif method == METHOD_EULERIAN_POD:
        model = fit_pod(snapshots, frame=FRAME_EULERIAN, factor=factor, **rule)
    elif method == METHOD_LAGRANGIAN_DMD:
        model = fit_lagrangian_dmd(snapshots, factor=factor, **rule)
    elif method == METHOD_LAGRANGIAN_POD:
        model = fit_pod(snapshots, frame=FRAME_LAGRANGIAN, factor=factor, **rule)
    else:
        model = levelset_dmd(snapshots, factor=factor, **rule)
    del factor  # not held through the rollout
    fitted = time.perf_counter()
    indices = np.arange(1, spec.n_steps + 1)
    newton = None
    if isinstance(model, PodBasis):
        newton = []
        blocks = _pod_columns(pod_steps(model, frame.window[0], spec, spec.n_steps), newton)
        modes = model.basis[:, :3].copy()  # the leading three alone, not a view of them all
    else:
        if method == METHOD_LEVELSET_DMD:
            blocks = contour_blocks(model, indices, *level_grids)
        else:
            blocks = prediction_blocks(model, indices)
        # The leading three modes U W alone: ``model.modes`` forms all r, from
        # a complex copy of U, which lifted a full-size run's peak RSS.
        modes = model.projector @ model.eigenvectors[:, :3]
    # The bound belongs to a DMD propagator on the observable it was fitted
    # to; the level set is scored on contours, which it does not propagate.
    bound_model = model if method in (METHOD_EULERIAN_DMD, METHOD_LAGRANGIAN_DMD) else None
    stacked = _WINDOW[method] == "lagrangian"
    scorer = _Scorer(blocks, stacked, spec, width, model=bound_model, keep_states=keep_states)
    return MethodResult(method, model.rank, fitted - started, newton_iterations=newton, modes=modes), scorer


def _failed(method, exc) -> MethodResult:
    return MethodResult(method=method, failure=f"{type(exc).__name__}: {exc}")


def run_experiment(config: ExperimentConfig, keep_states: bool = False, emit: bool = True) -> RunRecord:
    """Run the requested high-fidelity solves and reduced models.

    Per-method failures are captured in the record instead of aborting the
    experiment; a reduced model falling apart is a reportable outcome. A
    solver failure is not a method's: it propagates, possibly from the
    scoring pass, which runs the solvers past the training window.
    """
    resolved = resolve(config)
    spec = resolved.spec
    spec.validate_flux_consistency()

    record = RunRecord(
        label=resolved.label,
        description=resolved.description,
        n_cells=spec.n_cells,
        n_steps=spec.n_steps,
        n_snapshots=resolved.n_snapshots,
        epsilon=resolved.epsilon,
        fixed_rank=resolved.fixed_rank,
    )

    m = resolved.n_snapshots
    out = RunDirectory(config.output_dir or default_output_dir(resolved.label)) if emit else None
    width = _block_width(spec, resolved.methods)

    # One window at a time: each is built just before its own fits (see the
    # module docstring). The fixed-grid window, the scoring reference, is
    # built last when it has no fit.
    by_window = {}
    for method in resolved.methods:
        by_window.setdefault(_WINDOW[method], []).append(method)
    by_window.setdefault("eulerian", [])
    frames, level_grids = {}, None
    results, scorers = {}, {}
    for window, methods in by_window.items():
        if window == "eulerian":
            frame = _Frame((step.values for step in eulerian_steps(spec)), m)
        elif window == "lagrangian":
            frame = _Frame(lagrangian_steps(spec), m)
        else:
            level_grids = levelset_grids(spec, resolved.n_y)
            frame = _Frame((c.ravel(order="F") for c in levelset_steps(spec, *level_grids)), m)
            record.hfm_levelset_seconds = frame.rows.seconds
            if emit:
                _write_levelset_csv(out, resolved, frame, level_grids)
        frames[window] = frame
        window_qr = []
        for method in methods:
            try:
                results[method], scorers[method] = _fit_method(
                    method, resolved, frame, window_qr, width, keep_states, level_grids
                )
            except LagromError as exc:
                results[method] = _failed(method, exc)
        del window_qr  # released before the next window is built
        if window == "levelset":
            frame.window = frame.snapshots = None  # its rows are now the QR's reflectors
    euler, lagr = frames["eulerian"], frames.get("lagrangian")
    record.methods = {method: results[method] for method in resolved.methods}
    scorers = {method: scorers[method] for method in resolved.methods if method in scorers}
    _score_all(scorers.values(), width, euler, lagr)
    for method, scorer in scorers.items():
        if scorer.failure is not None:
            record.methods[method] = _failed(method, scorer.failure)
            continue
        result = record.methods[method]
        result.rollout_seconds = scorer.rollout.seconds
        result.report, result.states = scorer.report(), scorer.states
    for frame in (euler, lagr):
        if frame is not None:
            frame.drain()
    record.hfm_eulerian_seconds = euler.rows.seconds
    if lagr is not None:
        record.hfm_lagrangian_seconds = lagr.rows.seconds

    if emit:
        _emit_outputs(out, resolved, record, euler, lagr)
        record.output_dir = str(out.path)
    return record


def _write_levelset_csv(out: RunDirectory, resolved: ResolvedExperiment, level: _Frame, grids) -> None:
    """Write ``levelset_snapshots.csv``, the level-set window, before its QR
    overwrites it. The flattened 2-D fields on ``grids`` (x, y) reuse the
    snapshot schema with the grid shape declared up front to reshape by."""
    data = level.snapshots.data
    times = np.arange(1, resolved.n_snapshots + 1) * resolved.spec.dt
    dims = f"# n_x={len(grids[0])},n_y={len(grids[1])},order=column-major"
    out.table("levelset_snapshots.csv", snapshot_names(len(data)), times, data.T, preamble=dims)


def _emit_outputs(out: RunDirectory, resolved: ResolvedExperiment, record: RunRecord, euler, lagr) -> None:
    """Write the run directory (``rundir.write_run``); ``euler`` and ``lagr``
    are the solvers' frames, whose training windows are the solver CSVs. The
    level-set window's CSV was written before its fit
    (``_write_levelset_csv``), and ``emit_seconds`` adds up both."""
    write_run(out, resolved.spec, record, euler.snapshots, None if lagr is None else lagr.snapshots)
