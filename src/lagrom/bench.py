"""Experiment runner: high-fidelity solves, reduced-model fits, error reports,
timing records, and CSV/JSON emission.

Conventions for the emitted files (all numeric output is full double
precision so reruns diff bit-identically). Every number in a CSV reads
exactly as ``core.NUMBER_FORMAT`` (``%.17g``) prints it. One block formatter,
``core.write_number_table``, writes the tables in numpy blocks; only the
error CSV, whose state and bound cells may be blank, formats cell by cell:

* ``snapshots.csv``          training states, header ``t,x_1..x_N``, one row per time
* ``lagrangian_positions.csv`` / ``lagrangian_values.csv`` paired moving-frame data
* ``<method>_errors.csv``    columns n, t, error_state, error_observable, bound;
                             error_state is the relative L2 state error on the
                             reference grid, error_observable the absolute
                             2-norm error of the method's observable vector
* ``<method>_modes.csv``     leading three fitted modes (real and imaginary parts)
* ``timing.json``            wall-clock seconds per phase, including ``emit_seconds``
                             for writing the CSVs (excluded from determinism)
* ``manifest.json``          resolved configuration and file inventory
* ``plot.py``                standalone matplotlib script rendering the figures

Solvers: the three solvers run as step streams (``eulerian_steps``,
``lagrangian_steps``, ``levelset_steps``), each read through a ``_Frame``:
its first m+1 states, the training window, are kept for the fits, the POD
initial states, the scoring and the solver CSVs. No (M+1)-row solver store
exists. Later fixed-grid and moving-grid states pass through one reused
buffer as the scoring asks for them; what the scoring did not reach runs
after it, so a solver failure propagates with its time index (possibly
later than a whole-run solve would raise it) and is never recorded as a
method's. The level set is scored against the fixed-grid solver, so its
frame pulls m steps and no more, and no solver contour is taken.
``hfm_*_seconds`` is the time spent in the streams.

Window lifecycle: each solver's window is built just before its own fits,
in the order the methods are listed, and its QR is dropped after its last
fit, so no two windows' QRs are alive at once. A window that has no fit,
the fixed-grid one in the Lagrangian and level-set presets, is built last,
before scoring. The level-set window alone is handed to its QR
(``svd_core.HandedOverWindow``), which overwrites rows 1..m in place: when
emitting, ``levelset_snapshots.csv`` is written before that fit. The
record, the manifest and the scoring keep the listed method order.

Methods: ``_fit_method`` fits every method on its training snapshots and
sets up the scorer of its rollout, before any rollout starts. It branches
only where the methods differ: POD streams its Galerkin steps
(``pod_rom.pod_steps``), DMD its observable (``dmd_rom.prediction_blocks``,
the blocks of ``predict_series``), the level set its contours
(``levelset.contour_blocks``), and only the Eulerian and Lagrangian DMD
carry the bound. Each training window is factored once (its QR,
``svd_core.reduced_svd``) and the factor is handed to both fits of that
window, so the second fit's ``fit_seconds`` excludes the shared QR.
``rollout_seconds`` is the time spent producing the rollout's blocks, not
scoring them.

Scoring: ``_score_all`` scores every fitted method, one ``_Scorer`` each,
in one pass over the horizon: the method scored least so far scores its
next block, so the solvers run only as far as the leading method needs. A
scorer pulls its rollout up to that block, in blocks of at most
``SCORE_BLOCK_CELLS`` cells (16 columns of the full-size stacked
observable, where each 64-index DMD lift block passes as four views), and
scores it against a view of its frame with one overlap column for the
bound's residual. The views have the column layout of a whole-run store,
so every error sums as it did over one. A method's ``LagromError`` ends
that method alone. A DMD observable stream comes from one ``K^gap`` walk
over every index, so the scored observable is ``predict_series``'s bit for
bit; restarting the walk per chunk moved the full-size test4 L-DMD error
columns by up to 6e-8 relative. The level-set rollout, contours scored
without a bound, still walks each 32-index chunk from the anchor.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .core import SnapshotMatrix, split_stacked, stacked_to_grid, write_number_table
from .dmd_rom import fit_dmd, fit_lagrangian_dmd, prediction_blocks
from .errors import DimensionMismatch, LagromError
from .error_analysis import (
    ErrorReport,
    error_bound_series,
    estimate_eps_m,
    last_training_index,
    phi_pinv_fnorm,
    relative_l2,
    truncation_error,
    write_error_csv,
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
from .svd_core import HandedOverWindow, WindowFactor, reduced_svd

OUTPUT_ROOT_ENV = "LAGROM_OUT_ROOT"
# Cells per column block of a method's scoring, so each scoring temporary
# holds at most 512 KiB of float64: 16 columns of the full-size stacked
# 2N = 4000 rows, and one block for the whole horizon at desk size, where
# per-block calls would cost more than the memory they save.
SCORE_BLOCK_CELLS = 1 << 16


@dataclass
class MethodResult:
    """Outcome of one reduced-model method inside an experiment."""

    method: str
    rank: Optional[int] = None
    fit_seconds: Optional[float] = None
    rollout_seconds: Optional[float] = None
    newton_iterations: Optional[List[int]] = None
    failure: Optional[str] = None
    report: Optional[ErrorReport] = None
    states: Optional[np.ndarray] = None
    modes: Optional[np.ndarray] = None

    @property
    def total_seconds(self) -> Optional[float]:
        if self.fit_seconds is None or self.rollout_seconds is None:
            return None
        return self.fit_seconds + self.rollout_seconds


@dataclass
class RunRecord:
    """Everything measured during one experiment."""

    label: str
    description: str
    n_cells: int
    n_steps: int
    n_snapshots: int
    epsilon: Optional[float]
    fixed_rank: Optional[int]
    hfm_eulerian_seconds: float = 0.0
    hfm_lagrangian_seconds: Optional[float] = None
    hfm_levelset_seconds: Optional[float] = None
    emit_seconds: Optional[float] = None
    methods: Dict[str, MethodResult] = field(default_factory=dict)
    output_dir: Optional[str] = None


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
    else of one reused time-major buffer, which copies in the window's rows
    it needs and pulls later ones from the stream. Requests come with
    non-decreasing ``lo``; a request past the buffer's end drops the rows
    before it. The buffer holds the widest request so far, and methods of
    one block width ask for the same blocks in turn, so a shift keeps only
    the overlap row.
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
        self.base = self.end = 0  # indices of buffer row 0 and one past its last

    def columns(self, lo: int, hi: int) -> np.ndarray:
        window = self.window
        if hi <= len(window):
            return window[lo:hi].T
        if self.buffer is None:
            self.buffer = np.empty((hi - lo, window.shape[1]))
            self.base = self.end = lo
        elif hi - self.base > len(self.buffer):
            kept = self.buffer[lo - self.base : self.end - self.base]
            if hi - lo > len(self.buffer):
                self.buffer = np.empty((hi - lo, window.shape[1]))
            self.buffer[: len(kept)] = kept
            self.base = lo
        for index in range(self.end, hi):
            self.buffer[index - self.base] = window[index] if index < len(window) else next(self.rows)
        self.end = max(self.end, hi)
        return self.buffer[lo - self.base : hi - self.base].T

    def drain(self) -> None:
        """Run the solver to its last step, so a failure past the scored
        indices still surfaces and the stream's seconds cover the run."""
        for _ in self.rows:
            pass


def _scoring_blocks(blocks, width):
    """Regroup a stream of column blocks, in time order, into blocks of
    ``width`` columns (the last may be narrower); yields (first column, block).

    Columns pass through as views where one stream block covers a scoring
    block, and are gathered into one reused buffer otherwise. The buffer
    takes the stream's memory layout, so the column norms of a scoring block
    sum in the same order as over the whole horizon stored that way.
    """
    filled = start = 0
    buffer = None
    for block in blocks:
        at = 0
        while at < block.shape[1]:
            if not filled and block.shape[1] - at >= width:
                yield start, block[:, at : at + width]
                start, at = start + width, at + width
                continue
            if buffer is None:
                row_major = not block.flags.f_contiguous and block.strides[0] > block.strides[1]
                buffer = np.empty((block.shape[0], width), order="C" if row_major else "F")
            take = min(width - filled, block.shape[1] - at)
            buffer[:, filled : filled + take] = block[:, at : at + take]
            filled, at = filled + take, at + take
            if filled == width:
                yield start, buffer
                start, filled = start + width, 0
        del block  # not held while the stream makes the next one
    if filled:
        yield start, buffer[:, :filled]


class _Scorer:
    """One method's error report, built one scoring block at a time.

    ``blocks`` is the method's rollout: its observables at indices 1..M as
    column blocks in time order, fixed-grid states (N rows) or, when
    ``stacked``, moving-frame [x; u] states (2N rows), which are taken to
    the fixed grid. Each ``score`` pulls the rollout (timed in ``rollout``)
    up to its next block of ``width`` columns (``_scoring_blocks``) and
    scores it: the observable error, the tangle check and interpolation of
    stacked columns, and the relative state error. Neither the observable
    nor a scoring temporary grows with the horizon. Fixed-grid states are
    kept only with ``keep_states`` (column-contiguous). A failure, in the
    rollout or in the scoring, ends the method at the block where it shows.

    With a DMD ``model`` the report carries the affine bound past the
    training window. Its slope eps_m is the worst one-step residual of the
    fitted propagator over the whole reference trajectory (not just the
    training window), taken over reference blocks that overlap by one column
    so every consecutive pair is seen: the training-window residual alone
    understates how far an extrapolated trajectory leaves the learned
    subspace and would not stay above the measured error.
    """

    def __init__(self, blocks, stacked: bool, spec, model=None, keep_states: bool = False):
        self.spec = spec
        self.grid = spec.grid()
        self.horizon = spec.n_steps
        self.stacked = stacked
        self.model = model
        rows = len(self.grid) * (2 if stacked else 1)
        self.width = max(1, min(SCORE_BLOCK_CELLS // rows, self.horizon))
        self.rollout = _Timed(blocks)
        self.blocks = _scoring_blocks(self.rollout, self.width)
        self.err_obs = np.empty(self.horizon)
        self.rel_state = np.empty(self.horizon)
        self.states = np.empty((len(self.grid), self.horizon), order="F") if keep_states else None
        self.eps_m = 0.0
        self.scored = 0
        self.failure = None

    def score(self, reference: np.ndarray, states: np.ndarray) -> None:
        """Score the next block. ``reference`` holds the reference
        observables at its indices and at the one after it (when there is
        one), ``states`` the fixed-grid reference states at its indices."""
        try:
            start, block = next(self.blocks)
        except StopIteration:
            raise DimensionMismatch(f"scored {self.scored} columns of a {self.horizon}-index horizon") from None
        width = block.shape[1]
        cols = slice(start, start + width)
        self.err_obs[cols] = truncation_error(reference[:, :width], block)
        if self.model is not None:
            self.eps_m = max(self.eps_m, estimate_eps_m(self.model, reference[:, : width + 1]))
        if self.stacked:
            spec = self.spec
            block = stacked_to_grid(block, self.grid, spec.bc, spec.domain_length, first_index=start + 1)[2]
        if self.states is not None:
            self.states[:, cols] = block
        self.rel_state[cols] = relative_l2(states[:, :width], block)
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


def _score_all(scorers, euler: _Frame, lagr: Optional[_Frame]) -> None:
    """Score every method in one pass over the horizon.

    The method scored least so far scores its next block, against columns of
    the Eulerian frame, or of the Lagrangian frame for a stacked observable
    (its fixed-grid states still come from the Eulerian frame). So the
    frames are asked for blocks with non-decreasing first indices and pull
    the solvers no farther than the leading method needs. A method's
    ``LagromError`` ends that method alone (``failure``); a solver's
    propagates.
    """
    live = list(scorers)
    while live:
        scorer = min(live, key=lambda s: s.scored)
        if scorer.scored == scorer.horizon:
            return
        lo = scorer.scored + 1
        width = min(scorer.width, scorer.horizon - scorer.scored)
        hi = min(lo + width + 1, scorer.horizon + 1)
        if scorer.stacked:
            reference, states = lagr.columns(lo, hi), euler.columns(lo, lo + width)
        else:
            reference = states = euler.columns(lo, hi)
        try:
            scorer.score(reference, states)
        except LagromError as exc:
            scorer.failure = exc
            live.remove(scorer)


def _pod_columns(steps, newton):
    """The reconstructions of a ``pod_steps`` stream past its initial
    projection, as one-column blocks; appends each step's Newton iterations
    to ``newton``."""
    next(steps)
    for step in steps:
        newton.append(step.iterations)
        yield step.full[:, None]


class _WindowFactors:
    """Each training window's QR, made by its first fit and dropped after its
    last: the two fits of a window share it. The level-set window's QR lives
    in the window's own memory (800 MB at full size)."""

    WINDOWS = {
        METHOD_EULERIAN_DMD: "eulerian",
        METHOD_EULERIAN_POD: "eulerian",
        METHOD_LAGRANGIAN_DMD: "lagrangian",
        METHOD_LAGRANGIAN_POD: "lagrangian",
        METHOD_LEVELSET_DMD: "levelset",
    }

    def __init__(self, methods):
        self.pending = Counter(self.WINDOWS[method] for method in methods)
        self.factors = {}

    def take(self, method, snapshots) -> WindowFactor:
        window = self.WINDOWS[method]
        self.pending[window] -= 1
        factor = self.factors.pop(window, None)
        if factor is None:
            factor = reduced_svd(snapshots)
        if self.pending[window]:
            self.factors[window] = factor
        return factor


def _fit_method(method, resolved, frame, factors, keep_states, level_grids=None):
    """Fit one method on its solver ``frame``'s snapshots and set up the
    scorer of its rollout over the whole horizon; returns (result so far,
    scorer). Only the rollout and the bound differ by method. The first fit
    of a window times its QR; the second reuses it."""
    spec = resolved.spec
    rule = dict(epsilon=resolved.epsilon, fixed_rank=resolved.fixed_rank)
    stacked = method in (METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD)
    snapshots = window = frame.snapshots
    if method == METHOD_LEVELSET_DMD:  # its QR overwrites rows 1..m in place
        frame.window.setflags(write=True)
        window = HandedOverWindow(frame.window[1:].T)
    started = time.perf_counter()
    factor = factors.take(method, window)
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
        blocks, modes = _pod_columns(pod_steps(model, frame.window[0], spec, spec.n_steps), newton), model.basis
    elif method == METHOD_LEVELSET_DMD:
        blocks, modes = contour_blocks(model, indices, *level_grids), model.modes
    else:
        blocks, modes = prediction_blocks(model, indices), model.modes
    modes = modes[:, :3].copy()  # the leading three alone, not a view of them all
    # The bound belongs to a DMD propagator on the observable it was fitted
    # to; the level set is scored on contours, which it does not propagate.
    bound_model = model if method in (METHOD_EULERIAN_DMD, METHOD_LAGRANGIAN_DMD) else None
    scorer = _Scorer(blocks, stacked, spec, model=bound_model, keep_states=keep_states)
    return MethodResult(method, model.rank, fitted - started, newton_iterations=newton, modes=modes), scorer


def _failed(method, exc) -> MethodResult:
    return MethodResult(method=method, failure=f"{type(exc).__name__}: {exc}")


def default_output_dir(label: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return Path(root) / label


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
    out_dir = None
    if emit:
        out_dir = Path(config.output_dir) if config.output_dir else default_output_dir(resolved.label)

    # One window at a time: each is built just before its own fits (see the
    # module docstring). The fixed-grid window, the scoring reference, is
    # built last when it has no fit.
    by_window = {}
    for method in resolved.methods:
        by_window.setdefault(_WindowFactors.WINDOWS[method], []).append(method)
    by_window.setdefault("eulerian", [])
    factors = _WindowFactors(resolved.methods)
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
                started = time.perf_counter()
                _write_levelset_csv(out_dir, resolved, frame, level_grids)
                record.emit_seconds = time.perf_counter() - started
        frames[window] = frame
        for method in methods:
            try:
                results[method], scorers[method] = _fit_method(
                    method, resolved, frame, factors, keep_states, level_grids
                )
            except LagromError as exc:
                results[method] = _failed(method, exc)
        if window == "levelset":
            frame.window = frame.snapshots = None  # its rows are now the QR's reflectors
    euler, lagr = frames["eulerian"], frames.get("lagrangian")
    record.methods = {method: results[method] for method in resolved.methods}
    scorers = {method: scorers[method] for method in resolved.methods if method in scorers}
    _score_all(scorers.values(), euler, lagr)
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
        out_dir.mkdir(parents=True, exist_ok=True)
        _emit_outputs(out_dir, resolved, record, euler, lagr)
        record.output_dir = str(out_dir)
    return record


def _write_snapshot_csv(path, times_dt, data, preamble=None):
    """Rows are states over time; data columns are snapshots."""
    n = data.shape[0]
    header = "t," + ",".join(f"x_{j + 1}" for j in range(n))
    with open(path, "wb") as fh:
        if preamble:
            fh.write((preamble + "\n").encode())
        fh.write((header + "\n").encode())
        write_number_table(fh, times_dt[: data.shape[1]], data.T)


def _snapshot_times(resolved: ResolvedExperiment) -> np.ndarray:
    return np.arange(1, resolved.n_snapshots + 1) * resolved.spec.dt


def _write_levelset_csv(out_dir: Path, resolved: ResolvedExperiment, level: _Frame, grids) -> None:
    """Write ``levelset_snapshots.csv``, the level-set window, before its QR
    overwrites it. The flattened 2-D fields on ``grids`` (x, y) reuse the
    snapshot schema with the grid shape declared up front to reshape by."""
    out_dir.mkdir(parents=True, exist_ok=True)
    dims = f"# n_x={len(grids[0])},n_y={len(grids[1])},order=column-major"
    path = out_dir / "levelset_snapshots.csv"
    _write_snapshot_csv(path, _snapshot_times(resolved), level.snapshots.data, preamble=dims)


def _write_modes_csv(path, coords, modes):
    names, cols = ["coord"], [coords]
    for j in range(modes.shape[1]):
        names += [f"mode{j + 1}_re", f"mode{j + 1}_im"]
        cols += [np.real(modes[:, j]), np.imag(modes[:, j])]
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        write_number_table(fh, *cols)


def _emit_outputs(out_dir: Path, resolved: ResolvedExperiment, record: RunRecord, euler, lagr):
    """Write the run directory; ``euler`` and ``lagr`` are the solvers'
    frames, whose training windows are the solver CSVs. The level-set
    window's CSV was written before its fit (``_write_levelset_csv``), and
    ``emit_seconds`` adds up both."""
    started = time.perf_counter()
    spec = resolved.spec
    dt = spec.dt
    snap_times = _snapshot_times(resolved)

    _write_snapshot_csv(out_dir / "snapshots.csv", snap_times, euler.snapshots.data)
    if lagr is not None:
        positions, values = split_stacked(lagr.snapshots)
        _write_snapshot_csv(out_dir / "lagrangian_positions.csv", snap_times, positions)
        _write_snapshot_csv(out_dir / "lagrangian_values.csv", snap_times, values)

    euler_coords = spec.grid().nodes
    files = ["snapshots.csv"]
    if lagr is not None:
        files += ["lagrangian_positions.csv", "lagrangian_values.csv"]
    if METHOD_LEVELSET_DMD in record.methods:
        files.append("levelset_snapshots.csv")
    for name, result in record.methods.items():
        if result.report is not None:
            err_path = out_dir / f"{name}_errors.csv"
            write_error_csv(result.report, err_path)
            files.append(err_path.name)
        if result.modes is not None:
            coords = euler_coords if result.modes.shape[0] == euler_coords.size else np.arange(result.modes.shape[0], dtype=float)
            modes_path = out_dir / f"{name}_modes.csv"
            _write_modes_csv(modes_path, coords, result.modes)
            files.append(modes_path.name)
    record.emit_seconds = (record.emit_seconds or 0.0) + time.perf_counter() - started

    timing = {
        "hfm_eulerian_seconds": record.hfm_eulerian_seconds,
        "hfm_lagrangian_seconds": record.hfm_lagrangian_seconds,
        "hfm_levelset_seconds": record.hfm_levelset_seconds,
        "emit_seconds": record.emit_seconds,
        "methods": {
            name: {
                "rank": res.rank,
                "fit_seconds": res.fit_seconds,
                "rollout_seconds": res.rollout_seconds,
                "total_seconds": res.total_seconds,
                "failure": res.failure,
            }
            for name, res in record.methods.items()
        },
        "label": record.label,
    }
    with open(out_dir / "timing.json", "w") as fh:
        json.dump(timing, fh, indent=2)

    manifest = {
        "label": record.label,
        "description": record.description,
        "deterministic": True,
        "n_cells": record.n_cells,
        "n_steps": record.n_steps,
        "n_snapshots": record.n_snapshots,
        "epsilon": record.epsilon,
        "fixed_rank": record.fixed_rank,
        "dt": dt,
        "dx": spec.dx,
        "bc": spec.bc,
        "methods": list(record.methods),
        "figures": {
            "profiles": "solution profiles from snapshots.csv and method states",
            "errors": "error curves and bounds from <method>_errors.csv",
            "modes": "leading mode shapes from <method>_modes.csv",
            "cost": "wall-clock comparison from timing.json",
        },
        "files": sorted(set(files)) + ["timing.json", "manifest.json", "plot.py"],
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    (out_dir / "plot.py").write_text(_PLOT_TEMPLATE)


_PLOT_TEMPLATE = '''"""Render the emitted CSVs of this run directory (requires matplotlib)."""
import csv
import json
from pathlib import Path

import matplotlib.pyplot as plt

HERE = Path(__file__).parent
manifest = json.loads((HERE / "manifest.json").read_text())


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: [float(r[i]) if r[i] else float("nan") for r in body] for i, name in enumerate(header)}
    return cols


snap = read_csv(HERE / "snapshots.csv")
xs = list(range(len(snap) - 1))
fig, ax = plt.subplots()
times = snap["t"]
for pick in {0, len(times) // 2, len(times) - 1}:
    profile = [snap[f"x_{j + 1}"][pick] for j in xs]
    ax.plot(profile, label=f"t = {times[pick]:.3f}")
ax.set_title(f"{manifest['label']}: training profiles")
ax.legend()
fig.savefig(HERE / "profiles.png", dpi=150)

fig, ax = plt.subplots()
for name in manifest["methods"]:
    path = HERE / f"{name}_errors.csv"
    if not path.exists():
        continue
    err = read_csv(path)
    ax.semilogy(err["t"], err["error_observable"], label=f"{name} error")
    if any(b == b for b in err["bound"]):
        ax.semilogy(err["t"], err["bound"], "--", label=f"{name} bound")
ax.set_title(f"{manifest['label']}: errors")
ax.set_xlabel("t")
ax.legend()
fig.savefig(HERE / "errors.png", dpi=150)

fig, ax = plt.subplots()
for name in manifest["methods"]:
    path = HERE / f"{name}_modes.csv"
    if not path.exists():
        continue
    modes = read_csv(path)
    for key in modes:
        if key.endswith("_re"):
            ax.plot(modes["coord"], modes[key], label=f"{name} {key}")
ax.set_title(f"{manifest['label']}: leading modes")
ax.legend(fontsize=6)
fig.savefig(HERE / "modes.png", dpi=150)
print("wrote profiles.png, errors.png, modes.png")
'''


def timing_table(records: List[RunRecord]):
    """Cost summary across experiments: one column per run, fixed row set."""
    if not records:
        raise ValueError("need at least one record")
    labels = [r.label for r in records]

    def method_total(record, suffix):
        for name, res in record.methods.items():
            if name.endswith(suffix) and res.total_seconds is not None:
                return res.total_seconds
        return None

    def method_rank(record):
        for res in record.methods.values():
            if res.rank is not None:
                return res.rank
        return None

    rows = [
        ("rank", [method_rank(r) for r in records]),
        ("dmd_seconds", [method_total(r, "-dmd") for r in records]),
        ("pod_seconds", [method_total(r, "-pod") for r in records]),
        ("eulerian_hfm_seconds", [r.hfm_eulerian_seconds for r in records]),
        ("lagrangian_hfm_seconds", [r.hfm_lagrangian_seconds for r in records]),
    ]
    rows = [(name, vals) for name, vals in rows if any(v is not None for v in vals)]

    width = max(12, *(len(lbl) for lbl in labels)) + 2
    name_w = max(len(name) for name, _ in rows) + 2
    lines = [" " * name_w + "".join(lbl.rjust(width) for lbl in labels)]
    for name, vals in rows:
        cells = []
        for v in vals:
            if v is None:
                cells.append("-".rjust(width))
            elif name == "rank":
                cells.append(str(v).rjust(width))
            else:
                cells.append(f"{v:.6f}".rjust(width))
        lines.append(name.ljust(name_w) + "".join(cells))
    table = "\n".join(lines)
    data = {name: {lbl: vals[i] for i, lbl in enumerate(labels)} for name, vals in rows}
    return table, data


def load_timing(run_dir) -> RunRecord:
    """Rebuild a minimal record from an emitted timing.json."""
    with open(Path(run_dir) / "timing.json") as fh:
        payload = json.load(fh)
    record = RunRecord(
        label=payload.get("label", Path(run_dir).name),
        description="",
        n_cells=0,
        n_steps=0,
        n_snapshots=0,
        epsilon=None,
        fixed_rank=None,
        hfm_eulerian_seconds=payload.get("hfm_eulerian_seconds", 0.0),
        hfm_lagrangian_seconds=payload.get("hfm_lagrangian_seconds"),
        hfm_levelset_seconds=payload.get("hfm_levelset_seconds"),
        emit_seconds=payload.get("emit_seconds"),
        output_dir=str(run_dir),
    )
    for name, info in payload.get("methods", {}).items():
        record.methods[name] = MethodResult(
            method=name,
            rank=info.get("rank"),
            fit_seconds=info.get("fit_seconds"),
            rollout_seconds=info.get("rollout_seconds"),
            failure=info.get("failure"),
        )
    return record


def validate_run_dir(run_dir) -> List[tuple]:
    """Re-check invariants on the emitted files; returns (check, ok, detail) rows."""
    run_dir = Path(run_dir)
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        add("manifest exists", False, "manifest.json missing")
        return checks
    manifest = json.loads(manifest_path.read_text())
    add("manifest exists", True)
    add("deterministic flag", manifest.get("deterministic") is True)

    snap_path = run_dir / "snapshots.csv"
    if snap_path.exists():
        # loadtxt, not genfromtxt: a tenth of genfromtxt's transient memory
        # on the full-size table, which validation would otherwise peak at.
        # It rejects a cell that is not a number, where genfromtxt read nan.
        try:
            body = np.loadtxt(snap_path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            add("snapshots finite", False, f"unreadable: {exc}")
        else:
            add("snapshots finite", np.all(np.isfinite(body)))
            add(
                "snapshot width matches n_cells",
                body.shape[1] == manifest["n_cells"] + 1,
                f"{body.shape[1] - 1} columns vs n_cells {manifest['n_cells']}",
            )
            add("snapshot times increasing", np.all(np.diff(body[:, 0]) > 0) if body.shape[0] > 1 else True)
    else:
        add("snapshots exist", False)

    for name in manifest.get("methods", []):
        err_path = run_dir / f"{name}_errors.csv"
        if not err_path.exists():
            continue
        raw = np.genfromtxt(err_path, delimiter=",", skip_header=1, filling_values=np.nan)
        raw = np.atleast_2d(raw)
        n_idx, err_obs, bound = raw[:, 0], raw[:, 3], raw[:, 4]
        add(f"{name} errors nonnegative", np.all(err_obs[~np.isnan(err_obs)] >= 0))
        has_bound = ~np.isnan(bound)
        if np.any(has_bound):
            ok = np.all(bound[has_bound] + 1e-12 >= err_obs[has_bound])
            add(f"{name} bound dominates error", ok)
            idx = n_idx[has_bound]
            b = bound[has_bound]
            if idx.size >= 3:
                slopes = np.diff(b) / np.diff(idx)
                affine = np.allclose(slopes, slopes[0], rtol=1e-8, atol=1e-12)
                add(f"{name} bound affine", affine)

    timing_path = run_dir / "timing.json"
    add("timing exists", timing_path.exists())
    if timing_path.exists():
        payload = json.loads(timing_path.read_text())
        add("timing label matches", payload.get("label") == manifest.get("label"))
        emit = payload.get("emit_seconds")
        add(
            "timing emit_seconds nonnegative",
            isinstance(emit, (int, float)) and not isinstance(emit, bool) and emit >= 0,
            f"emit_seconds {emit!r}",
        )
    return checks
