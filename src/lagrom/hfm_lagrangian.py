"""Semi-Lagrangian high-fidelity solver, and the owner of the moving-grid
diffusion round trip.

Grid points ride the characteristics and carry the solution values. Each step
performs, in order:

  (i)   interpolate the carried values from the moving grid onto the fixed
        uniform reference grid,
  (ii)  implicit diffusion solve on that fixed grid,
  (iii) interpolate the diffused values back onto the moving grid,
  (iv)  advance the grid positions with the trapezoidal rule
        x^{n+1} = x^n + dt/2 (f(u^n) + f(u^{n+1})).

Sub-step (i) is ``core.carried_to_grid`` and sub-steps (ii)-(iii) are
``diffuse_carried_values``; the moving-frame POD stepper calls both for its
residual, and takes (i) when it makes a state, so the scoring of that state
reads the same values. The speeds of (iv) and u0 come from
``ProblemSpec.speed`` and ``initial_state``. This module calls
``hfm_eulerian`` for the fixed-grid solve (``step_system`` and
``DiffusionSystem``) and ``core.interp_unchecked``, with the boundary rule
``ProblemSpec.period``, for the interpolation; a run builds the round
trip's constants once, as one ``ReferenceGrid``. When the diffusion
coefficient is ``None`` the first three sub-steps are skipped and the
carried values are transported bit-exactly. When it is a number, the run
builds and factors the implicit system once and every step reuses it. Positions are kept unwrapped (monotone) for periodic problems;
wrapping happens only inside the interpolation, so entanglement detection
(``core.check_untangled``) is a monotonicity test plus, when periodic, the
seam test x[-1] - x[0] < L.

One step path: the step stream ``lagrangian_steps`` calls
``lagrangian_step``, which advances raw position and value arrays (and hands
back f(u^{n+1}), which the next step reuses as its f(u^n)). The stream
yields each stacked row [x^n; u^n], n = 0..M, and stores nothing:
``bench.run_experiment`` keeps only the training window of it.
``run_lagrangian_hfm`` collects the stream into a preallocated (M+1, 2N)
C-order store, one contiguous row per step, marked read-only after the
loop. ``stacked`` is its (2N, M+1) transposed view, ``positions`` and
``values`` are that view's two halves, and ``snapshots.data`` is the view
of columns 1..m, which the snapshot matrix adopts without a copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    Grid1D,
    ProblemSpec,
    SnapshotMatrix,
    carried_to_grid,
    check_untangled,
    interp_source,
    interp_unchecked,
)
from .errors import NumericalFailure
from .hfm_eulerian import RESIDUAL_TOL, DiffusionSystem, run_diffusion_system, step_system


class ReferenceGrid(NamedTuple):
    """The round trip's constants for a whole run: the fixed ``nodes``, the
    same nodes as the interpolation ``source`` of sub-step (iii)
    (``core.interp_source``), and the run's diffusion ``system`` when D is a
    number, else None."""

    nodes: np.ndarray
    source: np.ndarray
    system: Optional[DiffusionSystem]


def reference_grid(spec: ProblemSpec) -> ReferenceGrid:
    """Build a run's ``ReferenceGrid`` once, before its first step."""
    nodes = spec.grid().nodes
    return ReferenceGrid(nodes, interp_source(nodes, spec.period), run_diffusion_system(spec))


def diffuse_carried_values(spec: ProblemSpec, ref: ReferenceGrid, x: np.ndarray, u_grid: np.ndarray, t: float):
    """Sub-steps (ii)-(iii): ``u_grid``, the values carried on ``x`` taken
    to the reference nodes (sub-step (i), ``core.carried_to_grid``), after
    one implicit diffusion step at time ``t``, interpolated back onto ``x``.

    Returns the diffused values on ``x`` and the fixed-grid step as
    (system, rhs, solution), whose residual the solver checks.
    """
    system = step_system(spec, ref.system, ref.nodes, t, u_grid)
    u_grid_new = system.solve(u_grid)
    u_new = interp_unchecked(ref.source, u_grid_new, x, spec.period)
    return u_new, (system, u_grid, u_grid_new)


def lagrangian_step(spec: ProblemSpec, ref: ReferenceGrid, x: np.ndarray, u: np.ndarray, f_u: np.ndarray, index: int):
    """Positions, values and speeds at time index ``index`` from ``x``, ``u``
    and ``f_u = spec.speed(u)`` at ``index - 1``; the diffusion solve runs
    on the run's reference grid ``ref``. Checks the diffusion residual,
    entanglement and finiteness of the new state.
    """
    if spec.diffusion_D is None:
        u_new, f_new = u, f_u
    else:
        u_grid = carried_to_grid(x, u, ref.nodes, spec.period)
        u_new, (system, u_grid, u_grid_new) = diffuse_carried_values(spec, ref, x, u_grid, index * spec.dt)
        worst = system.residual(u_grid_new, u_grid)
        if worst > RESIDUAL_TOL:
            raise NumericalFailure(
                f"diffusion residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} at time index {index}",
                time_index=index,
            )
        f_new = spec.speed(u_new)

    x_new = x + 0.5 * spec.dt * (f_u + f_new)

    check_untangled(x_new, spec.period, first_index=index)
    if not (np.isfinite(x_new).all() and np.isfinite(u_new).all()):
        raise NumericalFailure(f"non-finite state at time index {index}", time_index=index)
    return x_new, u_new, f_new


def lagrangian_steps(spec: ProblemSpec) -> Iterator[np.ndarray]:
    """The run from the uniform grid as a stream of read-only stacked rows
    [x^n; u^n]: the initial row, then one step per index 1..M. Nothing is
    stored, so a consumer that reads the rows as they come holds one at a
    time; ``run_lagrangian_hfm`` collects them. A non-finite u^0 raises
    ``NumericalFailure`` for time index 0 before the first yield."""
    ref = reference_grid(spec)
    n = ref.nodes.size
    row = np.concatenate([ref.nodes, spec.initial_state()])
    row.setflags(write=False)
    f_u = spec.speed(row[n:])
    yield row
    for step in range(spec.n_steps):
        x_new, u_new, f_u = lagrangian_step(spec, ref, row[:n], row[n:], f_u, step + 1)
        row = np.concatenate([x_new, u_new])
        row.setflags(write=False)  # the next step reads it
        yield row


@dataclass
class LagrangianRun:
    """Stacked snapshots plus retained position/value trajectories.

    ``stacked`` (2N, M+1) holds [x^n; u^n] in column n; ``positions`` and
    ``values`` are its halves and ``snapshots.data`` its columns 1..m, all
    read-only views of the run's time-major store.
    """

    snapshots: SnapshotMatrix
    positions: np.ndarray
    values: np.ndarray
    eulerian_grid: Grid1D
    wall_seconds: float
    stacked: np.ndarray


def run_lagrangian_hfm(spec: ProblemSpec, n_store: int) -> LagrangianRun:
    """Collect ``lagrangian_steps``; snapshots are the 2N stacks [x^k; u^k]
    of the first n_store post-initial steps."""
    if n_store > spec.n_steps:
        raise ValueError("n_store cannot exceed the number of steps")
    started = time.perf_counter()
    grid = spec.grid()
    n = len(grid)
    store = np.empty((spec.n_steps + 1, 2 * n))
    for index, row in enumerate(lagrangian_steps(spec)):
        store[index] = row
    store.setflags(write=False)
    stacked = store.T
    snaps = SnapshotMatrix(stacked[:, 1 : n_store + 1], np.arange(1, n_store + 1))
    elapsed = time.perf_counter() - started
    return LagrangianRun(snaps, stacked[:n], stacked[n:], grid, elapsed, stacked)
