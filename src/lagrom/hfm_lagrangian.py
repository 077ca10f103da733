"""Semi-Lagrangian high-fidelity solver: the grid rides the characteristics
and diffuses on its own nodes.

Grid points carry the solution values. Each step performs, in order:

  (i)   one implicit Euler step (I - dt L(x^n)) u^{n+1} = u^n of (D u_x)_x
        on the moving nodes, L the nonuniform three-point operator of
        ``kernels.diffusion_bands``;
  (ii)  the trapezoidal position update x^{n+1} = x^n + dt/2 (f(u^n) + f(u^{n+1})).

Step (i) is ``core.diffusion_system_for`` on the moving nodes, the builder
the fixed grid steps with, and its boundary rule is ``ProblemSpec.period``.
Periodic: each end node's neighbour across the seam is the other end node
shifted by the period, which gives one cyclic system. Dirichlet: a ghost
node one end-spacing beyond each moving end node carries ``bc_values``, and
the end face takes the end node's D. On nodes at rest, step (i) is the
fixed-grid solver's diffusion step bit for bit.

The nodes move, so each step builds its own system from D at (x^n, t^{n+1},
u^n), a number or a callable alike, factored in the LU of the step before:
the solver checks its ``DiffusionSystem.residual`` against ``RESIDUAL_TOL``,
and the moving-frame POD stepper solves it for its value target. When D is
``None`` step (i) is skipped and the values are transported bit-exactly.
This module calls only ``core``. Positions are kept unwrapped (monotone) for
periodic problems, so ``core.check_untangled`` is a monotonicity test plus,
when periodic, the seam test x[-1] - x[0] < L.

One step path: the stream ``lagrangian_steps`` calls ``lagrangian_step``,
which advances raw position and value arrays (and hands back f(u^{n+1}),
the next step's f(u^n)). It yields each stacked row [x^n; u^n], n = 0..M,
and stores nothing: ``bench.run_experiment`` keeps only the training window.
``run_lagrangian_hfm`` collects it into a read-only (M+1, 2N) C-order
store; ``stacked`` is its (2N, M+1) transposed view, ``positions`` and
``values`` that view's halves, and ``snapshots.data`` its columns 1..m,
which the snapshot matrix adopts without a copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import RESIDUAL_TOL, DiffusionSystem, Grid1D, ProblemSpec, SnapshotMatrix, check_untangled, diffusion_system_for
from .errors import NumericalFailure


def lagrangian_step(spec: ProblemSpec, system: Optional[DiffusionSystem], x: np.ndarray, u: np.ndarray, f_u: np.ndarray, index: int):
    """Positions, values and speeds at time index ``index`` from ``x``, ``u``
    and ``f_u = spec.speed(u)`` at ``index - 1``; ``system`` is the step's
    diffusion system, ``diffusion_system_for`` at (x, t^index, u), or None
    when D is absent. Checks the diffusion residual, entanglement and
    finiteness of the new state.
    """
    if system is None:
        u_new, f_new = u, f_u
    else:
        u_new = system.solve(u)
        residual = system.residual(u_new, u)
        if residual > RESIDUAL_TOL:
            raise NumericalFailure(
                f"diffusion residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} at time index {index}",
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
    nodes = spec.grid().nodes
    n = nodes.size
    row = np.concatenate([nodes, spec.initial_state()])
    row.setflags(write=False)
    f_u = spec.speed(row[n:])
    system = None
    yield row
    for step in range(spec.n_steps):
        x, u = row[:n], row[n:]
        if spec.diffusion_D is not None:
            system = diffusion_system_for(spec, x, (step + 1) * spec.dt, u, into=system)
        x_new, u_new, f_u = lagrangian_step(spec, system, x, u, f_u, step + 1)
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
