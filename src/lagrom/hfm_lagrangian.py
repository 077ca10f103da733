"""Semi-Lagrangian high-fidelity solver: the grid rides the characteristics
and diffuses on its own nodes.

Grid points carry the solution values. Each step performs, in order:

  (i)   one implicit Euler step (I - dt L(x^n)) u^{n+1} = u^n of (D u_x)_x
        on the moving nodes, row i of L being the nonuniform three-point
        2 [D_{i+1/2} (u_{i+1} - u_i) / h_+ - D_{i-1/2} (u_i - u_{i-1}) / h_-] / (h_- + h_+)
        with h_- = x_i - x_{i-1}, h_+ = x_{i+1} - x_i and each face's D the
        mean of D at its two nodes;
  (ii)  the trapezoidal position update x^{n+1} = x^n + dt/2 (f(u^n) + f(u^{n+1})).

The boundary rule is ``ProblemSpec.period``. Periodic: each end node's
neighbour across the seam is the other end node shifted by the period, which
gives one cyclic system. Dirichlet: a ghost node one end-spacing beyond each
moving end node carries ``bc_values``, and the end face takes the end node's
D: the fixed grid's own ghost rule, carried along with the grid, so on nodes
at rest step (i) is the fixed-grid solver's diffusion step.

``NodeDiffusion.step`` is the one moving-grid diffusion step: the solver
checks its residual against ``RESIDUAL_TOL``, and the moving-frame POD
stepper takes it as its value target. The nodes move, so each step
assembles and factors its own system from D at (x^n, t^{n+1}, u^n), a
number or a callable alike. When D is ``None`` step (i) is skipped and the
values are transported bit-exactly. This module calls only ``kernels`` and
``core``. Positions are kept unwrapped (monotone) for periodic problems, so
``core.check_untangled`` is a monotonicity test plus, when periodic, the
seam test x[-1] - x[0] < L.

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

from . import kernels
from .core import RESIDUAL_TOL, Grid1D, ProblemSpec, SnapshotMatrix, check_untangled
from .errors import NumericalFailure


class NodeDiffusion:
    """The diffusion steps of one run on its moving nodes. Each step's
    system is factored in the buffers of the run's one LU (``into`` of
    ``kernels.factor_tridiagonal``), so no step sets up LAPACK anew."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.lu: Optional[kernels.TridiagonalLU] = None

    def step(self, x: np.ndarray, u: np.ndarray, t: float):
        """The values ``u`` carried on the nodes ``x`` after one implicit
        Euler diffusion step to time ``t``, and the step's bands
        (lower, diag, upper) of I - dt L(x): ``lower[0]`` and ``upper[-1]``
        couple the end nodes to their neighbours across the boundary."""
        spec = self.spec
        n = x.shape[0]
        d = spec.diffusion_at(x, t, u)
        gaps = np.empty(n + 1)  # h_{i-1/2} for i = 0..N: a boundary gap at each end
        faces = np.empty(n + 1)  # D_{i-1/2}
        np.subtract(x[1:], x[:-1], out=gaps[1:-1])
        faces[1:-1] = 0.5 * (d[:-1] + d[1:])
        if spec.periodic:
            gaps[0] = gaps[-1] = x[0] + spec.period - x[-1]
            faces[0] = faces[-1] = 0.5 * (d[-1] + d[0])
        else:
            gaps[0], gaps[-1] = gaps[1], gaps[-2]
            faces[0], faces[-1] = d[0], d[-1]
        weights = faces / gaps
        scale = (-2.0 * spec.dt) / (gaps[:-1] + gaps[1:])
        lower = scale * weights[:-1]
        upper = scale * weights[1:]
        diag = 1.0 - lower - upper
        if spec.periodic:
            factor = kernels.factor_cyclic(lower, diag, upper, lower[0], upper[-1], self.lu)
            self.lu = factor.tridiagonal
            u_new = kernels.cyclic_thomas_solve(factor, u)
        else:
            rhs = u.copy()
            rhs[0] -= lower[0] * spec.bc_values[0]
            rhs[-1] -= upper[-1] * spec.bc_values[1]
            self.lu = kernels.factor_tridiagonal(lower, diag, upper, self.lu)
            u_new = kernels.thomas_solve(self.lu, rhs)
        return u_new, (lower, diag, upper)


def lagrangian_step(spec: ProblemSpec, diffusion: NodeDiffusion, x: np.ndarray, u: np.ndarray, f_u: np.ndarray, index: int):
    """Positions, values and speeds at time index ``index`` from ``x``, ``u``
    and ``f_u = spec.speed(u)`` at ``index - 1``; ``diffusion`` is the run's
    ``NodeDiffusion``. Checks the diffusion residual, entanglement and
    finiteness of the new state.
    """
    if spec.diffusion_D is None:
        u_new, f_new = u, f_u
    else:
        u_new, (lower, diag, upper) = diffusion.step(x, u, index * spec.dt)
        ghosts = spec.with_ghosts(u_new)
        resid = diag * u_new + lower * ghosts[:-2] + upper * ghosts[2:] - u
        worst = float(np.max(np.abs(resid, out=resid)))
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
    diffusion = NodeDiffusion(spec)
    nodes = spec.grid().nodes
    n = nodes.size
    row = np.concatenate([nodes, spec.initial_state()])
    row.setflags(write=False)
    f_u = spec.speed(row[n:])
    yield row
    for step in range(spec.n_steps):
        x_new, u_new, f_u = lagrangian_step(spec, diffusion, row[:n], row[n:], f_u, step + 1)
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
