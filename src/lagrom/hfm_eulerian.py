"""Eulerian high-fidelity solver, and the owner of the fixed-grid
discretisation that the fixed-grid POD stepper projects.

Explicit conservative upwind advection (local wave-speed flux) combined with
an implicit backward-Euler diffusion solve. One step is

    u* = u^n - (dt/dx) (F_{j+1/2} - F_{j-1/2})
    (I - dt L) u^{n+1} = u*

with the face flux F_{j+1/2} = (F(u_R)+F(u_L))/2 - |a| (u_R-u_L)/2, the
local speed a taken as the secant slope of F (the tangent f when u_L = u_R),
and L the three-point (D u_x)_x on the grid nodes.

This module owns the explicit half of that step: ``face_fluxes`` and
``advected_state`` (the Courant check reads f(u) from the tangent speeds the
fluxes already form). The implicit half is ``core.DiffusionSystem``, built
by ``core.diffusion_system_for`` on the grid nodes: the one builder the
moving grid also steps with, so the fixed grid is the moving grid at rest.
When D is a number the system is the same at every step, so a run builds
and factors it once (``run_diffusion_system``); ``step_system`` hands a step
that system, or builds one when D is a callable. The fixed-grid POD stepper
calls these pieces instead of repeating them; this module calls only
``core``, whose ``ProblemSpec.with_ghosts`` attaches the boundary values.
Every solver step checks its residual (``DiffusionSystem.residual``), its
Courant number (``core.check_courant``) and the finiteness of the new state;
F, f and u0 come from ``ProblemSpec.flux``, ``speed``, ``initial_state``.

One step path: the step stream ``eulerian_steps`` calls ``eulerian_step``,
which advances a raw value array and returns it with the step's residual and
Courant number. The stream yields u^0 and then each u^n with those two
numbers, and stores nothing: ``bench.run_experiment`` keeps only the
training window of it.
``run_eulerian_hfm`` collects the stream time-major: a preallocated
(M+1, N) C-order store whose row n is u^n, written as one contiguous row per
step and marked read-only after the loop. ``trajectory`` is its (N, M+1)
transposed view and ``snapshots.data`` the view of rows 1..m, which the
snapshot matrix adopts without a copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .core import RESIDUAL_TOL, DiffusionSystem, Grid1D, ProblemSpec, SnapshotMatrix, check_courant, diffusion_system_for
from .errors import NumericalFailure


def face_fluxes(u: np.ndarray, spec: ProblemSpec) -> Tuple[np.ndarray, np.ndarray]:
    """All N+1 face fluxes for a state of length N, ghost cells included,
    and the N+1 tangent speeds f at each face's left value (the ghost
    first), whose entries 1..N are f(u): f is evaluated once per state."""
    u_ext = spec.with_ghosts(u)
    f_vals = spec.flux(u_ext)
    du = u_ext[1:] - u_ext[:-1]
    d_f = f_vals[1:] - f_vals[:-1]
    tangent = spec.speed(u_ext[:-1])
    ties = du == 0.0
    secant = d_f / np.where(ties, 1.0, du)
    secant = np.where(ties, tangent, secant)
    return 0.5 * (f_vals[1:] + f_vals[:-1]) - 0.5 * np.abs(secant) * du, tangent


def advected_state(u: np.ndarray, fluxes: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """The explicit half-step u* = u - (dt/dx) (F_{j+1/2} - F_{j-1/2}) from
    the ``face_fluxes`` of u."""
    return u - (spec.dt / spec.dx) * (fluxes[1:] - fluxes[:-1])


def run_diffusion_system(spec: ProblemSpec) -> Optional[DiffusionSystem]:
    """The diffusion system of a whole run when D is a number; None when D is
    absent or varies (then each step builds its own)."""
    if not spec.diffusion_is_constant:
        return None
    return diffusion_system_for(spec, spec.grid().nodes, 0.0, None)


def step_system(spec: ProblemSpec, run_system: Optional[DiffusionSystem], x: np.ndarray, t: float, u: np.ndarray) -> DiffusionSystem:
    """The system one step solves: the run's when D is a number, else one
    built from D evaluated at (x, t, u)."""
    if run_system is not None:
        return run_system
    return diffusion_system_for(spec, x, t, u)


def eulerian_step(
    u: np.ndarray, spec: ProblemSpec, system: Optional[DiffusionSystem], nodes: np.ndarray, index: int
) -> Tuple[np.ndarray, float, float]:
    """u at time index ``index`` from u at ``index - 1`` on the fixed ``nodes``:
    explicit upwind advection then implicit diffusion, with the step's
    Courant, residual and finiteness checks. ``system`` is the run's
    diffusion system when D is constant (``step_system``). Returns
    (u_new, residual, courant)."""
    fluxes, speeds = face_fluxes(u, spec)
    courant = check_courant(speeds[1:], spec.dt, spec.dx, index)  # f(u), before the update
    u_star = advected_state(u, fluxes, spec)
    if spec.diffusion_D is None:
        u_new, residual = u_star, 0.0
    else:
        # D is lagged at the advected intermediate to keep one linear solve.
        system = step_system(spec, system, nodes, index * spec.dt, u_star)
        u_new = system.solve(u_star)
        residual = system.residual(u_new, u_star)
        if residual > RESIDUAL_TOL:
            raise NumericalFailure(
                f"step residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} at time index {index}",
                time_index=index,
            )
    if not np.isfinite(u_new).all():
        raise NumericalFailure(f"non-finite state at time index {index}", time_index=index)
    return u_new, residual, courant


class EulerianStep(NamedTuple):
    """One state of a run: u^n, read-only, and the residual and Courant
    number of the step that reached it (0 for the initial state)."""

    values: np.ndarray
    residual: float
    courant: float


def eulerian_steps(spec: ProblemSpec) -> Iterator[EulerianStep]:
    """The run as a stream: u^0, then one step per index 1..M. Nothing is
    stored, so a consumer that reads the steps as they come holds one state
    at a time; ``run_eulerian_hfm`` collects them. A non-finite u^0 raises
    ``NumericalFailure`` for time index 0 before the first yield."""
    nodes = spec.grid().nodes
    system = run_diffusion_system(spec)
    u = spec.initial_state()
    yield EulerianStep(u, 0.0, 0.0)
    for step in range(spec.n_steps):
        u, residual, courant = eulerian_step(u, spec, system, nodes, step + 1)
        u.setflags(write=False)  # the next step reads it
        yield EulerianStep(u, residual, courant)


@dataclass
class EulerianRun:
    """Snapshots plus the retained full trajectory and timing of one run.

    ``trajectory`` (N, M+1) and ``snapshots.data`` are read-only views of
    the run's time-major store.
    """

    snapshots: SnapshotMatrix
    trajectory: np.ndarray
    grid: Grid1D
    wall_seconds: float
    max_residual: float
    max_courant: float


def run_eulerian_hfm(spec: ProblemSpec, n_store: int) -> EulerianRun:
    """Collect ``eulerian_steps`` over n_steps steps; the snapshots are the
    first n_store post-initial states."""
    if n_store > spec.n_steps:
        raise ValueError("n_store cannot exceed the number of steps")
    started = time.perf_counter()
    grid = spec.grid()
    store = np.empty((spec.n_steps + 1, len(grid)))
    max_res = 0.0
    max_cfl = 0.0
    for index, step in enumerate(eulerian_steps(spec)):
        store[index] = step.values
        max_res = max(max_res, step.residual)
        max_cfl = max(max_cfl, step.courant)
    store.setflags(write=False)
    trajectory = store.T
    snaps = SnapshotMatrix(trajectory[:, 1 : n_store + 1], np.arange(1, n_store + 1))
    elapsed = time.perf_counter() - started
    return EulerianRun(snaps, trajectory, grid, elapsed, max_res, max_cfl)
