"""Eulerian high-fidelity solver.

Explicit conservative upwind advection (local wave-speed flux) combined with
an implicit backward-Euler centered-difference diffusion solve. One step is

    u* = u^n - (dt/dx) (F_{j+1/2} - F_{j-1/2})
    (I - dt D2) u^{n+1} = u*

with the face flux F_{j+1/2} = (F(u_R)+F(u_L))/2 - |a| (u_R-u_L)/2 and the
local speed a taken as the secant slope of F (the tangent f when u_L = u_R).

The implicit system is held as a ``DiffusionSystem``: face coefficients plus
the LU factors of (I - dt D2). When D is a number the system is the same at
every step, so a run builds and factors it once (``run_diffusion_system``)
and each step is one factored solve; a callable D is evaluated, assembled
and factored at every step. Every step still checks its residual, its
Courant number and the finiteness of the new state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import kernels
from .core import Grid1D, ProblemSpec, SnapshotMatrix, StateVector
from .errors import CflViolation, NumericalFailure

CFL_SLACK = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass
class EulerianStepWorkspace:
    """Scratch arrays and per-run constants reused across the steps of a
    single run (not thread-safe).

    ``system`` is the run's diffusion system when D is constant, else None
    and each step builds its own.
    """

    flux_faces: np.ndarray
    wave_speeds: np.ndarray
    system: Optional["DiffusionSystem"]
    last_residual: float = 0.0
    last_courant: float = 0.0

    @classmethod
    def for_spec(cls, spec: ProblemSpec) -> "EulerianStepWorkspace":
        n = spec.n_cells
        return cls(flux_faces=np.empty(n + 1), wave_speeds=np.empty(n + 1), system=run_diffusion_system(spec))


def numerical_flux(u_left: float, u_right: float, spec: ProblemSpec) -> float:
    """Single upwind face flux; consistent (flux(c, c) = F(c))."""
    f_l = float(spec.flux_F(u_left))
    f_r = float(spec.flux_F(u_right))
    if u_right != u_left:
        a = (f_r - f_l) / (u_right - u_left)
    else:
        a = float(spec.flux_f(u_left))
    return 0.5 * (f_r + f_l) - 0.5 * abs(a) * (u_right - u_left)


def _extend(u: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Attach ghost values: boundary data for Dirichlet, wrapped for periodic."""
    if spec.periodic:
        return np.concatenate([u[-1:], u, u[:1]])
    lo, hi = spec.bc_values
    return np.concatenate([[lo], u, [hi]])


def face_fluxes(u: np.ndarray, spec: ProblemSpec, out: np.ndarray = None, speeds_out: np.ndarray = None):
    """All N+1 face fluxes for a state of length N, ghost cells included."""
    u_ext = _extend(u, spec)
    f_vals = np.asarray(spec.flux_F(u_ext), dtype=float)
    du = u_ext[1:] - u_ext[:-1]
    d_f = f_vals[1:] - f_vals[:-1]
    tangent = np.asarray(spec.flux_f(u_ext[:-1]), dtype=float)
    if tangent.ndim == 0:
        tangent = np.full(du.shape, float(tangent))
    ties = du == 0.0
    secant = d_f / np.where(ties, 1.0, du)
    secant = np.where(ties, tangent, secant)
    if speeds_out is not None:
        speeds_out[:] = secant
    flux = 0.5 * (f_vals[1:] + f_vals[:-1]) - 0.5 * np.abs(secant) * du
    if out is not None:
        out[:] = flux
        return out
    return flux


def check_cfl(u: np.ndarray, spec: ProblemSpec) -> float:
    """Courant number of the explicit advection step; raises past 1 + slack."""
    speeds = np.max(np.abs(np.asarray(spec.flux_f(u), dtype=float)))
    courant = float(speeds) * spec.dt / spec.dx
    if courant > 1.0 + CFL_SLACK:
        raise CflViolation(
            f"Courant number {courant:.6f} exceeds 1 (max |f(u)| = {float(speeds):.6g})",
            max_speed=float(speeds),
        )
    return courant


@dataclass
class DiffusionSystem:
    """(I - dt D2) on a fixed grid: face coefficients and the LU factors,
    with the periodic corner couplings inside the factorization."""

    factor: Union[kernels.TridiagonalFactor, kernels.CyclicFactor]
    periodic: bool
    mu: float
    d_faces: np.ndarray
    bc_values: tuple

    def with_boundary_terms(self, rhs: np.ndarray) -> np.ndarray:
        """``rhs`` plus the known Dirichlet ghost terms of the first and last rows."""
        if self.periodic:
            return rhs
        b = rhs.copy()
        b[0] += self.mu * self.d_faces[0] * self.bc_values[0]
        b[-1] += self.mu * self.d_faces[-1] * self.bc_values[1]
        return b

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.periodic:
            return kernels.cyclic_thomas_solve(self.factor, rhs)
        return kernels.thomas_solve(self.factor, self.with_boundary_terms(rhs))


def diffusion_system_for(spec: ProblemSpec, x: np.ndarray, t: float, u: np.ndarray) -> DiffusionSystem:
    """Evaluate D on the nodes, average it to faces, assemble the implicit
    system and factor it."""
    d_nodes = spec.diffusion_at(x, t, u)
    mu = spec.dt / spec.dx**2
    d_faces, lower, diag, upper = kernels.diffusion_bands(np.ascontiguousarray(d_nodes), mu, spec.periodic)
    if spec.periodic:
        factor = kernels.factor_cyclic(lower, diag, upper, -mu * d_faces[0], -mu * d_faces[-1])
    else:
        factor = kernels.factor_tridiagonal(lower, diag, upper)
    return DiffusionSystem(factor, spec.periodic, mu, d_faces, spec.bc_values)


def run_diffusion_system(spec: ProblemSpec) -> Optional[DiffusionSystem]:
    """The diffusion system of a whole run when D is a number; None when D is
    absent or varies (then each step builds its own)."""
    if not spec.diffusion_is_constant:
        return None
    return diffusion_system_for(spec, spec.grid().nodes, 0.0, None)


def second_difference(system: DiffusionSystem, u: np.ndarray) -> np.ndarray:
    """dt * D2 u, evaluated independently of the elimination path."""
    if system.periodic:
        u_ext = np.concatenate([u[-1:], u, u[:1]])
    else:
        lo, hi = system.bc_values
        u_ext = np.concatenate([[lo], u, [hi]])
    df = system.d_faces
    return system.mu * (df[1:] * (u_ext[2:] - u_ext[1:-1]) - df[:-1] * (u_ext[1:-1] - u_ext[:-2]))


def step_residual(u_new: np.ndarray, u_old: np.ndarray, adv_div: np.ndarray, system: Optional[DiffusionSystem]) -> np.ndarray:
    """Residual of the full discrete step: u' - u + dt*adv - dt*D2 u'."""
    r = u_new - u_old + adv_div
    if system is not None:
        r = r - second_difference(system, u_new)
    return r


def advance_eulerian(state: StateVector, spec: ProblemSpec, workspace: EulerianStepWorkspace = None) -> StateVector:
    """One full step: explicit upwind advection then implicit diffusion."""
    u = state.values
    if workspace is None:
        workspace = EulerianStepWorkspace.for_spec(spec)
    workspace.last_courant = check_cfl(u, spec)
    index = state.time_index + 1

    fluxes = face_fluxes(u, spec, out=workspace.flux_faces, speeds_out=workspace.wave_speeds)
    adv = (spec.dt / spec.dx) * (fluxes[1:] - fluxes[:-1])
    u_star = u - adv

    if spec.diffusion_D is None:
        u_new = u_star
        system = None
    else:
        system = workspace.system
        if system is None:
            # D is lagged at the advected intermediate to keep one linear solve.
            system = diffusion_system_for(spec, state.grid.nodes, index * spec.dt, u_star)
        u_new = system.solve(u_star)

    residual = step_residual(u_new, u, adv, system)
    workspace.last_residual = float(np.max(np.abs(residual)))
    if workspace.last_residual > RESIDUAL_TOL:
        raise NumericalFailure(
            f"step residual {workspace.last_residual:.3e} exceeds {RESIDUAL_TOL:.0e} at time index {index}",
            time_index=index,
        )
    if not np.all(np.isfinite(u_new)):
        raise NumericalFailure(f"non-finite state at time index {index}", time_index=index)
    return StateVector(u_new, state.grid, index)


@dataclass
class EulerianRun:
    """Snapshots plus the retained full trajectory and timing of one run."""

    snapshots: SnapshotMatrix
    trajectory: np.ndarray
    grid: Grid1D
    wall_seconds: float
    max_residual: float
    max_courant: float


def run_eulerian_hfm(spec: ProblemSpec, n_store: int) -> EulerianRun:
    """Integrate n_steps steps, storing the first n_store post-initial states."""
    if n_store > spec.n_steps:
        raise ValueError("n_store cannot exceed the number of steps")
    started = time.perf_counter()
    state = spec.initial_state()
    n = len(state.grid)
    workspace = EulerianStepWorkspace.for_spec(spec)
    trajectory = np.empty((n, spec.n_steps + 1))
    trajectory[:, 0] = state.values
    max_res = 0.0
    max_cfl = 0.0
    for step in range(spec.n_steps):
        try:
            state = advance_eulerian(state, spec, workspace)
        except CflViolation as exc:
            raise CflViolation(f"{exc} (time index {step + 1})", max_speed=exc.max_speed) from exc
        trajectory[:, step + 1] = state.values
        max_res = max(max_res, workspace.last_residual)
        max_cfl = max(max_cfl, workspace.last_courant)
    snaps = SnapshotMatrix(trajectory[:, 1 : n_store + 1], np.arange(1, n_store + 1))
    elapsed = time.perf_counter() - started
    return EulerianRun(snaps, trajectory, state.grid, elapsed, max_res, max_cfl)
