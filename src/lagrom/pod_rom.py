"""Galerkin-projection reduced models on orthonormal snapshot bases.

This module owns the bases, the reduced Newton iteration and the per-run
reduced operators; the discretisation it projects belongs to the solvers.
The fixed-grid stepper projects the full advection-diffusion residual, built
from ``hfm_eulerian``'s pieces: ``face_fluxes`` and ``advected_state`` for
the explicit half, ``step_system`` for the (I - dt D2) system and
``DiffusionSystem.apply`` for its action on the basis. The moving-frame
stepper projects the coupled position/value residuals, with the value target
from the semi-Lagrangian solver's own interpolate-to-reference, diffuse,
interpolate-back round trip: ``core.carried_to_grid`` for the first leg and
``hfm_lagrangian.diffuse_carried_values`` for the rest. Both solve
the projected system with Newton iteration in the reduced coordinates, with
f and f' from ``ProblemSpec.speed`` and ``ProblemSpec.speed_slope``.

No hyper-reduction is applied: each step still does full-dimension work, so
rollout cost scales with the grid like the solvers do. A prepared
``PodStepContext`` holds what is constant over a rollout, so the step loop
repeats only per-step work: the basis splits; the run's reference grid
(``hfm_lagrangian.ReferenceGrid``: the nodes, their interpolation source and
the factored diffusion system when D is a number); and the reduced Jacobian
with its LU factors when it does not change over the run.

* Fixed grid: the Jacobian Phi^T (I - dt D2) Phi is constant when D is a
  number or absent, and is factored once per run.
* Moving frame with a constant f' = c (``flux_df`` returning a scalar): the
  speed is affine, f(u) = f(0) + c u, so the projected residual is exactly
  A z - b with the per-run map A = Phi^T Phi - (dt/2) c P^T V, and the
  position part of b is the per-run affine map B z + g of the previous
  coordinates, B = P^T P + (dt/2) c P^T V and g = dt P^T f(0). Newton then
  runs entirely in r x r arithmetic against one LU of A. A step's
  full-dimension work is one entanglement check, one reconstruction of the
  converged state and its values on the fixed grid and, when D is given,
  the value target: the rest of the diffusion round trip and its projection
  V^T u_target (one N x r product). With D absent the value target is
  u = V z, its projection joins B, and b is r x r algebra throughout.
* Moving frame with an array-valued f': f has no reduced form, so every
  Newton iteration evaluates the residual at full dimension and solves its
  Jacobian I - (dt/2) P^T diag(f'(u)) V afresh.

One step path: the stream ``pod_steps`` calls ``_eulerian_newton`` or
``_lagrangian_newton``, which advance raw reduced coordinates one step. It
yields each state as it is stepped and stores none: ``run_pod_rom``
collects it into a (horizon x n) time-major store, and ``bench`` scores the
reconstructions block by block as they come, so that store exists only when
a caller asks ``run_pod_rom`` for it. Each state comes with its values on
the fixed grid, taken once when the state is made: in the moving frame they
are the first leg of the next step's round trip and the state ``bench``
scores, so no moving-frame state is interpolated twice; in the fixed frame
they are the reconstruction itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from .core import ProblemSpec, SnapshotMatrix, carried_to_grid, check_untangled, real_array
from .errors import NewtonDivergence, NumericalFailure
from .hfm_eulerian import advected_state, face_fluxes, step_system
from .hfm_lagrangian import ReferenceGrid, diffuse_carried_values, reference_grid
from .svd_core import WindowFactor, check_rank_rule, fit_svd, window_factor

NEWTON_TOL = 1e-10
NEWTON_CAP = 50
# Relative tolerance of the check that a constant f' comes with an affine f.
AFFINE_TOL = 1e-12

FRAME_EULERIAN = "eulerian"
FRAME_LAGRANGIAN = "lagrangian"


@dataclass(frozen=True)
class PodBasis:
    """Orthonormal basis columns spanning the snapshot data."""

    basis: np.ndarray
    rank: int
    frame: str

    def project(self, full: np.ndarray) -> np.ndarray:
        return self.basis.T @ full


def fit_pod(
    snapshots,
    epsilon: float = None,
    fixed_rank: int = None,
    frame: str = FRAME_EULERIAN,
    factor: WindowFactor = None,
) -> PodBasis:
    """Truncated left singular vectors of the snapshot matrix, from the SVD
    of all columns of its QR ``factor`` (``svd_core.reduced_svd``), which a
    DMD fit of the same window may share; without one the fit factors the
    window itself."""
    check_rank_rule(epsilon, fixed_rank)
    factor = window_factor(snapshots, factor)
    svd = fit_svd(factor, factor.n_cols, epsilon, fixed_rank)
    return PodBasis(svd.left_vectors, svd.rank, frame)


@dataclass
class PodStepContext:
    """Per-run constants shared by every step of one rollout.

    ``ref`` is the run's fixed grid (``hfm_lagrangian.ReferenceGrid``): its
    nodes, their interpolation source and the factored diffusion system when
    D is a number.
    ``jacobian`` is the reduced Jacobian when it does not change over the run
    (fixed grid: D a number or absent; moving frame: a scalar f'), else None,
    and ``jacobian_factor`` its LU factors. When the moving-frame residual is
    affine, ``target_map`` and ``target_offset`` give the part of its target
    known from the previous coordinates z as ``target_map @ z + target_offset``:
    the position part, plus V^T V z when D is absent; else they are None.
    """

    basis_matrix: np.ndarray
    basis_t: np.ndarray
    pos_block: Optional[np.ndarray]
    val_block: Optional[np.ndarray]
    pos_block_t: Optional[np.ndarray]
    val_block_t: Optional[np.ndarray]
    ref: ReferenceGrid
    identity_r: np.ndarray
    jacobian: Optional[np.ndarray]
    jacobian_factor: Optional[kernels.DenseLU]
    target_map: Optional[np.ndarray]
    target_offset: Optional[np.ndarray]

    @classmethod
    def for_basis(cls, basis: PodBasis, spec: ProblemSpec, initial_full: np.ndarray) -> "PodStepContext":
        """Prepare a rollout from ``initial_full``, the full state it starts
        from; a moving-frame rollout checks its flux against that state.

        Raises ``ValueError`` when ``flux_df`` returns a constant but
        ``flux_f`` is not affine, and ``NewtonDivergence`` when a per-run
        Jacobian is singular.
        """
        phi = basis.basis
        phi_t = np.ascontiguousarray(phi.T)
        ref = reference_grid(spec)
        pos = val = pos_t = val_t = jacobian = target_map = target_offset = None
        if basis.frame == FRAME_LAGRANGIAN:
            n = phi.shape[0] // 2
            pos, val = phi[:n], phi[n:]
            pos_t, val_t = phi_t[:, :n], phi_t[:, n:]  # column views of basis_t, not copies
            affine = _affine_speed(spec, real_array(initial_full)[n:])
            if affine is not None:
                slope, flux_at_zero = affine
                coupling = (0.5 * spec.dt * slope) * (pos_t @ val)
                jacobian = phi_t @ phi - coupling
                # P^T (x + (dt/2)(f(u) + f(0))) with x = P z, u = V z.
                target_map = pos_t @ pos + coupling
                if spec.diffusion_D is None:
                    target_map += val_t @ val
                target_offset = spec.dt * (pos_t @ flux_at_zero)
        elif spec.diffusion_D is None:
            jacobian = phi_t @ phi
        elif ref.system is not None:
            jacobian = phi_t @ ref.system.apply(phi)
        factor = None
        if jacobian is not None:
            try:
                factor = kernels.factor_small(jacobian)
            except NumericalFailure as exc:
                raise NewtonDivergence(f"singular reduced Jacobian: {exc}", iterations=0) from exc
        return cls(
            basis_matrix=phi,
            basis_t=phi_t,
            pos_block=pos,
            val_block=val,
            pos_block_t=pos_t,
            val_block_t=val_t,
            ref=ref,
            identity_r=np.eye(basis.rank),
            jacobian=jacobian,
            jacobian_factor=factor,
            target_map=target_map,
            target_offset=target_offset,
        )


def _affine_speed(spec: ProblemSpec, u: np.ndarray) -> Optional[Tuple[float, np.ndarray]]:
    """(c, f(0)) when ``flux_df`` returns a scalar c, else None.

    A scalar f' promises f(u) = f(0) + c u, which the reduced residual relies
    on; that is checked once, on the state ``u``. Non-finite speeds are left
    to the Newton guards.
    """
    slope = spec.speed_slope(u)
    if slope.ndim:
        return None
    c = float(slope)
    f_u = spec.speed(u)
    f_zero = spec.speed(np.zeros_like(u))
    worst = float(np.max(np.abs(f_u - (f_zero + c * u)), initial=0.0))
    if worst > AFFINE_TOL * max(1.0, float(np.max(np.abs(f_u), initial=0.0))):
        raise ValueError(
            f"flux_df returns the constant {c!r} but flux_f is not affine on the initial state "
            f"(max deviation {worst:.3e})"
        )
    return c, f_zero


def _newton_guard(vec: np.ndarray, iteration: int) -> None:
    if not np.isfinite(vec).all():
        raise NewtonDivergence(f"non-finite iterate at Newton iteration {iteration}", iterations=iteration)


def _reduced_newton(jac: np.ndarray, factor, z_hat: np.ndarray, target: np.ndarray):
    """Newton on a reduced residual jac z - target that is affine in z.

    ``factor`` holds jac's LU factors when jac is a per-run constant; without
    it each solve factors jac afresh.
    """
    z_next_hat = z_hat.copy()
    for iteration in range(1, NEWTON_CAP + 1):
        resid = jac @ z_next_hat - target
        _newton_guard(resid, iteration)
        if math.sqrt(float(resid @ resid)) <= NEWTON_TOL:
            return z_next_hat, iteration - 1
        if factor is None:
            delta = kernels.solve_small(jac, resid)
        else:
            delta = factor.solve(resid)
        z_next_hat = z_next_hat - delta
        _newton_guard(z_next_hat, iteration)
    raise NewtonDivergence(f"no convergence in {NEWTON_CAP} iterations", iterations=NEWTON_CAP)


def _eulerian_newton(context: PodStepContext, u_hat, u_prev, spec: ProblemSpec, time_index: int):
    """The reduced coordinates after the fixed-grid step from index
    ``time_index`` (reconstruction ``u_prev``), by projecting the step
    residual, with the Newton iterations they took.

    The advective flux is explicit in the previous state, so the projected
    residual is affine in the unknown and Newton lands in one iteration; the
    loop form covers state-dependent diffusion coefficients.
    """
    t_next = (time_index + 1) * spec.dt

    u_star = advected_state(u_prev, face_fluxes(u_prev, spec)[0], spec)
    rhs_known = u_star
    if spec.diffusion_D is not None:
        system = step_system(spec, context.ref.system, context.ref.nodes, t_next, u_star)
        rhs_known = system.with_boundary_terms(u_star)

    target = context.basis_t @ rhs_known
    jac = context.jacobian
    if jac is None:
        jac = context.basis_t @ system.apply(context.basis_matrix)
    return _reduced_newton(jac, context.jacobian_factor, u_hat, target)


def _lagrangian_newton(context: PodStepContext, z_hat, z_prev, u_grid_prev, spec: ProblemSpec, time_index: int):
    """The stacked [positions; values] reduced coordinates after the
    moving-frame step from index ``time_index`` (reconstruction ``z_prev``,
    whose values on the fixed grid are ``u_grid_prev``), with the Newton
    iterations they took and their reconstruction, which the next step
    starts from. The diffusion round trip starts from ``u_grid_prev``, so
    its first leg is the one ``pod_steps`` took when it made the state."""
    phi = context.basis_matrix
    n = context.pos_block.shape[0]
    x_prev, u_prev = z_prev[:n], z_prev[n:]
    check_untangled(x_prev, spec.period, "reconstructed positions", time_index)
    t_next = (time_index + 1) * spec.dt
    dt_half = 0.5 * spec.dt

    if spec.diffusion_D is None:
        u_target = u_prev
    else:
        u_target = diffuse_carried_values(spec, context.ref, x_prev, u_grid_prev, t_next)[0]

    if context.target_map is not None:
        # f(u) = f(0) + c u makes the residual A z - b, and every part of b but
        # the diffused value target a per-run map of the previous coordinates.
        target = context.target_map @ z_hat + context.target_offset
        if spec.diffusion_D is not None:
            target += context.val_block_t @ u_target
        z_next_hat, iterations = _reduced_newton(context.jacobian, context.jacobian_factor, z_hat, target)
        return z_next_hat, iterations, phi @ z_next_hat

    base_x = x_prev + dt_half * spec.speed(u_prev)
    z_next_hat = z_hat.copy()
    z_next = z_prev
    for iteration in range(1, NEWTON_CAP + 1):
        x_next, u_next = z_next[:n], z_next[n:]
        r_x = x_next - base_x - dt_half * spec.speed(u_next)
        r_u = u_next - u_target
        proj_resid = context.pos_block_t @ r_x + context.val_block_t @ r_u
        _newton_guard(proj_resid, iteration)
        if math.sqrt(float(proj_resid @ proj_resid)) <= NEWTON_TOL:
            return z_next_hat, iteration - 1, z_next
        # The orthonormal basis leaves I - (dt/2) P^T diag(f'(u)) V.
        f_prime = spec.speed_slope(u_next)
        coupling = context.pos_block_t @ (f_prime[:, None] * context.val_block)
        jac = context.identity_r - dt_half * coupling
        try:
            delta = kernels.solve_small(jac, proj_resid)
        except NumericalFailure as exc:
            raise NewtonDivergence(f"singular reduced Jacobian: {exc}", iterations=iteration) from exc
        z_next_hat = z_next_hat - delta
        _newton_guard(z_next_hat, iteration)
        z_next = phi @ z_next_hat
    raise NewtonDivergence(f"no convergence in {NEWTON_CAP} iterations", iterations=NEWTON_CAP)


class PodStep(NamedTuple):
    """One state of a rollout: its reduced coordinates, the Newton iterations
    that reached them (0 for the projected initial state), their
    full-dimensional reconstruction, and the reconstruction's values on the
    fixed grid. In the fixed frame those are the reconstruction itself; in
    the moving frame, its values carried to the grid nodes
    (``core.carried_to_grid``), which the next step diffuses."""

    reduced: np.ndarray
    iterations: int
    full: np.ndarray
    grid_values: np.ndarray


def pod_steps(basis: PodBasis, initial_full: np.ndarray, spec: ProblemSpec, horizon: int) -> Iterator[PodStep]:
    """The rollout from ``initial_full`` as a stream: its projection onto the
    basis (index 0), then one step per index 1..horizon. Nothing is stored,
    so a consumer that reads the steps as they come holds one state at a
    time; ``run_pod_rom`` collects them. A moving-frame state is taken to
    the fixed grid once, when it is made: the next step's round trip and
    ``bench``'s scoring both read those values."""
    z0 = real_array(initial_full)
    context = PodStepContext.for_basis(basis, spec, z0)
    z_hat = basis.project(z0)
    recon = context.basis_matrix @ z_hat
    lagrangian = basis.frame == FRAME_LAGRANGIAN
    nodes, period = context.ref.nodes, spec.period
    n = nodes.size

    def on_grid(full):
        return carried_to_grid(full[:n], full[n:], nodes, period) if lagrangian else full

    grid_values = on_grid(recon)
    yield PodStep(z_hat, 0, recon, grid_values)
    for k in range(horizon):
        if lagrangian:
            z_hat, used, recon = _lagrangian_newton(context, z_hat, recon, grid_values, spec, k)
        else:
            z_hat, used = _eulerian_newton(context, z_hat, recon, spec, k)
            recon = context.basis_matrix @ z_hat
        grid_values = on_grid(recon)
        yield PodStep(z_hat, used, recon, grid_values)


@dataclass
class PodRomRun:
    """Reduced-space rollout with full-dimensional reconstructions."""

    snapshots: SnapshotMatrix
    reduced_trajectory: np.ndarray
    newton_iterations: List[int]
    initial_projection_error: float
    wall_seconds: float


def run_pod_rom(basis: PodBasis, initial_full: np.ndarray, spec: ProblemSpec, horizon: int) -> PodRomRun:
    """Collect ``pod_steps``: the initial projection error, and each step's
    reduced coordinates, Newton iterations and reconstruction.

    States are stored time-major, one contiguous row per step, and returned
    as column-ordered transposes; the store is marked read-only so the
    snapshot matrix adopts it without a copy.
    """
    started = time.perf_counter()
    steps = pod_steps(basis, initial_full, spec, horizon)
    initial = next(steps)
    proj_err = float(np.linalg.norm(real_array(initial_full) - initial.full))
    reduced = np.empty((horizon + 1, basis.rank))
    reduced[0] = initial.reduced
    full = np.empty((horizon, basis.basis.shape[0]))
    iters: List[int] = []
    for k, step in enumerate(steps):
        iters.append(step.iterations)
        reduced[k + 1] = step.reduced
        full[k] = step.full
    full.setflags(write=False)
    snaps = SnapshotMatrix(full.T, np.arange(1, horizon + 1))
    elapsed = time.perf_counter() - started
    return PodRomRun(snaps, reduced.T, iters, proj_err, elapsed)
