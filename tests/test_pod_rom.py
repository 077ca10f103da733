"""Galerkin reduced models: complete-basis equivalence, Newton behavior, rollouts."""

from dataclasses import replace

import numpy as np
import pytest

from lagrom.core import PERIODIC, ProblemSpec, stacked_to_grid
from lagrom.errors import NewtonDivergence
from lagrom.hfm_eulerian import run_eulerian_hfm
from lagrom.hfm_lagrangian import run_lagrangian_hfm
from lagrom.pod_rom import (
    FRAME_EULERIAN,
    FRAME_LAGRANGIAN,
    PodBasis,
    fit_pod,
    pod_steps,
    run_pod_rom,
)
from lagrom.presets import ExperimentConfig, resolve
from lagrom.svd_core import reduced_svd

from conftest import make_spec


class TestFit:
    def test_repeated_column_gives_rank_one(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        basis = fit_pod(np.column_stack([col] * 5), epsilon=1e-8)
        assert basis.rank == 1
        direction = basis.basis[:, 0]
        cosine = abs(direction @ col) / (np.linalg.norm(direction) * np.linalg.norm(col))
        assert np.isclose(cosine, 1.0, atol=1e-12)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        basis = fit_pod(rng.standard_normal((30, 10)), epsilon=1e-10)
        gram = basis.basis.T @ basis.basis
        assert np.max(np.abs(gram - np.eye(basis.rank))) <= 1e-10

    def test_affine_moving_grid_data_is_low_rank(self):
        spec = make_spec(speed="const", c=1.0, n=200, m_steps=100)
        run = run_lagrangian_hfm(spec, 25)
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=FRAME_LAGRANGIAN)
        assert basis.rank <= 5

    def test_exactly_one_selection_argument(self):
        with pytest.raises(ValueError):
            fit_pod(np.eye(3))

    def test_projection_optimality(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((40, 12))
        svd = reduced_svd(data).svd()
        basis = fit_pod(data, fixed_rank=5)
        for k in range(data.shape[1]):
            y = data[:, k]
            residual = np.linalg.norm(y - basis.basis @ (basis.basis.T @ y))
            assert residual <= svd.full_singular_values[5] + 1e-9


def identity_basis(n, frame):
    return PodBasis(np.eye(n), n, frame)


class TestCompleteBasisEquivalence:
    def test_eulerian_full_rank_matches_solver(self):
        spec = make_spec(speed="burgers", diffusion=0.05, bc=PERIODIC, n=24, m_steps=40)
        hfm = run_eulerian_hfm(spec, 10)
        basis = identity_basis(24, FRAME_EULERIAN)
        rom = run_pod_rom(basis, hfm.trajectory[:, 0], spec, 10)
        assert np.max(np.abs(rom.snapshots.data - hfm.trajectory[:, 1:11])) <= 1e-8

    def test_lagrangian_full_rank_matches_solver(self):
        spec = make_spec(speed="burgers", diffusion=0.1, bc=PERIODIC, n=24, m_steps=40)
        hfm = run_lagrangian_hfm(spec, 10)
        z0 = np.concatenate([hfm.positions[:, 0], hfm.values[:, 0]])
        basis = identity_basis(48, FRAME_LAGRANGIAN)
        rom = run_pod_rom(basis, z0, spec, 10)
        reference = np.vstack([hfm.positions[:, 1:11], hfm.values[:, 1:11]])
        assert np.max(np.abs(rom.snapshots.data - reference)) <= 1e-8

    @pytest.mark.parametrize("frame", [FRAME_EULERIAN, FRAME_LAGRANGIAN])
    def test_full_rank_matches_solver_with_state_dependent_diffusion(self, frame):
        # D(x, t, u) is rebuilt every step from the step's own time and state,
        # and nonzero Dirichlet data enter only through the ghost terms: a
        # complete-basis rollout sees both exactly as the solver does.
        spec = make_spec(
            speed="const", c=1.0, n=30, m_steps=40, bc_values=(0.3, -0.2),
            diffusion=lambda x, t, u: 0.01 * (1.0 + u**2 + t),
        )
        if frame == FRAME_EULERIAN:
            hfm = run_eulerian_hfm(spec, 10)
            z0, reference = hfm.trajectory[:, 0], hfm.trajectory[:, 1:11]
        else:
            hfm = run_lagrangian_hfm(spec, 10)
            z0 = np.concatenate([hfm.positions[:, 0], hfm.values[:, 0]])
            reference = np.vstack([hfm.positions[:, 1:11], hfm.values[:, 1:11]])
        rom = run_pod_rom(identity_basis(z0.size, frame), z0, spec, 10)
        assert np.max(np.abs(rom.snapshots.data - reference)) <= 1e-8


class TestNewtonBehavior:
    def test_linear_problem_single_iteration(self):
        spec = make_spec(speed="const", c=1.0, diffusion=0.01, n=100, m_steps=200)
        run = run_lagrangian_hfm(spec, 20)
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=FRAME_LAGRANGIAN)
        z0 = np.concatenate([run.positions[:, 0], run.values[:, 0]])
        rom = run_pod_rom(basis, z0, spec, 20)
        assert all(it == 1 for it in rom.newton_iterations)

    def test_nonlinear_iteration_counts_stay_small(self):
        spec = make_spec(speed="burgers", diffusion=0.1, bc=PERIODIC, n=100, m_steps=100)
        run = run_lagrangian_hfm(spec, 25)
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=FRAME_LAGRANGIAN)
        z0 = np.concatenate([run.positions[:, 0], run.values[:, 0]])
        rom = run_pod_rom(basis, z0, spec, 50)
        assert max(rom.newton_iterations[1:]) <= 5

    def test_zero_state_is_fixed_point(self):
        spec = make_spec(speed="burgers", diffusion=0.05, bc=PERIODIC, n=30, m_steps=30, ic=lambda x: np.zeros_like(x))
        basis = identity_basis(30, FRAME_EULERIAN)
        out, iters, _, _ = list(pod_steps(basis, np.zeros(30), spec, 1))[1]
        assert np.allclose(out, 0.0, atol=1e-14)
        assert iters == 0

    def test_divergence_reported_on_nan(self):
        spec = make_spec(speed="const", c=1.0, n=20, m_steps=10)
        bad = ProblemSpec(
            domain_lo=spec.domain_lo,
            domain_hi=spec.domain_hi,
            n_cells=spec.n_cells,
            n_steps=spec.n_steps,
            t_final=spec.t_final,
            flux_f=lambda u: np.full_like(np.asarray(u, float), np.nan),
            flux_F=spec.flux_F,
            flux_df=spec.flux_df,
            diffusion_D=None,
            initial_u0=spec.initial_u0,
            bc=spec.bc,
        )
        basis = identity_basis(40, FRAME_LAGRANGIAN)
        with pytest.raises(NewtonDivergence):
            list(pod_steps(basis, np.concatenate([spec.grid().nodes, np.ones(20)]), bad, 1))

    def test_tangled_reconstruction_rejected(self):
        from lagrom.errors import GridEntanglement

        spec = make_spec(speed="burgers", bc=PERIODIC, n=8, m_steps=10)
        basis = identity_basis(16, FRAME_LAGRANGIAN)
        positions = np.array([0.0, 1.0, 0.9, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(GridEntanglement):
            list(pod_steps(basis, np.concatenate([positions, np.ones(8)]), spec, 1))

    def test_reconstruction_crossing_the_seam_rejected(self):
        # Strictly increasing, but the last node lies past the first node's
        # periodic image x[0] + L: the grid overlaps itself across the seam.
        from lagrom.errors import GridEntanglement

        spec = make_spec(speed="burgers", bc=PERIODIC, n=8, m_steps=10)
        basis = identity_basis(16, FRAME_LAGRANGIAN)
        positions = np.linspace(0.0, spec.domain_length + 0.1, 8)
        with pytest.raises(GridEntanglement, match="time index 0$") as err:
            list(pod_steps(basis, np.concatenate([positions, np.ones(8)]), spec, 1))
        assert err.value.time_index == 0


class TestRollout:
    def test_zero_horizon_reports_projection_error(self):
        spec = make_spec(speed="const", c=1.0, n=50, m_steps=10)
        run = run_lagrangian_hfm(spec, 5)
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=FRAME_LAGRANGIAN)
        z0 = np.concatenate([run.positions[:, 0], run.values[:, 0]])
        rom = run_pod_rom(basis, z0, spec, 0)
        assert rom.snapshots.data.shape == (100, 0)
        expected = np.linalg.norm(z0 - basis.basis @ (basis.basis.T @ z0))
        assert np.isclose(rom.initial_projection_error, expected, atol=1e-12)

    @pytest.mark.parametrize("frame", [FRAME_EULERIAN, FRAME_LAGRANGIAN])
    def test_run_collects_its_step_stream(self, frame):
        spec = make_spec(speed="burgers", diffusion=0.05, bc=PERIODIC, n=60, m_steps=30)
        if frame == FRAME_EULERIAN:
            run = run_eulerian_hfm(spec, 10)
            z0 = run.trajectory[:, 0]
        else:
            run = run_lagrangian_hfm(spec, 10)
            z0 = run.stacked[:, 0]
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=frame)
        rom = run_pod_rom(basis, z0, spec, spec.n_steps)
        steps = list(pod_steps(basis, z0, spec, spec.n_steps))
        assert len(steps) == spec.n_steps + 1 and steps[0].iterations == 0
        assert np.array_equal(rom.reduced_trajectory, np.column_stack([step.reduced for step in steps]))
        assert rom.newton_iterations == [step.iterations for step in steps[1:]]
        assert np.array_equal(rom.snapshots.data, np.column_stack([step.full for step in steps[1:]]))
        assert rom.initial_projection_error == np.linalg.norm(z0 - steps[0].full)

    @pytest.mark.parametrize("preset", ["test2", "test4"])  # Dirichlet, periodic
    def test_moving_frame_grid_values_are_the_reconstructions_on_the_grid(self, preset):
        # Each state is taken to the fixed grid once, when it is made; the
        # next step diffuses those values and the scoring reads them, so they
        # must be the reconstruction's stacked_to_grid bit for bit.
        resolved = resolve(ExperimentConfig(preset=preset, scale=10))
        spec = resolved.spec
        run = run_lagrangian_hfm(spec, resolved.n_snapshots)
        basis = fit_pod(run.snapshots, epsilon=resolved.epsilon, frame=FRAME_LAGRANGIAN)
        steps = list(pod_steps(basis, run.stacked[:, 0], spec, spec.n_steps))
        assert len(steps) == spec.n_steps + 1
        full = np.column_stack([step.full for step in steps])
        on_grid = np.column_stack([step.grid_values for step in steps])
        assert np.array_equal(on_grid, stacked_to_grid(full, spec.grid(), spec.period))

    def test_fixed_frame_grid_values_are_the_reconstructions(self):
        spec = make_spec(speed="burgers", diffusion=0.05, bc=PERIODIC, n=60, m_steps=20)
        run = run_eulerian_hfm(spec, 10)
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=FRAME_EULERIAN)
        assert all(step.grid_values is step.full for step in pod_steps(basis, run.trajectory[:, 0], spec, 20))

    def test_pure_advection_rollout_is_machine_precise(self):
        spec = make_spec(speed="const", c=1.0, n=200, m_steps=100)
        run = run_lagrangian_hfm(spec, 25)
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=FRAME_LAGRANGIAN)
        z0 = np.concatenate([run.positions[:, 0], run.values[:, 0]])
        rom = run_pod_rom(basis, z0, spec, spec.n_steps)
        reference = np.vstack([run.positions[:, 1:], run.values[:, 1:]])
        errs = np.linalg.norm(rom.snapshots.data - reference, axis=0)
        assert errs.max() <= 1e-8

    def test_extrapolation_error_grows_for_diffusive_problem(self):
        spec = make_spec(speed="const", c=1.0, diffusion=0.01, n=200, m_steps=100)
        run = run_lagrangian_hfm(spec, 25)
        basis = fit_pod(run.snapshots, epsilon=1e-8, frame=FRAME_LAGRANGIAN)
        z0 = np.concatenate([run.positions[:, 0], run.values[:, 0]])
        rom = run_pod_rom(basis, z0, spec, spec.n_steps)
        reference = np.vstack([run.positions[:, 1:], run.values[:, 1:]])
        errs = np.linalg.norm(rom.snapshots.data - reference, axis=0)
        assert errs[:25].max() < 1e-3
        assert errs[-1] > 10 * errs[24]


class TestAffineResidual:
    """A scalar f' = c makes the moving-frame residual A z - b with a per-run A;
    an array-valued f' keeps the full-dimension residual."""

    @staticmethod
    def rollout(spec):
        run = run_lagrangian_hfm(spec, 20)
        basis = fit_pod(run.snapshots, fixed_rank=8, frame=FRAME_LAGRANGIAN)
        z0 = np.concatenate([run.positions[:, 0], run.values[:, 0]])
        return run_pod_rom(basis, z0, spec, spec.n_steps)

    def assert_matches_full_dimension(self, scalar):
        array = replace(scalar, flux_df=lambda u: np.ones_like(u))
        reduced, full = self.rollout(scalar), self.rollout(array)
        assert reduced.newton_iterations == full.newton_iterations
        ref = full.snapshots.data
        assert np.max(np.abs(reduced.snapshots.data - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_reduced_and_full_dimension_residuals_agree(self):
        self.assert_matches_full_dimension(make_spec(speed="burgers", diffusion=0.1, n=100, m_steps=60, bc=PERIODIC))

    def test_pure_transport_reduced_target_agrees(self):
        # D absent: the value target is V z itself, so the scalar-f' target is
        # r x r algebra throughout.
        self.assert_matches_full_dimension(make_spec(speed="burgers", n=100, m_steps=60, t_final=0.5, bc=PERIODIC))

    def test_scalar_slope_with_non_affine_flux_rejected(self):
        spec = make_spec(speed="burgers", n=40, m_steps=10, bc=PERIODIC)
        quadratic = replace(spec, flux_f=lambda u: u * u, flux_df=lambda u: 1.0)
        basis = identity_basis(80, FRAME_LAGRANGIAN)
        z0 = np.concatenate([spec.grid().nodes, spec.initial_u0(spec.grid().nodes)])
        with pytest.raises(ValueError, match="flux_df"):
            run_pod_rom(basis, z0, quadratic, 1)

    def test_singular_per_run_jacobian_raises(self):
        # p = v = e1/sqrt(2), f' = 1 and dt = 4: Phi^T Phi = 1 = (dt/2) P^T V,
        # so A = Phi^T Phi - (dt/2) c P^T V is exactly zero.
        spec = make_spec(speed="burgers", n=4, m_steps=1, t_final=4.0, bc=PERIODIC)
        phi = np.zeros((8, 1))
        phi[0, 0] = phi[4, 0] = 1.0 / np.sqrt(2.0)
        basis = PodBasis(phi, 1, FRAME_LAGRANGIAN)
        z0 = np.concatenate([spec.grid().nodes, np.ones(4)])
        with pytest.raises(NewtonDivergence, match="singular reduced Jacobian"):
            run_pod_rom(basis, z0, spec, 1)
