"""Eulerian solver: flux algebra, step properties, conservation, stability."""

from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from lagrom import hfm_eulerian
from lagrom.core import PERIODIC, ProblemSpec, check_courant
from lagrom.errors import CflViolation, NumericalFailure
from lagrom.hfm_eulerian import (
    diffusion_system_for,
    eulerian_step,
    eulerian_steps,
    face_fluxes,
    run_eulerian_hfm,
)
from lagrom.presets import gaussian_pulse

from conftest import make_spec


def first_states(spec, count):
    """u^0..u^count of the spec's step stream."""
    return [step.values for step in islice(eulerian_steps(spec), count + 1)]


class TestNumericalFlux:
    """``face_fluxes``, the vectorised flux the solver and the E-POD step run,
    on short states (ghost values included)."""

    def test_consistency_at_equal_states(self):
        spec = make_spec(speed="burgers", n=4, bc=PERIODIC)
        for c in (0.0, 0.4, 1.7, -2.0):
            fluxes = face_fluxes(np.full(4, c), spec)[0]
            assert fluxes.shape == (5,)
            assert np.allclose(fluxes, 0.5 * c * c, rtol=0.0, atol=1e-15)

    def test_linear_flux_reduces_to_upwind(self):
        # With F(u) = u the secant speed is 1 and the average/diffusion terms
        # cancel to the left value at every face, the left ghost included.
        spec = make_spec(speed="const", c=1.0, n=5, bc_values=(0.2, -0.1))
        u = np.array([0.3, 0.9, 1.0, -0.5, 0.0])
        expected = np.concatenate([[0.2], u])
        assert np.allclose(face_fluxes(u, spec)[0], expected, rtol=0.0, atol=1e-15)

    def test_burgers_hand_value(self):
        # F = u^2/2 across the face from the Dirichlet ghost 0 to u = 1:
        # secant 0.5, average 0.25, spread 0.25, so the flux is 0; the
        # interior face (1 | 1) carries F(1) = 0.5, and so does the right
        # face to the ghost 0 (average 0.25 plus spread 0.25).
        spec = make_spec(speed="burgers", n=2)
        fluxes = face_fluxes(np.ones(2), spec)[0]
        assert np.allclose(fluxes, [0.0, 0.5, 0.5], rtol=0.0, atol=1e-15)


class TestAdvance:
    def test_constant_state_is_fixed_point(self):
        spec = make_spec(speed="burgers", bc=PERIODIC, n=32, m_steps=100, ic=lambda x: np.full_like(x, 0.7))
        index, out = list(enumerate(first_states(spec, 1)))[-1]
        assert np.allclose(out, 0.7, atol=1e-15)
        assert index == 1

    def test_unit_courant_is_exact_shift(self):
        # dt = dx exactly: the update telescopes to the left neighbor.
        spec = make_spec(
            speed="const", c=1.0, n=50, m_steps=50, t_final=2.0, bc=PERIODIC,
            ic=lambda x: gaussian_pulse(x) + 0.1 * np.sin(3 * x),
        )
        assert np.isclose(spec.dt, spec.dx)
        u, out = first_states(spec, 1)
        assert np.allclose(out, np.roll(u, 1), atol=1e-13)

    def test_cfl_violation_reported(self):
        spec = make_spec(speed="const", c=5.0, n=100, m_steps=10)
        with pytest.raises(CflViolation) as err:
            first_states(spec, 1)
        assert err.value.max_speed == pytest.approx(5.0)

    def test_courant_exactly_one_accepted(self):
        spec = make_spec(speed="const", c=1.0, n=50, m_steps=50, t_final=2.0, bc=PERIODIC)
        grid = spec.grid()
        assert check_courant(spec.speed(gaussian_pulse(grid.nodes)), spec.dt, spec.dx, 1) == pytest.approx(1.0)


class TestDiffusion:
    def setup_method(self):
        self.spec = make_spec(speed="const", c=0.0, diffusion=0.05, n=101, m_steps=200)
        self.grid = self.spec.grid()

    def test_mass_decays_and_no_new_interior_maximum(self):
        states = first_states(self.spec, 20)  # from the Gaussian pulse
        assert np.array_equal(states[0], gaussian_pulse(self.grid.nodes))
        masses = [np.sum(u) * self.spec.dx for u in states]
        peaks = [np.max(u) for u in states]
        assert np.all(np.diff(masses) <= 1e-14)
        assert np.all(np.diff(peaks) <= 1e-14)

    def test_unconditional_stability_in_max_norm(self):
        rng = np.random.default_rng(1)
        u = np.abs(rng.standard_normal(101))
        spec = make_spec(speed="const", c=0.0, diffusion=0.05, n=101, m_steps=200, ic=lambda x: u)
        out = first_states(spec, 1)[1]
        assert np.max(np.abs(out)) <= np.max(np.abs(u)) + 1e-14


class TestExactSolutionConvergence:
    def test_first_order_convergence_on_linear_advection_diffusion(self):
        # Exact solution for a Gaussian under constant speed and diffusion on
        # an effectively unbounded domain: the pulse translates and widens as
        # sigma^2(t) = sigma0^2 + 2 D t. Checked at two resolutions.
        c, d, width, amp, x0 = 1.0, 0.005, 0.05, 0.5, 0.3

        def exact(x, t):
            # initial profile amp*exp(-((x-x0)/width)^2) has variance width^2/2
            var = width**2 / 2.0 + 2.0 * d * t
            scale = amp * np.sqrt((width**2 / 2.0) / var)
            return scale * np.exp(-((x - x0 - c * t) ** 2) / (2.0 * var))

        errors = {}
        t_end = 0.5
        for n in (200, 400):
            steps = n // 2
            spec = make_spec(speed="const", c=c, diffusion=d, n=n, m_steps=steps, t_final=t_end)
            run = run_eulerian_hfm(spec, 1)
            x = run.grid.nodes
            errors[n] = np.max(np.abs(run.trajectory[:, -1] - exact(x, t_end)))
        assert errors[200] < 0.05
        order = np.log2(errors[200] / errors[400])
        assert order >= 0.8  # first-order upwind

    def test_periodic_implicit_diffusion_conserves_mass(self):
        # Column sums of the periodic second-difference operator vanish, so
        # the cyclic solve must preserve the discrete total exactly.
        spec = make_spec(speed="const", c=0.0, diffusion=0.1, n=96, m_steps=50, bc=PERIODIC, ic=lambda x: 1.0 + np.sin(3 * x) + 0.2 * np.cos(7 * x))
        run = run_eulerian_hfm(spec, 1)
        totals = run.trajectory.sum(axis=0)
        assert np.allclose(totals, totals[0], rtol=1e-12)


class TestVariableDiffusion:
    def test_space_dependent_coefficient_steps_cleanly(self):
        spec = make_spec(speed="const", c=0.5, n=120, m_steps=100)
        varying = ProblemSpec(
            domain_lo=spec.domain_lo,
            domain_hi=spec.domain_hi,
            n_cells=spec.n_cells,
            n_steps=spec.n_steps,
            t_final=spec.t_final,
            flux_f=spec.flux_f,
            flux_F=spec.flux_F,
            flux_df=spec.flux_df,
            diffusion_D=lambda x, t, u: 0.01 * (1.0 + 0.5 * np.sin(x)) * (1.0 + 0.1 * np.abs(u)),
            initial_u0=spec.initial_u0,
            bc=spec.bc,
        )
        run = run_eulerian_hfm(varying, 10)
        assert run.max_residual <= 1e-10
        assert np.all(np.isfinite(run.trajectory))


class TestConservationAndResidual:
    def test_periodic_conservation_per_step(self):
        spec = make_spec(speed="burgers", bc=PERIODIC, n=128, m_steps=400)  # u0 = 1 + sin(x)
        states = first_states(spec, 25)
        total = np.sum(states[0])
        for u in states[1:]:
            assert np.isclose(np.sum(u), total, rtol=1e-12)

    def test_residual_below_tolerance_every_step(self):
        spec = make_spec(speed="const", c=1.0, diffusion=0.01, n=150, m_steps=200)
        residuals = [step.residual for step in eulerian_steps(spec)][1:]
        assert len(residuals) == 200
        assert 0.0 < max(residuals) <= 1e-10


class TestRun:
    def test_zero_store_keeps_initial_state(self, advection_spec):
        run = run_eulerian_hfm(advection_spec, 0)
        assert run.snapshots.data.shape == (200, 0)
        assert np.allclose(run.trajectory[:, 0], gaussian_pulse(run.grid.nodes))

    def test_snapshot_times_are_post_initial(self, advection_spec):
        run = run_eulerian_hfm(advection_spec, 7)
        assert np.array_equal(run.snapshots.col_times, np.arange(1, 8))
        assert np.array_equal(run.snapshots.data[:, 0], run.trajectory[:, 1])
        assert run.wall_seconds > 0.0

    def test_store_beyond_horizon_rejected(self, advection_spec):
        with pytest.raises(ValueError):
            run_eulerian_hfm(advection_spec, advection_spec.n_steps + 1)

    def test_advected_pulse_tracks_characteristic(self, advection_spec):
        run = run_eulerian_hfm(advection_spec, advection_spec.n_steps)
        x = run.grid.nodes
        for n in (25, 50, 75):
            t = n * advection_spec.dt
            peak = x[np.argmax(run.trajectory[:, n])]
            assert abs(peak - (0.3 + t)) < 0.03

    def test_burgers_no_new_extrema(self, burgers_spec):
        run = run_eulerian_hfm(burgers_spec, burgers_spec.n_steps)
        assert run.trajectory.min() >= 0.0 - 1e-12
        assert run.trajectory.max() <= 2.0 + 1e-12

    def test_cfl_violation_names_its_time_index(self):
        spec = make_spec(speed="const", c=5.0, n=100, m_steps=10)
        courant = 5.0 * spec.dt / spec.dx
        with pytest.raises(CflViolation) as err:
            run_eulerian_hfm(spec, 5)
        assert err.value.time_index == 1
        assert str(err.value) == f"Courant number {courant:.6f} exceeds 1 (max |f(u)| = 5) (time index 1)"
        grid = spec.grid()
        with pytest.raises(CflViolation, match=r"\(time index 5\)$") as err:
            eulerian_step(gaussian_pulse(grid.nodes), spec, None, grid.nodes, 5)
        assert err.value.time_index == 5

    @pytest.mark.parametrize("bc", [PERIODIC, "dirichlet-zero"])
    def test_wave_speed_is_evaluated_once_per_step(self, bc):
        # The Courant check reads f(u) from the tangent speeds the face
        # fluxes form, so f runs once per step, like F.
        spec = make_spec(speed="burgers", diffusion=0.05, n=40, m_steps=20, bc=bc)
        calls = {"flux_f": 0, "flux_F": 0}

        def counted(name):
            function = getattr(spec, name)

            def wrapper(u):
                calls[name] += 1
                return function(u)

            return wrapper

        counting = replace(spec, flux_f=counted("flux_f"), flux_F=counted("flux_F"))
        states = [step.values for step in eulerian_steps(counting)]
        assert calls == {"flux_f": spec.n_steps, "flux_F": spec.n_steps}
        assert all(np.array_equal(a, b.values) for a, b in zip(states, eulerian_steps(spec)))

    def test_courant_check_runs_before_the_flux_update(self, monkeypatch):
        spec = make_spec(speed="const", c=5.0, n=100, m_steps=10)

        def no_update(*args):
            raise AssertionError("the flux update ran before the Courant check")

        monkeypatch.setattr(hfm_eulerian, "advected_state", no_update)
        with pytest.raises(CflViolation, match=r"\(time index 1\)$"):
            next(islice(eulerian_steps(spec), 1, None))

    def test_non_finite_initial_profile_rejected_before_the_first_state(self):
        spec = make_spec(n=20, m_steps=5, ic=lambda x: np.where(x > 1.0, np.nan, 0.0))
        steps = eulerian_steps(spec)
        with pytest.raises(NumericalFailure, match="NaN or Inf") as err:
            next(steps)
        assert err.value.time_index == 0


class TestStore:
    """The run keeps one time-major store; its arrays are read-only views."""

    SPEC = dict(speed="burgers", diffusion=0.05, n=64, m_steps=40, bc=PERIODIC)

    def test_snapshots_and_trajectory_share_the_store(self):
        run = run_eulerian_hfm(make_spec(**self.SPEC), 7)
        assert np.shares_memory(run.snapshots.data, run.trajectory)
        assert run.trajectory.T.flags.c_contiguous
        for arr in (run.trajectory, run.snapshots.data):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_run_equals_raw_steps_bit_for_bit(self):
        spec = make_spec(**self.SPEC)
        run = run_eulerian_hfm(spec, 7)
        nodes = spec.grid().nodes
        u = spec.initial_u0(nodes)
        system = diffusion_system_for(spec, nodes, 0.0, None)
        for k in range(1, spec.n_steps + 1):
            u = eulerian_step(u, spec, system, nodes, k)[0]
            assert np.array_equal(u, run.trajectory[:, k])

    @pytest.mark.parametrize(
        "spec_args",
        [SPEC, dict(SPEC, diffusion=None), dict(SPEC, diffusion=lambda x, t, u: 0.02 + 0.01 * u)],
        ids=["constant-D", "no-D", "varying-D"],
    )
    def test_run_collects_its_step_stream(self, spec_args):
        spec = make_spec(**spec_args)
        run = run_eulerian_hfm(spec, 7)
        steps = list(eulerian_steps(spec))
        assert len(steps) == spec.n_steps + 1
        for k, step in enumerate(steps):
            assert np.array_equal(step.values, run.trajectory[:, k])
            assert not step.values.flags.writeable
        assert steps[0].residual == steps[0].courant == 0.0
        assert run.max_residual == max(step.residual for step in steps)
        assert run.max_courant == max(step.courant for step in steps) > 0.0
