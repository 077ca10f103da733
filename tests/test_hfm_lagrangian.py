"""Semi-Lagrangian solver: exact transport, trapezoid update, entanglement."""

from itertools import islice

import numpy as np
import pytest

from lagrom.core import PERIODIC
from lagrom.errors import DimensionMismatch, GridEntanglement, NumericalFailure
from lagrom.hfm_eulerian import run_eulerian_hfm
from lagrom.hfm_lagrangian import (
    lagrangian_step,
    lagrangian_steps,
    reference_grid,
    run_lagrangian_hfm,
)
from lagrom.presets import gaussian_pulse, one_plus_sin

from conftest import make_spec


def first_states(spec, count):
    """(x^n, u^n) for n = 0..count of the spec's step stream."""
    n = spec.n_cells
    return [(row[:n], row[n:]) for row in islice(lagrangian_steps(spec), count + 1)]


class TestSingleStep:
    def test_constant_speed_shifts_positions_and_freezes_values(self):
        spec = make_spec(speed="const", c=0.8, n=64, m_steps=50)
        (x0, u0), (x1, u1) = first_states(spec, 1)
        assert np.array_equal(u1, u0)  # transported bit-exactly
        assert np.allclose(x1, x0 + 0.8 * spec.dt, atol=1e-15)

    def test_burgers_first_step_increment(self):
        # Without diffusion the carried values are frozen, so the trapezoidal
        # update degenerates to dt * f(u0).
        spec = make_spec(speed="burgers", bc=PERIODIC, n=128, m_steps=100)
        (x0, _), (x1, _) = first_states(spec, 1)
        expected = x0 + spec.dt * one_plus_sin(x0)
        assert np.allclose(x1, expected, atol=1e-15)

    def test_trapezoid_consistency(self):
        spec = make_spec(speed="burgers", diffusion=0.1, bc=PERIODIC, n=100, m_steps=100)
        states = first_states(spec, 5)
        for (x_old, f_old), (x_new, f_new) in zip(states, states[1:]):  # f(u) = u for Burgers
            recon = x_old + 0.5 * spec.dt * (f_old + f_new)
            assert np.max(np.abs(x_new - recon)) <= 1e-12

    def test_entanglement_detected_with_time_index(self):
        # A steep decreasing velocity profile crosses characteristics within
        # one step of this size.
        spec = make_spec(speed="burgers", bc=PERIODIC, n=16, m_steps=2, t_final=1.0, ic=lambda x: -3.0 * np.sin(x))
        with pytest.raises(GridEntanglement) as err:
            first_states(spec, 1)
        assert err.value.time_index == 1

    def test_non_finite_initial_profile_fails_at_the_first_step(self):
        # u^0 is checked before it is yielded, as the other two streams do.
        spec = make_spec(speed="const", c=1.0, n=20, m_steps=5, ic=lambda x: np.where(x > 1.0, np.inf, 0.0))
        with pytest.raises(NumericalFailure, match="time index 0$") as err:
            next(lagrangian_steps(spec))
        assert err.value.time_index == 0

    def test_periodic_grid_crossing_its_seam_detected(self):
        # u0 = x/L carries the last node at speed about 1 and the first at 0:
        # the last node passes the first node's periodic image x[0] + L while
        # every node still moves right of its left neighbour.
        spec = make_spec(speed="burgers", bc=PERIODIC, n=200, m_steps=100, ic=lambda x: x / (2.0 * np.pi))
        with pytest.raises(GridEntanglement, match="time index 4$") as err:
            for _ in lagrangian_steps(spec):
                pass
        assert err.value.time_index == 4

    @pytest.mark.parametrize("ic", [lambda x: np.zeros(x.size + 2), lambda x: 0.5], ids=["long", "scalar"])
    def test_initial_profile_of_the_wrong_shape_rejected(self, ic):
        with pytest.raises(DimensionMismatch):
            next(lagrangian_steps(make_spec(n=10, m_steps=3, ic=ic)))



class TestDiffusionSubsteps:
    def test_constant_advection_with_diffusion_matches_split_oracle(self):
        # For f = 1 the moving frame rigidly translates, so the carried values
        # must match a diffusion-only fixed-grid solve of the same data. The
        # tolerance covers the accumulated interpolation error, bounded by
        # steps * dx^2/8 * max|u''| plus the splitting error.
        n, steps = 400, 20
        lagr_spec = make_spec(speed="const", c=1.0, diffusion=0.01, n=n, m_steps=100)
        diff_spec = make_spec(speed="const", c=0.0, diffusion=0.01, n=n, m_steps=100)
        values = first_states(lagr_spec, steps)[-1][1]
        oracle = run_eulerian_hfm(diff_spec, steps).trajectory[:, steps]
        dx = lagr_spec.dx
        u0 = gaussian_pulse(lagr_spec.grid().nodes)
        curvature = np.max(np.abs(np.diff(u0, 2))) / dx**2
        tol = steps * (dx**2 / 8.0) * curvature + 5e-4
        assert np.max(np.abs(values - oracle)) <= tol

    def test_explicit_zero_diffusion_round_trip_order(self):
        # Passing an explicit zero coefficient forces the interpolation round
        # trips; the per-step smearing must vanish at second order in dx.
        errors = {}
        for n in (100, 200):
            spec = make_spec(speed="const", c=1.0, diffusion=0.0, n=n, m_steps=100)
            states = first_states(spec, 10)
            errors[n] = np.max(np.abs(states[-1][1] - states[0][1]))
        order = np.log2(errors[100] / errors[200])
        assert order >= 1.8

    def test_none_diffusion_skips_round_trip_entirely(self):
        spec = make_spec(speed="const", c=1.0, n=100, m_steps=100)
        states = first_states(spec, 10)
        assert np.array_equal(states[-1][1], states[0][1])


class TestRun:
    def test_single_snapshot_shape(self):
        spec = make_spec(speed="const", c=1.0, n=50, m_steps=10)
        run = run_lagrangian_hfm(spec, 1)
        assert run.snapshots.data.shape == (100, 1)
        col = run.snapshots.data[:, 0]
        assert np.array_equal(col[:50], run.positions[:, 1])
        assert np.array_equal(col[50:], run.values[:, 1])

    def test_pure_advection_values_bit_exact(self, advection_spec):
        run = run_lagrangian_hfm(advection_spec, 25)
        u0 = gaussian_pulse(run.eulerian_grid.nodes)
        for k in range(run.values.shape[1]):
            assert np.array_equal(run.values[:, k], u0)

    def test_burgers_untangled_over_full_horizon(self, burgers_spec):
        # Shock forms exactly at t = 1; discrete node spacing stays positive
        # throughout the integration window.
        run = run_lagrangian_hfm(burgers_spec, burgers_spec.n_steps)
        assert np.all(np.diff(run.positions, axis=0) > 0.0)

    def test_periodic_positions_stay_unwrapped(self, burgers_spec):
        run = run_lagrangian_hfm(burgers_spec, 10)
        # Rightmost characteristics advance past the domain end; snapshots
        # keep the monotone lift rather than wrapping.
        assert run.positions[:, -1].max() > burgers_spec.domain_hi

    def test_viscous_burgers_runs_and_damps(self, viscous_burgers_spec):
        run = run_lagrangian_hfm(viscous_burgers_spec, 25)
        spread0 = run.values[:, 0].max() - run.values[:, 0].min()
        spread1 = run.values[:, -1].max() - run.values[:, -1].min()
        assert spread1 < spread0
        assert run.wall_seconds > 0.0

    def test_arrays_are_read_only_views_of_one_store(self, viscous_burgers_spec):
        run = run_lagrangian_hfm(viscous_burgers_spec, 10)
        assert run.stacked.T.flags.c_contiguous
        assert np.shares_memory(run.snapshots.data, run.positions)
        assert np.shares_memory(run.snapshots.data, run.values)
        assert np.array_equal(run.snapshots.data, run.stacked[:, 1:11])
        for arr in (run.stacked, run.positions, run.values, run.snapshots.data):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    @pytest.mark.parametrize("diffusion", [None, 0.1])
    def test_run_equals_raw_steps_bit_for_bit(self, diffusion):
        spec = make_spec(speed="burgers", diffusion=diffusion, n=100, m_steps=20, t_final=0.4, bc=PERIODIC)
        run = run_lagrangian_hfm(spec, 5)
        ref = reference_grid(spec)
        x, u = ref.nodes, spec.initial_u0(ref.nodes)
        f_u = spec.speed(u)
        for k in range(1, spec.n_steps + 1):
            x, u, f_u = lagrangian_step(spec, ref, x, u, f_u, k)
            assert np.array_equal(x, run.positions[:, k])
            assert np.array_equal(u, run.values[:, k])

    @pytest.mark.parametrize("diffusion", [None, 0.1])
    def test_run_collects_its_step_stream(self, diffusion):
        spec = make_spec(speed="burgers", diffusion=diffusion, n=100, m_steps=20, t_final=0.4, bc=PERIODIC)
        run = run_lagrangian_hfm(spec, 5)
        rows = list(lagrangian_steps(spec))
        assert len(rows) == spec.n_steps + 1
        for k, row in enumerate(rows):
            assert np.array_equal(row, run.stacked[:, k])
            assert not row.flags.writeable
