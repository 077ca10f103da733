"""Semi-Lagrangian solver: exact transport, trapezoid update, entanglement,
and the diffusion step on the moving nodes."""

import ast
import importlib.util
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from lagrom import hfm_lagrangian
from lagrom.core import DIRICHLET_ZERO, PERIODIC, diffusion_system_for
from lagrom.dmd_rom import fit_lagrangian_dmd
from lagrom.errors import DimensionMismatch, GridEntanglement, NumericalFailure
from lagrom.hfm_eulerian import run_eulerian_hfm
from lagrom.hfm_lagrangian import lagrangian_step, lagrangian_steps, run_lagrangian_hfm
from lagrom.presets import ExperimentConfig, gaussian_pulse, one_plus_sin, resolve

from conftest import make_spec

EXACT = Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
SRC = Path(hfm_lagrangian.__file__).parent
TEST4_NU = 0.1  # the viscosity of the test4 preset, stated apart from it


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



class TestDiffusionStep:
    def test_constant_advection_with_diffusion_matches_split_oracle(self):
        # For f = 1 the moving frame rigidly translates, so the carried values
        # must match a diffusion-only fixed-grid solve of the same data. The
        # tolerance was sized for an interpolating step (steps * dx^2/8 *
        # max|u''| plus the splitting error); the translation test below
        # pins the match to rounding.
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

    @pytest.mark.parametrize("bc", [DIRICHLET_ZERO, PERIODIC])
    def test_explicit_zero_diffusion_keeps_the_carried_values(self, bc):
        # An explicit zero coefficient still assembles and solves each step's
        # system on the moving nodes; with D = 0 that system is the identity
        # (periodic: up to its rank-one correction, exact here), so the values
        # ride along unchanged, as with D absent.
        spec = make_spec(speed="const", c=1.0, diffusion=0.0, n=100, m_steps=100, bc=bc)
        states = first_states(spec, 10)
        for _, values in states[1:]:
            assert np.array_equal(values, states[0][1])

    def test_none_diffusion_skips_round_trip_entirely(self):
        spec = make_spec(speed="const", c=1.0, n=100, m_steps=100)
        states = first_states(spec, 10)
        assert np.array_equal(states[-1][1], states[0][1])


    @pytest.mark.parametrize(
        "bc, bc_values",
        [(DIRICHLET_ZERO, (0.0, 0.0)), (DIRICHLET_ZERO, (0.3, -0.2)), (PERIODIC, (0.0, 0.0))],
        ids=["dirichlet-zero", "dirichlet-data", "periodic"],
    )
    def test_translation_leaves_the_diffusion_unchanged(self, bc, bc_values):
        # A constant speed translates the grid rigidly, so its spacings, its
        # seam neighbours shifted by the period and its Dirichlet ghosts one
        # end-spacing beyond each end node, carrying bc_values, all move with
        # it: the carried values must equal those of the grid at rest. The
        # grid at rest is the fixed grid, and both build their step through
        # one builder, so it diffuses bit for bit as the fixed-grid solver.
        def values(solver, c):
            spec = make_spec(speed="const", c=c, diffusion=0.01, n=200, m_steps=100, bc=bc, bc_values=bc_values)
            return solver(spec, spec.n_steps)

        moving = values(run_lagrangian_hfm, 0.37).values
        at_rest = values(run_lagrangian_hfm, 0.0).values
        fixed = values(run_eulerian_hfm, 0.0).trajectory
        assert np.max(np.abs(moving - at_rest)) <= 1e-13
        assert np.array_equal(at_rest, fixed)


def _exact():
    spec = importlib.util.spec_from_file_location("perfbench_exact", EXACT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_test4_rank_matches_the_exact_particle_paths():
    # Viscous Burgers' exact particle paths (RK4 through the Cole-Hopf
    # velocity) carry a low-rank stacked trajectory; a moving grid that
    # diffuses on its own nodes keeps that rank, where an interpolating
    # round trip through the fixed grid each step raised it (24 against 5).
    resolved = resolve(ExperimentConfig(preset="test4", scale=10))
    spec, m = resolved.spec, resolved.n_snapshots
    velocity = _exact().viscous_burgers
    x, dt = spec.grid().nodes, spec.dt
    columns = []
    for k in range(1, m + 1):
        t = (k - 1) * dt
        k1 = velocity(x, t, TEST4_NU)
        k2 = velocity(x + 0.5 * dt * k1, t + 0.5 * dt, TEST4_NU)
        k3 = velocity(x + 0.5 * dt * k2, t + 0.5 * dt, TEST4_NU)
        k4 = velocity(x + dt * k3, t + dt, TEST4_NU)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        columns.append(np.concatenate([x, velocity(x, k * dt, TEST4_NU)]))
    exact = fit_lagrangian_dmd(np.column_stack(columns), epsilon=1e-8).rank
    solved = fit_lagrangian_dmd(run_lagrangian_hfm(spec, m).snapshots, epsilon=1e-8).rank
    assert solved == exact


def _calls(path, names):
    """(module:function, callee, line) of each call to a name in ``names``,
    as a bare name or an attribute, in the file at ``path``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.append((inner, name, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_hfm_lagrangian_imports_nothing_from_hfm_eulerian():
    tree = ast.parse((SRC / "hfm_lagrangian.py").read_text())
    imported = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[-1] == "hfm_eulerian"
    ]
    imported += [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[-1] == "hfm_eulerian"
    ]
    assert not imported


def test_moving_grid_bands_are_factored_only_in_hfm_lagrangian():
    # Every implicit diffusion system, on fixed or moving nodes, is
    # assembled and factored in one place: ``core.diffusion_system_for``.
    allowed = {"core.diffusion_system_for"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for where, name, line in _calls(path, {"factor_tridiagonal", "factor_cyclic", "diffusion_bands"}):
            if where not in allowed:
                offenders.append(f"{path.name}:{line} {name} in {where}")
    assert not offenders


def test_carried_to_grid_is_called_only_from_core():
    # No stepper reads the fixed grid; only core's interpolation, the
    # scoring's ``stacked_to_grid`` among it, takes moving-grid states there.
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("core.py", "kernels.py")
        for _, _, line in _calls(path, {"interp_unchecked", "interp_clamped", "interp_periodic"})
    ]
    assert not offenders


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
        system = None
        x = spec.grid().nodes
        u = spec.initial_u0(x)
        f_u = spec.speed(u)
        for k in range(1, spec.n_steps + 1):
            if spec.diffusion_D is not None:
                system = diffusion_system_for(spec, x, k * spec.dt, u, into=system)
            x, u, f_u = lagrangian_step(spec, system, x, u, f_u, k)
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
