"""Grids, problem validation, interpolation, and snapshot assembly."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrom.core import (
    DIRICHLET_ZERO,
    PERIODIC,
    Grid1D,
    SnapshotMatrix,
    StateVector,
    linear_interpolate,
    split_stacked,
    stacked_to_grid,
    uniform_grid,
)
from lagrom import core
from lagrom.dmd_rom import fit_dmd, fit_lagrangian_dmd
from lagrom.error_analysis import truncation_error
from lagrom.pod_rom import fit_pod
from lagrom.svd_core import reduced_svd
from lagrom.errors import DimensionMismatch, GridEntanglement, NonMonotonicGrid, NumericalFailure
from lagrom.presets import PRESET_NAMES, ExperimentConfig, resolve

from conftest import drifting_stacked, make_spec


class TestGrid:
    def test_rejects_non_monotone(self):
        with pytest.raises(NonMonotonicGrid):
            Grid1D(np.array([0.0, 1.0, 0.5]))

    def test_uniform_flag_checked(self):
        with pytest.raises(NonMonotonicGrid):
            Grid1D(np.array([0.0, 1.0, 2.5]), uniform=True)
        Grid1D(np.array([0.0, 1.0, 2.0]), uniform=True)

    def test_dirichlet_grid_includes_both_endpoints(self):
        g = uniform_grid(0.0, 2.0, 5, periodic=False)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert np.isclose(g.spacing, 0.5)

    def test_periodic_grid_omits_duplicate_endpoint(self):
        g = uniform_grid(0.0, 2.0, 4, periodic=True)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5])

    def test_nodes_are_readonly(self):
        g = uniform_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestProblemSpec:
    def test_derived_steps(self):
        spec = make_spec(n=201, m_steps=50, t_final=2.0)
        assert np.isclose(spec.dx, 0.01)
        assert np.isclose(spec.dt, 0.04)

    def test_periodic_dx_uses_full_cell_count(self):
        spec = make_spec(speed="burgers", n=200, bc=PERIODIC)
        assert np.isclose(spec.dx, 2.0 * np.pi / 200)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=1), dict(m_steps=0), dict(t_final=0.0), dict(t_final=-1.0)],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_spec(**kwargs)

    def test_flux_consistency_accepts_matched_pair(self):
        spec = make_spec(speed="burgers", bc=PERIODIC)
        assert spec.validate_flux_consistency() < 1e-6

    def test_flux_consistency_rejects_mismatch(self):
        spec = make_spec()
        bad = make_spec()
        object.__setattr__(bad, "flux_F", lambda u: np.asarray(u) ** 3)
        with pytest.raises(ValueError):
            bad.validate_flux_consistency()
        spec.validate_flux_consistency()

    @pytest.mark.parametrize("preset", [p for p in PRESET_NAMES if p != "custom"])
    def test_every_preset_derivative_is_consistent(self, preset):
        spec = resolve(ExperimentConfig(preset=preset, scale=10)).spec
        assert spec.validate_flux_consistency() < 1e-6

    @pytest.mark.parametrize(
        "speed, wrong_df",
        [("burgers", lambda u: 0.0), ("burgers", lambda u: 2.0 * np.asarray(u)), ("const", lambda u: 1.0)],
    )
    def test_flux_consistency_rejects_wrong_derivative(self, speed, wrong_df):
        bad = replace(make_spec(speed=speed, bc=PERIODIC if speed == "burgers" else "dirichlet-zero"), flux_df=wrong_df)
        with pytest.raises(ValueError, match="flux_df"):
            bad.validate_flux_consistency()

    def test_number_diffusion_broadcasts(self):
        spec = make_spec(diffusion=0.25)
        assert spec.diffusion_is_constant
        x = spec.grid().nodes
        assert np.array_equal(spec.diffusion_at(x, 0.0, None), np.full(x.shape, 0.25))
        varying = replace(spec, diffusion_D=lambda x, t, u: 0.25)
        assert not varying.diffusion_is_constant
        assert np.array_equal(varying.diffusion_at(x, 0.0, None), np.full(x.shape, 0.25))


class TestStateVector:
    def test_length_must_match_grid(self):
        g = uniform_grid(0.0, 1.0, 4)
        with pytest.raises(DimensionMismatch):
            StateVector(np.zeros(3), g)

    def test_nan_rejected(self):
        g = uniform_grid(0.0, 1.0, 4)
        with pytest.raises(NumericalFailure):
            StateVector(np.array([0.0, np.nan, 0.0, 0.0]), g)


class TestSnapshotMatrix:
    def test_col_times_strictly_increasing(self):
        with pytest.raises(DimensionMismatch):
            SnapshotMatrix(np.zeros((3, 2)), np.array([2, 1]))

    def test_all_nan_column_rejected(self):
        data = np.zeros((3, 2))
        data[:, 1] = np.nan
        with pytest.raises(NumericalFailure):
            SnapshotMatrix(data, np.array([1, 2]))

    def test_unit_stride_detection(self):
        m = SnapshotMatrix(np.zeros((2, 3)), np.array([1, 2, 3]))
        assert m.has_unit_stride()
        m2 = SnapshotMatrix(np.zeros((2, 3)), np.array([1, 3, 5]))
        assert not m2.has_unit_stride()


class TestReadonlyAdoption:
    """Arrays nothing can change are adopted; everything else is copied."""

    @staticmethod
    def frozen(arr):
        arr.setflags(write=False)
        return arr

    def test_readonly_float_array_is_adopted(self):
        source = self.frozen(np.arange(6.0)).reshape(2, 3)
        assert np.shares_memory(core._readonly(source), source)
        view = source.T  # a read-only view of a read-only owner
        matrix = SnapshotMatrix(view, np.array([1, 2]))
        assert np.shares_memory(matrix.data, source)
        assert matrix.data.flags.f_contiguous

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.arange(6.0).reshape(2, 3),
            lambda: np.broadcast_to(np.arange(3.0), (2, 3)),
            lambda: TestReadonlyAdoption.frozen(np.arange(6).reshape(2, 3)),
        ],
        ids=["writeable", "readonly-view-of-writeable", "int"],
    )
    def test_other_inputs_are_copied(self, make):
        source = make()
        out = core._readonly(source)
        assert not np.shares_memory(out, source)
        assert out.dtype == np.float64 and not out.flags.writeable
        assert np.array_equal(out, source)

    def test_mutating_the_source_leaves_the_matrix_unchanged(self):
        owner = np.ones((2, 3))
        base = np.ones(3)
        copied = SnapshotMatrix(owner, np.array([1, 2, 3]))
        broadcast = SnapshotMatrix(np.broadcast_to(base, (2, 3)), np.array([1, 2, 3]))
        owner[0, 0] = 5.0
        base[1] = 7.0
        assert np.array_equal(copied.data, np.ones((2, 3)))
        assert np.array_equal(broadcast.data, np.ones((2, 3)))


def complex_snapshots():
    """Four rows of three complex modes e^{i(0.3, 0.5, 0.7)k}, k = 0..7."""
    rng = np.random.default_rng(23)
    mixing = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    return mixing @ np.exp(1j * np.outer([0.3, 0.5, 0.7], np.arange(8)))


class TestRealData:
    """``core.real_array`` is the door every fit and score takes its data
    through: real float64 data passes without a copy, complex data raises."""

    @pytest.mark.parametrize(
        "door",
        [
            lambda z: fit_dmd(z, epsilon=1e-10),
            lambda z: fit_lagrangian_dmd(z, epsilon=1e-10),
            lambda z: fit_pod(z, epsilon=1e-10),
            lambda z: SnapshotMatrix(z, np.arange(1, z.shape[1] + 1)),
            reduced_svd,
            lambda z: truncation_error(z, np.zeros(z.shape)),
            lambda z: core.write_number_table(io.BytesIO(), z),
        ],
        ids=[
            "fit_dmd",
            "fit_lagrangian_dmd",
            "fit_pod",
            "SnapshotMatrix",
            "reduced_svd",
            "truncation_error",
            "write_number_table",
        ],
    )
    def test_complex_input_rejected_at_every_door(self, door):
        with pytest.raises(TypeError, match="complex"):
            door(complex_snapshots())

    def test_complex_input_with_zero_imaginary_part_rejected(self):
        # The dtype decides, not the values: no cast happens silently.
        with pytest.raises(TypeError, match="complex"):
            core.real_array(np.ones((2, 3), dtype=complex))

    def test_float64_data_is_not_copied(self):
        data = np.arange(6.0).reshape(2, 3)
        assert core.real_array(data) is data
        matrix = SnapshotMatrix(data, np.array([1, 2, 3]))
        assert core.real_array(matrix) is matrix.data
        converted = core.real_array([[1, 2], [3, 4]])
        assert converted.dtype == np.float64 and np.array_equal(converted, [[1.0, 2.0], [3.0, 4.0]])


class TestInterpolation:
    def test_identity_grid_returns_values(self):
        g = uniform_grid(0.0, 1.0, 9)
        vals = np.sin(g.nodes)
        out = linear_interpolate(g, vals, g)
        assert np.array_equal(out, vals)

    def test_hand_evaluated_midpoint(self):
        out = linear_interpolate(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), np.array([0.5]))
        assert np.isclose(out[0], 0.5, atol=1e-15)

    def test_scalar_destination(self):
        out = linear_interpolate(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), 1.5)
        assert np.isclose(out, 0.5)

    def test_affine_data_reproduced_exactly(self):
        src = np.array([0.0, 0.3, 1.1, 2.0])
        vals = 2.0 * src + 1.0
        dst = np.linspace(0.05, 1.95, 17)
        out = linear_interpolate(src, vals, dst)
        assert np.allclose(out, 2.0 * dst + 1.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False), min_size=2, max_size=25, unique=True
        ),
        slope=st.floats(-5.0, 5.0),
        intercept=st.floats(-5.0, 5.0),
    )
    def test_affine_exactness_property(self, nodes, slope, intercept):
        src = np.sort(np.asarray(nodes, dtype=float))
        if np.any(np.diff(src) <= 1e-9):
            return
        vals = slope * src + intercept
        dst = np.linspace(src[0], src[-1], 13)
        out = linear_interpolate(src, vals, dst)
        scale = 1.0 + np.max(np.abs(vals))
        assert np.allclose(out, slope * dst + intercept, atol=1e-9 * scale)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=3, max_size=20),
    )
    def test_monotone_data_stays_monotone(self, data):
        vals = np.sort(np.asarray(data, dtype=float))
        src = np.arange(vals.size, dtype=float)
        dst = np.linspace(0.0, vals.size - 1.0, 31)
        out = linear_interpolate(src, vals, dst)
        assert np.all(np.diff(out) >= -1e-12)

    def test_clamp_outside_hull(self):
        src = np.array([0.0, 1.0])
        vals = np.array([3.0, 5.0])
        out = linear_interpolate(src, vals, np.array([-1.0, 2.0]), bc="clamp")
        assert np.allclose(out, [3.0, 5.0])

    def test_periodic_wraps_coordinates(self):
        # Periodic samples of sin on [0, 2*pi); querying one period later must
        # reproduce values, and the seam segment must bridge last -> first.
        src = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        vals = np.sin(src)
        period = 2.0 * np.pi
        out = linear_interpolate(src, vals, src + period, bc="periodic", period=period)
        assert np.allclose(out, vals, atol=1e-12)
        mid_seam = linear_interpolate(src, vals, np.array([2.0 * np.pi - 0.5 * src[1]]), bc="periodic", period=period)
        expected = 0.5 * (vals[-1] + vals[0])
        assert np.isclose(mid_seam[0], expected, atol=1e-12)

    def test_periodic_requires_period(self):
        with pytest.raises(ValueError):
            linear_interpolate(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.5]), bc="periodic")

    def test_non_monotone_source_raises(self):
        with pytest.raises(NonMonotonicGrid):
            linear_interpolate(np.array([0.0, 2.0, 1.0]), np.zeros(3), np.array([0.5]))


class TestStackedToGrid:
    @pytest.mark.parametrize("periodic", [False, True])
    def test_matches_validating_interpolation_without_repeating_its_check(self, monkeypatch, periodic):
        rng = np.random.default_rng(6)
        period = 2.0 * np.pi
        grid = uniform_grid(0.0, period, 64, periodic=periodic)
        # a periodic column spans less than one period; a clamped one overhangs the grid
        positions = np.sort(rng.uniform(-0.2, period - 0.2, 64) if periodic else rng.uniform(-0.3, period + 0.3, 64))
        values = rng.standard_normal(64)
        rule = {"bc": "periodic", "period": period} if periodic else {"bc": "clamp"}
        want = linear_interpolate(positions, values, grid, **rule)

        def no_second_check(*args, **kwargs):
            raise AssertionError("positions were validated twice")

        monkeypatch.setattr(core, "linear_interpolate", no_second_check)
        got_positions, got_values, got = stacked_to_grid(np.concatenate([positions, values]), grid, **rule)
        assert np.array_equal(got, want)
        assert np.array_equal(got_positions, positions) and np.array_equal(got_values, values)

    def test_periodic_requires_period(self):
        grid = uniform_grid(0.0, 1.0, 2, periodic=True)
        with pytest.raises(ValueError):
            stacked_to_grid(np.array([0.0, 0.5, 1.0, 1.0]), grid, bc="periodic")


class TestStackedBlock:
    """A block of stacked columns equals its columns taken one at a time."""

    COUNT = 70

    @pytest.mark.parametrize("speed, bc", [("burgers", PERIODIC), ("const", DIRICHLET_ZERO)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_equals_columns(self, speed, bc, order):
        spec = make_spec(speed=speed, n=50, m_steps=self.COUNT, bc=bc)
        columns = np.asarray(drifting_stacked(spec, self.COUNT), order=order)
        rule = {"bc": bc, "period": spec.domain_length}
        expected = np.column_stack([stacked_to_grid(col, spec.grid(), **rule)[2] for col in columns.T])
        positions, values, got = stacked_to_grid(columns, spec.grid(), **rule)
        assert np.array_equal(got, expected)
        assert got.flags.f_contiguous
        assert np.array_equal(np.vstack([positions, values]), columns)

    def test_first_tangled_column_reports_its_time_index(self):
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        columns = drifting_stacked(spec, self.COUNT)
        for col in (40, 65):
            columns[[5, 6], col] = columns[[6, 5], col]
        rule = {"bc": PERIODIC, "period": spec.domain_length}
        with pytest.raises(GridEntanglement, match="time index 51$") as exc:
            stacked_to_grid(columns, spec.grid(), first_index=11, **rule)
        assert exc.value.time_index == 51
        with pytest.raises(GridEntanglement) as exc:
            stacked_to_grid(columns[:, 40], spec.grid(), **rule)
        assert exc.value.time_index is None

    def test_column_crossing_the_seam_is_tangled(self):
        # A periodic column whose positions increase but span a whole period
        # overlaps itself across the seam; a clamped one only overhangs.
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        columns = drifting_stacked(spec, self.COUNT)
        n = spec.n_cells
        columns[:n, 30] = np.linspace(0.0, spec.domain_length, n)
        rule = {"bc": PERIODIC, "period": spec.domain_length}
        with pytest.raises(GridEntanglement, match="time index 41$") as exc:
            stacked_to_grid(columns, spec.grid(), first_index=11, **rule)
        assert exc.value.time_index == 41
        stacked_to_grid(columns, spec.grid(), bc="clamp")


class TestAssembly:
    """Stacked [grid; state] columns split back at the midpoint row."""

    def test_round_trip_split_is_bit_exact(self):
        rng = np.random.default_rng(11)
        states = [rng.standard_normal(6) for _ in range(4)]
        grids = [np.sort(rng.standard_normal(6)) for _ in range(4)]
        top, bottom = split_stacked(np.vstack([np.column_stack(grids), np.column_stack(states)]))
        for k in range(4):
            assert np.array_equal(top[:, k], grids[k])
            assert np.array_equal(bottom[:, k], states[k])

    def test_split_requires_even_rows(self):
        with pytest.raises(DimensionMismatch):
            split_stacked(np.zeros((5, 2)))
