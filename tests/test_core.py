"""Grids, problem validation, interpolation, and snapshot assembly."""

import ast
import io
from dataclasses import replace
from itertools import islice
from pathlib import Path

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
    check_untangled,
    linear_interpolate,
    split_stacked,
    stacked_to_grid,
    uniform_grid,
)
from lagrom import core
from lagrom.dmd_rom import fit_dmd, fit_lagrangian_dmd
from lagrom.error_analysis import truncation_error
from lagrom.hfm_eulerian import eulerian_steps
from lagrom.hfm_lagrangian import lagrangian_steps
from lagrom.levelset import levelset_grids, levelset_steps
from lagrom.pod_rom import FRAME_LAGRANGIAN, PodBasis, fit_pod, pod_steps, run_pod_rom
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


class TestProblemFunctions:
    """``ProblemSpec`` is the one reader of the problem: the boundary rule,
    the speed, flux and slope, and the initial state."""

    def test_period_is_the_domain_length_only_when_periodic(self):
        assert make_spec(speed="burgers", bc=PERIODIC).period == 2.0 * np.pi
        assert make_spec().period is None

    def test_scalar_speed_broadcasts_and_scalar_slope_stays_0d(self):
        spec = replace(make_spec(), flux_f=lambda u: 1.0)
        u = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(spec.speed(u), np.ones(5))
        assert spec.speed_slope(u).ndim == 0
        assert np.array_equal(spec.flux(u), u)

    def test_initial_state_is_a_read_only_copy(self):
        u0 = np.linspace(0.0, 1.0, 10)
        state = make_spec(n=10, ic=lambda x: u0).initial_state()
        assert np.array_equal(state, u0) and not state.flags.writeable
        assert u0.flags.writeable


def _complex_valued(fn):
    return lambda u: fn(u) * (1.0 + 0.0j)


class TestProblemDoor:
    """A complex-valued problem function raises TypeError at the door of
    every step stream that reads it: the fixed-grid solver reads f, F and
    u0; the moving-grid solver (D absent) and the level set read f and u0."""

    SPEC = dict(speed="burgers", bc=PERIODIC, n=40, m_steps=20)

    @pytest.mark.parametrize(
        "stream, function",
        [
            ("eulerian", "flux_f"),
            ("eulerian", "flux_F"),
            ("eulerian", "initial_u0"),
            ("lagrangian", "flux_f"),
            ("lagrangian", "initial_u0"),
            ("levelset", "flux_f"),
            ("levelset", "initial_u0"),
        ],
    )
    def test_complex_problem_function_rejected(self, stream, function):
        spec = make_spec(**self.SPEC)
        bad = replace(spec, **{function: _complex_valued(getattr(spec, function))})
        steps = {
            "eulerian": lambda: eulerian_steps(bad),
            "lagrangian": lambda: lagrangian_steps(bad),
            "levelset": lambda: levelset_steps(bad, *levelset_grids(spec, 8)),
        }[stream]
        with pytest.raises(TypeError, match="complex"):
            list(islice(steps(), 2))


# Only these modules may read a problem's functions: core reads them for
# every other module, and presets defines them.
_PROBLEM_FUNCTIONS = {"flux_f", "flux_F", "flux_df", "initial_u0"}
_PROBLEM_READERS = {"core.py", "presets.py"}


def _np_interp_calls(tree):
    """(enclosing function, has a ``period`` keyword, line) of each
    ``np.interp``/``numpy.interp`` call, and each import of ``interp`` from
    numpy as (None, False, line)."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "interp"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id in {"np", "numpy"}
            ):
                calls.append((function, any(k.arg == "period" for k in child.keywords), child.lineno))
            if isinstance(child, ast.ImportFrom) and child.module == "numpy":
                if any(alias.name == "interp" for alias in child.names):
                    calls.append((None, False, child.lineno))
            visit(child, function)

    visit(tree, None)
    return calls


def test_np_interp_is_called_only_through_kernels():
    # perfbench's ``kernels.interp`` layer wraps interp_periodic and
    # interp_clamped by name, so it times every interpolation only while
    # every other np.interp call stays out of src: the one exception is
    # linear_interpolate's branch for a source spanning a whole period,
    # which np.interp's own period mode serves.
    offenders = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for function, periodic, line in _np_interp_calls(ast.parse(path.read_text(), filename=str(path))):
            if not (path.name == "core.py" and function == "linear_interpolate" and periodic):
                offenders.append(f"{path.name}:{line}")
    assert not offenders, f"interpolate through kernels.interp_periodic/interp_clamped: {offenders}"


def test_only_core_calls_the_problem_functions():
    offenders = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name in _PROBLEM_READERS:
            continue
        # Any attribute read counts, not just a call: a function handed on
        # uncalled is read outside core all the same.
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in _PROBLEM_FUNCTIONS:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not offenders, f"call ProblemSpec.speed/flux/speed_slope/initial_state instead: {offenders}"


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


# A moving-frame basis for a two-node grid: its states are the four rows of
# complex_snapshots().
_MOVING_BASIS = PodBasis(np.eye(4), 4, FRAME_LAGRANGIAN)


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
            lambda z: linear_interpolate(np.arange(4.0), z[:, 0], np.arange(4.0)),
            lambda z: stacked_to_grid(z, np.arange(2.0)),
            lambda z: list(pod_steps(_MOVING_BASIS, z[:, 0], make_spec(speed="burgers", n=2, bc=PERIODIC), 1)),
            lambda z: run_pod_rom(_MOVING_BASIS, z[:, 0], make_spec(speed="burgers", n=2, bc=PERIODIC), 1),
        ],
        ids=[
            "fit_dmd",
            "fit_lagrangian_dmd",
            "fit_pod",
            "SnapshotMatrix",
            "reduced_svd",
            "truncation_error",
            "write_number_table",
            "linear_interpolate",
            "stacked_to_grid",
            "pod_steps",
            "run_pod_rom",
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
        out = linear_interpolate(src, vals, np.array([-1.0, 2.0]))
        assert np.allclose(out, [3.0, 5.0])

    def test_periodic_wraps_coordinates(self):
        # Periodic samples of sin on [0, 2*pi); querying one period later must
        # reproduce values, and the seam segment must bridge last -> first.
        src = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        vals = np.sin(src)
        period = 2.0 * np.pi
        out = linear_interpolate(src, vals, src + period, period=period)
        assert np.allclose(out, vals, atol=1e-12)
        mid_seam = linear_interpolate(src, vals, np.array([2.0 * np.pi - 0.5 * src[1]]), period=period)
        expected = 0.5 * (vals[-1] + vals[0])
        assert np.isclose(mid_seam[0], expected, atol=1e-12)

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
        rule = {"period": period} if periodic else {}
        want = linear_interpolate(positions, values, grid, **rule)

        def no_second_check(*args, **kwargs):
            raise AssertionError("positions were validated twice")

        monkeypatch.setattr(core, "linear_interpolate", no_second_check)
        got = stacked_to_grid(np.concatenate([positions, values]), grid, **rule)
        assert np.array_equal(got, want)


def test_nan_destination_leaves_the_wrap_of_the_others():
    # A NaN among the destinations gives NaN there and nothing else: the
    # other destinations still wrap by the period.
    src = np.arange(7.0)
    vals = np.sin(src)
    period = 2.0 * np.pi
    alone = linear_interpolate(src, vals, np.array([7.0]), period=period)
    beside = linear_interpolate(src, vals, np.array([7.0, np.nan, 0.5]), period=period)
    assert np.isclose(alone[0], 0.603, atol=5e-4)
    assert beside[0] == alone[0]
    assert np.isnan(beside[1])
    assert beside[2] == 0.5 * vals[1]
    assert np.isnan(linear_interpolate(src, vals, np.nan, period=period))


def test_unordered_destinations_keep_their_periodic_values():
    # The periodic kernel reads its wrap bounds from an ascending
    # destination's end points; linear_interpolate frames any order by its
    # extremes, so each destination gets what wrapping it by np.mod and
    # bridging the seam gives, bit for bit, in every wrap branch.
    rng = np.random.default_rng(8)
    period = 2.0 * np.pi
    src = np.sort(rng.random(40)) * (period * 0.95) + 0.1
    vals = np.sin(src)
    ext_src, ext_vals = np.append(src, src[0] + period), np.append(vals, vals[0])
    for lo, hi in ((-0.5, 0.9), (0.2, 1.4), (-1.6, 0.5), (0.5, 2.4), (0.1, 0.8)):
        dst = rng.uniform(lo, hi, 200) * period
        dst[:3] = src[0], src[0] + period, src[-1]
        rng.shuffle(dst)
        want = np.interp(src[0] + np.mod(dst - src[0], period), ext_src, ext_vals)
        assert np.array_equal(linear_interpolate(src, vals, dst, period=period), want)
    assert linear_interpolate(src, vals, np.empty(0), period=period).shape == (0,)
    assert linear_interpolate(src, vals, src[3], period=period) == vals[3]


def _entanglement(call):
    """The exception type, message and time index ``call`` raises, or None."""
    try:
        call()
    except GridEntanglement as exc:
        return type(exc), str(exc), exc.time_index
    return None


def _tangle_cases():
    """Ten positions in one period of length 1 (and a few edge cases), each
    with its verdict with and without the period."""
    good = np.linspace(0.0, 0.9, 10)

    def edit(index, value):
        positions = good.copy()
        positions[index] = value
        return positions

    interior = good.copy()
    interior[[4, 5]] = interior[[5, 4]]
    return {
        "untangled": (good, False, False),
        "interior": (interior, True, True),
        "seam": (np.linspace(0.0, 1.05, 10), False, True),
        "repeated": (edit(4, good[3]), True, True),
        # A NaN difference does not count as a fold, nor does an infinite
        # one; the seam difference of an infinite end is infinite.
        "nan": (edit(4, np.nan), False, False),
        "nan-first": (edit(0, np.nan), False, False),
        "inf-last": (edit(9, np.inf), False, True),
        "-inf-first": (edit(0, -np.inf), False, True),
        "inf-interior": (edit(4, np.inf), True, True),
        "-inf-interior": (edit(4, -np.inf), True, True),
    }


@pytest.mark.parametrize("case", sorted(_tangle_cases()))
@pytest.mark.parametrize("period", [None, 1.0])
def test_single_grid_and_block_tangle_checks_agree(case, period):
    # The 1-D path serves the step loops, the 2-D one the scoring blocks;
    # both give one verdict, message and time index, also for NaN and
    # infinite positions.
    positions, tangled, tangled_periodic = _tangle_cases()[case]
    good = np.linspace(0.0, 0.9, 10)
    block = np.vstack([good, good, positions, good])
    for first in (None, 7):
        at = None if first is None else first + 2
        one = _entanglement(lambda: check_untangled(positions, period, "grid", at))
        two = _entanglement(lambda: check_untangled(block, period, "grid", first))
        row = _entanglement(lambda: check_untangled(positions[None, :], period, "grid", at))
        assert one == two == row
        expected = tangled_periodic if period else tangled
        suffix = "" if at is None else f" at time index {at}"
        assert one == ((GridEntanglement, f"grid tangled{suffix}", at) if expected else None)


class TestStackedBlock:
    """A block of stacked columns equals its columns taken one at a time."""

    COUNT = 70

    @pytest.mark.parametrize("speed, bc", [("burgers", PERIODIC), ("const", DIRICHLET_ZERO)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_equals_columns(self, speed, bc, order):
        spec = make_spec(speed=speed, n=50, m_steps=self.COUNT, bc=bc)
        columns = np.asarray(drifting_stacked(spec, self.COUNT), order=order)
        expected = np.column_stack([stacked_to_grid(col, spec.grid(), spec.period) for col in columns.T])
        got = stacked_to_grid(columns, spec.grid(), spec.period)
        assert np.array_equal(got, expected)
        assert got.flags.f_contiguous

    def test_first_tangled_column_reports_its_time_index(self):
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        columns = drifting_stacked(spec, self.COUNT)
        for col in (40, 65):
            columns[[5, 6], col] = columns[[6, 5], col]
        with pytest.raises(GridEntanglement, match="time index 51$") as exc:
            stacked_to_grid(columns, spec.grid(), spec.period, first_index=11)
        assert exc.value.time_index == 51
        with pytest.raises(GridEntanglement) as exc:
            stacked_to_grid(columns[:, 40], spec.grid(), spec.period)
        assert exc.value.time_index is None

    def test_column_crossing_the_seam_is_tangled(self):
        # A periodic column whose positions increase but span a whole period
        # overlaps itself across the seam; a clamped one only overhangs.
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        columns = drifting_stacked(spec, self.COUNT)
        n = spec.n_cells
        columns[:n, 30] = np.linspace(0.0, spec.domain_length, n)
        with pytest.raises(GridEntanglement, match="time index 41$") as exc:
            stacked_to_grid(columns, spec.grid(), spec.period, first_index=11)
        assert exc.value.time_index == 41
        stacked_to_grid(columns, spec.grid())


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
