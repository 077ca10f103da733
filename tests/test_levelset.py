"""Level-set embedding: initialization, row transport, contour extraction, DMD."""

import numpy as np
import pytest

from lagrom.core import PERIODIC, Grid1D, check_courant, uniform_grid
from lagrom import kernels, levelset
from lagrom.dmd_rom import predict_series
from lagrom.errors import (
    CflViolation,
    MultipleSignChanges,
    NoSignChange,
    NumericalFailure,
    RangeNotCovered,
)
from lagrom.levelset import (
    LevelSetField,
    contour_blocks,
    embed_initial,
    extract_zero_contour,
    levelset_dmd,
    levelset_grids,
    levelset_steps,
    predict_contours,
    predicted_contour,
    run_levelset_hfm,
    value_grid_for,
    zero_contour,
)
from lagrom.presets import one_plus_sin

from conftest import make_spec


def characteristics_oracle(u0, u0_prime, x_targets, t, period):
    """Solve x = x0 + t*u0(x0) per target by Newton; returns u0(x0).

    Independent of the grid solver: works directly on the smooth functions.
    """
    out = np.empty_like(x_targets)
    for i, x in enumerate(x_targets):
        x0 = x - t * u0(np.array([x]))[0]
        for _ in range(60):
            f = x0 + t * u0(np.array([x0]))[0] - x
            df = 1.0 + t * u0_prime(x0)
            step = f / df
            x0 -= step
            if abs(step) < 1e-13:
                break
        out[i] = u0(np.array([x0]))[0]
    return out


class TestEmbed:
    def test_zero_profile_gives_plain_coordinates(self):
        xg = uniform_grid(0.0, 1.0, 5)
        yg = Grid1D(np.linspace(-1.0, 1.0, 7))
        field = embed_initial(np.zeros(len(xg)), xg, yg)
        for i, y in enumerate(yg.nodes):
            assert np.allclose(field.values[i], y)

    def test_constant_profile_contour_is_horizontal_line(self):
        xg = uniform_grid(0.0, 1.0, 6)
        yg = Grid1D(np.linspace(0.0, 1.4, 15))
        field = embed_initial(np.full(len(xg), 0.7), xg, yg)
        contour = extract_zero_contour(field)
        assert np.allclose(contour.values, 0.7, atol=1e-14)

    def test_sine_profile_contour_recovers_initial_curve(self):
        xg = uniform_grid(0.0, 2.0 * np.pi, 50, periodic=True)
        yg = Grid1D(np.linspace(-0.3, 2.3, 21))
        field = embed_initial(one_plus_sin(xg.nodes), xg, yg)
        contour = extract_zero_contour(field)
        # the embedding is affine in y, so the linear root is exact
        assert np.allclose(contour.values, one_plus_sin(xg.nodes), atol=1e-12)

    def test_insufficient_margin_rejected(self):
        xg = uniform_grid(0.0, 2.0 * np.pi, 30, periodic=True)
        yg = Grid1D(np.linspace(0.0, 2.0, 11))  # no margin beyond the range
        with pytest.raises(RangeNotCovered):
            embed_initial(one_plus_sin(xg.nodes), xg, yg)

    def test_value_grid_margins(self):
        samples = np.array([0.0, 2.0])
        yg = value_grid_for(samples, 9)
        assert yg.nodes[0] <= -0.2 + 1e-12
        assert yg.nodes[-1] >= 2.2 - 1e-12


class TestAdvance:
    def make_field(self, n_x=40, n_y=9):
        xg = uniform_grid(0.0, 2.0 * np.pi, n_x, periodic=True)
        yg = Grid1D(np.linspace(-0.25, 2.25, n_y))
        return embed_initial(one_plus_sin(xg.nodes), xg, yg)

    @staticmethod
    def step(field, spec, dt):
        """The field one upwind step of ``dt`` later, through the stream's
        own pieces: the row speeds and their Courant check, then the kernel."""
        dx = field.x_grid.spacing
        speeds = spec.speed(field.y_grid.nodes)
        check_courant(speeds, dt, dx, 1, "row Courant number")
        return kernels.levelset_step(field.values, speeds, dt / dx, spec.periodic)

    def test_zero_speed_row_unchanged(self, burgers_spec):
        field = self.make_field()
        i_zero = int(np.argmin(np.abs(field.y_grid.nodes)))
        # force an exactly-zero row speed by shifting that y node
        nodes = field.y_grid.nodes.copy()
        nodes[i_zero] = 0.0
        values = nodes[:, None] - one_plus_sin(field.x_grid.nodes)[None, :]
        field = LevelSetField(field.x_grid, Grid1D(nodes), values, 0)
        out = self.step(field, burgers_spec, burgers_spec.dt)
        assert np.array_equal(out[i_zero], field.values[i_zero])

    def test_unit_courant_row_shift(self, burgers_spec):
        field = self.make_field()
        dx = field.x_grid.spacing
        speeds = field.y_grid.nodes
        fastest = np.argmax(np.abs(speeds))
        dt = dx / abs(speeds[fastest])
        out = self.step(field, burgers_spec, dt)
        direction = 1 if speeds[fastest] > 0 else -1
        assert np.allclose(out[fastest], np.roll(field.values[fastest], direction), atol=1e-12)

    def test_cfl_violation(self, burgers_spec):
        field = self.make_field()
        with pytest.raises(CflViolation) as err:
            self.step(field, burgers_spec, 10.0)
        assert err.value.time_index == 1

    def test_run_cfl_violation_names_its_time_index(self):
        spec = make_spec(speed="burgers", n=200, m_steps=5, bc=PERIODIC)
        y = value_grid_for(one_plus_sin(spec.grid().nodes), 20).nodes
        fastest = np.max(np.abs(y))
        courant = fastest * spec.dt / spec.dx
        with pytest.raises(CflViolation) as err:
            run_levelset_hfm(spec, 2, n_y=20)
        assert err.value.time_index == 1
        assert str(err.value) == f"row Courant number {courant:.6f} exceeds 1 (max |f(u)| = {fastest:.6g}) (time index 1)"

    def test_row_conservation_periodic(self, burgers_spec):
        field = self.make_field()
        sums = field.values.sum(axis=1)
        for k in range(1, 6):
            values = self.step(field, burgers_spec, burgers_spec.dt)
            field = LevelSetField(field.x_grid, field.y_grid, values, k)
            assert np.allclose(field.values.sum(axis=1), sums, rtol=1e-12)

    def test_contour_matches_characteristics_oracle(self, burgers_spec):
        run = run_levelset_hfm(burgers_spec, 10, n_y=40)
        t = 0.5
        n = int(round(t / burgers_spec.dt))
        oracle = characteristics_oracle(
            one_plus_sin, lambda x: np.cos(x), run.x_grid.nodes, t, burgers_spec.domain_length
        )
        err = np.max(np.abs(run.contours[:, n] - oracle))
        # first-order transport plus quadratic contour interpolation
        dy = run.y_grid.spacing
        tol = 5.0 * burgers_spec.dx * t + 0.5 * dy**2 * t**2
        assert err <= tol


class TestExtract:
    def test_no_sign_change_detected(self):
        xg = uniform_grid(0.0, 1.0, 4)
        yg = Grid1D(np.linspace(0.0, 1.0, 5))
        field = LevelSetField(xg, yg, np.ones((5, 4)), 0)
        with pytest.raises(NoSignChange):
            extract_zero_contour(field)

    def test_multiple_sign_changes_detected(self):
        xg = uniform_grid(0.0, 1.0, 3)
        yg = Grid1D(np.linspace(-1.0, 1.0, 5))
        column = np.array([-1.0, 1.0, -1.0, 1.0, 1.0])
        values = np.column_stack([column] * 3)
        field = LevelSetField(xg, yg, values, 0)
        with pytest.raises(MultipleSignChanges):
            extract_zero_contour(field)

    def test_post_shock_field_detected(self, burgers_spec):
        # Past the shock time characteristics cross; some columns lose
        # monotonicity in y and the extraction refuses.
        spec = make_spec(speed="burgers", bc=PERIODIC, n=200, m_steps=150, t_final=1.5)
        with pytest.raises(MultipleSignChanges):
            run_levelset_hfm(spec, 10, n_y=60)

    def test_two_resolution_convergence_in_y(self):
        # Compare coarse-y contours against a fine-y run of the same problem:
        # the transport error is a smooth shared field that cancels in the
        # difference, isolating the quadratic y-interpolation term.
        spec = make_spec(speed="burgers", bc=PERIODIC, n=800, m_steps=400)
        t = 0.4
        n = int(round(t / spec.dt))
        reference = run_levelset_hfm(spec, 1, n_y=200).contours[:, n]
        errors = {}
        for n_y in (14, 28):
            run = run_levelset_hfm(spec, 1, n_y=n_y)
            errors[n_y] = np.sqrt(np.mean((run.contours[:, n] - reference) ** 2))
        order = np.log2(errors[14] / errors[28])
        assert order >= 1.8


class TestLevelsetDmd:
    def test_constant_field_single_unit_eigenvalue(self):
        xg = uniform_grid(0.0, 1.0, 6)
        yg = Grid1D(np.linspace(-0.5, 1.5, 5))
        flat = (yg.nodes[:, None] - 0.5 * np.ones((5, 6))).ravel(order="F")
        data = np.column_stack([flat] * 5)
        model = levelset_dmd(data, epsilon=1e-8)
        assert model.rank == 1
        assert np.isclose(model.eigenvalues[0].real, 1.0, atol=1e-12)

    def test_flatten_round_trip_is_column_major(self):
        # A snapshot column is its field's column-major flattening, x-block
        # by x-block, which is how the stream stores each field.
        spec = make_spec(speed="burgers", n=3, m_steps=10, bc=PERIODIC)
        run = run_levelset_hfm(spec, 1, n_y=2)
        c = list(levelset_steps(spec, run.x_grid, run.y_grid))[1]
        flat = run.snapshots.data[:, 0]
        assert np.array_equal(flat, np.array([c[0, 0], c[1, 0], c[0, 1], c[1, 1], c[0, 2], c[1, 2]]))
        assert np.array_equal(flat.reshape((2, 3), order="F"), c)
        assert np.shares_memory(c.ravel(order="F"), c)

    def test_predicted_contours_track_hfm(self, burgers_spec):
        run = run_levelset_hfm(burgers_spec, 25)
        model = levelset_dmd(run.snapshots, epsilon=1e-8)
        for k in (10, 25, 60):
            contour = predicted_contour(model, k, run.x_grid, run.y_grid)
            rel = np.linalg.norm(contour.values - run.contours[:, k]) / np.linalg.norm(run.contours[:, k])
            assert rel <= 1e-2

    def test_chunked_contours_equal_per_index_extraction(self, burgers_spec):
        run = run_levelset_hfm(burgers_spec, 25)
        model = levelset_dmd(run.snapshots, epsilon=1e-8)
        x, y = run.x_grid.nodes, run.y_grid.nodes
        chunk = levelset.CONTOUR_CHUNK
        indices = np.arange(1, 2 * chunk + 7)  # a partial last chunk
        expected = np.empty((x.size, indices.size))
        for start in range(0, indices.size, chunk):
            fields = predict_series(model, indices[start : start + chunk])
            for j in range(fields.shape[1]):
                expected[:, start + j] = zero_contour(fields[:, j].reshape((y.size, x.size), order="F"), y, x)
        got = predict_contours(model, indices, run.x_grid, run.y_grid)
        assert np.array_equal(got, expected)
        single = predicted_contour(model, 40, run.x_grid, run.y_grid)
        assert np.array_equal(single.values, predict_contours(model, [40], run.x_grid, run.y_grid)[:, 0])
        assert single.time_index == 40

    def test_contours_are_their_blocks_side_by_side(self, burgers_spec):
        run = run_levelset_hfm(burgers_spec, 25)
        model = levelset_dmd(run.snapshots, epsilon=1e-8)
        chunk = levelset.CONTOUR_CHUNK
        indices = np.arange(1, 2 * chunk + 7)
        blocks = list(contour_blocks(model, indices, run.x_grid, run.y_grid))
        assert [block.shape[1] for block in blocks] == [chunk, chunk, 6]
        assert all(block.flags.c_contiguous for block in blocks)
        assert np.array_equal(np.hstack(blocks), predict_contours(model, indices, run.x_grid, run.y_grid))

    def test_no_sign_change_in_a_later_chunk_names_its_x_column(self, monkeypatch):
        xg = uniform_grid(0.0, 1.0, 10)
        yg = Grid1D(np.linspace(-1.0, 2.0, 6))
        chunk = levelset.CONTOUR_CHUNK
        bad_index, bad_column = 2 * chunk + 3, 7

        def fields_with_one_dry_column(model, indices):
            fields = np.empty((yg.nodes.size * xg.nodes.size, len(indices)), order="F")
            for j, k in enumerate(indices):
                c = yg.nodes[:, None] - np.sin(xg.nodes)[None, :] - 0.001 * k
                if k == bad_index:
                    c[:, bad_column] = 1.0
                fields[:, j] = c.ravel(order="F")
            yield fields

        monkeypatch.setattr(levelset, "prediction_blocks", fields_with_one_dry_column)
        x_bad = f"{xg.nodes[bad_column]:.4g}"
        with pytest.raises(NoSignChange, match=rf"^column {bad_column} \(x = {x_bad}\) never crosses zero$"):
            predict_contours(None, np.arange(1, 2 * chunk + 7), xg, yg)

    def test_column_monotonicity_preserved_pre_shock(self, burgers_spec):
        run = run_levelset_hfm(burgers_spec, 5)
        final = run.final_field
        assert np.all(np.diff(final.values, axis=0) > 0.0)


class TestStore:
    """The run keeps time-major stores; its arrays are read-only views."""

    def test_snapshots_are_a_view_of_the_time_major_store(self, burgers_spec):
        run = run_levelset_hfm(burgers_spec, 6, n_y=20)
        store = run.snapshots.data.base
        assert store.shape == (6, 200 * 20) and store.flags.c_contiguous
        assert np.shares_memory(run.snapshots.data, store)
        assert run.contours.T.flags.c_contiguous
        for arr in (run.snapshots.data, run.contours):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_run_equals_raw_steps_bit_for_bit(self, burgers_spec):
        # Stepped in C order here; the run steps column-major fields.
        run = run_levelset_hfm(burgers_spec, 6, n_y=20)
        field = embed_initial(burgers_spec.initial_state(), run.x_grid, run.y_grid)
        speeds = burgers_spec.speed(run.y_grid.nodes)
        courant = burgers_spec.dt / run.x_grid.spacing
        assert np.array_equal(extract_zero_contour(field).values, run.contours[:, 0])
        for k in range(1, burgers_spec.n_steps + 1):
            values = kernels.levelset_step(field.values, speeds, courant, burgers_spec.periodic)
            field = LevelSetField(run.x_grid, run.y_grid, values, k)
            assert np.array_equal(extract_zero_contour(field).values, run.contours[:, k])
            if k <= 6:
                assert np.array_equal(field.values.ravel(order="F"), run.snapshots.data[:, k - 1])
        assert np.array_equal(field.values, run.final_field.values)


class TestStream:
    """``levelset_steps`` is the run's one loop; the run collects it."""

    def test_stream_yields_the_collected_run_bit_for_bit(self, burgers_spec):
        run = run_levelset_hfm(burgers_spec, 6, n_y=20)
        for grid, run_grid in zip(levelset_grids(burgers_spec, 20), (run.x_grid, run.y_grid)):
            assert np.array_equal(grid.nodes, run_grid.nodes)
        x, y = run.x_grid.nodes, run.y_grid.nodes
        fields = list(levelset_steps(burgers_spec, run.x_grid, run.y_grid))
        assert len(fields) == burgers_spec.n_steps + 1
        for k, c in enumerate(fields):
            assert c.flags.f_contiguous and not c.flags.writeable
            assert np.array_equal(zero_contour(c, y, x), run.contours[:, k])
            if 1 <= k <= 6:
                assert np.array_equal(c.ravel(order="F"), run.snapshots.data[:, k - 1])
        assert np.array_equal(fields[-1], run.final_field.values)

    def test_stream_checks_the_row_courant_number_at_index_one(self):
        spec = make_spec(speed="burgers", n=200, m_steps=5, bc=PERIODIC)
        with pytest.raises(CflViolation) as err:
            next(levelset_steps(spec, *levelset_grids(spec, 20)))
        assert err.value.time_index == 1

    def test_stream_names_the_first_non_finite_field(self, burgers_spec, monkeypatch):
        step, calls = levelset.kernels.levelset_step, []

        def blows_up_at_three(*args):
            calls.append(None)
            out = step(*args)
            return out * np.inf if len(calls) == 3 else out

        monkeypatch.setattr(levelset.kernels, "levelset_step", blows_up_at_three)
        with pytest.raises(NumericalFailure, match="time index 3$") as err:
            for _ in levelset_steps(burgers_spec, *levelset_grids(burgers_spec, 20)):
                pass
        assert err.value.time_index == 3
