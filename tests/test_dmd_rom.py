"""DMD fits against linear-system oracles, prediction semantics, persistence."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrom.core import SnapshotMatrix, stacked_to_grid, uniform_grid
from lagrom.dmd_rom import (
    LIFT_COLUMNS,
    fit_dmd,
    fit_lagrangian_dmd,
    load_dmd_model,
    predict,
    predict_series,
    prediction_blocks,
    save_dmd_model,
    split_pairs,
)
from lagrom.errors import DimensionMismatch, GridEntanglement, NumericalFailure, TooFewSnapshots
from lagrom.hfm_lagrangian import run_lagrangian_hfm
from lagrom.presets import ExperimentConfig, resolve


def linear_trajectory(a, y0, count):
    """Columns y0, A y0, A^2 y0, ... computed by direct iteration (the oracle path)."""
    cols = [np.asarray(y0, dtype=float)]
    for _ in range(count - 1):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def diagonal_model(diagonal, anchor):
    """A model with U = I, K = diag(``diagonal``) and the
    projected anchor ``anchor``: column k of a prediction is
    diag(diagonal)^k anchor."""
    import dataclasses

    model = fit_dmd(np.column_stack([np.array([1.0, -2.0])] * 5), epsilon=1e-8)
    return dataclasses.replace(
        model,
        eigenvalues=np.array(diagonal, dtype=float),
        eigenvectors=np.eye(2),
        projector=np.eye(2),
        reduced_operator=np.diag(diagonal).astype(float),
        projected_anchor=np.array(anchor),
    )


class TestSplitPairs:
    def test_two_columns(self):
        y1, y2 = split_pairs(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert y1.shape == (2, 1) and y2.shape == (2, 1)

    def test_shift_definition(self):
        data = np.arange(15.0).reshape(3, 5)
        y1, y2 = split_pairs(data)
        assert np.array_equal(y2[:, 0], data[:, 1])
        assert np.array_equal(y1, data[:, :-1])

    def test_stacked_rows_untouched(self):
        data = np.arange(12.0).reshape(6, 2)
        y1, y2 = split_pairs(data)
        assert y1.shape[0] == 6 and y2.shape[0] == 6

    def test_single_column_rejected(self):
        with pytest.raises(TooFewSnapshots):
            split_pairs(np.ones((3, 1)))


class TestFit:
    def test_recovers_diagonal_spectrum(self):
        a = np.diag([0.9, 0.5])
        data = linear_trajectory(a, np.array([1.0, 2.0]), 6)
        model = fit_dmd(data, epsilon=1e-10)
        eigs = np.sort_complex(model.eigenvalues)
        assert np.allclose(eigs, [0.5, 0.9], atol=1e-10)

    def test_constant_sequence_single_unit_eigenvalue(self):
        y = np.array([1.0, -2.0, 0.5])
        data = np.column_stack([y, y, y, y])
        model = fit_dmd(data, epsilon=1e-8)
        assert model.rank == 1
        assert np.isclose(model.eigenvalues[0].real, 1.0, atol=1e-12)
        mode = model.modes[:, 0].real
        assert np.isclose(abs(mode @ y) / (np.linalg.norm(mode) * np.linalg.norm(y)), 1.0)

    def test_rotation_spectrum(self):
        theta = 0.1
        a = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        data = linear_trajectory(a, np.array([1.0, 0.3]), 8)
        model = fit_dmd(data, epsilon=1e-12)
        expected = np.sort_complex(np.array([np.exp(1j * theta), np.exp(-1j * theta)]))
        assert np.allclose(np.sort_complex(model.eigenvalues), expected, atol=1e-10)

    def test_conjugate_spectrum_on_real_data(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) * 0.4
        data = linear_trajectory(a, rng.standard_normal(5), 9)
        model = fit_dmd(data, epsilon=1e-12)
        eigs = model.eigenvalues
        assert np.allclose(np.sort_complex(eigs), np.sort_complex(eigs.conj()), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
    def test_spectrum_recovery_property(self, seed, dim):
        # Oracle: the generator's own eigendecomposition. Data excites every
        # mode because the start vector is random and the eigvecs are well
        # conditioned by construction.
        rng = np.random.default_rng(seed)
        eigs = rng.uniform(0.4, 1.1, size=dim) * np.sign(rng.standard_normal(dim))
        if np.min(np.abs(np.subtract.outer(eigs, eigs)[~np.eye(dim, dtype=bool)])) < 5e-2:
            return
        q = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
        if np.linalg.cond(q) > 50:
            return
        a = q @ np.diag(eigs) @ np.linalg.inv(q)
        data = linear_trajectory(a, rng.standard_normal(dim) + 1.0, dim + 4)
        model = fit_dmd(data, epsilon=1e-12)
        oracle = np.sort_complex(np.linalg.eigvals(a))
        assert model.rank == dim
        assert np.allclose(np.sort_complex(model.eigenvalues), oracle, atol=1e-8)

    def test_exactly_one_selection_argument(self):
        data = np.eye(3)
        with pytest.raises(ValueError):
            fit_dmd(data)
        with pytest.raises(ValueError):
            fit_dmd(data, epsilon=1e-8, fixed_rank=2)

    def test_fixed_rank_clamped_to_numerical_rank(self):
        a = np.diag([0.9, 0.5])
        data = linear_trajectory(a, np.array([1.0, 2.0]), 7)
        model = fit_dmd(data, fixed_rank=6)
        assert model.rank == 2
        assert model.requested_rank == 6

    def test_non_unit_stride_rejected(self):
        snaps = SnapshotMatrix(np.random.default_rng(0).standard_normal((4, 3)), np.array([1, 3, 5]))
        with pytest.raises(DimensionMismatch):
            fit_dmd(snaps, epsilon=1e-8)

    def test_pseudoinverse_left_identity(self):
        # The modes are U W, so W^-1 U^T is their left inverse when W^-1 W = I.
        rng = np.random.default_rng(8)
        data = linear_trajectory(rng.standard_normal((6, 6)) * 0.3, rng.standard_normal(6), 10)
        model = fit_dmd(data, epsilon=1e-12)
        w = model.eigenvectors
        assert w.shape == (model.rank, model.rank)
        assert np.allclose(model.reduced_operator @ w, w * model.eigenvalues, atol=1e-12)
        assert np.max(np.abs(np.linalg.inv(w) @ w - np.eye(model.rank))) <= 1e-8
        left = np.linalg.inv(w) @ model.projector.T
        assert np.max(np.abs(left @ model.modes - np.eye(model.rank))) <= 1e-8

    def test_numerically_singular_eigenvectors_rejected(self):
        # y -> [y_2, 0]: K is a nilpotent Jordan block, whose two computed
        # eigenvectors are parallel to working precision (cond(W) = inf). LU
        # inverts that W exactly, so only the conditioning check rejects it.
        data = np.column_stack([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericalFailure, match="left-inverse"):
            fit_dmd(data, epsilon=1e-12)

    def test_modes_are_projected_eigenvectors(self):
        rng = np.random.default_rng(8)
        data = linear_trajectory(rng.standard_normal((6, 6)) * 0.3, rng.standard_normal(6), 10)
        model = fit_dmd(data, epsilon=1e-12)
        assert np.array_equal(model.modes, model.projector @ model.eigenvectors)
        assert model.n_rows == 6


class TestPredict:
    def test_anchor_reconstruction(self):
        a = np.diag([0.9, 0.5])
        y0 = np.array([1.0, 2.0])
        data = linear_trajectory(a, y0, 6)
        model = fit_dmd(data, epsilon=1e-10)
        assert np.allclose(predict(model, model.base_time_index), y0, atol=1e-9)
        # the superposition of modes at their amplitudes W^-1 U^T y0 is the same anchor
        amplitudes = np.linalg.solve(model.eigenvectors, model.projected_anchor)
        assert np.allclose((model.modes @ amplitudes).real, y0, atol=1e-9)

    def test_closed_form_power(self):
        a = np.diag([0.9, 0.5])
        y0 = np.array([1.0, 2.0])
        data = linear_trajectory(a, y0, 6)
        model = fit_dmd(data, epsilon=1e-10)
        oracle = np.linalg.matrix_power(a, 9) @ y0
        assert np.allclose(predict(model, 10), oracle, atol=1e-9)

    def test_constant_model_every_index(self):
        y = np.array([2.0, -1.0])
        data = np.column_stack([y] * 5)
        model = fit_dmd(data, epsilon=1e-8)
        for k in (1, 3, 50):
            assert np.allclose(predict(model, k), y, atol=1e-10)

    def test_series_matches_single_calls(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4)) * 0.3
        data = linear_trajectory(a, rng.standard_normal(4), 8)
        model = fit_dmd(data, epsilon=1e-12)
        ks = np.array([1, 4, 11])
        series = predict_series(model, ks)
        for j, k in enumerate(ks):
            assert np.allclose(series[:, j], predict(model, int(k)), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        offsets=st.lists(st.integers(0, 60), min_size=1, max_size=25),
        anchor_at=st.integers(0, 25),
    )
    def test_stepped_series_matches_single_calls(self, seed, offsets, anchor_at):
        # Unsorted, repeated and gapped indices with the anchor among them:
        # each column of the stepped series is its own single evaluation.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        model = fit_dmd(linear_trajectory(0.98 * q, rng.standard_normal(6), 10), epsilon=1e-12)
        offsets.insert(anchor_at, 0)
        ks = model.base_time_index + np.array(offsets)
        series = predict_series(model, ks)
        assert series.shape == (6, ks.size) and series.flags.f_contiguous
        for j, k in enumerate(ks):
            single = predict(model, int(k))
            assert np.linalg.norm(series[:, j] - single) <= 1e-12 * np.linalg.norm(single)

    def test_before_anchor_rejected(self):
        data = np.column_stack([np.ones(3)] * 4)
        model = fit_dmd(data, epsilon=1e-8)
        with pytest.raises(ValueError):
            predict(model, 0)

    def test_one_step_error_growth_bounded_by_residual(self):
        # Contractive linear map plus small disturbance: the prediction error
        # along the trajectory stays within the telescoped one-step residual.
        rng = np.random.default_rng(10)
        a = np.diag([0.95, 0.6, 0.4])
        data = linear_trajectory(a, np.array([1.0, 1.0, 1.0]), 12)
        data = data + 1e-8 * rng.standard_normal(data.shape)
        model = fit_dmd(data, epsilon=1e-6)
        anchor_err = np.linalg.norm(data[:, 0] - predict(model, 1))
        for k in range(2, 12):
            err = np.linalg.norm(data[:, k - 1] - predict(model, k))
            budget = anchor_err + (k - 1) * model.train_residual * 1.5 + 1e-12
            assert err <= budget

    def test_prediction_cost_independent_of_horizon(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6)) * 0.2
        data = linear_trajectory(a, rng.standard_normal(6), 10)
        model = fit_dmd(data, epsilon=1e-12)

        def best_time(k):
            best = float("inf")
            for _ in range(30):
                t0 = time.perf_counter()
                predict(model, k)
                best = min(best, time.perf_counter() - t0)
            return best

        near = best_time(model.training_count + 1)
        far = best_time(10 * model.training_count)
        assert far <= 2.0 * near + 5e-5

    def test_overflow_raises_instead_of_inf(self):
        v = np.array([1.0, -2.0, 3.0])
        model = fit_dmd(np.column_stack([v * 1.5**k for k in range(6)]), epsilon=1e-8)
        assert np.all(np.isfinite(predict(model, 10)))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailure, match="time index 5000 ") as exc:
                predict(model, 5000)
            assert exc.value.time_index == 5000
            with pytest.raises(NumericalFailure, match="time index 2000 ") as exc:
                predict_series(model, [10, 2000, 5000])
            assert exc.value.time_index == 2000


class TestLagrangianObservable:
    def test_odd_row_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            fit_lagrangian_dmd(np.ones((5, 4)), epsilon=1e-8)

    def test_ramp_plus_frozen_block_is_machine_precise(self):
        # Positions drifting uniformly with frozen values: the stacked data is
        # an arithmetic ramp, the hardest well-posed case for the eigenvalue
        # path; predictions must stay at rounding level far past training.
        n, m = 50, 20
        x0 = np.linspace(0.0, 2.0, n)
        u0 = np.exp(-((x0 - 0.5) ** 2) * 30.0)
        cols = [np.concatenate([x0 + 0.01 * k, u0]) for k in range(1, m + 1)]
        data = np.column_stack(cols)
        model = fit_lagrangian_dmd(data, epsilon=1e-8)
        for k in (1, m, 4 * m):
            expected = np.concatenate([x0 + 0.01 * k, u0])
            assert np.linalg.norm(predict(model, k) - expected) <= 1e-8

    def test_single_mode_stacked_data(self):
        col = np.concatenate([np.linspace(0, 1, 8), np.ones(8)])
        data = np.column_stack([col * (0.9**k) for k in range(5)])
        model = fit_lagrangian_dmd(data, epsilon=1e-8)
        assert model.rank == 1
        assert np.isclose(model.eigenvalues[0].real, 0.9, atol=1e-10)


class TestFiniteGuard:
    """Prediction checks each lifted column for overflow."""

    def test_series_checks_each_column(self):
        # Column k is [1, 1e-2 * 1e30^k]: finite up to k = 10, inf at k = 11.
        model = diagonal_model([1.0, 1e30], [1.0, 1e-2])
        base = model.base_time_index
        predict_series(model, base + np.arange(1, 11))
        block = base + np.arange(1, 12)
        with np.errstate(over="ignore", invalid="ignore"):
            for indices in (block, block[::-1]):
                with pytest.raises(NumericalFailure, match="not finite") as excinfo:
                    predict_series(model, indices)
                assert excinfo.value.time_index == base + 11
            with pytest.raises(NumericalFailure) as excinfo:
                predict(model, base + 11)
        assert excinfo.value.time_index == base + 11


class TestPredictionBlocks:
    """``predict_series`` is its blocks side by side, and lifting the reduced
    rows block by block gives the single whole-horizon product's bits."""

    @staticmethod
    def preset_model(preset):
        resolved = resolve(ExperimentConfig(preset=preset, scale=10))
        run = run_lagrangian_hfm(resolved.spec, resolved.n_snapshots)
        return fit_lagrangian_dmd(run.snapshots, epsilon=resolved.epsilon), resolved.spec.n_steps

    @pytest.mark.parametrize("preset", ["test2", "test4"])
    def test_series_is_its_blocks_side_by_side(self, preset):
        model, horizon = self.preset_model(preset)
        indices = np.arange(1, horizon + 1)
        widths = [min(LIFT_COLUMNS, horizon - start) for start in range(0, horizon, LIFT_COLUMNS)]
        for order in (indices, indices[::-1]):
            blocks = list(prediction_blocks(model, order))
            assert [block.shape[1] for block in blocks] == widths
            assert all(block.flags.f_contiguous for block in blocks)
            assert np.array_equal(np.hstack(blocks), predict_series(model, order))

    @pytest.mark.parametrize("preset", ["test2", "test4"])
    def test_blocked_lift_equals_one_whole_horizon_product(self, preset):
        model, horizon = self.preset_model(preset)
        reduced = np.empty((horizon, model.rank))
        reduced[0] = model.projected_anchor
        for k in range(1, horizon):
            reduced[k] = model.reduced_operator @ reduced[k - 1]
        whole = (reduced @ model.projector.T).T
        assert np.array_equal(predict_series(model, np.arange(1, horizon + 1)), whole)

    def test_earliest_failing_index_is_reported(self):
        # Column k is [1, 1e-120 (1e27)^k]: finite up to k = 15 and inf from
        # k = 16 on, so a block holds one failing column or many.
        model = diagonal_model([1.0, 1e27], [1.0, 1e-120])
        base = model.base_time_index
        with np.errstate(over="ignore", invalid="ignore"):
            predict_series(model, base + np.arange(1, 16))
            for count in (16, 48):
                with pytest.raises(NumericalFailure, match="not finite") as excinfo:
                    predict_series(model, base + np.arange(1, count + 1))
                assert excinfo.value.time_index == base + 16
            with pytest.raises(NumericalFailure, match="not finite") as excinfo:
                predict_series(model, [base + 16])
            assert excinfo.value.time_index == base + 16


class TestReconstructState:
    """A predicted stacked observable [x; u] back on the reference grid."""

    def test_identity_grid_returns_values(self):
        grid = uniform_grid(0.0, 1.0, 8)
        u = np.sin(grid.nodes)
        on_grid = stacked_to_grid(np.concatenate([grid.nodes, u]), grid)
        assert np.allclose(on_grid, u, atol=1e-12)

    def test_shifted_grid_moves_peak(self):
        grid = uniform_grid(0.0, 2.0, 101)
        u = np.exp(-(((grid.nodes - 0.5) / 0.1) ** 2))
        shift = 0.6
        on_grid = stacked_to_grid(np.concatenate([grid.nodes + shift, u]), grid)
        peak = grid.nodes[np.argmax(on_grid)]
        assert abs(peak - 1.1) < 0.03

    def test_tangled_prediction_rejected(self):
        grid = uniform_grid(0.0, 1.0, 4)
        bad = np.concatenate([[0.0, 0.5, 0.4, 1.0], np.ones(4)])
        with pytest.raises(GridEntanglement):
            stacked_to_grid(bad, grid)


class TestPersistence:
    def test_round_trip_reproduces_predictions(self, tmp_path):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6)) * 0.3
        data = linear_trajectory(a, rng.standard_normal(6), 9)
        model = fit_dmd(data, epsilon=1e-12)
        path = tmp_path / "model.txt"
        save_dmd_model(model, path)
        loaded = load_dmd_model(path)
        assert loaded.observable_kind == model.observable_kind
        assert loaded.training_count == model.training_count
        assert np.allclose(loaded.eigenvalues, model.eigenvalues, atol=1e-15)
        for k in (1, 5, 20):
            assert np.allclose(predict(loaded, k), predict(model, k), atol=1e-10)

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_dmd_model(path)

    def test_saves_factors_only_and_rejects_v1(self, tmp_path):
        path, lines = self._saved_model_lines(tmp_path)
        assert lines[0] == "lagrom-dmd-v3"
        assert [ln for ln in lines if ln.startswith("[")] == ["[projector]", "[reduced_operator]", "[projected_anchor]"]
        assert not any(ln.startswith(("rows=", "rank=", "real_input=")) for ln in lines)
        lines[0] = "lagrom-dmd-v1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not a recognized model file"):
            load_dmd_model(path)

    def _saved_model_lines(self, tmp_path):
        rng = np.random.default_rng(13)
        data = linear_trajectory(rng.standard_normal((6, 6)) * 0.3, rng.standard_normal(6), 9)
        path = tmp_path / "model.txt"
        save_dmd_model(fit_dmd(data, epsilon=1e-12), path)
        return path, path.read_text().splitlines()

    def test_rejects_a_v2_file(self, tmp_path):
        # A complete rank-1 model as the v2 format wrote it: re/im blocks of
        # every factor and the eigenpairs, with rows, rank and real_input.
        blocks = {
            "eigenvalues": "0.5",
            "eigenvectors": "1",
            "projector": "0.6\n0.8",
            "reduced_operator": "0.5",
            "projected_anchor": "2",
        }
        text = "lagrom-dmd-v2\nkind=state\nbase_time_index=1\ntraining_count=3\nrank=1\nrows=2\n"
        text += "train_residual=0\nreal_input=1\nrequested_rank=\n"
        for name, values in blocks.items():
            text += f"[{name}_re]\n{values}\n[{name}_im]\n" + "\n".join("0" for _ in values.split("\n")) + "\n"
        path = tmp_path / "v2.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a recognized model file"):
            load_dmd_model(path)

    @pytest.mark.parametrize("block", ["projector", "reduced_operator", "projected_anchor"])
    def test_rejects_blocks_of_disagreeing_shapes(self, tmp_path, block):
        # The last column of one block goes: its width no longer matches the
        # other blocks' rank.
        path, lines = self._saved_model_lines(tmp_path)
        start = lines.index(f"[{block}]") + 1
        end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
        lines[start:end] = [ln.rpartition(",")[0] for ln in lines[start:end]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="shapes"):
            load_dmd_model(path)

    def test_rejects_missing_projector_blocks(self, tmp_path):
        path, lines = self._saved_model_lines(tmp_path)
        path.write_text("\n".join(lines[: lines.index("[projector]")]) + "\n")
        with pytest.raises(ValueError, match="projector"):
            load_dmd_model(path)

    @pytest.mark.parametrize("key", ["kind", "base_time_index", "training_count", "train_residual"])
    def test_rejects_a_missing_header_line(self, tmp_path, key):
        path, lines = self._saved_model_lines(tmp_path)
        path.write_text("\n".join(ln for ln in lines if not ln.startswith(f"{key}=")) + "\n")
        with pytest.raises(ValueError, match=f"lacks the {key}= line"):
            load_dmd_model(path)

    def test_defective_operator_rejected_at_load_as_at_fit(self, tmp_path):
        # K = [[1, 1], [0, 1]] is a Jordan block: its eigenvectors are
        # parallel, so the left-inverse check that rejects such a fit
        # rejects the file.
        path = tmp_path / "model.txt"
        path.write_text(
            "lagrom-dmd-v3\nkind=state\nbase_time_index=1\ntraining_count=3\ntrain_residual=0\n"
            "requested_rank=\n[projector]\n1,0\n0,1\n[reduced_operator]\n1,1\n0,1\n[projected_anchor]\n0,1\n"
        )
        with pytest.raises(NumericalFailure, match="left-inverse"):
            load_dmd_model(path)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        rows=st.integers(2, 12),
        true_rank=st.integers(1, 4),
        count=st.integers(3, 10),
    )
    def test_round_trip_property(self, seed, rows, true_rank, count):
        import dataclasses
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((rows, true_rank)) @ rng.standard_normal((true_rank, count))
        try:
            model = fit_dmd(data, epsilon=1e-10)
        except NumericalFailure:
            return  # ill-conditioned eigenvectors: nothing to persist
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
            save_dmd_model(model, first)
            loaded = load_dmd_model(first)
            save_dmd_model(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        for field in dataclasses.fields(model):
            want, got = getattr(model, field.name), getattr(loaded, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
        indices = [1, 2, count, 3 * count]
        for k in indices:
            assert np.array_equal(predict(loaded, k), predict(model, k))
        assert np.array_equal(predict_series(loaded, indices), predict_series(model, indices))
