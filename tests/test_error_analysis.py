"""Error curves, the one-step-residual estimator, and the affine bound."""

import numpy as np
import pytest

from lagrom.dmd_rom import fit_dmd, fit_lagrangian_dmd
from lagrom.error_analysis import (
    ErrorReport,
    error_bound_series,
    estimate_eps_m,
    last_training_index,
    phi_pinv_fnorm,
    relative_l2,
    truncation_error,
)
from lagrom.errors import DimensionMismatch, IndexBeforeAnchor
from lagrom.hfm_lagrangian import run_lagrangian_hfm
from lagrom.presets import ExperimentConfig, resolve
from lagrom.rundir import write_error_csv


def linear_data(a, y0, count):
    cols = [np.asarray(y0, dtype=float)]
    for _ in range(count - 1):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


@pytest.fixture
def linear_model():
    a = np.diag([0.9, 0.6, 0.3])
    data = linear_data(a, np.array([1.0, 1.0, 1.0]), 10)
    return fit_dmd(data, epsilon=1e-12), data


class TestTruncationError:
    def test_identical_trajectories_are_zero(self):
        data = np.random.default_rng(0).standard_normal((5, 7))
        assert np.allclose(truncation_error(data, data), 0.0)

    def test_constant_offset_norm(self):
        ref = np.zeros((9, 4))
        rom = ref + 2.0
        assert np.allclose(truncation_error(ref, rom), 2.0 * np.sqrt(9))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            truncation_error(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_relative_l2(self):
        ref = np.full((4, 2), 2.0)
        rom = ref + 1.0
        assert np.allclose(relative_l2(ref, rom), 0.5)


class TestEpsEstimator:
    def test_exactly_linear_data_gives_rounding_level(self, linear_model):
        model, data = linear_model
        assert estimate_eps_m(model, data) <= 1e-10

    def test_matches_recorded_fit_residual(self, linear_model):
        model, data = linear_model
        assert np.isclose(estimate_eps_m(model, data), model.train_residual, atol=1e-12)

    def test_perturbed_column_detected(self):
        a = np.diag([0.9, 0.6, 0.3])
        data = linear_data(a, np.array([1.0, 1.0, 1.0]), 10)
        delta = 1e-3
        data[:, 5] += delta / np.sqrt(3)
        model = fit_dmd(data, fixed_rank=3)
        assert estimate_eps_m(model, data) >= delta / 2

    def test_constant_sequence_is_zero(self):
        data = np.column_stack([np.array([1.0, 2.0])] * 6)
        model = fit_dmd(data, epsilon=1e-8)
        assert estimate_eps_m(model, data) <= 1e-13


class TestBound:
    def test_zero_slope_point(self, linear_model):
        model, _ = linear_model
        m_last = last_training_index(model)
        value = error_bound_series(model, [m_last], anchor_error=0.5, eps_m=0.1)[0]
        assert np.isclose(value, phi_pinv_fnorm(model) * 0.5)

    def test_pinv_norm_of_well_conditioned_fit(self):
        rng = np.random.default_rng(21)
        model = fit_dmd(linear_data(rng.standard_normal((6, 6)) * 0.3, rng.standard_normal(6), 10), epsilon=1e-12)
        assert np.linalg.cond(model.eigenvectors) < 1e3
        oracle = np.linalg.norm(np.linalg.pinv(model.modes), "fro")
        assert abs(phi_pinv_fnorm(model) - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("preset", ["test1", "test3"])
    def test_pinv_norm_of_nearly_parallel_modes(self, preset):
        # The exact-transport presets fit two unit eigenvalues whose modes are
        # nearly parallel: cond(W) is about 6e6 (test1) and 1e6 (test3).
        resolved = resolve(ExperimentConfig(preset=preset, scale=10))
        run = run_lagrangian_hfm(resolved.spec, resolved.n_snapshots)
        model = fit_lagrangian_dmd(run.snapshots, epsilon=resolved.epsilon)
        assert np.linalg.cond(model.eigenvectors) > 1e5
        oracle = np.linalg.norm(np.linalg.pinv(model.modes), "fro")
        assert abs(phi_pinv_fnorm(model) - oracle) <= 1e-9 * oracle

    def test_constant_when_eps_zero(self, linear_model):
        model, _ = linear_model
        m_last = last_training_index(model)
        vals = error_bound_series(model, np.arange(m_last, m_last + 5), 0.5, 0.0)
        assert np.allclose(vals, vals[0])

    def test_affine_and_monotone(self, linear_model):
        model, _ = linear_model
        m_last = last_training_index(model)
        ns = np.arange(m_last, m_last + 10)
        series = error_bound_series(model, ns, 0.2, 0.05)
        slopes = np.diff(series)
        assert np.allclose(slopes, slopes[0])
        assert np.all(slopes >= 0)

    def test_index_before_anchor_rejected(self, linear_model):
        model, _ = linear_model
        with pytest.raises(IndexBeforeAnchor):
            error_bound_series(model, [last_training_index(model) - 1], 0.1, 0.1)
        with pytest.raises(IndexBeforeAnchor):
            error_bound_series(model, [1], 0.1, 0.1)


class TestReport:
    def make_report(self):
        times = np.arange(1, 6)
        return ErrorReport(
            times=times,
            t_values=times * 0.1,
            error_state=np.linspace(0.01, 0.05, 5),
            error_observable=np.linspace(0.1, 0.5, 5),
            bound=np.array([np.nan, np.nan, 0.4, 0.5, 0.6]),
            phi_pinv_fnorm=2.0,
            eps_m=0.1,
            anchor_error=0.2,
            anchor_index=3,
        )

    def test_bound_validity_check(self):
        report = self.make_report()
        assert report.bound_is_valid()
        report.bound[2] = 0.0
        assert not report.bound_is_valid()

    def test_csv_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "errors.csv"
        write_error_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,t,error_state,error_observable,bound"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1" and first[4] == ""  # bound blank before anchor
        last = lines[5].split(",")
        assert float(last[4]) == pytest.approx(0.6)
