"""Experiment runner emissions, determinism, validation, CLI plumbing."""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lagrom import bench, cli, hfm_eulerian, hfm_lagrangian, lapack, svd_core
from lagrom.bench import _Frame, _Scorer, _block_width, _score_all, run_experiment
from lagrom.cli import main
from lagrom.core import PERIODIC, stacked_to_grid
from lagrom.dmd_rom import fit_dmd
from lagrom.error_analysis import estimate_eps_m, relative_l2, truncation_error
from lagrom.errors import DimensionMismatch, GridEntanglement, NumericalFailure, TooFewSnapshots
from lagrom.hfm_eulerian import eulerian_steps, run_eulerian_hfm
from lagrom.hfm_lagrangian import lagrangian_steps, run_lagrangian_hfm
from lagrom.levelset import levelset_grids, run_levelset_hfm
from lagrom.presets import ExperimentConfig, parse_config_file, resolve
from lagrom.rundir import load_timing, timing_table, validate_run_dir

from conftest import drifting_stacked, make_spec


TINY = dict(n_cells=40, n_steps=20, n_snapshots=5)


def tiny_config(preset="test2", **overrides):
    merged = {**TINY, **overrides}
    return ExperimentConfig(preset=preset, **merged)


class TestConfig:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="test99")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="test1", methods=("warp-drive",))

    def test_training_window_must_precede_horizon(self):
        with pytest.raises(ValueError):
            resolve(ExperimentConfig(preset="test1", n_steps=10, n_snapshots=10))

    def test_scale_divides_resolution(self):
        res = resolve(ExperimentConfig(preset="test1", scale=10))
        assert res.spec.n_cells == 200
        assert res.spec.n_steps == 100
        assert res.n_snapshots == 25

    def test_preset_defaults(self):
        res = resolve(ExperimentConfig(preset="test0-diffusion"))
        assert res.fixed_rank == 20 and res.epsilon is None
        res = resolve(ExperimentConfig(preset="test3"))
        assert res.epsilon == 1e-8 and res.fixed_rank is None
        assert res.spec.periodic

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            """
            # custom inviscid problem
            preset = custom
            scale = 25
            epsilon = 1e-6
            methods = lagrangian-dmd
            flux = burgers
            diffusion = none
            ic = one-plus-sin
            bc = periodic
            domain_hi = 6.283185307179586
            """
        )
        config = parse_config_file(cfg)
        assert config.preset == "custom"
        assert config.scale == 25
        assert config.methods == ("lagrangian-dmd",)
        res = resolve(config)
        assert res.spec.periodic
        assert res.epsilon == 1e-6

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            parse_config_file(cfg)


class TestRunExperiment:
    def test_emits_expected_files(self, tmp_path):
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")))
        out = Path(record.output_dir)
        expected = {
            "snapshots.csv",
            "lagrangian_positions.csv",
            "lagrangian_values.csv",
            "lagrangian-dmd_errors.csv",
            "lagrangian-dmd_modes.csv",
            "lagrangian-pod_errors.csv",
            "lagrangian-pod_modes.csv",
            "timing.json",
            "manifest.json",
            "plot.py",
        }
        assert expected <= {p.name for p in out.iterdir()}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["deterministic"] is True
        assert manifest["n_cells"] == 40
        assert manifest["environment"] == {
            "numpy": np.__version__,
            "lapack": lapack.build(),
            "blas_threads": lapack.threads(),
        }
        compile((out / "plot.py").read_text(), "plot.py", "exec")
        timing = json.loads((out / "timing.json").read_text())
        assert isinstance(timing["emit_seconds"], float) and timing["emit_seconds"] >= 0
        assert timing["emit_seconds"] == record.emit_seconds
        assert load_timing(out).emit_seconds == record.emit_seconds

    def test_record_contents(self, tmp_path):
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")), keep_states=True)
        for name in ("lagrangian-dmd", "lagrangian-pod"):
            res = record.methods[name]
            assert res.failure is None
            assert res.rank >= 1
            assert res.fit_seconds > 0 and res.rollout_seconds > 0
            assert res.report.error_observable.shape == (20,)
            assert res.states.shape == (40, 20)
        assert record.hfm_eulerian_seconds > 0
        assert record.hfm_lagrangian_seconds > 0

    def test_identical_configs_emit_identical_csvs(self, tmp_path):
        a = run_experiment(tiny_config(output_dir=str(tmp_path / "a")))
        b = run_experiment(tiny_config(output_dir=str(tmp_path / "b")))
        for name in sorted(p.name for p in Path(a.output_dir).iterdir()):
            if name.endswith(".csv"):
                assert (Path(a.output_dir) / name).read_bytes() == (Path(b.output_dir) / name).read_bytes()

    def test_validate_passes_on_emitted_run(self, tmp_path):
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")))
        checks = validate_run_dir(record.output_dir)
        assert checks, "validation produced no checks"
        failed = [c for c in checks if not c[1]]
        assert not failed, f"failed checks: {failed}"

    def test_levelset_method(self, tmp_path):
        record = run_experiment(
            tiny_config(
                preset="levelset",
                output_dir=str(tmp_path / "lvl"),
                n_cells=80,
                n_steps=40,
                n_snapshots=8,
            )
        )
        res = record.methods["levelset-dmd"]
        assert res.failure is None
        assert record.hfm_levelset_seconds > 0
        field_csv = Path(record.output_dir) / "levelset_snapshots.csv"
        first = field_csv.read_text().splitlines()[0]
        assert first.startswith("# n_x=80,n_y=")
        # The CSV is the solver's window, written before its QR overwrote
        # it: every cell reads back bit for bit (tests/test_identity.py
        # checks its bytes at --scale 10).
        resolved = resolve(ExperimentConfig(preset="levelset", n_cells=80, n_steps=40, n_snapshots=8))
        window = run_levelset_hfm(resolved.spec, resolved.n_snapshots, n_y=resolved.n_y).snapshots.data
        body = np.loadtxt(field_csv, delimiter=",", skiprows=2, ndmin=2)
        assert np.array_equal(body[:, 0], np.arange(1, 9) * resolved.spec.dt)
        assert np.array_equal(body[:, 1:], window.T)

    def test_levelset_window_is_factored_in_place(self, monkeypatch):
        # The level-set QR takes rows 1..m of its frame's window: its
        # reflectors share that memory, the frame drops its window and
        # snapshots after the fit, and the factor equals the QR of a copy of
        # the window bit for bit. The fixed-grid frame, built after it, keeps
        # its window.
        frames, factors = [], []
        factor_window = bench.reduced_svd

        class KeptFrame(bench._Frame):
            def __init__(self, *args):
                super().__init__(*args)
                frames.append((self, self.window, self.snapshots.data.copy()))

        def factor_and_keep(window):
            factors.append(factor_window(window))
            return factors[-1]

        monkeypatch.setattr(bench, "_Frame", KeptFrame)
        monkeypatch.setattr(bench, "reduced_svd", factor_and_keep)
        config = tiny_config(preset="levelset", n_cells=80, n_steps=40, n_snapshots=8)
        record = run_experiment(config, emit=False)
        assert record.methods["levelset-dmd"].failure is None
        [(level, store, window), (euler, _, _)], [factor] = frames, factors
        resolved = resolve(config)
        assert window.shape == (80 * len(levelset_grids(resolved.spec, resolved.n_y)[1]), 8)
        assert np.shares_memory(factor.reflectors, store[1:])
        assert level.window is None and level.snapshots is None
        assert euler.snapshots is not None
        copied = svd_core.reduced_svd(window)
        for ours, theirs in ((factor.reflectors, copied.reflectors), (factor.tau, copied.tau), (factor.r, copied.r)):
            assert np.array_equal(ours, theirs)

    def test_method_order_kept_while_windows_fit_in_turn(self, tmp_path, monkeypatch):
        # Each window is built before its own fits, so the fits run grouped
        # by window, in the order of each window's first method; the record,
        # the manifest and timing.json keep the listed order.
        methods = ("eulerian-pod", "lagrangian-dmd", "eulerian-dmd", "lagrangian-pod")
        fitted = []
        for name in ("fit_dmd", "fit_lagrangian_dmd", "fit_pod"):
            fit = getattr(bench, name)

            def recorded(snapshots, *args, _fit=fit, **kwargs):
                fitted.append(snapshots.n_rows)
                return _fit(snapshots, *args, **kwargs)

            monkeypatch.setattr(bench, name, recorded)
        config = ExperimentConfig(preset="test4", scale=10, methods=methods, output_dir=str(tmp_path / "out"))
        record = run_experiment(config)
        n = resolve(config).spec.n_cells
        assert fitted == [n, n, 2 * n, 2 * n]
        assert list(record.methods) == list(methods)
        assert not any(result.failure for result in record.methods.values())
        out = Path(record.output_dir)
        assert json.loads((out / "manifest.json").read_text())["methods"] == list(methods)
        assert list(json.loads((out / "timing.json").read_text())["methods"]) == list(methods)

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LAGROM_OUT_ROOT", str(tmp_path / "root"))
        record = run_experiment(tiny_config())
        assert str(tmp_path / "root") in record.output_dir

    def test_method_failure_recorded_without_aborting(self, tmp_path, monkeypatch):
        import lagrom.bench as bench_mod
        from lagrom.errors import TooFewSnapshots

        def broken_fit(*args, **kwargs):
            raise TooFewSnapshots("forced failure for the record")

        monkeypatch.setattr(bench_mod, "fit_lagrangian_dmd", broken_fit)
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")))
        assert "TooFewSnapshots" in record.methods["lagrangian-dmd"].failure
        assert record.methods["lagrangian-pod"].failure is None

    def test_nearly_defective_fit_fails_its_left_inverse_check(self):
        # test1 at --scale 20 fits two unit eigenvalues whose eigenvectors W
        # have cond(W) of about 3e14: max|W^-1 W - I| is about 8e-3.
        record = run_experiment(ExperimentConfig(preset="test1", scale=20), emit=False)
        result = record.methods["lagrangian-dmd"]
        assert result.failure == "NumericalFailure: mode pseudoinverse lost left-inverse property"
        assert record.methods["lagrangian-pod"].failure is None

    @pytest.mark.parametrize(
        "preset, scale, windows, failed",
        [
            ("test4", 10, 1, set()),
            ("test0-diffusion", 10, 1, set()),
            ("levelset", 10, 1, set()),
            # L-DMD fails its left-inverse check after its QR; L-POD reuses that QR.
            ("test1", 20, 1, {"lagrangian-dmd"}),
        ],
    )
    def test_one_factorization_per_training_window(self, preset, scale, windows, failed, monkeypatch):
        original = svd_core.reduced_svd
        factored = []

        def counted(matrix):
            factored.append(matrix)
            return original(matrix)

        for module in [m for name, m in sys.modules.items() if name == "lagrom" or name.startswith("lagrom.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        record = run_experiment(ExperimentConfig(preset=preset, scale=scale), emit=False)
        assert {method for method, result in record.methods.items() if result.failure} == failed
        assert len(factored) == windows


class TestScore:
    """The one-pass scorer against whole-array arithmetic on the same data."""

    WIDTH = 32  # columns per scoring block
    COUNT = 2 * WIDTH + 6  # a partial last block
    WINDOW = 10  # the frames' training window: the first block runs past it

    @classmethod
    def reference(cls, spec, count):
        """Reference frames over indices 0..count, fed row by row: fixed-grid
        states and a moving frame. Returns the frames and, as oracles, both
        at indices 1..count, column-major like the solvers' transposed
        time-major stores."""
        stacked = drifting_stacked(spec, count + 1)
        trajectory = np.cos(stacked[spec.n_cells :] + 0.3)
        frames = (_Frame(iter(trajectory.T), cls.WINDOW), _Frame(iter(stacked.T), cls.WINDOW))
        return frames, np.asfortranarray(trajectory[:, 1:]), np.asfortranarray(stacked[:, 1:])

    @staticmethod
    def streamed(columns, width=7):
        """The columns as a stream of blocks of a width that divides neither
        the scoring blocks nor the horizon."""
        return (columns[:, start : start + width] for start in range(0, columns.shape[1], width))

    @classmethod
    def score(cls, frames, columns, spec, model=None, keep_states=False, width=7):
        """One method's pass over ``columns`` streamed in blocks of ``width``
        and scored in blocks of WIDTH; returns (report, kept states) or
        raises the method's failure."""
        stacked = columns.shape[0] != spec.n_cells
        scorer = _Scorer(cls.streamed(columns, width), stacked, spec, cls.WIDTH, model=model, keep_states=keep_states)
        _score_all([scorer], cls.WIDTH, *frames)
        if scorer.failure is not None:
            raise scorer.failure
        return scorer.report(), scorer.states

    @staticmethod
    def perturbed(columns):
        """Column-contiguous, like the predictions and reconstructions scored in a run."""
        k = np.arange(columns.shape[1])
        return np.asfortranarray(columns + 1e-3 * np.sin(0.7 * k + np.arange(columns.shape[0])[:, None]))

    def test_tangled_column_raises_with_global_time_index(self):
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        for col in (self.WIDTH + 8, 2 * self.WIDTH + 1):
            frames, _, stacked = self.reference(spec, self.COUNT)
            observed = np.array(stacked)
            observed[[5, 6], col] = observed[[6, 5], col]
            with pytest.raises(GridEntanglement, match=f"time index {col + 1}$") as exc:
                self.score(frames, observed, spec)
            assert exc.value.time_index == col + 1

    def test_kept_states_equal_whole_array_reconstruction(self):
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        frames, states, stacked = self.reference(spec, self.COUNT)
        observed = self.perturbed(stacked)
        report, kept = self.score(frames, observed, spec, keep_states=True)
        assert kept.flags.f_contiguous
        assert np.array_equal(kept, stacked_to_grid(observed, spec.grid(), spec.bc, spec.domain_length)[2])
        assert np.array_equal(report.error_state, relative_l2(states, kept))
        frames = self.reference(spec, self.COUNT)[0]
        assert self.score(frames, observed, spec)[1] is None

    @pytest.mark.parametrize("stacked", [False, True])
    def test_observable_errors_equal_whole_array_errors(self, stacked):
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        frames, states, stacked_states = self.reference(spec, self.COUNT)
        whole = stacked_states if stacked else states
        observed = self.perturbed(whole)
        report, _ = self.score(frames, observed, spec)
        assert np.array_equal(report.error_observable, truncation_error(whole, observed))
        assert report.bound is None and report.eps_m is None

    @pytest.mark.parametrize("width", [1, WIDTH, 2 * WIDTH + 6])
    def test_row_major_stream_scores_as_its_whole_array(self, width):
        # Column norms of a row-major array sum in another order than those
        # of a column-major one; gathered blocks keep the stream's layout.
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        frames, states, _ = self.reference(spec, self.COUNT)
        observed = np.ascontiguousarray(self.perturbed(states))
        report, kept = self.score(frames, observed, spec, keep_states=True, width=width)
        assert np.array_equal(report.error_observable, truncation_error(states, observed))
        assert np.array_equal(report.error_state, relative_l2(states, observed))
        assert np.array_equal(kept, observed)

    @pytest.mark.parametrize("missing", [1, COUNT - 2 * WIDTH])  # inside the last block; all of it
    def test_stream_must_cover_the_horizon(self, missing):
        spec = make_spec(speed="burgers", n=50, m_steps=self.COUNT, bc=PERIODIC)
        frames, states, _ = self.reference(spec, self.COUNT)
        with pytest.raises(DimensionMismatch, match=f"scored {self.COUNT - missing} columns"):
            self.score(frames, np.array(states[:, missing:]), spec)

    def test_reference_blocks_are_views_of_the_solver_stores(self):
        # Blocks of 7 indices and the overlap column, each sharing one column
        # with the one before, as the scoring asks for them. Those inside the
        # training window are views of its store; later ones are views of
        # the frame's one buffer, sized by the first request past the window,
        # which keeps the shared row and pulls the rest from the solver.
        spec = make_spec(speed="burgers", diffusion=0.05, n=50, m_steps=40, bc=PERIODIC)
        euler_run, lagr_run = run_eulerian_hfm(spec, 10), run_lagrangian_hfm(spec, 10)
        frames = (
            (_Frame((step.values for step in eulerian_steps(spec)), 10), euler_run.trajectory),
            (_Frame(lagrangian_steps(spec), 10), lagr_run.stacked),
        )
        for frame, whole in frames:
            inside = frame.columns(1, 9)
            assert np.shares_memory(inside, frame.window)
            assert np.array_equal(inside, whole[:, 1:9])
            for lo, hi in ((8, 16), (15, 23), (22, 30), (29, 37), (36, 41)):
                block = frame.columns(lo, hi)
                assert np.shares_memory(block, frame.buffer) and block.flags.f_contiguous
                assert np.array_equal(block, whole[:, lo:hi])
            assert len(frame.buffer) == 8  # the first request past the window
            frame.drain()
            assert frame.rows.seconds > 0

    def test_block_width_follows_the_widest_listed_observable(self):
        # 2^16 cells: 16 columns of the full-size stacked 2N = 4000 rows, 32
        # of the fixed-grid N; one block for the whole horizon at desk size.
        spec = resolve(ExperimentConfig(preset="test4")).spec
        assert _block_width(spec, ("eulerian-dmd", "lagrangian-pod")) == 16
        assert _block_width(spec, ("eulerian-dmd", "levelset-dmd")) == 32
        assert _block_width(resolve(ExperimentConfig(preset="test4", scale=10)).spec, ("lagrangian-dmd",)) == 100

    def test_block_width_with_a_dmd_method_divides_the_lift_blocks(self):
        # --scale 4: 2^16 cells are 65 columns of the stacked 2N = 1000 rows
        # and 131 of the N = 500. With a DMD method listed a width below the
        # horizon drops to the largest divisor of LIFT_COLUMNS = 64 not above
        # it, so each DMD scoring block is a view of one lift block; a width
        # that covers the horizon stays whole.
        spec = resolve(ExperimentConfig(preset="test4", scale=4)).spec
        assert _block_width(spec, ("lagrangian-pod",)) == 65
        assert _block_width(spec, ("lagrangian-pod", "lagrangian-dmd")) == 64
        assert _block_width(spec, ("eulerian-pod",)) == 131
        assert _block_width(spec, ("eulerian-dmd",)) == 64
        assert _block_width(make_spec(n=1600, m_steps=100), ("eulerian-dmd",)) == 32  # 40 columns
        assert _block_width(make_spec(n=8, m_steps=100), ("eulerian-dmd",)) == 100

    def test_eps_m_sees_pairs_across_block_boundaries(self):
        # Linear data in the first three coordinates; the fitted projector
        # spans exactly those. A kick orthogonal to it at the first column of
        # the second block shows only in the pair that ends there, which
        # belongs to the first block alone once the blocks overlap.
        spec = make_spec(speed="const", n=6, m_steps=self.COUNT)
        data = np.zeros((6, self.COUNT + 1))
        data[:3, 0] = 1.0
        for k in range(self.COUNT):
            data[:3, k + 1] = np.array([0.99, 0.97, 0.95]) * data[:3, k]
        model = fit_dmd(data[:, 1:20], epsilon=1e-12)
        data[4, self.WIDTH + 1] = 0.5
        frames = (_Frame(iter(data.T), self.WINDOW), None)
        report, _ = self.score(frames, self.perturbed(data[:, 1:]), spec, model=model)
        assert report.eps_m == pytest.approx(0.5, rel=1e-12)
        assert report.eps_m == pytest.approx(estimate_eps_m(model, data[:, 1:]), rel=1e-12)


class TestOnePass:
    """``run_experiment`` scores every method in one pass over the solvers'
    step streams, holding only their training windows."""

    CONFIG = dict(preset="test4", scale=10)  # N = 200, M = 100, m = 25

    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        # 5 columns (of the stacked 2N = 400 rows) per scoring block, so the
        # pass runs over many blocks and the frames' buffers shift.
        monkeypatch.setattr(bench, "SCORE_BLOCK_CELLS", 2000)

    def test_failing_rollout_drops_only_its_method(self, tmp_path, monkeypatch):
        k = 70
        predictions = bench.prediction_blocks

        def fails_at_k(model, indices):
            yield from predictions(model, indices[: k - 1])
            raise NumericalFailure(f"forced failure at time index {k}", time_index=k)

        monkeypatch.setattr(bench, "prediction_blocks", fails_at_k)
        both = run_experiment(ExperimentConfig(**self.CONFIG, output_dir=str(tmp_path / "both")))
        assert both.methods["lagrangian-dmd"].failure == f"NumericalFailure: forced failure at time index {k}"
        alone = run_experiment(
            ExperimentConfig(**self.CONFIG, methods=("lagrangian-pod",), output_dir=str(tmp_path / "alone"))
        )
        assert both.methods["lagrangian-pod"].newton_iterations == alone.methods["lagrangian-pod"].newton_iterations
        written = {p.name for p in (tmp_path / "both").glob("*.csv")}
        assert "lagrangian-pod_errors.csv" in written and "lagrangian-dmd_errors.csv" not in written
        for name in written:
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name

    @pytest.mark.parametrize("module, step", [(hfm_eulerian, "eulerian_step"), (hfm_lagrangian, "lagrangian_step")])
    @pytest.mark.parametrize("k", [26, 100])  # just past the training window; the last step
    @pytest.mark.parametrize("fitted", [True, False], ids=["fitted", "no-fit"])
    def test_solver_failure_past_the_window_propagates(self, module, step, k, fitted, monkeypatch):
        # Without a fitted method the pass pulls no solver step; the rest of
        # each run still runs, and fails, before the record returns.
        original, failed = getattr(module, step), bench._failed

        def fails_at_k(*args):
            if args[-1] == k:
                raise NumericalFailure(f"forced solver failure at time index {k}", time_index=k)
            return original(*args)

        def record(method, exc):
            assert "solver" not in str(exc), f"{method} recorded the solver's failure"
            return failed(method, exc)

        def no_fit(*args, **kwargs):
            raise TooFewSnapshots("forced fit failure")

        monkeypatch.setattr(module, step, fails_at_k)
        monkeypatch.setattr(bench, "_failed", record)
        if not fitted:
            monkeypatch.setattr(bench, "fit_lagrangian_dmd", no_fit)
            monkeypatch.setattr(bench, "fit_pod", no_fit)
        with pytest.raises(NumericalFailure, match=f"forced solver failure at time index {k}") as exc:
            run_experiment(ExperimentConfig(**self.CONFIG), emit=False)
        assert exc.value.time_index == k


    def test_fixed_grid_failure_in_its_window_propagates_after_the_fits(self, monkeypatch):
        # The fixed-grid window has no fit in test4, so it is built after the
        # moving-frame fits; a solver failure inside it still propagates with
        # its time index, and is recorded as no method's.
        k = 10  # inside the 25-snapshot window
        original, fitted = hfm_eulerian.eulerian_step, []

        def fails_at_k(*args):
            if args[-1] == k:
                raise NumericalFailure(f"forced solver failure at time index {k}", time_index=k)
            return original(*args)

        for name in ("fit_lagrangian_dmd", "fit_pod"):
            fit = getattr(bench, name)

            def recorded(*args, _fit=fit, _name=name, **kwargs):
                fitted.append(_name)
                return _fit(*args, **kwargs)

            monkeypatch.setattr(bench, name, recorded)
        monkeypatch.setattr(hfm_eulerian, "eulerian_step", fails_at_k)
        monkeypatch.setattr(bench, "_failed", lambda method, exc: pytest.fail(f"{method} recorded {exc}"))
        with pytest.raises(NumericalFailure, match=f"forced solver failure at time index {k}") as exc:
            run_experiment(ExperimentConfig(**self.CONFIG), emit=False)
        assert exc.value.time_index == k
        assert fitted == ["fit_lagrangian_dmd", "fit_pod"]


def _run_peak(config):
    """What ``run_experiment(config, emit=False)`` allocates at its peak above
    the level at entry (tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run_experiment(config, emit=False)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemory:
    # One stacked-horizon array is the 2N x M float64 observable of the whole
    # horizon: 32 MB at full size.

    @pytest.fixture(scope="class")
    def full_size_test4(self):
        """Full-size test4 solver runs and the QR of their training window."""
        resolved = resolve(ExperimentConfig(preset="test4"))
        euler = run_eulerian_hfm(resolved.spec, resolved.n_snapshots)
        lagr = run_lagrangian_hfm(resolved.spec, resolved.n_snapshots)
        return resolved, euler, lagr, svd_core.reduced_svd(lagr.snapshots)

    @pytest.mark.parametrize(
        "method, fit_name", [("lagrangian-dmd", "fit_lagrangian_dmd"), ("lagrangian-pod", "fit_pod")]
    )
    def test_rollout_and_scoring_hold_no_horizon_array(self, method, fit_name, full_size_test4, monkeypatch):
        # What rolling a fitted model out and scoring it in the one pass
        # allocates above the level held after the fit, in stacked-horizon
        # arrays. The rollout streams column blocks into the scorer and each
        # reference frame reads the solver rows through one small buffer, so
        # this stays at one DMD lift block (64 columns) or the per-run POD
        # maps, plus a few scoring blocks and the two buffers. Measured: 0.15
        # (L-DMD) and 0.12 (L-POD) while the reference was views of
        # whole-horizon stores, 0.14 and 0.14 now; 1.13 and 1.21 while the whole horizon was
        # predicted or stored before it was scored. Full size, because at
        # --scale 4 one scoring block (65 columns of 1000 rows) is itself
        # 0.26 of the horizon array.
        resolved, euler_run, lagr_run, factor = full_size_test4
        stacked_horizon = 2 * resolved.spec.n_cells * resolved.spec.n_steps * 8
        # Frames fed from the collected runs: their windows are made here,
        # and their buffers count in the peak.
        euler = _Frame(iter(euler_run.trajectory.T), resolved.n_snapshots)
        lagr = _Frame(iter(lagr_run.stacked.T), resolved.n_snapshots)
        # The test holds the factor, so dropping it after the fit frees nothing.
        width = _block_width(resolved.spec, resolved.methods)
        fit, level = getattr(bench, fit_name), []

        def fit_then_mark(*args, **kwargs):
            model = fit(*args, **kwargs)
            tracemalloc.reset_peak()
            level.append(tracemalloc.get_traced_memory()[0])
            return model

        monkeypatch.setattr(bench, fit_name, fit_then_mark)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            _, scorer = bench._fit_method(method, resolved, lagr, [factor], width)
            _score_all([scorer], width, euler, lagr)
            peak = tracemalloc.get_traced_memory()[1] - level[0]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert scorer.failure is None and scorer.report().error_observable.shape == (resolved.spec.n_steps,)
        assert peak <= 0.25 * stacked_horizon, f"peak {peak / stacked_horizon:.3f} stacked-horizon arrays"

    def test_scoring_peak_stays_under_five_stacked_horizons(self):
        # At --scale 4 a scoring block is 26% of the horizon, so the methods'
        # rollout state, held side by side in the one pass, costs about what
        # the (M+1)-row solver stores (1.5 arrays) did. Measured: 2.61 with
        # the 64-column scoring blocks of a run with a DMD method, each a
        # view of one lift block; the bound leaves 4%. 2.88 with 65-column
        # blocks gathered into a buffer across two lift blocks, the
        # fixed-grid window built after the moving-frame QR is dropped, a QR
        # that copies its window once, and the POD basis halves taken as
        # views. 3.13 while the fixed-grid window was
        # built first and the QR copied the window twice; 3.46 with the
        # (M+1)-row stores (4.58 was recorded when they came in); 4.81 while
        # the rollouts held whole-horizon arrays; 5.17 while the solvers
        # copied their snapshot windows and the scorer stacked each
        # reference block.
        config = ExperimentConfig(preset="test4", scale=4)
        spec = resolve(config).spec
        stacked_horizon = 2 * spec.n_cells * spec.n_steps * 8
        peak = _run_peak(config)
        assert peak <= 2.72 * stacked_horizon, f"peak {peak / stacked_horizon:.2f} stacked-horizon arrays"

    def test_full_size_run_peaks_below_one_stacked_horizon(self):
        # The full-size (M+1)-row solver stores alone were 1.5 arrays, and a
        # run peaked at 2.01 with them. Measured: 0.70 at the QR of the
        # moving-frame window (0.25), which holds that window and one copy
        # of it, with the fixed-grid window not yet built; the bound leaves
        # 5%. 0.89 while the fixed-grid window (0.13) was built first and
        # the QR copied the moving-frame window twice.
        config = ExperimentConfig(preset="test4")
        spec = resolve(config).spec
        stacked_horizon = 2 * spec.n_cells * spec.n_steps * 8
        peak = _run_peak(config)
        assert peak <= 0.73 * stacked_horizon, f"peak {peak / stacked_horizon:.2f} stacked-horizon arrays"

    def test_levelset_run_peaks_near_one_window(self):
        # In units of the level-set training window (n_x·n_y·m float64,
        # 12.4 MB at --scale 4). Its QR overwrites the window in place, so
        # the window's memory is counted once; the frame's extra row c^0 is
        # 1/m of it. Measured: 1.52 with the solver streamed to m steps,
        # 1.58 while it ran whole; the bound leaves 5% over the latter.
        # 3.12 while the QR copied the window twice.
        config = ExperimentConfig(preset="levelset", scale=4)
        resolved = resolve(config)
        n_y = len(levelset_grids(resolved.spec, resolved.n_y)[1])
        window = resolved.spec.n_cells * n_y * resolved.n_snapshots * 8
        peak = _run_peak(config)
        assert peak <= 1.66 * window, f"peak {peak / window:.2f} windows"


class TestTimingTable:
    def test_table_rows_and_json(self, tmp_path):
        records = [
            run_experiment(tiny_config(output_dir=str(tmp_path / "t2"))),
            run_experiment(tiny_config(preset="test1", output_dir=str(tmp_path / "t1"))),
        ]
        table, data = timing_table(records)
        assert "dmd_seconds" in table and "pod_seconds" in table
        assert set(data["rank"]) == {"test2", "test1"}

    def test_row_omitted_without_method(self, tmp_path):
        record = run_experiment(
            tiny_config(methods=("lagrangian-dmd",), output_dir=str(tmp_path / "dm"))
        )
        table, data = timing_table([record])
        assert "pod_seconds" not in data

    def test_reload_from_timing_json(self, tmp_path):
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")))
        loaded = load_timing(record.output_dir)
        assert loaded.label == record.label
        assert loaded.methods["lagrangian-dmd"].rank == record.methods["lagrangian-dmd"].rank


class TestCli:
    def test_run_and_validate_and_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "test2",
                "--cells", "40",
                "--steps", "20",
                "--snapshots", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "experiment test2" in printed

        assert main(["validate", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "PASS" in shown and "FAIL" not in shown

        json_out = tmp_path / "table.json"
        assert main(["table", str(out), "--json", str(json_out)]) == 0
        assert json.loads(json_out.read_text())["rank"]["test2"] >= 1

    def test_run_requires_preset_or_config(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("solvers ran"))
        assert main(["run"]) == 2
        assert capsys.readouterr().err == "lagrom run: error: run requires a preset name or --config file\n"

    def test_run_reports_a_solver_failure_in_one_line(self, tmp_path, capsys):
        # Eight steps of test3 at --scale 10 break the fixed-grid solver's
        # CFL limit at the first step.
        code = main(["run", "test3", "--scale", "10", "--steps", "8", "--snapshots", "3", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("lagrom run: error: CflViolation: Courant number ")
        assert err.endswith("(time index 1)\n") and err.count("\n") == 1

    def test_run_rejects_epsilon_with_rank(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("solvers ran"))
        assert main(["run", "test1", "--epsilon", "1e-8", "--rank", "5"]) == 2
        assert capsys.readouterr().err == "lagrom run: error: --epsilon and --rank are mutually exclusive\n"

    def test_run_rejects_training_window_past_horizon(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("solvers ran"))
        assert main(["run", "test1", "--steps", "20", "--snapshots", "30"]) == 2
        err = capsys.readouterr().err
        assert err == "lagrom run: error: training snapshots m = 30 must be fewer than steps M = 20\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "2"], "epsilon 2 must lie in (0, 1)"),
            (["--epsilon", "0"], "epsilon 0 must lie in (0, 1)"),
            (["--rank", "0"], "fixed_rank 0 must be at least 1"),
            (["--config", "both.cfg"], "provide exactly one of epsilon or fixed_rank"),
        ],
    )
    def test_run_rejects_bad_rank_rule_before_solving(self, flags, message, tmp_path, monkeypatch, capsys):
        (tmp_path / "both.cfg").write_text("preset = test4\nepsilon = 1e-8\nfixed_rank = 5\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("solvers ran"))
        assert main(["run", "test4", "--scale", "20", *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"lagrom run: error: {message}\n"

    def test_run_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            "preset = test1\nn_cells = 40\nn_steps = 20\nn_snapshots = 5\n"
            f"output_dir = {out}\nmethods = lagrangian-dmd\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert "experiment test1" in capsys.readouterr().out
        assert (out / "timing.json").exists()

    def test_validate_flags_corruption(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "test1", "--cells", "40", "--steps", "20", "--snapshots", "5", "--out", str(out)])
        capsys.readouterr()
        errors = out / "lagrangian-dmd_errors.csv"
        lines = errors.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[4] = "0.0"  # force a bound below the recorded error
        lines[-1] = ",".join(parts)
        original = errors.read_bytes()
        errors.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

        errors.write_bytes(original)
        timing_path = out / "timing.json"
        timing = json.loads(timing_path.read_text())
        for bad in (-1.0, None, "0.5", True):
            timing["emit_seconds"] = bad
            timing_path.write_text(json.dumps(timing))
            assert main(["validate", str(out)]) == 1
            failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
            assert len(failed) == 1 and "emit_seconds" in failed[0], failed

    @pytest.mark.parametrize("cell", ["abc", "nan", ""])
    def test_validate_flags_a_non_numeric_snapshot_cell(self, cell, tmp_path):
        # A cell that is not a number fails the finiteness check alone, as a
        # reported check and not a traceback.
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")))
        snapshots = Path(record.output_dir) / "snapshots.csv"
        lines = snapshots.read_text().splitlines()
        parts = lines[3].split(",")
        parts[7] = cell
        lines[3] = ",".join(parts)
        snapshots.write_text("\n".join(lines) + "\n")
        failed = [check for check in validate_run_dir(record.output_dir) if not check[1]]
        assert [check[0] for check in failed] == ["snapshots finite"], failed

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda env: env.update(blas_threads=0),
            lambda env: env.update(blas_threads="1"),
            lambda env: env.update(blas_threads=True),
            lambda env: env.update(lapack=""),
            lambda env: env.pop("numpy"),
            lambda env: env.clear(),
        ],
        ids=["zero-threads", "threads-as-text", "threads-as-bool", "blank-lapack", "no-numpy", "empty"],
    )
    def test_validate_flags_a_corrupt_environment(self, corrupt, tmp_path):
        # A manifest environment that does not name the numpy version, the
        # OpenBLAS build and a positive thread count fails its check alone.
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")))
        path = Path(record.output_dir) / "manifest.json"
        manifest = json.loads(path.read_text())
        corrupt(manifest["environment"])
        path.write_text(json.dumps(manifest))
        failed = [check[0] for check in validate_run_dir(record.output_dir) if not check[1]]
        assert failed == ["manifest environment"]

    def test_validate_flags_an_error_above_its_bound(self, tmp_path):
        # An observable error past its bound fails the domination check
        # alone (ErrorReport.bound_is_valid); the bound stays affine.
        record = run_experiment(tiny_config(output_dir=str(tmp_path / "out")))
        errors = Path(record.output_dir) / "lagrangian-dmd_errors.csv"
        lines = errors.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[3] = repr(2 * float(parts[4]) + 1.0)
        lines[-1] = ",".join(parts)
        errors.write_text("\n".join(lines) + "\n")
        failed = [check[0] for check in validate_run_dir(record.output_dir) if not check[1]]
        assert failed == ["lagrangian-dmd bound dominates error"]
