"""The block number formatter against its oracle, one ``NUMBER_FORMAT % v``
per cell, and the CSV writers against the per-row loops they replaced."""

import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lagrom import core
from lagrom.core import NUMBER_FORMAT, write_number_table
from lagrom.dmd_rom import fit_dmd, fit_lagrangian_dmd, save_dmd_model
from lagrom.levelset import levelset_dmd, run_levelset_hfm
from lagrom.presets import ExperimentConfig, resolve
from lagrom.hfm_eulerian import run_eulerian_hfm
from lagrom.hfm_lagrangian import run_lagrangian_hfm
from lagrom.rundir import RunDirectory, mode_columns, snapshot_names


def reference_table(table) -> bytes:
    """The oracle: a ``%`` per cell, joined with commas, a newline per row."""
    return "".join(",".join(NUMBER_FORMAT % v for v in row) + "\n" for row in table).encode()


def formatted(*columns) -> bytes:
    fh = io.BytesIO()
    write_number_table(fh, *columns)
    return fh.getvalue()


def assert_cells_match(values):
    """One value per row, compared line by line to name the values that differ."""
    values = np.asarray(values, dtype=float).ravel()
    got = formatted(values).decode().split("\n")
    want = [NUMBER_FORMAT % v for v in values.tolist()] + [""]
    assert len(got) == len(want)
    if got != want:
        wrong = [(repr(v), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(wrong)} cells differ, first: {wrong[:5]}")


# Doubles x whose scaled value S = x * 10**k (k = 16 - floor(log10 x), here
# 25 to 321) lies within 5e-17 of a rounding half. A two-dimensional lattice
# search found them: x = M * 2**e with M * 5**k mod 2**n close to 2**(n - 1),
# n = -(e + k). For k > 22 the scaled product carries rounding error of
# about 1e-15, so only the near-tie fallback rounds them right.
NEAR_HALVES = [
    "0x1.55d224bfed7adp-28",
    "0x1.fc6d66042d10dp-61",
    "0x1.6e6f47a5457b6p-107",
    "0x1.5eb49662d0f36p-172",
    "0x1.70e319a5b4517p-233",
    "0x1.d3000353f2295p-298",
    "0x1.b8b0aa9ba54bcp-325",
    "0x1.89a2d9a91b976p-374",
    "0x1.14ea0793fafd2p-445",
    "0x1.b8be32187c592p-481",
    "0x1.b039030134dbcp-529",
    "0x1.4e96b0558c450p-582",
    "0x1.3e07d2c0cb1e9p-654",
    "0x1.88a4036fa081dp-691",
    "0x1.93360a1a0b62dp-744",
    "0x1.41b148d95c771p-796",
    "0x1.b3707abe12c45p-850",
    "0x1.20dff66ca3755p-901",
    "0x1.edf89ca7b101bp-955",
    "0x1.776c55ed95759p-1012",
]


def awkward_values(rng, shape):
    """Gaussian tails from 1e-300 to 1e20 mixed with zeros, -0.0, subnormals,
    values of at least 1e17, values next to a rounding half, and nan/inf."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 20, shape)
    flat = values.reshape(-1)
    picks = rng.permutation(flat.size)
    share = max(1, flat.size // 12)
    groups = np.array_split(picks[: 7 * share], 7)
    flat[groups[0]] = 0.0
    flat[groups[1]] = -0.0
    flat[groups[2]] = rng.integers(1, 2**52, groups[2].size) * 5e-324 * rng.choice([-1.0, 1.0], groups[2].size)
    flat[groups[3]] = rng.uniform(1.0, 1e3, groups[3].size) * 10.0 ** rng.integers(17, 305, groups[3].size)
    flat[groups[4]] = rng.uniform(-1, 1, groups[4].size) * 10.0 ** rng.integers(-8, 3, groups[4].size)
    near = np.array([float.fromhex(h) for h in NEAR_HALVES])
    flat[groups[5]] = rng.choice(np.concatenate([near, -near]), groups[5].size)
    specials = groups[6][:3]
    flat[specials] = np.array([np.nan, np.inf, -np.inf])[: specials.size]
    return values


def awkward_complex(rng, shape):
    values = np.empty(shape, dtype=complex)
    values.real, values.imag = awkward_values(rng, shape), awkward_values(rng, shape)
    return values



class TestFormatterOracle:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12), elements=st.floats()))
    def test_any_table_of_floats(self, table):
        assert formatted(table) == reference_table(table)

    def test_powers_of_ten_and_neighbours(self):
        values = []
        for j in range(-323, 309):
            power = float(f"1e{j}")
            values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        values = np.array(values)
        assert_cells_match(np.concatenate([values, -values]))

    def test_exact_half_way_values(self):
        ties = (2.0**17 + 2.0 * np.arange(2**16) + 1.0) / 2.0**17
        assert_cells_match(ties)
        odd = np.array([1, 3, 5, 7, 9, 11, 25, 12345, 2**52 + 1, 2**53 - 1], dtype=float)
        exponents = np.arange(-1074, 60)
        assert_cells_match((odd[:, None] * 2.0 ** exponents[None, :].astype(float)).ravel())

    def test_values_next_to_a_rounding_half(self):
        values = np.array([float.fromhex(h) for h in NEAR_HALVES])
        for v in values.tolist():
            scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
            assert 10**16 <= scaled < 10**17
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(5, 10**17)
        assert_cells_match(np.concatenate([values, -values]))

    def test_neighbours_of_1e16_and_1e17(self):
        values = []
        for edge in (1e16, 1e17):
            below = above = edge
            values.append(edge)
            for _ in range(40):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                values += [below, above]
        assert_cells_match(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20101)
        assert_cells_match(rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64))

    def test_special_values(self):
        extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        assert_cells_match([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf] + extremes + [-v for v in extremes])

    @pytest.mark.parametrize(
        "shape",
        [
            (1, 1),
            (1, 37),
            (37, 1),
            (0, 5),
            (2, core._BLOCK_CELLS + 3),  # a row longer than one block
            (5, core._COMPACT_CELLS + 1),  # a row longer than a compaction step
            (2 * core._BLOCK_CELLS // 7 + 3, 7),  # a cell count off the block size
        ],
    )
    def test_table_shapes(self, shape):
        table = awkward_values(np.random.default_rng(sum(shape)), shape)
        assert formatted(table) == reference_table(table)

    def test_columns_are_joined_side_by_side(self):
        rng = np.random.default_rng(3)
        first, rest = rng.standard_normal(9), awkward_values(rng, (9, 4))
        assert formatted(first, rest) == reference_table(np.column_stack([first, rest]))

    def test_rows_without_columns(self):
        assert formatted(np.empty((3, 0))) == b"\n\n\n"


def reference_format_row(values) -> str:
    return ",".join([NUMBER_FORMAT] * len(values)) % tuple(values)


def reference_snapshot_csv(path, times_dt, data, preamble=None):
    """The snapshot writer as it was: one ``format_row`` per time."""
    n = data.shape[0]
    header = "t," + ",".join(f"x_{j + 1}" for j in range(n))
    with open(path, "w") as fh:
        if preamble:
            fh.write(preamble + "\n")
        fh.write(header + "\n")
        for k in range(data.shape[1]):
            fh.write(f"{NUMBER_FORMAT % times_dt[k]},{reference_format_row(data[:, k])}\n")


def reference_modes_csv(path, coords, modes):
    names, cols = ["coord"], [coords]
    for j in range(modes.shape[1]):
        names += [f"mode{j + 1}_re", f"mode{j + 1}_im"]
        cols += [np.real(modes[:, j]), np.imag(modes[:, j])]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in np.column_stack(cols):
            fh.write(reference_format_row(row) + "\n")


def reference_save_dmd_model(model, path):
    blocks = (
        ("eigenvalues", model.eigenvalues[None, :]),
        ("eigenvectors", model.eigenvectors),
        ("projector", model.projector),
        ("reduced_operator", model.reduced_operator),
        ("projected_anchor", model.projected_anchor[None, :]),
    )
    with open(path, "w") as fh:
        fh.write(
            "lagrom-dmd-v2\n"
            f"kind={model.observable_kind}\n"
            f"base_time_index={model.base_time_index}\n"
            f"training_count={model.training_count}\n"
            f"rank={model.rank}\n"
            f"rows={model.n_rows}\n"
            f"train_residual={NUMBER_FORMAT % model.train_residual}\n"
            f"real_input={int(model.real_input)}\n"
            f"requested_rank={'' if model.requested_rank is None else model.requested_rank}\n"
        )
        for name, matrix in blocks:
            matrix = np.asarray(matrix, dtype=complex)
            for part, values in (("re", matrix.real), ("im", matrix.imag)):
                fh.write(f"[{name}_{part}]\n")
                for row in values:
                    fh.write(reference_format_row(row) + "\n")


def write_modes_csv(path, coords, modes):
    """A modes CSV as ``rundir.write_run`` writes it."""
    names, cols = mode_columns(coords, modes)
    RunDirectory(path.parent).table(path.name, names, *cols)


def assert_same_file(tmp_path, write, reference):
    """``write`` and ``reference`` each take the path to write."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(new)
    reference(old)
    assert new.read_bytes() == old.read_bytes()


class TestWritersByteIdentity:
    @pytest.mark.parametrize("preamble", [None, "# n_x=7,n_y=5,order=column-major"])
    def test_snapshot_csv(self, tmp_path, preamble):
        rng = np.random.default_rng(41)
        data = awkward_values(rng, (300, 40))
        times = np.arange(1, 41) * 0.025
        assert_same_file(
            tmp_path,
            lambda path: RunDirectory(path.parent).table(
                path.name, snapshot_names(len(data)), times, data.T, preamble=preamble
            ),
            lambda path: reference_snapshot_csv(path, times, data, preamble),
        )

    def test_modes_csv_with_complex_modes(self, tmp_path):
        rng = np.random.default_rng(42)
        modes = awkward_complex(rng, (250, 3))
        coords = np.linspace(0.0, 2.0 * np.pi, 250)
        assert_same_file(
            tmp_path,
            lambda path: write_modes_csv(path, coords, modes),
            lambda path: reference_modes_csv(path, coords, modes),
        )

    def test_modes_csv_with_real_modes(self, tmp_path):
        modes, coords = awkward_values(np.random.default_rng(43), (120, 2)), np.arange(120, dtype=float)
        assert_same_file(
            tmp_path,
            lambda path: write_modes_csv(path, coords, modes),
            lambda path: reference_modes_csv(path, coords, modes),
        )

    def test_saved_model_with_awkward_factors(self, tmp_path):
        rng = np.random.default_rng(44)
        model = fit_dmd(rng.standard_normal((30, 4)) @ rng.standard_normal((4, 12)), epsilon=1e-10)

        model = dataclasses.replace(
            model,
            eigenvalues=awkward_complex(rng, model.eigenvalues.shape),
            eigenvectors=awkward_complex(rng, model.eigenvectors.shape),
            projector=awkward_values(rng, model.projector.shape),
            reduced_operator=awkward_values(rng, model.reduced_operator.shape),
            projected_anchor=awkward_values(rng, model.projected_anchor.shape),
            train_residual=1.2345678901234567e-300,
        )
        assert_same_file(
            tmp_path, lambda path: save_dmd_model(model, path), lambda path: reference_save_dmd_model(model, path)
        )

    @pytest.mark.parametrize("frame", ["eulerian", "lagrangian", "levelset"])
    def test_saved_fitted_models(self, tmp_path, frame):
        preset = "levelset" if frame == "levelset" else "test4"
        resolved = resolve(ExperimentConfig(preset=preset, scale=20))
        spec, m = resolved.spec, resolved.n_snapshots
        if frame == "eulerian":
            model = fit_dmd(run_eulerian_hfm(spec, m).snapshots, epsilon=resolved.epsilon)
        elif frame == "lagrangian":
            model = fit_lagrangian_dmd(run_lagrangian_hfm(spec, m).snapshots, epsilon=resolved.epsilon)
        else:
            model = levelset_dmd(run_levelset_hfm(spec, m, n_y=resolved.n_y).snapshots, epsilon=resolved.epsilon)
        assert_same_file(
            tmp_path, lambda path: save_dmd_model(model, path), lambda path: reference_save_dmd_model(model, path)
        )
