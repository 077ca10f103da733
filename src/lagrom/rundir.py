"""The run directory: the record ``bench.run_experiment`` fills, the files it
writes from that record, and how they are read back and checked.

All numeric output is full double precision so reruns diff bit-identically.
Every number in a CSV reads exactly as ``core.NUMBER_FORMAT`` (``%.17g``)
prints it. One header-and-table writer, ``RunDirectory.table`` over
``core.write_number_table``, writes every table in numpy blocks; only the
error CSV, whose state and bound cells may be blank, formats cell by cell:

* ``snapshots.csv``          training states, header ``t,x_1..x_N``, one row per time
* ``lagrangian_positions.csv`` / ``lagrangian_values.csv`` paired moving-frame data
* ``levelset_snapshots.csv`` flattened level-set fields, the snapshot schema after
                             a ``# n_x=..,n_y=..,order=column-major`` line
* ``<method>_errors.csv``    columns n, t, error_state, error_observable, bound;
                             error_state is the relative L2 state error on the
                             reference grid, error_observable the absolute
                             2-norm error of the method's observable vector
* ``<method>_modes.csv``     leading three fitted modes (real and imaginary parts)
* ``timing.json``            wall-clock seconds per phase (``TIMING_FIELDS``), including
                             ``emit_seconds`` for writing the CSVs (excluded from determinism)
* ``manifest.json``          resolved configuration, the environment the run computed
                             in (numpy version, the OpenBLAS build that ran LAPACK
                             and its thread count) and the files this run wrote
* ``plot.py``                standalone matplotlib script rendering the figures
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import lapack
from .core import NUMBER_FORMAT, ProblemSpec, split_stacked, write_number_table
from .error_analysis import ErrorReport

OUTPUT_ROOT_ENV = "LAGROM_OUT_ROOT"


@dataclass
class MethodResult:
    """Outcome of one reduced-model method inside an experiment."""

    method: str
    rank: Optional[int] = None
    fit_seconds: Optional[float] = None
    rollout_seconds: Optional[float] = None
    newton_iterations: Optional[List[int]] = None
    failure: Optional[str] = None
    report: Optional[ErrorReport] = None
    states: Optional[np.ndarray] = None
    modes: Optional[np.ndarray] = None

    @property
    def total_seconds(self) -> Optional[float]:
        if self.fit_seconds is None or self.rollout_seconds is None:
            return None
        return self.fit_seconds + self.rollout_seconds


@dataclass
class RunRecord:
    """Everything measured during one experiment."""

    label: str
    description: str
    n_cells: int
    n_steps: int
    n_snapshots: int
    epsilon: Optional[float]
    fixed_rank: Optional[int]
    hfm_eulerian_seconds: float = 0.0
    hfm_lagrangian_seconds: Optional[float] = None
    hfm_levelset_seconds: Optional[float] = None
    emit_seconds: Optional[float] = None
    methods: Dict[str, MethodResult] = field(default_factory=dict)
    output_dir: Optional[str] = None


# timing.json, in key order: the record's fields, then per method these
# MethodResult attributes, then the label. ``load_timing`` reads the same lists.
TIMING_FIELDS = ("hfm_eulerian_seconds", "hfm_lagrangian_seconds", "hfm_levelset_seconds", "emit_seconds")
METHOD_TIMING_FIELDS = ("rank", "fit_seconds", "rollout_seconds", "total_seconds", "failure")


def default_output_dir(label: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return Path(root) / label


def snapshot_names(n_rows: int) -> List[str]:
    """The snapshot header: ``t`` and one ``x_j`` per state row."""
    return ["t"] + [f"x_{j + 1}" for j in range(n_rows)]


def mode_columns(coords, modes):
    """A modes CSV's header and columns: ``coord``, then the real and
    imaginary parts of each mode."""
    names, cols = ["coord"], [coords]
    for j in range(modes.shape[1]):
        names += [f"mode{j + 1}_re", f"mode{j + 1}_im"]
        cols += [np.real(modes[:, j]), np.imag(modes[:, j])]
    return names, cols


def write_error_csv(report: ErrorReport, path) -> None:
    """Columns: n, t, error_state, error_observable, bound (blank where absent)."""
    with open(path, "w") as fh:
        fh.write("n,t,error_state,error_observable,bound\n")
        for i, n in enumerate(report.times):
            state = "" if report.error_state is None else NUMBER_FORMAT % report.error_state[i]
            bound = ""
            if report.bound is not None and not np.isnan(report.bound[i]):
                bound = NUMBER_FORMAT % report.bound[i]
            t, err = NUMBER_FORMAT % report.t_values[i], NUMBER_FORMAT % report.error_observable[i]
            fh.write(f"{int(n)},{t},{state},{err},{bound}\n")


class RunDirectory:
    """One run's output directory. ``files`` names the CSVs this run wrote,
    in order, and ``seconds`` adds up the time spent writing them."""

    def __init__(self, path):
        self.path = Path(path)
        self.files: List[str] = []
        self.seconds = 0.0

    @contextmanager
    def writing(self, name):
        """Yields the path of the file ``name``; once written, it is listed and timed."""
        started = time.perf_counter()
        self.path.mkdir(parents=True, exist_ok=True)
        yield self.path / name
        self.files.append(name)
        self.seconds += time.perf_counter() - started

    def table(self, name: str, names, *columns, preamble: Optional[str] = None) -> None:
        """Write the CSV ``name``: the ``preamble`` line if given, the header
        ``names``, then ``columns`` side by side (``core.write_number_table``)."""
        with self.writing(name) as path, open(path, "wb") as fh:
            if preamble:
                fh.write((preamble + "\n").encode())
            fh.write((",".join(names) + "\n").encode())
            write_number_table(fh, *columns)


def write_run(out: RunDirectory, spec: ProblemSpec, record: RunRecord, snapshots, stacked) -> None:
    """Write the run directory of ``record``: the fixed-grid training window
    ``snapshots`` and the moving-frame one ``stacked`` (when the run has one),
    each method's errors and modes, then timing.json, manifest.json and
    plot.py. ``record.emit_seconds`` becomes the seconds ``out`` spent
    writing CSVs, the level-set one included."""
    times = np.arange(1, record.n_snapshots + 1) * spec.dt
    windows = {"snapshots.csv": snapshots.data}
    if stacked is not None:
        windows["lagrangian_positions.csv"], windows["lagrangian_values.csv"] = split_stacked(stacked)
    for name, data in windows.items():
        out.table(name, snapshot_names(len(data)), times, data.T)
    nodes = spec.grid().nodes
    for name, result in record.methods.items():
        if result.report is not None:
            with out.writing(f"{name}_errors.csv") as path:
                write_error_csv(result.report, path)
        if result.modes is not None:
            coords = nodes if len(result.modes) == nodes.size else np.arange(len(result.modes), dtype=float)
            names, cols = mode_columns(coords, result.modes)
            out.table(f"{name}_modes.csv", names, *cols)
    record.emit_seconds = out.seconds

    timing = {name: getattr(record, name) for name in TIMING_FIELDS}
    timing["methods"] = {
        name: {key: getattr(res, key) for key in METHOD_TIMING_FIELDS} for name, res in record.methods.items()
    }
    timing["label"] = record.label
    with open(out.path / "timing.json", "w") as fh:
        json.dump(timing, fh, indent=2)

    manifest = {
        "label": record.label,
        "description": record.description,
        "deterministic": True,
        "n_cells": record.n_cells,
        "n_steps": record.n_steps,
        "n_snapshots": record.n_snapshots,
        "epsilon": record.epsilon,
        "fixed_rank": record.fixed_rank,
        "dt": spec.dt,
        "dx": spec.dx,
        "bc": spec.bc,
        "methods": list(record.methods),
        # The CSVs reproduce bit for bit only under the same BLAS build and thread count.
        "environment": {"numpy": np.__version__, "lapack": lapack.build(), "blas_threads": lapack.threads()},
        "figures": {
            "profiles": "solution profiles from snapshots.csv and method states",
            "errors": "error curves and bounds from <method>_errors.csv",
            "modes": "leading mode shapes from <method>_modes.csv",
            "cost": "wall-clock comparison from timing.json",
        },
        "files": sorted(out.files) + ["timing.json", "manifest.json", "plot.py"],
    }
    with open(out.path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    (out.path / "plot.py").write_text(_PLOT_TEMPLATE)


_PLOT_TEMPLATE = '''"""Render the emitted CSVs of this run directory (requires matplotlib)."""
import csv
import json
from pathlib import Path

import matplotlib.pyplot as plt

HERE = Path(__file__).parent
manifest = json.loads((HERE / "manifest.json").read_text())


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: [float(r[i]) if r[i] else float("nan") for r in body] for i, name in enumerate(header)}
    return cols


snap = read_csv(HERE / "snapshots.csv")
xs = list(range(len(snap) - 1))
fig, ax = plt.subplots()
times = snap["t"]
for pick in {0, len(times) // 2, len(times) - 1}:
    profile = [snap[f"x_{j + 1}"][pick] for j in xs]
    ax.plot(profile, label=f"t = {times[pick]:.3f}")
ax.set_title(f"{manifest['label']}: training profiles")
ax.legend()
fig.savefig(HERE / "profiles.png", dpi=150)

fig, ax = plt.subplots()
for name in manifest["methods"]:
    path = HERE / f"{name}_errors.csv"
    if not path.exists():
        continue
    err = read_csv(path)
    ax.semilogy(err["t"], err["error_observable"], label=f"{name} error")
    if any(b == b for b in err["bound"]):
        ax.semilogy(err["t"], err["bound"], "--", label=f"{name} bound")
ax.set_title(f"{manifest['label']}: errors")
ax.set_xlabel("t")
ax.legend()
fig.savefig(HERE / "errors.png", dpi=150)

fig, ax = plt.subplots()
for name in manifest["methods"]:
    path = HERE / f"{name}_modes.csv"
    if not path.exists():
        continue
    modes = read_csv(path)
    for key in modes:
        if key.endswith("_re"):
            ax.plot(modes["coord"], modes[key], label=f"{name} {key}")
ax.set_title(f"{manifest['label']}: leading modes")
ax.legend(fontsize=6)
fig.savefig(HERE / "modes.png", dpi=150)
print("wrote profiles.png, errors.png, modes.png")
'''


def load_timing(run_dir) -> RunRecord:
    """Rebuild a minimal record from an emitted timing.json."""
    with open(Path(run_dir) / "timing.json") as fh:
        payload = json.load(fh)
    # timing.json holds no description, sizes or rank rule
    record = RunRecord(payload.get("label", Path(run_dir).name), "", 0, 0, 0, None, None, output_dir=str(run_dir))
    for name in TIMING_FIELDS:
        if name in payload:
            setattr(record, name, payload[name])
    for name, info in payload.get("methods", {}).items():
        # total_seconds is derived from the fit and rollout seconds
        fields = {key: info.get(key) for key in METHOD_TIMING_FIELDS if key != "total_seconds"}
        record.methods[name] = MethodResult(method=name, **fields)
    return record


def timing_table(records: List[RunRecord]):
    """Cost summary across experiments: one column per run, fixed row set."""
    if not records:
        raise ValueError("need at least one record")
    labels = [r.label for r in records]

    def method_total(record, suffix):
        for name, res in record.methods.items():
            if name.endswith(suffix) and res.total_seconds is not None:
                return res.total_seconds
        return None

    def method_rank(record):
        for res in record.methods.values():
            if res.rank is not None:
                return res.rank
        return None

    rows = [
        ("rank", [method_rank(r) for r in records]),
        ("dmd_seconds", [method_total(r, "-dmd") for r in records]),
        ("pod_seconds", [method_total(r, "-pod") for r in records]),
        ("eulerian_hfm_seconds", [r.hfm_eulerian_seconds for r in records]),
        ("lagrangian_hfm_seconds", [r.hfm_lagrangian_seconds for r in records]),
    ]
    rows = [(name, vals) for name, vals in rows if any(v is not None for v in vals)]

    width = max(12, *(len(lbl) for lbl in labels)) + 2
    name_w = max(len(name) for name, _ in rows) + 2
    lines = [" " * name_w + "".join(lbl.rjust(width) for lbl in labels)]
    for name, vals in rows:
        cells = []
        for v in vals:
            if v is None:
                cells.append("-".rjust(width))
            elif name == "rank":
                cells.append(str(v).rjust(width))
            else:
                cells.append(f"{v:.6f}".rjust(width))
        lines.append(name.ljust(name_w) + "".join(cells))
    table = "\n".join(lines)
    data = {name: {lbl: vals[i] for i, lbl in enumerate(labels)} for name, vals in rows}
    return table, data


def validate_run_dir(run_dir) -> List[tuple]:
    """Re-check invariants on the emitted files; returns (check, ok, detail) rows."""
    run_dir = Path(run_dir)
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        add("manifest exists", False, "manifest.json missing")
        return checks
    manifest = json.loads(manifest_path.read_text())
    add("manifest exists", True)
    add("deterministic flag", manifest.get("deterministic") is True)
    env = manifest.get("environment")
    env = env if isinstance(env, dict) else {}
    threads = env.get("blas_threads")
    add(
        "manifest environment",
        all(isinstance(env.get(key), str) and env[key] for key in ("numpy", "lapack"))
        and isinstance(threads, int)
        and not isinstance(threads, bool)
        and threads >= 1,
        f"environment {manifest.get('environment')!r}",
    )

    snap_path = run_dir / "snapshots.csv"
    if snap_path.exists():
        # loadtxt, not genfromtxt: a tenth of genfromtxt's transient memory
        # on the full-size table, which validation would otherwise peak at.
        # It rejects a cell that is not a number, where genfromtxt read nan.
        try:
            body = np.loadtxt(snap_path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            add("snapshots finite", False, f"unreadable: {exc}")
        else:
            add("snapshots finite", np.all(np.isfinite(body)))
            add(
                "snapshot width matches n_cells",
                body.shape[1] == manifest["n_cells"] + 1,
                f"{body.shape[1] - 1} columns vs n_cells {manifest['n_cells']}",
            )
            add("snapshot times increasing", np.all(np.diff(body[:, 0]) > 0) if body.shape[0] > 1 else True)
    else:
        add("snapshots exist", False)

    for name in manifest.get("methods", []):
        err_path = run_dir / f"{name}_errors.csv"
        if not err_path.exists():
            continue
        raw = np.genfromtxt(err_path, delimiter=",", skip_header=1, filling_values=np.nan)
        n_idx, t, state, err_obs, bound = np.atleast_2d(raw).T
        add(f"{name} errors nonnegative", np.all(err_obs[~np.isnan(err_obs)] >= 0))
        has_bound = ~np.isnan(bound)
        if np.any(has_bound):
            report = ErrorReport(n_idx, t, state, err_obs, bound=bound)
            add(f"{name} bound dominates error", report.bound_is_valid())
            idx = n_idx[has_bound]
            b = bound[has_bound]
            if idx.size >= 3:
                slopes = np.diff(b) / np.diff(idx)
                affine = np.allclose(slopes, slopes[0], rtol=1e-8, atol=1e-12)
                add(f"{name} bound affine", affine)

    timing_path = run_dir / "timing.json"
    add("timing exists", timing_path.exists())
    if timing_path.exists():
        payload = json.loads(timing_path.read_text())
        add("timing label matches", payload.get("label") == manifest.get("label"))
        emit = payload.get("emit_seconds")
        add(
            "timing emit_seconds nonnegative",
            isinstance(emit, (int, float)) and not isinstance(emit, bool) and emit >= 0,
            f"emit_seconds {emit!r}",
        )
    return checks
