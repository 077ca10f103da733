"""Identity manifest of what the seven presets write at ``--scale 10``.

    python tests/identity_manifest.py                # run and compare
    python tests/identity_manifest.py --out DIR      # run into DIR and compare
    python tests/identity_manifest.py --write        # run and store the manifest

Runs ``lagrom run <preset> --scale 10`` for every preset with one BLAS
thread and summarises the run directories:

* the solver CSVs (``snapshots.csv``, ``lagrangian_positions.csv``,
  ``lagrangian_values.csv``, ``levelset_snapshots.csv``) by sha256, so a
  one-ulp change to one cell shows;
* every ``*_errors.csv`` and ``*_modes.csv`` by its header, its row count
  and, per column, its blank cells, its scale max|v|, its 2-norm, its sum and
  its values at up to ``SAMPLES`` evenly spaced rows. These compare within
  ``TOLERANCE`` times the column's scale: for the norm also times the square
  root of the row count, for the sum times the row count;
* each method's rank from ``timing.json``, exactly.

A mismatched column is reported with what failed first and with its worst
sampled difference in units of its stored scale, so the size of a move is
read from this script's output.

The stored manifest is ``tests/data/identity_scale10.json``. A change that
moves these outputs on purpose regenerates it with ``--write`` and says why.
Rounding-noise columns, such as the errors of the exact-transport presets
test1 and test3, move with any change of rounding order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("data") / "identity_scale10.json"
PRESETS = ("test0-diffusion", "test0-advection", "test1", "test2", "test3", "test4", "levelset")
SOLVER_FILES = ("snapshots.csv", "lagrangian_positions.csv", "lagrangian_values.csv", "levelset_snapshots.csv")
SAMPLES = 20
TOLERANCE = 1e-9


def run_presets(out_root: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from lagrom.cli import main

    for preset in PRESETS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", preset, "--scale", "10", "--out", str(out_root / preset)])
        if code:
            raise SystemExit(f"lagrom run {preset} exited with {code}")


def _column(values: np.ndarray) -> dict:
    finite = values[~np.isnan(values)]
    rows = np.unique(np.linspace(0, values.size - 1, SAMPLES).round().astype(int))
    return {
        "blank": int(values.size - finite.size),
        "scale": float(np.max(np.abs(finite), initial=0.0)),
        "norm": float(np.linalg.norm(finite)),
        "sum": float(np.sum(finite)),
        "samples": [None if np.isnan(values[i]) else float(values[i]) for i in rows],
    }


def summarize(out_root: Path) -> dict:
    summary = {"ranks": {}, "sha256": {}, "tables": {}}
    for preset in PRESETS:
        run_dir = out_root / preset
        timing = json.loads((run_dir / "timing.json").read_text())
        for method, info in timing["methods"].items():
            summary["ranks"][f"{preset}/{method}"] = info["rank"]
        for path in sorted(run_dir.glob("*.csv")):
            key = f"{preset}/{path.name}"
            if path.name in SOLVER_FILES:
                summary["sha256"][key] = hashlib.sha256(path.read_bytes()).hexdigest()
                continue
            header, *lines = path.read_text().splitlines()
            table = np.array([[float(cell) if cell else np.nan for cell in line.split(",")] for line in lines])
            summary["tables"][key] = {
                "header": header.split(","),
                "rows": len(lines),
                "columns": [_column(table[:, j]) for j in range(table.shape[1])],
            }
    return summary


def _column_mismatch(want: dict, got: dict, rows: int) -> str:
    tol = TOLERANCE * want["scale"]
    if want["blank"] != got["blank"]:
        return f"{got['blank']} blank cells, stored {want['blank']}"
    count = rows - want["blank"]
    checks = (("scale", tol), ("norm", tol * np.sqrt(count)), ("sum", tol * count))
    for name, allowed in checks:
        if not abs(got[name] - want[name]) <= allowed:
            return f"{name} {got[name]!r}, stored {want[name]!r}"
    for i, (w, g) in enumerate(zip(want["samples"], got["samples"])):
        if (w is None) != (g is None) or (w is not None and not abs(g - w) <= tol):
            return f"sample {i} {g!r}, stored {w!r}"
    return ""


def _worst_sample(want: dict, got: dict) -> str:
    """The largest difference among the sampled rows, in units of the stored
    column scale."""
    diffs = [abs(g - w) for w, g in zip(want["samples"], got["samples"]) if w is not None and g is not None]
    worst = max(diffs, default=0.0)
    if want["scale"] == 0.0:
        return f"worst sampled difference {worst:.2g} (scale 0)"
    return f"worst sampled difference {worst / want['scale']:.2g} of scale"


def compare(want: dict, got: dict) -> list:
    """Every difference between a stored manifest and a fresh summary."""
    bad = []
    for part in ("ranks", "sha256"):
        for key in sorted(set(want[part]) | set(got[part])):
            if want[part].get(key) != got[part].get(key):
                bad.append(f"{key}: {part} {got[part].get(key)!r}, stored {want[part].get(key)!r}")
    for key in sorted(set(want["tables"]) | set(got["tables"])):
        w, g = want["tables"].get(key), got["tables"].get(key)
        if w is None or g is None:
            bad.append(f"{key}: {'not written' if g is None else 'not in the manifest'}")
        elif (w["header"], w["rows"]) != (g["header"], g["rows"]):
            bad.append(f"{key}: header {g['header']} with {g['rows']} rows, stored {w['header']} with {w['rows']}")
        else:
            for name, wc, gc in zip(w["header"], w["columns"], g["columns"]):
                why = _column_mismatch(wc, gc, w["rows"])
                if why:
                    bad.append(f"{key} column {name}: {why}; {_worst_sample(wc, gc)}")
    return bad


def _dumps(summary: dict) -> str:
    # one line per list of numbers
    text = json.dumps(summary, indent=1, sort_keys=True)
    return re.sub(r"\[([^\[\]{}]*)\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--out", help="run directory root (default: a temporary directory)")
    parser.add_argument("--write", action="store_true", help="store the summary as the manifest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        out_root = Path(args.out or scratch)
        run_presets(out_root)
        summary = summarize(out_root)
    if args.write:
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(_dumps(summary))
        print(f"wrote {MANIFEST}")
        return 0
    bad = compare(json.loads(MANIFEST.read_text()), summary)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
