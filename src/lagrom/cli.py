"""Command-line entry point.

    lagrom run <preset> [--scale k] [--epsilon e] [--rank r] [--methods a,b] [--out dir]
    lagrom run --config experiment.cfg
    lagrom table <dir> [<dir> ...] [--json out.json]
    lagrom validate <dir>

The output root defaults to ./runs and can be moved with LAGROM_OUT_ROOT.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import run_experiment
from .errors import LagromError
from .rundir import load_timing, timing_table, validate_run_dir
from .presets import PRESET_NAMES, ExperimentConfig, parse_config_file, resolve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lagrom", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment preset")
    run_p.add_argument("preset", nargs="?", choices=PRESET_NAMES, help="experiment preset")
    run_p.add_argument("--config", help="flat key=value config file (overrides preset argument)")
    run_p.add_argument("--scale", type=int, default=None, help="divide N, M, m jointly by this factor")
    run_p.add_argument("--epsilon", type=float, default=None, help="share threshold for rank selection")
    run_p.add_argument("--rank", type=int, default=None, help="fixed truncation rank")
    run_p.add_argument("--methods", default=None, help="comma-separated method subset")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--cells", type=int, default=None, help="override grid size N")
    run_p.add_argument("--steps", type=int, default=None, help="override step count M")
    run_p.add_argument("--snapshots", type=int, default=None, help="override training snapshot count m")
    run_p.add_argument("--ny", type=int, default=None, help="level-set value-grid resolution")

    table_p = sub.add_parser("table", help="cost table across finished run directories")
    table_p.add_argument("dirs", nargs="+", help="run directories containing timing.json")
    table_p.add_argument("--json", dest="json_out", default=None, help="also write the table as JSON")

    val_p = sub.add_parser("validate", help="re-check invariants on an emitted run directory")
    val_p.add_argument("dir", help="run directory")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        base = parse_config_file(args.config)
    elif args.preset:
        base = ExperimentConfig(preset=args.preset)
    else:
        raise ValueError("run requires a preset name or --config file")
    if args.epsilon is not None and args.rank is not None:
        raise ValueError("--epsilon and --rank are mutually exclusive")
    updates = {}
    if args.scale is not None:
        updates["scale"] = args.scale
    if args.epsilon is not None:
        updates["epsilon"] = args.epsilon
        updates["fixed_rank"] = None
    if args.rank is not None:
        updates["fixed_rank"] = args.rank
        if args.epsilon is None:
            updates["epsilon"] = None
    if args.methods is not None:
        updates["methods"] = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    if args.out is not None:
        updates["output_dir"] = args.out
    if args.cells is not None:
        updates["n_cells"] = args.cells
    if args.steps is not None:
        updates["n_steps"] = args.steps
    if args.snapshots is not None:
        updates["n_snapshots"] = args.snapshots
    if args.ny is not None:
        updates["n_y"] = args.ny
    return dataclasses.replace(base, **updates) if updates else base


def _cmd_run(args) -> int:
    try:
        config = _config_from_args(args)
        resolve(config)  # rejects a training window that does not precede the horizon
    except ValueError as exc:
        print(f"lagrom run: error: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_experiment(config)
    except LagromError as exc:  # a solver failure, which no method can record
        print(f"lagrom run: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"experiment {record.label}: N = {record.n_cells}, M = {record.n_steps}, m = {record.n_snapshots}")
    print(f"  eulerian HFM    {record.hfm_eulerian_seconds:.4f} s")
    if record.hfm_lagrangian_seconds is not None:
        print(f"  lagrangian HFM  {record.hfm_lagrangian_seconds:.4f} s")
    if record.hfm_levelset_seconds is not None:
        print(f"  levelset HFM    {record.hfm_levelset_seconds:.4f} s")
    for name, res in record.methods.items():
        if res.failure:
            print(f"  {name}: FAILED ({res.failure})")
        else:
            final_err = res.report.error_observable[-1] if res.report is not None else float("nan")
            print(
                f"  {name}: rank {res.rank}, fit {res.fit_seconds:.4f} s, "
                f"rollout {res.rollout_seconds:.4f} s, final observable error {final_err:.3e}"
            )
    print(f"outputs in {record.output_dir}")
    return 0


def _cmd_table(args) -> int:
    records = [load_timing(d) for d in args.dirs]
    table, data = timing_table(records)
    print(table)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(data, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_validate(args) -> int:
    checks = validate_run_dir(args.dir)
    worst = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        if not ok:
            worst = 1
    return worst


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table": _cmd_table,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
