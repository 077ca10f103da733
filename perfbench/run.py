"""lagrom benchmark: end-to-end and per-layer timings of preset experiments.

    python3 perfbench/run.py --workload burgers-full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the repository root; the library is imported from ``src/`` next to
this directory. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run. Results, trace and span files go to
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so every workload runs with the same BLAS threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from tracing import BYTE_COUNTERS, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh-interpreter set-up samples per run, spread evenly over its measuring time
SETUP_REPS = 7
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import lagrom; from lagrom import kernels; "
    "kernels.warmup(); print(time.perf_counter() - t0)"
)

END_TO_END = {
    "experiment_s": "s",
    "compute_s": "s",
    "rom_online_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

METHODS = ("eulerian-dmd", "eulerian-pod", "lagrangian-dmd", "lagrangian-pod", "levelset-dmd")

# Printed by a traced run. Layer times appear here only for layers that run on
# every workload; the trace file holds the time of every layer.
PER_LAYER = {
    "hfm_eulerian.run_eulerian_hfm.s": "s",
    "hfm_lagrangian.run_lagrangian_hfm.s": "s",
    "kernels.cyclic_thomas_solve.s": "s",
    "kernels.thomas_solve.s": "s",
    "kernels.interp.s": "s",
    "svd_core.reduced_svd.s": "s",
    "pod_rom.fit_pod.s": "s",
    "pod_rom.run_pod_rom.s": "s",
    "dmd_rom.fit_dmd.s": "s",
    "dmd_rom.predict_series.s": "s",
    "error_analysis.s": "s",
    "core.linear_interpolate.s": "s",
    "bench.emit.s": "s",
    "bench.unattributed.s": "s",
    "bench.trace_overhead_s": "s",
    "bench.span_coverage": "%",
    "bench.emit.mb": "MB",
    "svd_core.reduced_svd.calls": "count",
    "svd_core.reduced_svd.input_mb": "MB",
    "hfm_lagrangian.run_lagrangian_hfm.calls": "count",
    "levelset.run_levelset_hfm.calls": "count",
    "levelset.predicted_contour.calls": "count",
    "kernels.cyclic_thomas_solve.calls": "count",
    "kernels.thomas_solve.calls": "count",
    "kernels.diffusion_bands.calls": "count",
    "kernels.interp.calls": "count",
    "kernels.levelset_step.calls": "count",
    "kernels.levelset_step.mb": "MB",
    "kernels.solve_small.calls": "count",
    "pod_rom.fit_pod.calls": "count",
    "pod_rom.run_pod_rom.calls": "count",
    "pod_rom.newton_iterations": "count",
    "dmd_rom.predict_series.calls": "count",
    "core.linear_interpolate.calls": "count",
    **{f"rank.{method}": "count" for method in METHODS},
}


class Operations:
    """Operations attempted and failed: methods of experiments, checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.checks = []

    def record(self, name, ok, detail=None):
        self.attempted += 1
        if not ok:
            self.failures.append({"operation": name, "detail": detail})

    @property
    def failed(self):
        return len(self.failures)

    def check(self, name, ok, value=None, limit=None):
        self.checks.append({"name": name, "ok": bool(ok), "value": value, "limit": limit})
        self.record(name, ok, None if value is None else f"{value!r} > {limit!r}")

    @property
    def correct(self):
        return all(c["ok"] for c in self.checks)


def summary(samples):
    """Median with quartiles and sample count."""
    out = {"median": statistics.median(samples), "n": len(samples), "samples": samples}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return func()
    return None


def environment():
    import numpy
    import scipy

    import lagrom
    from lagrom import kernels

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_enabled": kernels.NUMBA_ENABLED,
        "lagrom": lagrom.__version__,
    }


def measure_setup():
    """Seconds for ``import lagrom`` plus ``kernels.warmup()`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def csv_hashes(run_dir):
    return {path.name: sha256(path) for path in sorted(Path(run_dir).glob("*.csv"))}


def dir_bytes(run_dir):
    return sum(path.stat().st_size for path in Path(run_dir).rglob("*") if path.is_file())


class Runner:
    """Runs one workload in this process."""

    def __init__(self, name, seed, seconds, trace):
        import workloads

        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.configs = self.workload.configs(seed)
        self.seconds = seconds
        self.trace = trace
        self.ops = Operations()
        self.reference_hashes = {}
        self.passes = 0
        self.runs_dir = OUT / f"{name}.runs"
        self.samples = defaultdict(list)
        self.tracer = Tracer() if trace else None
        self.layer_passes = []

    def experiment_pass(self, emit):
        """One run_experiment per preset; returns (seconds, records)."""
        from lagrom import run_experiment

        pass_dir = self.runs_dir / f"pass{self.passes}"
        configs = [replace(c, output_dir=str(pass_dir / c.preset)) for c in self.configs] if emit else self.configs
        gc.collect()
        started = time.perf_counter()
        records = [run_experiment(config, emit=emit) for config in configs]
        elapsed = time.perf_counter() - started
        for record in records:
            for method, result in record.methods.items():
                self.ops.record(f"{record.label}/{method}", result.failure is None, result.failure)
        if emit:
            self.passes += 1
            self.verify_emission(records)
        return elapsed, records

    def verify_emission(self, records):
        """validate_run_dir on every directory; CSVs byte-identical to the first pass."""
        from lagrom import validate_run_dir

        for record in records:
            failed = [row[0] for row in validate_run_dir(record.output_dir) if not row[1]]
            self.ops.check(f"{record.label}: validate_run_dir", not failed)
            hashes = csv_hashes(record.output_dir)
            if record.label in self.reference_hashes:
                same = hashes == self.reference_hashes[record.label]
                self.ops.check(f"{record.label}: CSVs byte-identical to the first pass", same)
            else:
                self.reference_hashes[record.label] = hashes

    def clear_pass(self):
        shutil.rmtree(self.runs_dir, ignore_errors=True)

    def run(self):
        """Whole rounds of run_experiment passes until the next round would end
        past ``seconds``. The fitted models are prepared after the first round,
        so the peak memory read there is that of run_experiment alone, and
        evaluated once per round after it. Every round attempts the same
        operations, so the share that fails does not depend on the round count."""
        from lagrom import kernels

        wl = self.workloads
        kernels.warmup()
        self.clear_pass()
        minimum = 1 if self.trace else 2
        started = time.perf_counter()
        round_seconds = []
        preps = None
        try:
            while len(round_seconds) < minimum or (
                time.perf_counter() - started + statistics.median(round_seconds) <= self.seconds
            ):
                round_started = time.perf_counter()
                if self.trace:
                    self.traced_round()
                else:
                    self.timed_round()
                if preps is None:
                    self.samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                    preps = [wl.prepare(config) for config in self.configs]
                if not self.trace or not round_seconds:
                    self.samples["rom_online_s"].append(sum(wl.run_online(prep) for prep in preps))
                if not self.trace:
                    setups = self.samples["setup_s"]
                    due = (time.perf_counter() - started) * SETUP_REPS / self.seconds
                    while len(setups) < min(SETUP_REPS, due):
                        setups.append(measure_setup())
                round_seconds.append(time.perf_counter() - round_started)
            if not self.trace:
                while len(self.samples["setup_s"]) < SETUP_REPS:
                    self.samples["setup_s"].append(measure_setup())
        finally:
            self.clear_pass()
        rounds = len(round_seconds)
        for prep in preps:
            for method in prep.methods:
                failure = prep.failures.get(method)
                self.ops.record(f"{prep.label}/{method} online", failure is None, failure)
            for check in wl.checks_for(self.workload.name, prep):
                self.ops.check(check.name, check.ok, check.value, check.limit)
        result = {"workload": self.workload.name, "presets": [c.preset for c in self.configs], "rounds": rounds}
        result.update(self.layer_results() if self.trace else self.end_to_end_results())
        result.update(
            correct=self.ops.correct,
            attempted=self.ops.attempted,
            failed=self.ops.failed,
            failures=self.ops.failures,
            checks=self.ops.checks,
        )
        return result

    def timed_round(self):
        self.samples["experiment_s"].append(self.experiment_pass(emit=True)[0])
        self.clear_pass()
        self.samples["compute_s"].append(self.experiment_pass(emit=False)[0])

    def traced_round(self):
        self.samples["experiment_untraced_s"].append(self.experiment_pass(emit=True)[0])
        self.clear_pass()
        first = len(self.tracer.names)
        self.tracer.install()
        try:
            seconds, records = self.experiment_pass(emit=True)
        finally:
            self.tracer.uninstall()
        self.samples["experiment_traced_s"].append(seconds)
        self.layer_passes.append(self.layer_metrics(self.tracer.layer_table(first), records))
        self.clear_pass()

    def end_to_end_results(self):
        return {"metrics": {name: dict(unit=unit, **summary(self.samples[name])) for name, unit in END_TO_END.items()}}

    def layer_results(self):
        traced, untraced = self.samples["experiment_traced_s"], self.samples["experiment_untraced_s"]
        passes = self.layer_passes
        layers = {key: statistics.median(p[key] for p in passes) for key in sorted(passes[0])}
        layers["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        spans_path = OUT / f"{self.workload.name}.spans.json"
        spans_path.write_text(json.dumps(self.tracer.spans()))
        return {
            "metrics": {name: {"unit": unit, "median": layers[name]} for name, unit in PER_LAYER.items()},
            "layers": layers,
            "experiment_untraced_s": summary(untraced),
            "experiment_traced_s": summary(traced),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }

    def layer_metrics(self, table, records):
        """Flatten one traced pass into named values; layers that did not run read 0."""
        values = {f"{layer}.{key}": 0 for _, _, layer in TARGETS for key in ("s", "self_s", "calls")}
        values.update({f"{layer}.{key}": 0.0 for layer, (key, _) in BYTE_COUNTERS.items()})
        values.update({f"{layer}.{key}": value for layer, row in table.items() for key, value in row.items()})
        run_experiment = values["bench.run_experiment.s"]
        values["bench.unattributed.s"] = values["bench.run_experiment.self_s"]
        values["bench.span_coverage"] = 100.0 * (1.0 - values["bench.unattributed.s"] / run_experiment)
        values["bench.emit.mb"] = sum(dir_bytes(r.output_dir) for r in records) / 1e6
        iterations = [sum(res.newton_iterations or ()) for r in records for res in r.methods.values()]
        values["pod_rom.newton_iterations"] = sum(iterations)
        for method in METHODS:
            values[f"rank.{method}"] = sum(r.methods[method].rank or 0 for r in records if method in r.methods)
        return values


def last_line(result):
    metrics = {name: {"value": m["median"], "unit": m["unit"]} for name, m in result["metrics"].items()}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def import_library():
    """Put the checkout's sources first on the path; False if they are missing."""
    if not (SRC / "lagrom" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import lagrom

    if Path(lagrom.__file__).resolve().parent != (SRC / "lagrom").resolve():
        print(f"error: imported lagrom from {lagrom.__file__}, not from {SRC}", file=sys.stderr)
        return False
    OUT.mkdir(parents=True, exist_ok=True)
    return True


def run_one(args):
    result = Runner(args.workload, args.seed, args.seconds, args.trace).run()
    result.update(seed=args.seed, seconds=args.seconds, trace=args.trace, environment=environment())
    suffix = ".trace.json" if args.trace else ".json"
    (OUT / f"{args.workload}{suffix}").write_text(json.dumps(result, indent=1))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:42s} {metric['median']:.6g} {metric['unit']}")
    for check in result["checks"]:
        if not check["ok"]:
            limit = "" if check["limit"] is None else f": {check['value']!r} > {check['limit']!r}"
            print(f"check failed: {check['name']}{limit}")
    print(json.dumps(last_line(result)))
    return 0


def run_all(args, names):
    """Every workload untraced, then traced, each run in its own process;
    writes results.json and trace.json."""
    status = 0
    for trace, suffix, combined_name in ((0, ".json", "results.json"), (1, ".trace.json", "trace.json")):
        combined = {}
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name}: exited with {proc.returncode}")
                status = 1
                continue
            outcome = json.loads(lines[-1])
            status |= 0 if outcome["correct"] and outcome["failed"] == 0 else 1
            combined[name] = json.loads((OUT / f"{name}{suffix}").read_text())
        path = OUT / combined_name
        path.write_text(json.dumps({"workloads": combined}, indent=1))
        print(f"wrote {path.relative_to(ROOT)}")
    return status


def by_workload(path):
    data = json.loads(Path(path).read_text())
    return data["workloads"] if "workloads" in data else {data["workload"]: data}


def compare(old_path, new_path):
    """Ratio new/old for every metric, and for every layer of traced files."""
    old, new = by_workload(old_path), by_workload(new_path)
    print(f"{'workload':14s} {'metric':44s} {'old':>12s} {'new':>12s} {'new/old':>8s}")
    for workload in old:
        if workload not in new:
            print(f"{workload:14s} missing from {new_path}")
            continue
        a, b = old[workload], new[workload]
        rows = [
            (name, a["metrics"][name]["median"], b["metrics"][name]["median"])
            for name in a["metrics"]
            if name in b["metrics"]
        ]
        layers_a, layers_b = a.get("layers", {}), b.get("layers", {})
        rows += [
            (name, layers_a[name], layers_b[name])
            for name in sorted(layers_a)
            if name in layers_b and name not in a["metrics"]
        ]
        for name, x, y in rows:
            ratio = f"{y / x:8.3f}" if x else "       -"
            print(f"{workload:14s} {name:44s} {x:12.6g} {y:12.6g} {ratio}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all': each workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0, help="permutes the preset order of desk-suite")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time of one run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-layer metrics (all runs both)"
    )
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print new/old ratios of two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if not import_library():
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
