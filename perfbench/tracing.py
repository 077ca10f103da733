"""Spans around the library's module-level functions, installed from outside.

``Tracer.install`` replaces each listed function with a wrapper in every
``lagrom`` module that holds a reference to it, so calls made through
``from .x import f`` bindings and through module attributes are both seen.
Each call records a span (layer, start, end, parent span) in memory; the
benchmark writes them out when it ends. ``uninstall`` restores the originals.

A layer's time is the time covered by its outermost spans (a layer calling
itself, such as ``relative_l2`` calling ``truncation_error``, is not counted
twice); its self time subtracts the direct child spans of any layer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function, layer). Several functions may share one layer.
TARGETS = (
    ("bench", "run_experiment", "bench.run_experiment"),
    ("bench", "_emit_outputs", "bench.emit"),
    ("presets", "resolve", "presets.resolve"),
    ("hfm_eulerian", "run_eulerian_hfm", "hfm_eulerian.run_eulerian_hfm"),
    ("hfm_eulerian", "face_fluxes", "hfm_eulerian.face_fluxes"),
    ("hfm_eulerian", "diffusion_system_for", "hfm_eulerian.diffusion_system_for"),
    ("hfm_lagrangian", "run_lagrangian_hfm", "hfm_lagrangian.run_lagrangian_hfm"),
    ("levelset", "run_levelset_hfm", "levelset.run_levelset_hfm"),
    ("levelset", "extract_zero_contour", "levelset.extract_zero_contour"),
    ("levelset", "predicted_contour", "levelset.predicted_contour"),
    ("kernels", "warmup", "kernels.warmup"),
    ("kernels", "cyclic_thomas_solve", "kernels.cyclic_thomas_solve"),
    ("kernels", "thomas_solve", "kernels.thomas_solve"),
    ("kernels", "diffusion_bands", "kernels.diffusion_bands"),
    ("kernels", "interp_clamped", "kernels.interp"),
    ("kernels", "interp_periodic", "kernels.interp"),
    ("kernels", "levelset_step", "kernels.levelset_step"),
    ("kernels", "solve_small", "kernels.solve_small"),
    ("svd_core", "reduced_svd", "svd_core.reduced_svd"),
    ("pod_rom", "fit_pod", "pod_rom.fit_pod"),
    ("pod_rom", "run_pod_rom", "pod_rom.run_pod_rom"),
    ("dmd_rom", "fit_dmd", "dmd_rom.fit_dmd"),
    ("dmd_rom", "predict_series", "dmd_rom.predict_series"),
    ("dmd_rom", "predict", "dmd_rom.predict"),
    ("error_analysis", "truncation_error", "error_analysis"),
    ("error_analysis", "relative_l2", "error_analysis"),
    ("error_analysis", "estimate_eps_m", "error_analysis"),
    ("error_analysis", "error_bound_series", "error_analysis"),
    ("core", "linear_interpolate", "core.linear_interpolate"),
)


def _levelset_step_bytes(values, speeds, *_):
    # the field is read once and written once; the row speeds are read once
    return 2 * values.nbytes + speeds.nbytes


def _svd_input_bytes(matrix):
    data = getattr(matrix, "data", matrix)
    return data.nbytes


# Megabytes a layer moves, computed from its arguments: layer -> (key, counter)
BYTE_COUNTERS = {
    "kernels.levelset_step": ("mb", _levelset_step_bytes),
    "svd_core.reduced_svd": ("input_mb", _svd_input_bytes),
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.bytes_moved = {}
        self._stack = []
        self._patched = []

    def _wrap(self, layer, fn):
        _, count_bytes = BYTE_COUNTERS.get(layer, (None, None))

        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            if count_bytes is not None:
                self.bytes_moved[index] = count_bytes(*args, **kwargs)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "lagrom" or name.startswith("lagrom.")]
        for module_name, func_name, layer in TARGETS:
            original = getattr(sys.modules[f"lagrom.{module_name}"], func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_table(self, first=0):
        """Per layer, over the spans recorded since index ``first``: calls,
        time covered by outermost spans, self time, and bytes moved."""
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for i in range(first, len(names)):
            if parents[i] >= 0:
                child_time[parents[i]] += durations[i]
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(first, len(names)):
            row = table[names[i]]
            row["calls"] += 1
            row["self_s"] += durations[i] - child_time[i]
            ancestor = parents[i]
            while ancestor >= 0 and names[ancestor] != names[i]:
                ancestor = parents[ancestor]
            if ancestor < 0:
                row["s"] += durations[i]
            if i in self.bytes_moved:
                key = BYTE_COUNTERS[names[i]][0]
                row[key] = row.get(key, 0.0) + self.bytes_moved[i] / 1e6
        return dict(table)

    def spans(self):
        """Recorded spans as compact columns, for writing out at the end."""
        return {
            "columns": ["layer", "start_s", "end_s", "parent"],
            "rows": [
                [name, start, end, parent]
                for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
