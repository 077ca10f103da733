"""The library names the benchmark under ``perfbench/`` looks up at run time,
and the call counts its tracer sees.

``perfbench/tracing.py`` wraps each ``(module, function)`` in ``TARGETS`` with
``getattr``, ``perfbench/run.py`` records ``kernels.NUMBA_ENABLED``, and the
``perfbench`` scripts import names from ``lagrom`` modules; a rename or
removal in the library would break the benchmark without failing any other
test. A refactor that routes a step through a different function, or calls a
kernel one time more or less per step, shows in the traced layers' call
counts. ``tracing.py`` imports only the standard library, so it loads here
from its path without putting ``perfbench`` on the import path.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,func_name", [(m, f) for m, f, _ in _tracing().TARGETS])
def test_traced_target_is_module_level_callable(module_name, func_name):
    module = importlib.import_module(f"lagrom.{module_name}")
    assert callable(getattr(module, func_name, None)), f"lagrom.{module_name}.{func_name}"


def _library_imports():
    """(script, module, name) for every ``from lagrom... import name`` in the
    ``perfbench`` scripts, function-local imports included, and (script,
    module, None) for every ``import lagrom...``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "lagrom":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "lagrom"]
    return sorted(set(found), key=str)


def test_perfbench_scripts_import_library_names():
    assert any(name for _, _, name in _library_imports())


@pytest.mark.parametrize("script,module_name,name", _library_imports())
def test_perfbench_library_import_resolves(script, module_name, name):
    module = importlib.import_module(module_name)
    if name is not None and not hasattr(module, name):  # else a submodule not yet loaded
        assert importlib.util.find_spec(f"{module_name}.{name}"), f"{script}: from {module_name} import {name}"


def test_environment_record_fields_exist():
    from lagrom import kernels

    assert isinstance(kernels.NUMBA_ENABLED, bool)
    kernels.warmup()


# Calls per traced layer in one scale-20 run_experiment(emit=False). test4 is
# periodic viscous Burgers with both solvers and a Lagrangian POD rollout;
# test2 the Dirichlet counterpart; test0-advection runs no Lagrangian method.
# A constant D is assembled once per fixed-grid solver and per fixed-grid POD
# rollout that diffuses; the moving grid assembles its own bands at each of
# its M = 50 solver steps and 50 rollout steps, through the same builder, so
# its 100 builds and solves are counted with the fixed grid's 1 and 50, and
# each periodic factorization adds one Sherman-Morrison ``thomas_solve``. The only interpolations left are the
# scoring's: the L-POD reconstructions and the L-DMD predictions taken to the
# fixed grid, 50 each.
TRACED_CALLS = {
    "test4": {
        "hfm_eulerian.face_fluxes": 50,
        "hfm_eulerian.diffusion_system_for": 101,
        "kernels.diffusion_bands": 101,
        "kernels.interp": 100,
        "kernels.thomas_solve": 101,
        "kernels.cyclic_thomas_solve": 150,
    },
    "test2": {
        "hfm_eulerian.face_fluxes": 50,
        "hfm_eulerian.diffusion_system_for": 101,
        "kernels.diffusion_bands": 101,
        "kernels.interp": 100,
        "kernels.thomas_solve": 150,
        "kernels.cyclic_thomas_solve": 0,
    },
    # The level-set frame pulls the training window (m = 12 steps) and no
    # more; the collector, which stepped all M = 50, is not called.
    "levelset": {
        "kernels.levelset_step": 12,
        "levelset.run_levelset_hfm": 0,
    },
    "test0-advection": {
        "hfm_eulerian.face_fluxes": 100,
        "hfm_eulerian.diffusion_system_for": 2,
        "kernels.diffusion_bands": 2,
        "kernels.interp": 0,
        "kernels.thomas_solve": 50,
        "kernels.cyclic_thomas_solve": 0,
    },
}


@pytest.mark.parametrize("preset", sorted(TRACED_CALLS))
def test_traced_call_counts(preset):
    import lagrom
    from lagrom.presets import ExperimentConfig

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        record = lagrom.bench.run_experiment(ExperimentConfig(preset=preset, scale=20), emit=False)
    finally:
        tracer.uninstall()
    assert not any(m.failure for m in record.methods.values())
    table = tracer.layer_table()
    calls = {layer: table.get(layer, {}).get("calls", 0) for layer in TRACED_CALLS[preset]}
    assert calls == TRACED_CALLS[preset]


def test_emitting_run_records_one_emit_span(tmp_path):
    # The tracer wraps the emitter by name; a run that writes its directory
    # through some other function would leave ``bench.emit`` without a span.
    import lagrom
    from lagrom.presets import ExperimentConfig

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        lagrom.bench.run_experiment(ExperimentConfig(preset="test4", scale=20, output_dir=str(tmp_path / "out")))
    finally:
        tracer.uninstall()
    assert tracer.layer_table().get("bench.emit", {}).get("calls", 0) == 1
    assert (tmp_path / "out" / "manifest.json").exists()
