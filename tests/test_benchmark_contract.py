"""The library names the benchmark under ``perfbench/`` looks up at run time.

``perfbench/tracing.py`` wraps each ``(module, function)`` in ``TARGETS`` with
``getattr`` and ``perfbench/run.py`` records ``kernels.NUMBA_ENABLED``; a
rename in the library would break the benchmark without failing any other
test. ``tracing.py`` imports only the standard library, so it loads here from
its path without putting ``perfbench`` on the import path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,func_name", [(m, f) for m, f, _ in _targets()])
def test_traced_target_is_module_level_callable(module_name, func_name):
    module = importlib.import_module(f"lagrom.{module_name}")
    assert callable(getattr(module, func_name, None)), f"lagrom.{module_name}.{func_name}"


def test_environment_record_fields_exist():
    from lagrom import kernels

    assert isinstance(kernels.NUMBA_ENABLED, bool)
    kernels.warmup()
