"""Observed convergence order of both solvers under grid refinement.

Each run refines N = 50, 100, 200, 400 with M = N / 2 steps over t in [0, 1],
so the Courant number stays fixed, and compares the state at t = 0.24 (index
0.12 N) with a solution computed apart from the library: test4 (viscous
Burgers) with the Cole-Hopf series of ``perfbench/exact.py``, test3
(inviscid Burgers, t < 1) with the characteristics. Both schemes are first
order: the max-norm errors measured here halve with each refinement, with
observed orders 0.91-0.99, so a band around 1 catches a lost order or an
O(1) defect that exact-solution checks at a single size would pass.

Without diffusion the moving grid rides the characteristics and carries its
values unchanged, so the Lagrangian solver on test1 and test3 is exact up to
rounding (measured at most 1.7e-14).

``exact.py`` imports only numpy and scipy, so it loads here from its path
without putting ``perfbench`` on the import path.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lagrom.hfm_eulerian import run_eulerian_hfm
from lagrom.hfm_lagrangian import run_lagrangian_hfm
from lagrom.presets import ExperimentConfig, resolve

EXACT = Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
SIZES = (50, 100, 200, 400)
ORDER_BAND = (0.8, 1.2)
ROUNDING = 1e-12
TEST4_NU = 0.1  # the viscosity of the test4 preset, stated apart from it


def _exact():
    spec = importlib.util.spec_from_file_location("perfbench_exact", EXACT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(preset, n):
    """Both solvers' runs of ``preset`` with N = n, M = n / 2, and the index
    of t = 0.24."""
    k = 3 * n // 25
    resolved = resolve(ExperimentConfig(preset=preset, n_cells=n, n_steps=n // 2, n_snapshots=k))
    spec = resolved.spec
    return spec, k, run_eulerian_hfm(spec, k), run_lagrangian_hfm(spec, k)


def _errors(preset):
    """Max-norm errors of the Eulerian and Lagrangian states at t = 0.24 for
    each of ``SIZES``."""
    exact = _exact()
    if preset == "test4":
        solution = lambda x, t: exact.viscous_burgers(x, t, TEST4_NU)  # noqa: E731
    else:
        solution = exact.inviscid_burgers
    euler, lagr = [], []
    for n in SIZES:
        spec, k, e_run, l_run = _runs(preset, n)
        t = k * spec.dt
        euler.append(np.max(np.abs(e_run.trajectory[:, k] - solution(e_run.grid.nodes, t))))
        lagr.append(np.max(np.abs(l_run.values[:, k] - solution(l_run.positions[:, k], t))))
    return np.array(euler), np.array(lagr)


def _orders(errors):
    return np.log2(errors[:-1] / errors[1:])


@pytest.fixture(scope="module")
def test4_errors():
    return _errors("test4")


@pytest.fixture(scope="module")
def test3_errors():
    return _errors("test3")


@pytest.mark.parametrize("solver", [0, 1], ids=["eulerian", "lagrangian"])
def test_viscous_burgers_converges_at_first_order(solver, test4_errors):
    errors = test4_errors[solver]
    orders = _orders(errors)
    lo, hi = ORDER_BAND
    assert np.all((orders >= lo) & (orders <= hi)), f"errors {errors}, orders {orders}"


def test_inviscid_burgers_eulerian_converges_at_first_order(test3_errors):
    errors = test3_errors[0]
    orders = _orders(errors)
    lo, hi = ORDER_BAND
    assert np.all((orders >= lo) & (orders <= hi)), f"errors {errors}, orders {orders}"


def test_inviscid_burgers_lagrangian_is_exact(test3_errors):
    assert np.max(test3_errors[1]) <= ROUNDING, test3_errors[1]


@pytest.mark.parametrize("n", SIZES)
def test_linear_advection_lagrangian_is_exact(n):
    spec, k, _, run = _runs("test1", n)
    x0, u0 = run.positions[:, 0], run.values[:, 0]
    assert np.max(np.abs(run.positions[:, k] - (x0 + k * spec.dt))) <= ROUNDING
    assert np.max(np.abs(run.values[:, k] - u0)) <= ROUNDING
