"""Constant diffusion as data: the per-run factored system against the per-step path.

A number for D lets the solvers and the POD steppers build and factor the
implicit system once per run. A callable returning the same number takes the
per-step path (evaluate, assemble, factor at every step), which is the
reference the hoisted path must reproduce.
"""

from dataclasses import replace

import numpy as np
import pytest

from lagrom import kernels
from lagrom.bench import run_experiment
from lagrom.core import DIRICHLET_ZERO, PERIODIC
from lagrom.errors import NumericalFailure
from lagrom.hfm_eulerian import run_eulerian_hfm
from lagrom.hfm_lagrangian import run_lagrangian_hfm
from lagrom.pod_rom import FRAME_EULERIAN, FRAME_LAGRANGIAN, fit_pod, run_pod_rom
from lagrom.presets import ExperimentConfig

from conftest import make_spec

SPECS = {
    "periodic": dict(speed="burgers", diffusion=0.1, n=64, m_steps=60, bc=PERIODIC),
    "dirichlet": dict(speed="const", c=1.0, diffusion=0.01, n=80, m_steps=60, bc=DIRICHLET_ZERO),
    # Nonzero boundary data: the residual checks and the projected right-hand
    # sides must carry the ghost terms.
    "dirichlet-data": dict(
        speed="const", c=1.0, diffusion=0.01, n=80, m_steps=60, bc=DIRICHLET_ZERO, bc_values=(0.3, -0.2)
    ),
}


def outputs(spec):
    """Both solver trajectories and both POD rollouts (fixed rank 8, fitted on
    the first 20 solver states): {name: (states, newton iterations or None)}."""
    m = 20
    euler = run_eulerian_hfm(spec, m)
    lagr = run_lagrangian_hfm(spec, m)
    e_basis = fit_pod(euler.snapshots, fixed_rank=8, frame=FRAME_EULERIAN)
    l_basis = fit_pod(lagr.snapshots, fixed_rank=8, frame=FRAME_LAGRANGIAN)
    z0 = np.concatenate([lagr.positions[:, 0], lagr.values[:, 0]])
    e_pod = run_pod_rom(e_basis, euler.trajectory[:, 0], spec, spec.n_steps)
    l_pod = run_pod_rom(l_basis, z0, spec, spec.n_steps)
    return {
        "eulerian-hfm": (euler.trajectory, None),
        "lagrangian-hfm": (np.vstack([lagr.positions, lagr.values]), None),
        "eulerian-pod": (e_pod.snapshots.data, e_pod.newton_iterations),
        "lagrangian-pod": (l_pod.snapshots.data, l_pod.newton_iterations),
    }


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_number_and_callable_diffusion_agree(kind):
    constant = make_spec(**SPECS[kind])
    d = constant.diffusion_D
    per_step = replace(constant, diffusion_D=lambda x, t, u: d)
    assert constant.diffusion_is_constant and not per_step.diffusion_is_constant
    hoisted = outputs(constant)
    for name, (ref, ref_iterations) in outputs(per_step).items():
        new, new_iterations = hoisted[name]
        assert new_iterations == ref_iterations, name
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_constant_diffusion_system_is_built_once_per_run(monkeypatch):
    calls = []
    original = kernels.diffusion_bands

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "diffusion_bands", counting)
    config = ExperimentConfig(preset="test4", scale=20)
    record = run_experiment(config, emit=False)
    assert not any(m.failure for m in record.methods.values())
    # test4 runs the Eulerian solver, the Lagrangian solver and one
    # Lagrangian POD rollout: one assembly each, not one per step.
    assert len(calls) == 3


@pytest.mark.parametrize("preset", ["test4", "test0-advection"])
def test_pod_jacobian_is_factored_once_per_rollout(monkeypatch, preset):
    calls = {"factor_small": 0, "solve_small": 0}

    def counting(name):
        original = getattr(kernels, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kernels, name, counting(name))
    record = run_experiment(ExperimentConfig(preset=preset, scale=20), emit=False)
    assert not any(m.failure for m in record.methods.values())
    # test4 runs one Lagrangian POD rollout and test0-advection one Eulerian
    # POD rollout; each has a constant reduced Jacobian.
    assert calls == {"factor_small": 1, "solve_small": 0}


@pytest.mark.parametrize("solver", [run_eulerian_hfm, run_lagrangian_hfm])
@pytest.mark.parametrize("fault, message", [(1e10, "residual"), (np.nan, "non-finite")])
def test_solver_failure_carries_time_index(solver, fault, message):
    spec = make_spec(speed="burgers", n=60, m_steps=40, bc=PERIODIC)
    # From the third step on, D turns too stiff to solve to 1e-10 (the
    # periodic system keeps the state's mean, so the residual stays O(|u|))
    # or non-finite.
    faulty = replace(spec, diffusion_D=lambda x, t, u: 0.1 if t < 2.5 * spec.dt else fault)
    with pytest.raises(NumericalFailure, match=f"{message}.* at time index 3") as exc:
        solver(faulty, 5)
    assert exc.value.time_index == 3
