"""The benchmark's workloads, their online (fitted-model) evaluations, and the
correctness checks run against references computed apart from the library.

Every call into the library goes through its public entry points. The
reduced models for the online timing are fitted here from fresh
high-fidelity runs, outside the timed region, the same way ``run_experiment``
fits them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from lagrom import (
    ExperimentConfig,
    fit_dmd,
    fit_lagrangian_dmd,
    fit_pod,
    levelset_dmd,
    predict_series,
    predicted_contour,
    resolve,
    run_eulerian_hfm,
    run_lagrangian_hfm,
    run_levelset_hfm,
    run_pod_rom,
)
from lagrom.errors import LagromError
from lagrom.pod_rom import FRAME_EULERIAN, FRAME_LAGRANGIAN
from lagrom.presets import (
    METHOD_EULERIAN_DMD,
    METHOD_EULERIAN_POD,
    METHOD_LAGRANGIAN_DMD,
    METHOD_LAGRANGIAN_POD,
    METHOD_LEVELSET_DMD,
)

import exact

DESK_PRESETS = ("test0-diffusion", "test0-advection", "test1", "test2", "test3", "test4", "levelset")

# Viscosity of the test4 preset (viscous Burgers), stated independently of the
# library so the Cole-Hopf reference does not inherit a changed preset.
TEST4_NU = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple
    scale: int
    shuffle: bool = False

    def configs(self, seed: int) -> List[ExperimentConfig]:
        presets = list(self.presets)
        if self.shuffle:
            random.Random(seed).shuffle(presets)
        return [ExperimentConfig(preset=p, scale=self.scale) for p in presets]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("burgers-full", ("test4",), scale=1),
        Workload("desk-suite", DESK_PRESETS, scale=10, shuffle=True),
    )
}


@dataclass
class Check:
    name: str
    value: float
    limit: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.limit)


@dataclass
class Prepared:
    """High-fidelity runs and fitted models of one experiment."""

    label: str
    methods: tuple
    spec: object
    euler: object
    lagr: object = None
    level: object = None
    online: Dict[str, Callable[[], np.ndarray]] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)


def prepare(config: ExperimentConfig) -> Prepared:
    """Run the solvers and fit every method of the experiment (untimed)."""
    resolved = resolve(config)
    spec = resolved.spec
    m = resolved.n_snapshots
    horizon = spec.n_steps
    methods = resolved.methods
    prep = Prepared(resolved.label, methods, spec, run_eulerian_hfm(spec, m))
    if {METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD} & set(methods):
        prep.lagr = run_lagrangian_hfm(spec, m)
    if METHOD_LEVELSET_DMD in methods:
        prep.level = run_levelset_hfm(spec, m, n_y=resolved.n_y)
    rank = dict(epsilon=resolved.epsilon, fixed_rank=resolved.fixed_rank)
    indices = np.arange(1, horizon + 1)

    def dmd_online(model):
        return lambda: predict_series(model, indices)

    def pod_online(basis, initial):
        return lambda: run_pod_rom(basis, initial, spec, horizon).snapshots.data

    def contour_online(model, level):
        return lambda: np.column_stack(
            [predicted_contour(model, k, level.x_grid, level.y_grid).values for k in indices]
        )

    for method in methods:
        try:
            if method == METHOD_EULERIAN_DMD:
                prep.online[method] = dmd_online(fit_dmd(prep.euler.snapshots, **rank))
            elif method == METHOD_EULERIAN_POD:
                basis = fit_pod(prep.euler.snapshots, frame=FRAME_EULERIAN, **rank)
                prep.online[method] = pod_online(basis, prep.euler.trajectory[:, 0])
            elif method == METHOD_LAGRANGIAN_DMD:
                prep.online[method] = dmd_online(fit_lagrangian_dmd(prep.lagr.snapshots, **rank))
            elif method == METHOD_LAGRANGIAN_POD:
                basis = fit_pod(prep.lagr.snapshots, frame=FRAME_LAGRANGIAN, **rank)
                z0 = np.concatenate([prep.lagr.positions[:, 0], prep.lagr.values[:, 0]])
                prep.online[method] = pod_online(basis, z0)
            elif method == METHOD_LEVELSET_DMD:
                prep.online[method] = contour_online(levelset_dmd(prep.level.snapshots, **rank), prep.level)
        except LagromError as exc:
            prep.failures[method] = f"{type(exc).__name__}: {exc}"
    return prep


def run_online(prep: Prepared) -> float:
    """Evaluate every fitted model over the full horizon; returns seconds.

    A method that raises is recorded as failed and dropped from later passes.
    """
    elapsed = 0.0
    for method, evaluate in list(prep.online.items()):
        t0 = time.perf_counter()
        try:
            prep.outputs[method] = evaluate()
        except LagromError as exc:
            prep.failures[method] = f"{type(exc).__name__}: {exc}"
            del prep.online[method]
        elapsed += time.perf_counter() - t0
    return elapsed


def _relative_l2(approx, reference) -> float:
    return float(np.linalg.norm(approx - reference) / np.linalg.norm(reference))


def _viscous_burgers_checks(prep: Prepared) -> List[Check]:
    t = prep.spec.n_steps * prep.spec.dt
    euler, lagr = prep.euler, prep.lagr
    mass = euler.trajectory.sum(axis=0)
    return [
        Check(
            f"{prep.label}: eulerian HFM vs Cole-Hopf at t={t:g} (relative L2)",
            _relative_l2(euler.trajectory[:, -1], exact.viscous_burgers(euler.grid.nodes, t, TEST4_NU)),
            1.2e-3,
        ),
        Check(
            f"{prep.label}: lagrangian HFM vs Cole-Hopf at t={t:g} (relative L2)",
            _relative_l2(lagr.values[:, -1], exact.viscous_burgers(lagr.positions[:, -1], t, TEST4_NU)),
            1.6e-3,
        ),
        Check(
            f"{prep.label}: eulerian discrete mass drift over all steps (relative)",
            float(np.max(np.abs(mass - mass[0])) / np.abs(euler.trajectory[:, 0]).sum()),
            1e-11,
        ),
    ]


def _levelset_checks(prep: Prepared, contour_limit: float) -> List[Check]:
    level = prep.level
    k = prep.spec.n_steps // 2
    t = k * prep.spec.dt
    n_x, n_y = len(level.x_grid), len(level.y_grid)
    # c0 = y - u0(x): each row sums to n_x * y - sum(u0); the upwind sweep on a
    # periodic row moves no mass
    u0 = np.asarray(prep.spec.initial_u0(level.x_grid.nodes), dtype=float)
    row_sums0 = n_x * level.y_grid.nodes - u0.sum()
    fields = level.snapshots.data.reshape(n_y, n_x, -1, order="F")
    scale = np.abs(fields[:, :, 0]).sum(axis=1).max()
    drift = max(
        float(np.max(np.abs(fields.sum(axis=1) - row_sums0[:, None]))),
        float(np.max(np.abs(level.final_field.values.sum(axis=1) - row_sums0))),
    )
    return [
        Check(
            f"{prep.label}: HFM contour vs characteristics at t={t:g} (relative L2)",
            _relative_l2(level.contours[:, k], exact.inviscid_burgers(level.x_grid.nodes, t)),
            contour_limit,
        ),
        Check(f"{prep.label}: level-set row sums drift (relative)", drift / scale, 1e-12),
    ]


def _pure_transport_checks(prep: Prepared, speed: Callable[[np.ndarray], np.ndarray]) -> List[Check]:
    """Without diffusion every node keeps its value and moves at f(u0)."""
    lagr = prep.lagr
    x0 = lagr.positions[:, 0]
    u0 = np.asarray(prep.spec.initial_u0(x0), dtype=float)
    times = np.arange(prep.spec.n_steps + 1) * prep.spec.dt
    positions = x0[:, None] + speed(u0)[:, None] * times[None, :]
    observable = np.vstack([positions[:, 1:], np.repeat(u0[:, None], times.size - 1, axis=1)])
    checks = [
        Check(
            f"{prep.label}: HFM positions vs x0 + t f(u0) (max abs)",
            float(np.max(np.abs(lagr.positions - positions))),
            1e-8,
        ),
        Check(f"{prep.label}: HFM values vs u0 (max abs)", float(np.max(np.abs(lagr.values - u0[:, None]))), 1e-8),
    ]
    for method in (METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD):
        out = prep.outputs.get(method)
        worst = np.inf if out is None else float(np.max(np.linalg.norm(out - observable, axis=0)))
        checks.append(Check(f"{prep.label}: {method} observable vs exact transport (max column 2-norm)", worst, 1e-8))
    return checks


# (workload, preset) -> checks on the prepared runs and online outputs. The
# limits on distances to exact solutions sit 25-35% above the first-order
# discretization error measured at these sizes: a diffusion coefficient 10%
# too strong fails both Cole-Hopf checks, level-set row speeds 1% too fast
# fail the contour check.
CHECKS = {
    ("burgers-full", "test4"): _viscous_burgers_checks,
    ("desk-suite", "levelset"): lambda prep: _levelset_checks(prep, 3.5e-3),
    ("desk-suite", "test1"): lambda prep: _pure_transport_checks(prep, lambda u: np.ones_like(u)),
    ("desk-suite", "test3"): lambda prep: _pure_transport_checks(prep, lambda u: u),
}


def checks_for(workload: str, prep: Prepared) -> List[Check]:
    rule = CHECKS.get((workload, prep.label))
    return rule(prep) if rule else []
