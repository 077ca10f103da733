"""Bundled experiment presets and the configuration record the CLI consumes.

The presets cover two regimes of the linear problem on [0, 2] with a narrow
Gaussian pulse (a diffusion-dominated case where fixed-grid reduced models
work, and an advection-dominated case where they break down), the same pulse
under pure and diffusive transport for the moving-frame methods, and the
inviscid/viscous Burgers problems on [0, 2*pi] with a 1 + sin(x) profile,
plus the level-set embedding of the inviscid case.

Full-size runs use N = 2000, M = 1000 steps and m = 250 training snapshots;
``scale`` divides all three so the Courant number is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import DIRICHLET_ZERO, PERIODIC, ProblemSpec
from .svd_core import check_rank_rule

METHOD_EULERIAN_DMD = "eulerian-dmd"
METHOD_EULERIAN_POD = "eulerian-pod"
METHOD_LAGRANGIAN_DMD = "lagrangian-dmd"
METHOD_LAGRANGIAN_POD = "lagrangian-pod"
METHOD_LEVELSET_DMD = "levelset-dmd"

ALL_METHODS = (
    METHOD_EULERIAN_DMD,
    METHOD_EULERIAN_POD,
    METHOD_LAGRANGIAN_DMD,
    METHOD_LAGRANGIAN_POD,
    METHOD_LEVELSET_DMD,
)

PRESET_NAMES = (
    "test0-diffusion",
    "test0-advection",
    "test1",
    "test2",
    "test3",
    "test4",
    "levelset",
    "custom",
)

BASE_N = 2000
BASE_M = 1000
BASE_SNAPSHOTS = 250
DEFAULT_EPSILON = 1e-8


def gaussian_pulse(x):
    return 0.5 * np.exp(-(((x - 0.3) / 0.05) ** 2))


def one_plus_sin(x):
    return 1.0 + np.sin(x)


def constant_speed_flux(c: float):
    """Wave speed, flux and speed derivative of transport at constant speed c."""

    def speed(u):
        return np.full_like(np.asarray(u, dtype=float), c)

    def flux(u):
        return c * np.asarray(u, dtype=float)

    def speed_derivative(u):
        return 0.0

    return speed, flux, speed_derivative


def burgers_speed(u):
    return np.asarray(u, dtype=float)


def burgers_flux(u):
    u = np.asarray(u, dtype=float)
    return 0.5 * u * u


def burgers_speed_derivative(u):
    return 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """User-facing experiment description; unset fields take preset defaults."""

    preset: str
    scale: int = 1
    n_cells: Optional[int] = None
    n_steps: Optional[int] = None
    n_snapshots: Optional[int] = None
    epsilon: Optional[float] = None
    fixed_rank: Optional[int] = None
    methods: Optional[Tuple[str, ...]] = None
    output_dir: Optional[str] = None
    n_y: Optional[int] = None
    custom: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.preset not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESET_NAMES}")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        if self.epsilon is not None or self.fixed_rank is not None:
            check_rank_rule(self.epsilon, self.fixed_rank)
        if self.methods is not None:
            unknown = set(self.methods) - set(ALL_METHODS)
            if unknown:
                raise ValueError(f"unknown methods {sorted(unknown)}")


@dataclass(frozen=True)
class ResolvedExperiment:
    """Fully materialized experiment: problem, training size, methods."""

    label: str
    spec: ProblemSpec
    n_snapshots: int
    epsilon: Optional[float]
    fixed_rank: Optional[int]
    methods: Tuple[str, ...]
    n_y: Optional[int]
    description: str


_PRESET_TABLE = {
    "test0-diffusion": dict(
        domain=(0.0, 2.0),
        bc=DIRICHLET_ZERO,
        speed=1e-4,
        diffusion=1e-2,
        ic="gaussian",
        rank=20,
        epsilon=None,
        methods=(METHOD_EULERIAN_DMD, METHOD_EULERIAN_POD),
        description="diffusion-dominated linear transport; fixed-grid reduced models stay accurate at short horizons",
    ),
    "test0-advection": dict(
        domain=(0.0, 2.0),
        bc=DIRICHLET_ZERO,
        speed=1.0,
        diffusion=1e-3,
        ic="gaussian",
        rank=20,
        epsilon=None,
        methods=(METHOD_EULERIAN_DMD, METHOD_EULERIAN_POD),
        description="advection-dominated linear transport; fixed-grid reduced models produce oscillatory, negative predictions",
    ),
    "test1": dict(
        domain=(0.0, 2.0),
        bc=DIRICHLET_ZERO,
        speed=1.0,
        diffusion=None,
        ic="gaussian",
        rank=None,
        epsilon=DEFAULT_EPSILON,
        methods=(METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD),
        description="pure linear advection; moving-frame models are exact to rounding",
    ),
    "test2": dict(
        domain=(0.0, 2.0),
        bc=DIRICHLET_ZERO,
        speed=1.0,
        diffusion=0.01,
        ic="gaussian",
        rank=None,
        epsilon=DEFAULT_EPSILON,
        methods=(METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD),
        description="linear advection-diffusion; moving-frame models extrapolate with slowly growing error",
    ),
    "test3": dict(
        domain=(0.0, 2.0 * np.pi),
        bc=PERIODIC,
        speed="burgers",
        diffusion=None,
        ic="one-plus-sin",
        rank=None,
        epsilon=DEFAULT_EPSILON,
        methods=(METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD),
        description="inviscid Burgers before shock formation; characteristics make moving-frame models exact",
    ),
    "test4": dict(
        domain=(0.0, 2.0 * np.pi),
        bc=PERIODIC,
        speed="burgers",
        diffusion=0.1,
        ic="one-plus-sin",
        rank=None,
        epsilon=DEFAULT_EPSILON,
        methods=(METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD),
        description="viscous Burgers; moving-frame models track the diffusing profile",
    ),
    "levelset": dict(
        domain=(0.0, 2.0 * np.pi),
        bc=PERIODIC,
        speed="burgers",
        diffusion=None,
        ic="one-plus-sin",
        rank=None,
        epsilon=DEFAULT_EPSILON,
        methods=(METHOD_LEVELSET_DMD,),
        description="inviscid Burgers recast as 2-D linear transport; contours of the DMD field recover the state",
    ),
}

_ICS = {
    "gaussian": gaussian_pulse,
    "one-plus-sin": one_plus_sin,
}


def _build_spec(entry: dict, n: int, m_steps: int) -> ProblemSpec:
    lo, hi = entry["domain"]
    if entry["speed"] == "burgers":
        speed, flux, speed_derivative = burgers_speed, burgers_flux, burgers_speed_derivative
    else:
        speed, flux, speed_derivative = constant_speed_flux(float(entry["speed"]))
    return ProblemSpec(
        domain_lo=lo,
        domain_hi=hi,
        n_cells=n,
        n_steps=m_steps,
        t_final=1.0,
        flux_f=speed,
        flux_F=flux,
        flux_df=speed_derivative,
        diffusion_D=entry["diffusion"],
        initial_u0=_ICS[entry["ic"]],
        bc=entry["bc"],
        bc_values=(0.0, 0.0),
    )


def _custom_entry(config: ExperimentConfig) -> dict:
    opts = dict(config.custom)
    flux_kind = str(opts.get("flux", "burgers"))
    if flux_kind.startswith("const:"):
        speed = float(flux_kind.split(":", 1)[1])
    elif flux_kind == "burgers":
        speed = "burgers"
    else:
        raise ValueError(f"unknown flux family {flux_kind!r} (use 'burgers' or 'const:<speed>')")
    diffusion = opts.get("diffusion", "none")
    diffusion = None if str(diffusion).lower() in {"none", ""} else float(diffusion)
    ic = str(opts.get("ic", "gaussian"))
    if ic not in _ICS:
        raise ValueError(f"unknown initial profile {ic!r} (use {sorted(_ICS)})")
    bc = str(opts.get("bc", DIRICHLET_ZERO))
    domain = (
        float(opts.get("domain_lo", 0.0)),
        float(opts.get("domain_hi", 2.0 * np.pi if bc == PERIODIC else 2.0)),
    )
    return dict(
        domain=domain,
        bc=bc,
        speed=speed,
        diffusion=diffusion,
        ic=ic,
        rank=None,
        epsilon=DEFAULT_EPSILON,
        methods=(METHOD_LAGRANGIAN_DMD, METHOD_LAGRANGIAN_POD),
        description="user-defined problem",
    )


def resolve(config: ExperimentConfig) -> ResolvedExperiment:
    """Apply preset defaults, scale, and overrides; validate consistency."""
    entry = _custom_entry(config) if config.preset == "custom" else _PRESET_TABLE[config.preset]
    n = config.n_cells if config.n_cells is not None else max(BASE_N // config.scale, 8)
    m_steps = config.n_steps if config.n_steps is not None else max(BASE_M // config.scale, 4)
    m = config.n_snapshots if config.n_snapshots is not None else max(BASE_SNAPSHOTS // config.scale, 3)
    if not m < m_steps:
        raise ValueError(f"training snapshots m = {m} must be fewer than steps M = {m_steps}")
    epsilon = config.epsilon
    fixed_rank = config.fixed_rank
    if epsilon is None and fixed_rank is None:
        epsilon = entry["epsilon"]
        fixed_rank = entry["rank"]
    methods = config.methods if config.methods is not None else entry["methods"]
    spec = _build_spec(entry, n, m_steps)
    return ResolvedExperiment(
        label=config.preset,
        spec=spec,
        n_snapshots=m,
        epsilon=epsilon,
        fixed_rank=fixed_rank,
        methods=tuple(methods),
        n_y=config.n_y,
        description=entry["description"],
    )


def parse_config_file(path) -> ExperimentConfig:
    """Flat key=value text file mirroring ExperimentConfig fields."""
    known = {
        "preset",
        "scale",
        "n_cells",
        "n_steps",
        "n_snapshots",
        "epsilon",
        "fixed_rank",
        "methods",
        "output_dir",
        "n_y",
    }
    custom_keys = {"flux", "diffusion", "ic", "bc", "domain_lo", "domain_hi"}
    values = {}
    custom = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key in custom_keys:
                custom[key] = val
            elif key in known:
                values[key] = val
            else:
                raise ValueError(f"unknown config key {key!r}")
    kwargs = {"preset": values.get("preset", "custom"), "custom": custom}
    if "scale" in values:
        kwargs["scale"] = int(values["scale"])
    for key in ("n_cells", "n_steps", "n_snapshots", "fixed_rank", "n_y"):
        if key in values:
            kwargs[key] = int(values[key])
    if "epsilon" in values:
        kwargs["epsilon"] = float(values["epsilon"])
    if "methods" in values:
        kwargs["methods"] = tuple(s.strip() for s in values["methods"].split(",") if s.strip())
    if "output_dir" in values:
        kwargs["output_dir"] = values["output_dir"]
    return ExperimentConfig(**kwargs)
