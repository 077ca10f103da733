"""Shared problem builders for the test suite."""

import numpy as np
import pytest

from lagrom.core import DIRICHLET_ZERO, PERIODIC, ProblemSpec
from lagrom.presets import (
    burgers_flux,
    burgers_speed,
    burgers_speed_derivative,
    constant_speed_flux,
    gaussian_pulse,
    one_plus_sin,
)


def make_spec(
    speed="const",
    c=1.0,
    diffusion=None,
    n=200,
    m_steps=100,
    t_final=1.0,
    bc=DIRICHLET_ZERO,
    ic=None,
    bc_values=(0.0, 0.0),
):
    """Small advection-diffusion problem with preset-style ingredients."""
    if speed == "burgers":
        f, flux, df = burgers_speed, burgers_flux, burgers_speed_derivative
        lo, hi = 0.0, 2.0 * np.pi
        ic = ic or one_plus_sin
    else:
        f, flux, df = constant_speed_flux(c)
        lo, hi = 0.0, 2.0
        ic = ic or gaussian_pulse
    return ProblemSpec(
        domain_lo=lo,
        domain_hi=hi,
        n_cells=n,
        n_steps=m_steps,
        t_final=t_final,
        flux_f=f,
        flux_F=flux,
        flux_df=df,
        diffusion_D=diffusion,
        initial_u0=ic,
        bc=bc,
        bc_values=bc_values,
    )


def drifting_stacked(spec, count):
    """Stacked [x; u] columns at indices 1..count (count < 500): moving grids
    drifting and contracting about the first node, so every periodic column
    spans less than one period, as an untangled periodic grid must."""
    nodes = spec.grid().nodes
    k = np.arange(1, count + 1)
    positions = nodes[0] + (nodes[:, None] - nodes[0]) * (1.0 - 0.002 * k) + 0.01 * k
    values = np.sin(nodes[:, None] + 0.1 * k)
    return np.vstack([positions, values])


def burgers_characteristics(x, t):
    """Exact inviscid Burgers state for u0 = 1 + sin(x): solves u = 1 + sin(x - u t).

    Vectorised bisection on u in [0, 2], where g(u) = u - 1 - sin(x - u t) is
    non-decreasing for 0 <= t <= 1 (g' = 1 + t cos(x - u t) >= 0) and changes
    sign (g(0) <= 0 <= g(2)). Unlike a Newton solve on the foot point, it stays
    well posed at t = 1, where 1 + t cos(x0) vanishes at x0 = pi.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"bracket holds for 0 <= t <= 1, got t = {t}")
    x = np.asarray(x, dtype=float)
    lo = np.zeros_like(x)
    hi = np.full_like(x, 2.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = mid - 1.0 - np.sin(x - mid * t) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.fixture
def advection_spec():
    return make_spec(speed="const", c=1.0, n=200, m_steps=100)


@pytest.fixture
def burgers_spec():
    return make_spec(speed="burgers", n=200, m_steps=100, bc=PERIODIC)


@pytest.fixture
def viscous_burgers_spec():
    return make_spec(speed="burgers", diffusion=0.1, n=200, m_steps=100, bc=PERIODIC)
