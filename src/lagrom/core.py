"""Grids, problem definitions, state vectors, interpolation, snapshot assembly.

Everything here is immutable after construction (arrays are marked read-only),
so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import kernels
from .errors import DimensionMismatch, GridEntanglement, NonMonotonicGrid, NumericalFailure

# Every number the library writes to disk: 17 significant digits round-trip
# any float64 exactly, so identical runs emit identical bytes.
NUMBER_FORMAT = "%.17g"

DIRICHLET_ZERO = "dirichlet-zero"
PERIODIC = "periodic"
_BC_TAGS = (DIRICHLET_ZERO, PERIODIC)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid1D:
    """Ordered 1-D grid. ``uniform`` asserts constant spacing to 1e-12 relative."""

    nodes: np.ndarray
    uniform: bool = False

    def __post_init__(self):
        nodes = _readonly(np.atleast_1d(self.nodes))
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 1:
            raise DimensionMismatch("grid nodes must be a 1-D array")
        if nodes.size > 1:
            gaps = np.diff(nodes)
            if np.any(gaps <= 0):
                raise NonMonotonicGrid("grid nodes must be strictly increasing")
            if self.uniform:
                span = nodes[-1] - nodes[0]
                if np.max(np.abs(gaps - gaps[0])) > 1e-12 * max(span, 1.0):
                    raise NonMonotonicGrid("grid flagged uniform has uneven spacing")

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])


def uniform_grid(lo: float, hi: float, n: int, periodic: bool = False) -> Grid1D:
    """Collocation nodes for the unit interval convention used everywhere.

    Dirichlet problems place n nodes on [lo, hi] inclusive; periodic problems
    place n nodes on [lo, hi) so the wrapped endpoint is not duplicated.
    """
    if periodic:
        nodes = lo + np.arange(n) * ((hi - lo) / n)
    else:
        nodes = np.linspace(lo, hi, n)
    return Grid1D(nodes, uniform=True)


@dataclass(frozen=True)
class ProblemSpec:
    """One advection-diffusion problem instance.

    ``flux_f`` is the wave speed u -> f(u) and ``flux_F`` the conserved flux
    u -> F(u) with f = dF/du; both must accept numpy arrays. ``flux_df`` is
    the derivative f'(u) of the wave speed; it may return a scalar (constant
    f', as for Burgers or constant-speed transport) or an array.

    ``diffusion_D`` is ``None`` for the identically-zero case, which lets the
    semi-Lagrangian stepper skip its interpolation round-trips entirely; a
    number for a constant coefficient, which lets every stepper build and
    factor its implicit system once per run; or a callable mapping (x, t, u)
    to a coefficient (scalar or array), evaluated at every step.
    """

    domain_lo: float
    domain_hi: float
    n_cells: int
    n_steps: int
    t_final: float
    flux_f: Callable
    flux_F: Callable
    flux_df: Callable
    diffusion_D: Union[None, float, Callable]
    initial_u0: Callable
    bc: str = DIRICHLET_ZERO
    bc_values: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if not self.domain_hi > self.domain_lo:
            raise ValueError("domain_hi must exceed domain_lo")
        if self.bc not in _BC_TAGS:
            raise ValueError(f"unknown boundary condition tag {self.bc!r}")
        if self.diffusion_D is not None and not callable(self.diffusion_D):
            object.__setattr__(self, "diffusion_D", float(self.diffusion_D))

    @property
    def diffusion_is_constant(self) -> bool:
        """True when D is a number, so the implicit system is fixed for a run."""
        return isinstance(self.diffusion_D, float)

    @property
    def periodic(self) -> bool:
        return self.bc == PERIODIC

    @property
    def domain_length(self) -> float:
        return self.domain_hi - self.domain_lo

    @property
    def dx(self) -> float:
        # Matches the node layout of uniform_grid: periodic grids omit the
        # duplicate endpoint, Dirichlet grids include both endpoints.
        if self.periodic:
            return self.domain_length / self.n_cells
        return self.domain_length / (self.n_cells - 1)

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def grid(self) -> Grid1D:
        return uniform_grid(self.domain_lo, self.domain_hi, self.n_cells, self.periodic)

    def initial_state(self) -> "StateVector":
        grid = self.grid()
        return StateVector(np.asarray(self.initial_u0(grid.nodes), dtype=float), grid, 0)

    def diffusion_at(self, x: np.ndarray, t: float, u: np.ndarray) -> np.ndarray:
        """Evaluate D on the given nodes, broadcasting scalar coefficients."""
        d = self.diffusion_D
        d = np.asarray(d(x, t, u) if callable(d) else d, dtype=float)
        if d.ndim == 0:
            return np.full(x.shape, float(d))
        return d

    def validate_flux_consistency(self, u_samples=None, tol: float = 1e-6) -> float:
        """Check f = dF/du and f' = df/du by centered differences on sampled states.

        Returns the worst absolute deviation; raises ValueError beyond ``tol``.
        Run once per problem definition, not inside step loops.
        """
        if u_samples is None:
            u0 = np.asarray(self.initial_u0(self.grid().nodes), dtype=float)
            lo, hi = float(np.min(u0)), float(np.max(u0))
            pad = 0.5 * max(hi - lo, 1.0)
            u_samples = np.linspace(lo - pad, hi + pad, 33)
        u_samples = np.asarray(u_samples, dtype=float)
        h = 1e-4 * np.maximum(1.0, np.abs(u_samples))

        def worst_deviation(antiderivative, derivative):
            approx = (np.asarray(antiderivative(u_samples + h)) - np.asarray(antiderivative(u_samples - h))) / (2 * h)
            return float(np.max(np.abs(approx - np.asarray(derivative(u_samples)))))

        worst_f = worst_deviation(self.flux_F, self.flux_f)
        if worst_f > tol:
            raise ValueError(f"flux_f and flux_F are inconsistent (max deviation {worst_f:.3e})")
        worst_df = worst_deviation(self.flux_f, self.flux_df)
        if worst_df > tol:
            raise ValueError(f"flux_df and flux_f are inconsistent (max deviation {worst_df:.3e})")
        return max(worst_f, worst_df)


@dataclass(frozen=True)
class StateVector:
    """Solution values on a grid at one time level."""

    values: np.ndarray
    grid: Grid1D
    time_index: int = 0

    def __post_init__(self):
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.grid),):
            raise DimensionMismatch(
                f"state length {values.shape} does not match grid length {len(self.grid)}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericalFailure("state vector contains NaN or Inf")


@dataclass(frozen=True)
class SnapshotMatrix:
    """Column-ordered time series of state (or observable) vectors."""

    data: np.ndarray
    col_times: np.ndarray

    def __post_init__(self):
        data = _readonly(np.atleast_2d(self.data))
        times = np.array(self.col_times, dtype=int)
        times.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "col_times", times)
        if data.ndim != 2:
            raise DimensionMismatch("snapshot data must be 2-D")
        if times.shape != (data.shape[1],):
            raise DimensionMismatch("col_times length must equal the number of columns")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise DimensionMismatch("col_times must be strictly increasing")
        if data.shape[1] and np.any(np.all(np.isnan(data), axis=0)):
            raise NumericalFailure("snapshot matrix contains an all-NaN column")

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def has_unit_stride(self) -> bool:
        return self.col_times.size < 2 or bool(np.all(np.diff(self.col_times) == 1))


def _grid_nodes(grid) -> np.ndarray:
    nodes = grid.nodes if isinstance(grid, Grid1D) else np.asarray(grid, dtype=float)
    if nodes.ndim != 1:
        raise DimensionMismatch("grid must be one-dimensional")
    if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
        raise NonMonotonicGrid("source grid must be strictly increasing")
    return nodes


def interp_unchecked(src: np.ndarray, vals: np.ndarray, dst: np.ndarray, periodic: bool, period: float = None) -> np.ndarray:
    """Interpolation core without input validation, for verified hot loops.

    The periodic branch wraps destination coordinates into the source window
    and bridges the seam across one period, which matches
    ``np.interp(..., period=...)`` for a strictly increasing source spanning
    less than one period but skips that routine's internal sort.
    """
    if periodic:
        if src[-1] - src[0] >= period:
            return np.interp(dst, src, vals, period=period)
        return kernels.interp_periodic(src, vals, dst, period)
    return kernels.interp_clamped(src, vals, dst)


def linear_interpolate(src_grid, src_values, dst_grid, bc: str = "clamp", period: float = None) -> np.ndarray:
    """Piecewise-linear interpolation of (src_grid, src_values) at dst nodes.

    Destination nodes outside the source hull follow the boundary rule:
    ``bc="clamp"`` holds the edge sample (Dirichlet-type problems), while
    ``bc="periodic"`` wraps coordinates by ``period`` before interpolating.
    """
    src = _grid_nodes(src_grid)
    dst = dst_grid.nodes if isinstance(dst_grid, Grid1D) else np.asarray(dst_grid, dtype=float)
    scalar = dst.ndim == 0
    dst = np.atleast_1d(dst)
    vals = np.asarray(src_values, dtype=float)
    if vals.shape != src.shape:
        raise DimensionMismatch("src_values length must match src_grid length")
    if bc == "periodic":
        if period is None:
            raise ValueError("periodic interpolation requires the domain period")
        out = interp_unchecked(src, vals, dst, True, period)
    else:
        out = interp_unchecked(src, vals, dst, False)
    return out[0] if scalar else out


def assemble_snapshots(states: Sequence, grids: Sequence = None) -> SnapshotMatrix:
    """Stack states (optionally with their grids on top) into a snapshot matrix.

    Without grids, column k is state k. With grids, column k is the vertical
    stack [grid_k; state_k], grid block first.
    """
    if len(states) == 0:
        raise DimensionMismatch("need at least one state to assemble")
    vals = []
    times = []
    for k, s in enumerate(states):
        if isinstance(s, StateVector):
            vals.append(s.values)
            times.append(s.time_index)
        else:
            vals.append(np.asarray(s, dtype=float))
            times.append(k)
    n = vals[0].size
    if any(v.size != n for v in vals):
        raise DimensionMismatch("states have inconsistent lengths")
    if grids is not None:
        if len(grids) != len(vals):
            raise DimensionMismatch("need one grid per state")
        gs = [g.nodes if isinstance(g, Grid1D) else np.asarray(g, dtype=float) for g in grids]
        if any(g.size != n for g in gs):
            raise DimensionMismatch("grids have inconsistent lengths")
        cols = [np.concatenate([g, v]) for g, v in zip(gs, vals)]
    else:
        cols = vals
    return SnapshotMatrix(np.column_stack(cols), np.asarray(times, dtype=int))


def split_stacked(data, n: int = None):
    """Undo the [grid; state] stacking: returns (grid_block, state_block)."""
    mat = data.data if isinstance(data, SnapshotMatrix) else np.asarray(data)
    rows = mat.shape[0]
    if n is None:
        if rows % 2:
            raise DimensionMismatch("stacked matrix must have an even number of rows")
        n = rows // 2
    if not 0 < n < rows:
        raise DimensionMismatch("split row outside matrix")
    return mat[:n], mat[n:]


def stacked_to_grid(stacked, grid, bc: str = "clamp", period: float = None):
    """Take one stacked [x; u] column back to ``grid``.

    Splits the column at its midpoint and interpolates the values onto the
    grid nodes with the given boundary rule. Returns (positions, values,
    values_on_grid). The positions must be strictly increasing; crossings
    mean the moving grid is unusable.
    """
    col = np.asarray(stacked, dtype=float)
    if col.size != 2 * len(grid):
        raise DimensionMismatch("stacked prediction must have 2N rows")
    positions, values = col[: col.size // 2], col[col.size // 2 :]
    if np.any(np.diff(positions) <= 0.0):
        raise GridEntanglement("predicted positions are not strictly increasing")
    return positions, values, linear_interpolate(positions, values, grid, bc=bc, period=period)


def format_row(values) -> str:
    """One comma-separated line (no newline) of numbers in ``NUMBER_FORMAT``."""
    return ",".join([NUMBER_FORMAT] * len(values)) % tuple(values)
