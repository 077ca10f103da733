"""Grids, problem definitions, state vectors, interpolation, snapshot assembly.

Everything here is immutable after construction (arrays are marked read-only),
so instances can be shared freely across threads. A float64 array is adopted
without a copy when it and every array it is a view of are read-only and the
chain ends in an array that owns its memory; anything else is copied, since a
read-only view of a writeable base could still change under the instance.

``ProblemSpec`` is the one reader of the problem: solvers and steppers take
its boundary rule (``period``) and its functions, evaluated as arrays, from
it. ``real_array`` is the one door for real float64 data (the problem's
functions, interpolation, fits, the window QR, scoring); it, these classes
and ``write_number_table`` raise TypeError on complex input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .errors import CflViolation, DimensionMismatch, GridEntanglement, NonMonotonicGrid, NumericalFailure

# Every number the library writes to disk: 17 significant digits round-trip
# any float64 exactly, so identical runs emit identical bytes.
NUMBER_FORMAT = "%.17g"

DIRICHLET_ZERO = "dirichlet-zero"
PERIODIC = "periodic"
_BC_TAGS = (DIRICHLET_ZERO, PERIODIC)

# Courant numbers up to 1 + CFL_SLACK pass: a step sized to exactly 1 may round above it.
CFL_SLACK = 1e-12


def _readonly(arr: np.ndarray) -> np.ndarray:
    if type(arr) is np.ndarray and not arr.flags.writeable and arr.dtype == np.float64:
        link = arr.base
        while type(link) is np.ndarray and not link.flags.writeable:
            link = link.base
        if link is None:
            return arr
    out = np.array(real_array(arr))
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
    f', as for Burgers or constant-speed transport) or an array. Solvers read
    them and u0 through ``speed``, ``flux``, ``speed_slope``, ``initial_state``.

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
    def period(self) -> Optional[float]:
        """The boundary rule: the domain length when periodic, else None."""
        return self.domain_length if self.periodic else None

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

    def speed(self, u: np.ndarray) -> np.ndarray:
        """f(u) at every point of ``u``, also when ``flux_f`` returns one number."""
        f = real_array(self.flux_f(u))
        if f.ndim == 0:
            return np.full(u.shape, float(f))
        return f

    def flux(self, u: np.ndarray) -> np.ndarray:
        """F(u)."""
        return real_array(self.flux_F(u))

    def speed_slope(self, u: np.ndarray) -> np.ndarray:
        """f'(u), 0-d when ``flux_df`` returns one number (a constant f')."""
        return real_array(self.flux_df(u))

    def initial_state(self) -> np.ndarray:
        """u0 on the grid nodes, read-only; raises DimensionMismatch for
        another shape and NumericalFailure (time index 0) unless finite."""
        nodes = self.grid().nodes
        u0 = _readonly(self.initial_u0(nodes))
        if u0.shape != nodes.shape:
            raise DimensionMismatch(f"initial state of shape {u0.shape} on a grid of {nodes.size} nodes")
        if not np.isfinite(u0).all():
            raise NumericalFailure("initial state contains NaN or Inf at time index 0", time_index=0)
        return u0

    def diffusion_at(self, x: np.ndarray, t: float, u: np.ndarray) -> np.ndarray:
        """Evaluate D on the given nodes, broadcasting scalar coefficients."""
        d = self.diffusion_D
        d = real_array(d(x, t, u) if callable(d) else d)
        if d.ndim == 0:
            return np.full(x.shape, float(d))
        return d

    def validate_flux_consistency(self) -> float:
        """Check f = dF/du and f' = df/du by centered differences at 33 states
        spanning u0's range padded by half its width (at least 0.5 each side).

        Returns the worst absolute deviation; raises ValueError beyond 1e-6.
        Run once per problem definition, not inside step loops.
        """
        u0 = self.initial_state()
        lo, hi = float(np.min(u0)), float(np.max(u0))
        pad = 0.5 * max(hi - lo, 1.0)
        u_samples = np.linspace(lo - pad, hi + pad, 33)
        h = 1e-4 * np.maximum(1.0, np.abs(u_samples))

        def worst_deviation(antiderivative, derivative):
            approx = (antiderivative(u_samples + h) - antiderivative(u_samples - h)) / (2 * h)
            return float(np.max(np.abs(approx - derivative(u_samples))))

        worst_f = worst_deviation(self.flux, self.speed)
        if worst_f > 1e-6:
            raise ValueError(f"flux_f and flux_F are inconsistent (max deviation {worst_f:.3e})")
        worst_df = worst_deviation(self.speed, self.speed_slope)
        if worst_df > 1e-6:
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


def real_array(x) -> np.ndarray:
    """The float64 data of a ``SnapshotMatrix`` or an array-like, without a
    copy of float64 input; raises TypeError on complex input."""
    # The solvers pass a float64 array on every step: return it at once.
    if type(x) is np.ndarray and x.dtype == np.float64:
        return x
    data = x.data if isinstance(x, SnapshotMatrix) else x
    if np.iscomplexobj(data):
        raise TypeError(f"complex input ({np.asarray(data).dtype}) where real float64 data is required")
    return np.asarray(data, dtype=float)


def first_time_index(x) -> int:
    """A unit-stride ``SnapshotMatrix``'s first column time (0 with no
    columns), or 1 for an array; raises DimensionMismatch for another stride."""
    if not isinstance(x, SnapshotMatrix):
        return 1
    if not x.has_unit_stride():
        raise DimensionMismatch("training snapshots must have unit time stride")
    return int(x.col_times[0]) if x.n_snapshots else 0


def _grid_nodes(grid) -> np.ndarray:
    nodes = grid.nodes if isinstance(grid, Grid1D) else real_array(grid)
    if nodes.ndim != 1:
        raise DimensionMismatch("grid must be one-dimensional")
    if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
        raise NonMonotonicGrid("source grid must be strictly increasing")
    return nodes


def check_courant(speeds: np.ndarray, dt: float, dx: float, time_index: int, what: str = "Courant number") -> float:
    """max|speeds|·dt/dx of the explicit step to ``time_index``; past
    1 + ``CFL_SLACK`` raises ``CflViolation`` whose message opens with ``what``."""
    fastest = float(np.max(np.abs(speeds)))
    courant = fastest * dt / dx
    if courant > 1.0 + CFL_SLACK:
        raise CflViolation(
            f"{what} {courant:.6f} exceeds 1 (max |f(u)| = {fastest:.6g}) (time index {time_index})",
            max_speed=fastest,
            time_index=time_index,
        )
    return courant


def check_untangled(positions: np.ndarray, period: float = None, what: str = "moving grid", first_index: int = None) -> None:
    """Raise ``GridEntanglement``, naming the time index, unless the moving
    grid ``positions`` (or each row, at indices ``first_index`` on) increases
    strictly and, given a ``period``, its last node has not passed the first
    node's periodic image: such a grid overlaps itself across the seam.

    A single grid (one per solver and rollout step) takes a 1-D path without
    the per-row reductions. Both paths compare differences with zero, so a
    NaN difference (a NaN position, or inf - inf) is no fold in either."""
    if positions.ndim == 1:
        tangled = (positions[1:] - positions[:-1] <= 0.0).any() or (
            period is not None and float(positions[-1]) - float(positions[0]) >= period
        )
        k = first_index
    else:
        rows = np.any(np.diff(positions, axis=-1) <= 0.0, axis=-1)
        if period is not None:
            rows |= positions[..., -1] - positions[..., 0] >= period
        tangled = rows.any()
        k = None if first_index is None else first_index + int(np.argmax(rows))
    if tangled:
        where = "" if k is None else f" at time index {k}"
        raise GridEntanglement(f"{what} tangled{where}", time_index=k)


def interp_source(src: np.ndarray, period: float = None) -> np.ndarray:
    """The nodes ``src`` as ``interp_unchecked`` reads them: given a
    ``period``, with the first node's periodic image appended
    (``kernels.periodic_source``). A fixed grid builds this once per run."""
    if period is None:
        return src
    return kernels.periodic_source(src, period)


def interp_unchecked(source: np.ndarray, vals: np.ndarray, dst: np.ndarray, period: float = None) -> np.ndarray:
    """Interpolation core without input validation, for verified hot loops.

    ``source`` is ``interp_source(src, period)`` for strictly increasing
    nodes ``src`` carrying ``vals``, and ``dst`` is ascending. Given a
    ``period``, destinations wrap into the source window and the seam is
    bridged across one period, as ``np.interp(..., period=...)`` does for a
    source spanning less than one period, without its sort; without one,
    they clamp to the hull.
    """
    if period is None:
        return kernels.interp_clamped(source, vals, dst)
    return kernels.interp_periodic(source, vals, dst, period)


def carried_to_grid(x: np.ndarray, u: np.ndarray, nodes: np.ndarray, period: float = None) -> np.ndarray:
    """The values ``u`` carried on the moving grid ``x`` (unchecked) at the
    fixed ``nodes``: a moving-frame state on the fixed grid, and the first
    leg of the moving-grid round trip."""
    return interp_unchecked(interp_source(x, period), u, nodes, period)


def linear_interpolate(src_grid, src_values, dst_grid, period: float = None) -> np.ndarray:
    """Piecewise-linear interpolation of (src_grid, src_values) at dst nodes.

    Outside the source hull, destinations take the edge sample when
    ``period`` (``ProblemSpec.period``) is None, else wrap by it first,
    through ``np.interp`` for a source spanning a whole period.
    Destinations may come in any order: the periodic kernel wraps an
    ascending destination by the bounds its end points give, so they are
    sorted here, and framed by their minimum and maximum, which are NaN
    when one of them is, as two reductions over them would be.
    """
    src = _grid_nodes(src_grid)
    dst = dst_grid.nodes if isinstance(dst_grid, Grid1D) else real_array(dst_grid)
    scalar = dst.ndim == 0
    dst = np.atleast_1d(dst)
    vals = real_array(src_values)
    if vals.shape != src.shape:
        raise DimensionMismatch("src_values length must match src_grid length")
    if period is None:
        out = interp_unchecked(src, vals, dst)
    elif src[-1] - src[0] >= period:
        out = np.interp(dst, src, vals, period=period)
    elif dst.size:
        order = np.argsort(dst, kind="stable")
        framed = np.concatenate([[np.min(dst)], dst[order], [np.max(dst)]])
        out = np.empty(dst.shape)
        out[order] = interp_unchecked(interp_source(src, period), vals, framed, period)[1:-1]
    else:
        out = np.empty(0)
    return out[0] if scalar else out


def split_stacked(data):
    """Undo the [grid; state] stacking: returns (grid_block, state_block)."""
    mat = real_array(data)
    rows = mat.shape[0]
    if rows % 2 or rows == 0:
        raise DimensionMismatch("stacked matrix must have an even, nonzero number of rows")
    return mat[: rows // 2], mat[rows // 2 :]


def side_by_side(blocks, rows: int, count: int, order: str = "C") -> np.ndarray:
    """The column blocks of a stream, placed side by side in one (rows,
    count) array of the given memory order."""
    out = np.empty((rows, count), order=order)
    start = 0
    for block in blocks:
        out[:, start : start + block.shape[1]] = block
        start += block.shape[1]
    return out


def stacked_to_grid(stacked, grid, period: float = None, first_index: int = None) -> np.ndarray:
    """The values on ``grid`` of one stacked [x; u] column (1-D), or of a
    block of them (2-D, column-contiguous) at time indices ``first_index`` on.

    Each column splits at its midpoint and is interpolated onto the grid
    nodes with the boundary rule ``period``, as in ``linear_interpolate``.
    The first tangled column (``check_untangled``, the seam included when
    periodic) raises ``GridEntanglement`` with its time index. That is the
    only check the positions need, so the contiguous time-major copy of the
    columns is checked at once and interpolated unchecked row by row.
    """
    block = real_array(stacked)
    nodes = grid.nodes if isinstance(grid, Grid1D) else real_array(grid)
    n = nodes.size
    if block.shape[0] != 2 * n:
        raise DimensionMismatch("stacked prediction must have 2N rows")
    rows = np.ascontiguousarray(np.atleast_2d(block.T))
    check_untangled(rows[:, :n], period, "predicted positions", first_index)
    out = np.empty((rows.shape[0], n))
    for j, row in enumerate(rows):
        out[j] = carried_to_grid(row[:n], row[n:], nodes, period)
    return out[0] if block.ndim == 1 else out.T


# Cells formatted per block and per compaction step: bound the writer's
# scratch memory (48 canvas bytes per block cell, about 170 index bytes per
# step cell) whatever the table size.
_BLOCK_CELLS = 8192
_COMPACT_CELLS = 2048
# A nonzero |x| < 1e17 has exponent d in [-324, 16], so k = 16 - d in [0, 340].
_K_MAX = 340
# 5**k is exact in a double for k <= 22, so the scaled product is exact there.
_K_EXACT = 22
_TIE_WINDOW = 1e-9
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant

# Every byte a cell may print, in print order, 48 bytes (six 8-byte words)
# per cell; a cell's layout keeps a subset of them:
#    0 "-"   1 "0"   2 "."   3-5 "000"   6 + 2j digit j of 17
#    7 + 2j "." after digit j (j < 16)   39 "e"   40 "-"   41-43 the three
#    digits of |d|   44 separator   45-47 unused
_CANVAS_BYTES = 48
_SEP = 44
# Layout classes: 0..20 fixed notation with d = class - 4, then exponent
# notation with two or three exponent digits, then zero. A layout is
# (class, sign, significant digits); rows past them keep a prefix of the
# canvas, for cells formatted by ``%`` itself.
_EXP2, _EXP3, _ZERO_CLASS = 21, 22, 23
_PREFIX_LAYOUTS = (_ZERO_CLASS + 1) * 2 * 17


def _split(v):
    """Veltkamp split: v == hi + lo with each half holding 26 bits."""
    c = _SPLITTER * v
    hi = c - (c - v)
    return hi, v - hi


def _power5_tables():
    """hi, hi's split halves and lo with 5**k == hi + lo to about 2**-106.

    Built from Python ints; numpy int64 powers overflow from k = 28.
    """
    table = np.empty((4, _K_MAX + 1))
    for k in range(_K_MAX + 1):
        power = 5**k
        hi = float(power)
        table[:, k] = (hi, *_split(hi), float(power - int(hi)))
    return tuple(table)


def _layout_masks() -> np.ndarray:
    """Kept canvas bytes per layout, then the prefix rows."""
    grid = np.meshgrid(np.arange(_ZERO_CLASS + 1), (0, 1), np.arange(1, 18), indexing="ij")
    cls, negative, n_digits = (g.reshape(-1, 1) for g in grid)
    d = cls - 4
    zero = cls == _ZERO_CLASS
    expo = (cls == _EXP2) | (cls == _EXP3)
    integer = ~expo & ~zero & (d >= 0)
    small = ~expo & ~zero & (d < 0)
    masks = np.zeros((_PREFIX_LAYOUTS + _CANVAS_BYTES + 1, _CANVAS_BYTES), dtype=bool)
    layouts = masks[:_PREFIX_LAYOUTS]
    layouts[:, [0]] = negative == 1
    layouts[:, [1]] = small | zero
    layouts[:, [2]] = small
    layouts[:, 3:6] = small & (np.arange(3) < -d - 1)
    # fixed notation prints every integer digit, even a trailing zero
    layouts[:, 6:40:2] = ~zero & (np.arange(17) < np.where(integer, np.maximum(n_digits, d + 1), n_digits))
    dot_after = np.where(integer, d, np.where(expo, 0, -1))
    layouts[:, 7:38:2] = (np.arange(16) == dot_after) & (n_digits > dot_after + 1)
    layouts[:, [39, 40, 42, 43]] = expo
    layouts[:, [41]] = cls == _EXP3
    layouts[:, [_SEP]] = True
    masks[_PREFIX_LAYOUTS:] = np.arange(_CANVAS_BYTES) < np.arange(_CANVAS_BYTES + 1)[:, None]
    return masks


def _ascii_words(*columns) -> np.ndarray:
    """One 8-byte word per row from eight columns of byte values."""
    return np.ascontiguousarray(np.column_stack(np.broadcast_arrays(*columns)), dtype=np.uint8).view(np.uint64)[:, 0]


_POW5_HI, _POW5_HI_HI, _POW5_HI_LO, _POW5_LO = _power5_tables()
_LAYOUT_MASKS = _layout_masks()
# Canvas words: word 0 carries the leading digit, words 1-4 four digits
# each with a dot after every digit (the last word ends in "e" instead),
# word 5 the exponent of k.
_ZERO_CHAR, _DOT_CHAR = ord("0"), ord(".")
_LEAD_WORDS = _ascii_words(*b"-0.000", _ZERO_CHAR + np.arange(10), _DOT_CHAR)
_QUAD = np.arange(10000)
_QUAD_DIGITS = [_ZERO_CHAR + _QUAD // 10**p % 10 for p in (3, 2, 1, 0)]
_QUAD_COLUMNS = [c for digit in _QUAD_DIGITS for c in (digit, _DOT_CHAR)]
_QUAD_WORDS = _ascii_words(*_QUAD_COLUMNS)
_LAST_QUAD_WORDS = _ascii_words(*_QUAD_COLUMNS[:-1], ord("e"))
_EXPONENT = np.abs(16 - np.arange(_K_MAX + 1))
_EXP_WORDS = _ascii_words(ord("-"), *(_ZERO_CHAR + _EXPONENT // 10**p % 10 for p in (2, 1, 0)), 0, 0, 0, 0)
# Significant digits of a four-digit group, up to its last nonzero digit.
_QUAD_SIGNIFICANT = 4 - (_QUAD % 10 == 0) - (_QUAD % 100 == 0) - (_QUAD % 1000 == 0) - (_QUAD == 0)
_LINE_END, _COMMA = ord("\n"), ord(",")


def _significands(ax: np.ndarray):
    """k = 16 - d, the 17-digit significand D and where D is exact, per |x|."""
    with np.errstate(all="ignore"):
        k = np.clip(16 - np.floor(np.log10(ax)).astype(np.int64), 0, _K_MAX)
        a = np.ldexp(ax, k)
        p = a * _POW5_HI[k]
        ah, al = _split(a)
        hh, hl = _POW5_HI_HI[k], _POW5_HI_LO[k]
        rest = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _POW5_LO[k]
        exact = (ax < 1e17) & ((p > 1e16) | ((p == 1e16) & (rest >= 0.0))) & (p < 1e17)
        exact &= (k <= _K_EXACT) | (np.abs(rest - np.floor(rest) - 0.5) >= _TIE_WINDOW)
        # p is an even integer (it exceeds 2**53), so rounding rest half-even
        # rounds S = p + rest half-even
        digits = p.astype(np.int64) + np.rint(rest).astype(np.int64)
    exact &= digits < 10**17
    return k, np.where(exact, digits, 10**16), exact


def _fill_canvas(canvas: np.ndarray, k: np.ndarray, digits: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """Write every printable byte of each cell; returns its significant digits."""
    lead, digits = np.divmod(digits, 10**16)
    upper, lower = np.divmod(digits, 10**8)
    q1, q2 = np.divmod(upper, 10**4)
    q3, q4 = np.divmod(lower, 10**4)
    canvas[:, 0] = _LEAD_WORDS[lead]
    canvas[:, 1] = _QUAD_WORDS[q1]
    canvas[:, 2] = _QUAD_WORDS[q2]
    canvas[:, 3] = _QUAD_WORDS[q3]
    canvas[:, 4] = _LAST_QUAD_WORDS[q4]
    canvas[:, 5] = _EXP_WORDS[k]
    canvas.view(np.uint8)[:, _SEP] = sep
    significant = _QUAD_SIGNIFICANT
    return np.where(
        q4 > 0,
        13 + significant[q4],
        np.where(q3 > 0, 9 + significant[q3], np.where(q2 > 0, 5 + significant[q2], 1 + significant[q1])),
    )


def _write_cells(fh, x: np.ndarray, sep: np.ndarray, canvas: np.ndarray) -> None:
    """Write ``NUMBER_FORMAT % v`` and its separator byte for every cell of x."""
    n = x.size
    ax = np.abs(x)
    zero = ax == 0.0
    k, digits, exact = _significands(ax)
    canvas = canvas[:n]
    n_digits = _fill_canvas(canvas, k, digits, sep)
    d = 16 - k
    cls = np.where(d >= -4, d + 4, np.where(d <= -100, _EXP3, _EXP2))
    cls[zero] = _ZERO_CLASS
    layout = (cls * 2 + np.signbit(x)) * 17 + n_digits - 1
    text_bytes = canvas.view(np.uint8)
    fallback = np.flatnonzero(~(exact | zero))
    if fallback.size:
        texts = np.array([NUMBER_FORMAT % v for v in x[fallback].tolist()], dtype=f"S{_CANVAS_BYTES}")
        lengths = np.char.str_len(texts)
        text_bytes[fallback] = texts.view(np.uint8).reshape(-1, _CANVAS_BYTES)
        text_bytes[fallback, lengths] = sep[fallback]
        layout[fallback] = _PREFIX_LAYOUTS + lengths + 1
    # Compact by index: a boolean mask copies run by run, and a cell's kept
    # bytes form a dozen short runs.
    for s in range(0, n, _COMPACT_CELLS):
        keep = _LAYOUT_MASKS[layout[s : s + _COMPACT_CELLS]]
        fh.write(text_bytes[s : s + _COMPACT_CELLS].reshape(-1).take(np.flatnonzero(keep)))


def write_number_table(fh, *columns) -> None:
    """Write a table of float64 cells to the binary file ``fh`` as CSV lines.

    The table is ``columns`` side by side: each is a 1-D array (one column)
    or a 2-D array (several), all with the same number of rows. Every cell is
    byte-for-byte ``NUMBER_FORMAT % value``, cells are joined with ``,`` and
    each row ends with a newline. Cells are formatted with numpy and written
    in blocks of at most ``_BLOCK_CELLS``, so memory stays bounded and no
    whole-table copy is made.

    Exactness: for finite nonzero |x| < 1e17, d = floor(log10 |x|) and
    k = 16 - d give S = |x| * 10**k = ldexp(|x|, k) * 5**k, whose
    round-half-even integer D is the 17-digit significand ``%.17g`` prints.
    ldexp is exact and 5**k is a double-double hi + lo; Dekker's two-product
    makes ldexp(|x|, k) * hi exact, so S is exact for k <= 22 (where
    lo == 0) and within about 5e-15 otherwise, far inside the 1e-9 window
    around one half checked below. A cell is formatted by ``%`` itself when
    * it is nan, inf or |x| >= 1e17;
    * S is not in [1e16, 1e17), which catches a log10 that was off by one;
    * k > 22 and the fraction of S lies within 1e-9 of one half.
    Zeros print as ``0`` and ``-0`` without that fallback.
    """
    parts = [real_array(c) for c in columns]
    parts = [c[:, None] if c.ndim == 1 else c for c in parts]
    n_rows = parts[0].shape[0]
    width = sum(c.shape[1] for c in parts)
    if width == 0:
        fh.write(b"\n" * n_rows)
        return
    rows_per_block = max(1, _BLOCK_CELLS // width)
    sep = np.full((rows_per_block, width), _COMMA, dtype=np.uint8)
    sep[:, -1] = _LINE_END
    sep = sep.ravel()
    canvas = np.empty((min(_BLOCK_CELLS, n_rows * width), _CANVAS_BYTES // 8), dtype=np.uint64)
    for r0 in range(0, n_rows, rows_per_block):
        cells = np.hstack([c[r0 : r0 + rows_per_block] for c in parts]).ravel()
        for c0 in range(0, cells.size, _BLOCK_CELLS):
            block = cells[c0 : c0 + _BLOCK_CELLS]
            _write_cells(fh, block, sep[c0 : c0 + block.size], canvas)
