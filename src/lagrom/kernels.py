"""Hot numerical kernels, written once against numpy and LAPACK.

The time steppers spend most of their cycles in a handful of routines: the
tridiagonal solves behind the implicit diffusion steps, piecewise-linear
interpolation, the diffusion band assembly, the row-wise upwind sweep of the
level-set field, and the small dense Newton solves. Each is one whole-array
numpy or LAPACK call, so there is nothing to compile and nothing to warm up.
LAPACK is reached through ``lapack``, which binds the OpenBLAS that numpy
already loads.

The tridiagonal systems are factored apart from their solves: ``factor_*``
runs the LU elimination (LAPACK ``dgttrf``) once, and ``thomas_solve`` /
``cyclic_thomas_solve`` reuse that factorization for each right-hand side
(one ``dgttrs`` each). A periodic system stores its Sherman-Morrison vector
and denominator with the factorization, so a periodic solve is one ``dgttrs``
plus an O(1) correction. ``diffusion_bands`` assembles every diffusion
system, on fixed and moving nodes alike, and ``core.diffusion_system_for``
factors it: once per run on a fixed grid whose diffusion coefficient is
constant, else once per step in the run's one LU (``into``). The small dense
Newton systems follow the same split: ``factor_small`` (``dgetrf``) once per
run when the reduced Jacobian is constant, then its ``solve`` (``dgetrs``)
per iteration, and ``solve_small``, the same two calls, for a Jacobian that
changes at every step.

Interpolation is ``interp_clamped`` and ``interp_periodic``; no other module
calls ``np.interp`` but ``core.linear_interpolate`` for a source that spans
a whole period. The periodic kernel reads an ascending destination, whose
end points bound how far it must wrap.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalFailure, SingularTridiagonal
from .lapack import DenseLU, TridiagonalLU

# No compiled backend exists; the constant stays for readers of the
# environment record.
NUMBA_ENABLED = False

# Pivots below this magnitude are treated as exact zeros. The diffusion
# systems are diagonally dominant with unit diagonal scale, so legitimate
# pivots sit at O(1).
_PIVOT_TINY = 1e-300


class CyclicFactor(NamedTuple):
    """A periodic tridiagonal matrix as a factored tridiagonal part plus the
    Sherman-Morrison rank-one correction that restores the corners.

    ``z`` is None when the corners were folded into the bands (n < 3).
    """

    tridiagonal: TridiagonalLU
    z: Optional[np.ndarray]
    gamma: float
    corner_top: float
    denom: float


def factor_tridiagonal(lower, diag, upper, into: Optional[TridiagonalLU] = None) -> TridiagonalLU:
    """LU-factor a tridiagonal matrix once for any number of later solves.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] unused);
    ``upper[i]`` multiplies x[i+1] in row i (upper[-1] unused).
    Given ``into``, an LU of the same size, the matrix is factored in its
    buffers and ``into`` returned. Raises ``SingularTridiagonal`` on an
    exactly zero pivot.
    """
    bands = (lower[1:], diag, upper[:-1])
    factor = TridiagonalLU(*bands) if into is None else into.refactor(*bands)
    if factor.info > 0:
        raise SingularTridiagonal(f"zero pivot in row {factor.info - 1} of a {factor.n}x{factor.n} system")
    return factor


def thomas_solve(factor: TridiagonalLU, rhs):
    """Solve a factored tridiagonal system for one right-hand side."""
    return factor.solve(rhs)


def factor_cyclic(lower, diag, upper, corner_top, corner_bottom, into: Optional[TridiagonalLU] = None) -> CyclicFactor:
    """Factor a tridiagonal matrix with periodic corner couplings.

    ``corner_top`` is the (0, n-1) matrix entry, ``corner_bottom`` the
    (n-1, 0) entry. The tridiagonal part is modified so that the corners
    become a rank-one update; its factorization, the solve against the update
    vector and the Sherman-Morrison denominator are computed here, once.
    Systems of fewer than three rows fold the corners into the bands.
    ``into`` is as in ``factor_tridiagonal``, for the tridiagonal part.
    """
    n = diag.shape[0]
    if n < 3:
        lower2 = np.array(lower, dtype=float)
        upper2 = np.array(upper, dtype=float)
        if n == 2:
            upper2[0] += corner_top
            lower2[1] += corner_bottom
        return CyclicFactor(factor_tridiagonal(lower2, diag, upper2, into), None, 1.0, 0.0, 1.0)
    gamma = -diag[0]
    diag2 = diag.copy()
    diag2[0] = diag[0] - gamma
    diag2[-1] = diag[-1] - corner_top * corner_bottom / gamma
    tri = factor_tridiagonal(lower, diag2, upper, into)
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner_bottom
    z = thomas_solve(tri, u)
    denom = 1.0 + z[0] + corner_top * z[-1] / gamma
    if abs(denom) < _PIVOT_TINY:
        raise SingularTridiagonal("singular rank-one correction")
    return CyclicFactor(tri, z, gamma, corner_top, denom)


def cyclic_thomas_solve(factor: CyclicFactor, rhs):
    """Solve a factored periodic system: one tridiagonal solve, straight
    through the LU's ``dgttrs``, then the rank-one correction."""
    y = factor.tridiagonal.solve(rhs)
    if factor.z is None:
        return y
    correction = (float(y[0]) + factor.corner_top * float(y[-1]) / factor.gamma) / factor.denom
    y -= correction * factor.z  # y is the solve's own output, never the caller's rhs
    return y


def interp_clamped(src, vals, dst):
    """Piecewise-linear interpolation; points outside the hull take the edge samples."""
    return np.interp(dst, src, vals)


def interp_periodic(src, vals, dst, period):
    """Periodic variant: wrap destinations into the source window and bridge
    the seam segment from the last source node to the first plus one period.

    ``src`` is strictly increasing with the n values ``vals``. ``dst`` is
    ascending, so its offsets below the window form a prefix and those past
    it a suffix, wrapped by one add or subtract of the period on that slice:
    it rounds as ``np.mod`` does there, at a fraction of the cost. A
    destination that leaves the window on both sides, or by more than a
    period, takes ``np.mod``.
    """
    origin = src[0]
    shifted = dst - origin
    if shifted.size:
        lo, hi = shifted[0], shifted[-1]
        if lo < -period or hi >= 2.0 * period or (lo < 0.0 and hi >= period):
            shifted = np.mod(shifted, period)
        elif lo < 0.0:
            shifted[: shifted.searchsorted(0.0)] += period
        elif hi >= period:
            shifted[shifted.searchsorted(period) :] -= period
    shifted += origin
    n = vals.shape[0]
    source, vals_ext = np.empty(n + 1), np.empty(n + 1)
    source[:n], source[n] = src, origin + period
    vals_ext[:n], vals_ext[n] = vals, vals[0]
    return np.interp(shifted, source, vals_ext)


def diffusion_bands(x, d, dt, period):
    """The bands (lower, diag, upper) of I - dt L(x), L the nonuniform
    three-point (D u_x)_x on the strictly increasing nodes ``x``, with the
    coefficient ``d`` at them. Row i of L is

        2 [D_{i+1/2} (u_{i+1} - u_i) / h_+ - D_{i-1/2} (u_i - u_{i-1}) / h_-] / (h_- + h_+)

    with h_- = x_i - x_{i-1}, h_+ = x_{i+1} - x_i and each face's D the mean
    of D at its two nodes. ``lower[0]`` and ``upper[-1]`` couple the end
    nodes across the boundary: given a ``period``, to the other end node
    shifted by it; else to a ghost node one end-spacing out, whose face
    takes the end node's D.
    """
    n = x.shape[0]
    gaps = np.empty(n + 1)  # h_{i-1/2} for i = 0..N: a boundary gap at each end
    faces = np.empty(n + 1)  # D_{i-1/2}
    np.subtract(x[1:], x[:-1], out=gaps[1:-1])
    faces[1:-1] = 0.5 * (d[:-1] + d[1:])
    if period is not None:
        gaps[0] = gaps[-1] = x[0] + period - x[-1]
        faces[0] = faces[-1] = 0.5 * (d[-1] + d[0])
    else:
        gaps[0], gaps[-1] = gaps[1], gaps[-2]
        faces[0], faces[-1] = d[0], d[-1]
    weights = faces / gaps
    scale = (-2.0 * dt) / (gaps[:-1] + gaps[1:])
    lower = scale * weights[:-1]
    upper = scale * weights[1:]
    return lower, 1.0 - lower - upper, upper


def factor_small(a) -> DenseLU:
    """LU-factor a small dense matrix once for any number of later solves.

    Raises ``NumericalFailure`` on an exactly zero pivot.
    """
    factor = DenseLU(a)
    if factor.info > 0:
        raise NumericalFailure(f"zero pivot in row {factor.info - 1} of a {factor.n}x{factor.n} system")
    return factor


def solve_small(a, b):
    """Solve a reduced Newton system that changes every step: one
    ``factor_small`` and its solve. Raises ``NumericalFailure`` on an
    exactly zero pivot."""
    return factor_small(a).solve(b)


def levelset_step(values, speeds, dt_over_dx, periodic):
    """Sign-aware first-order upwind step, one row per transport speed."""
    left = np.roll(values, 1, axis=1)
    right = np.roll(values, -1, axis=1)
    if not periodic:
        left[:, 0] = values[:, 0]
        right[:, -1] = values[:, -1]
    nu = (speeds * dt_over_dx)[:, None]
    fwd = values - nu * (values - left)
    bwd = values - nu * (right - values)
    return np.where(speeds[:, None] >= 0.0, fwd, bwd)


def warmup():
    """No-op kept for callers that warm the kernels before timing.

    Every kernel is a plain numpy/LAPACK call, so nothing needs compiling.
    """
