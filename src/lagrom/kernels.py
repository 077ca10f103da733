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
plus an O(1) correction. A run whose diffusion coefficient is constant
factors once and solves once per step. The small dense Newton systems follow
the same split: ``factor_small`` (``dgetrf``) once per run when the reduced
Jacobian is constant, then its ``solve`` (``dgetrs``) per iteration, and
``solve_small``, the same two calls, for a Jacobian that changes at every
step.

Interpolation is ``interp_clamped`` and ``interp_periodic``; no other module
calls ``np.interp`` but ``core.linear_interpolate`` for a source that spans
a whole period. The periodic kernel reads a source already extended across
the seam (``periodic_source``), which a fixed grid builds once per run, and
an ascending destination, whose end points bound how far it must wrap.
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


def factor_tridiagonal(lower, diag, upper) -> TridiagonalLU:
    """LU-factor a tridiagonal matrix once for any number of later solves.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] unused);
    ``upper[i]`` multiplies x[i+1] in row i (upper[-1] unused).
    Raises ``SingularTridiagonal`` on an exactly zero pivot.
    """
    factor = TridiagonalLU(lower[1:], diag, upper[:-1])
    if factor.info > 0:
        raise SingularTridiagonal(f"zero pivot in row {factor.info - 1} of a {factor.n}x{factor.n} system")
    return factor


def thomas_solve(factor: TridiagonalLU, rhs):
    """Solve a factored tridiagonal system for one right-hand side."""
    return factor.solve(rhs)


def factor_cyclic(lower, diag, upper, corner_top, corner_bottom) -> CyclicFactor:
    """Factor a tridiagonal matrix with periodic corner couplings.

    ``corner_top`` is the (0, n-1) matrix entry, ``corner_bottom`` the
    (n-1, 0) entry. The tridiagonal part is modified so that the corners
    become a rank-one update; its factorization, the solve against the update
    vector and the Sherman-Morrison denominator are computed here, once.
    Systems of fewer than three rows fold the corners into the bands.
    """
    n = diag.shape[0]
    if n < 3:
        lower2 = np.array(lower, dtype=float)
        upper2 = np.array(upper, dtype=float)
        if n == 2:
            upper2[0] += corner_top
            lower2[1] += corner_bottom
        return CyclicFactor(factor_tridiagonal(lower2, diag, upper2), None, 1.0, 0.0, 1.0)
    gamma = -diag[0]
    diag2 = diag.copy()
    diag2[0] = diag[0] - gamma
    diag2[-1] = diag[-1] - corner_top * corner_bottom / gamma
    tri = factor_tridiagonal(lower, diag2, upper)
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


def periodic_source(src, period):
    """The interpolation source ``interp_periodic`` reads: the n source
    nodes and the first node's periodic image ``src[0] + period``, the right
    end of the seam segment. A fixed grid builds it once per run."""
    n = src.shape[0]
    out = np.empty(n + 1)
    out[:n] = src
    out[n] = src[0] + period
    return out


def interp_periodic(source, vals, dst, period):
    """Periodic variant: wrap destinations into the source window and bridge
    the seam segment from the last source node to the first plus one period.

    ``source`` is ``periodic_source(src, period)`` for strictly increasing
    ``src`` with the n values ``vals``. ``dst`` is ascending, so its offsets
    below the window form a prefix and those past it a suffix, wrapped by
    one add or subtract of the period on that slice: it rounds as ``np.mod``
    does there, at a fraction of the cost. A destination that leaves the
    window on both sides, or by more than a period, takes ``np.mod``.
    """
    origin = source[0]
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
    vals_ext = np.empty(n + 1)
    vals_ext[:n] = vals
    vals_ext[n] = vals[0]
    return np.interp(shifted, source, vals_ext)


def diffusion_bands(d_nodes, mu, periodic):
    """Face-averaged coefficients and the (I - dt*D2) bands: (d_faces, lower, diag, upper)."""
    n = d_nodes.shape[0]
    if periodic:
        d_ext = np.concatenate([d_nodes[-1:], d_nodes, d_nodes[:1]])
    else:
        d_ext = np.concatenate([d_nodes[:1], d_nodes, d_nodes[-1:]])
    d_faces = 0.5 * (d_ext[:-1] + d_ext[1:])
    lower = np.empty(n)
    upper = np.empty(n)
    diag = 1.0 + mu * (d_faces[:-1] + d_faces[1:])
    lower[0] = 0.0
    upper[-1] = 0.0
    lower[1:] = -mu * d_faces[1:-1]
    upper[:-1] = -mu * d_faces[1:-1]
    return d_faces, lower, diag, upper


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
