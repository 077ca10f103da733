"""Hot numerical kernels, written once against numpy/scipy.

The time steppers spend most of their cycles in a handful of routines: the
tridiagonal solves behind the implicit diffusion steps, piecewise-linear
interpolation, the diffusion band assembly, the row-wise upwind sweep of the
level-set field, and the small dense Newton solves. Each is one whole-array
numpy or LAPACK call, so there is nothing to compile and nothing to warm up.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalFailure, SingularTridiagonal

# No compiled backend exists; the constant stays for readers of the
# environment record.
NUMBA_ENABLED = False

# Pivots below this magnitude are treated as exact zeros. The diffusion
# systems are diagonally dominant with unit diagonal scale, so legitimate
# pivots sit at O(1).
_PIVOT_TINY = 1e-300


def thomas_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system through LAPACK's banded solver.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] unused);
    ``upper[i]`` multiplies x[i+1] in row i (upper[-1] unused).
    """
    n = diag.shape[0]
    if n == 1:
        if abs(diag[0]) < _PIVOT_TINY:
            raise SingularTridiagonal("zero pivot in 1x1 system")
        return rhs / diag
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularTridiagonal(str(exc)) from exc


def interp_clamped(src, vals, dst):
    """Piecewise-linear interpolation; points outside the hull take the edge samples."""
    return np.interp(dst, src, vals)


def interp_periodic(src, vals, dst, period):
    """Periodic variant: wrap destinations into the source window and bridge
    the seam segment from the last source node to the first plus one period.
    """
    shifted = src[0] + np.mod(dst - src[0], period)
    src_ext = np.concatenate([src, src[:1] + period])
    vals_ext = np.concatenate([vals, vals[:1]])
    return np.interp(shifted, src_ext, vals_ext)


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


def solve_small(a, b):
    """Dense LAPACK solve for the reduced Newton systems."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc


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


def cyclic_thomas_solve(lower, diag, upper, corner_top, corner_bottom, rhs):
    """Solve a tridiagonal system with periodic corner couplings.

    ``corner_top`` is the (0, n-1) matrix entry, ``corner_bottom`` the
    (n-1, 0) entry. Uses the Sherman-Morrison rank-one update on top of two
    plain tridiagonal solves.
    """
    n = diag.shape[0]
    if n < 3:
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n)] = diag
        if n == 2:
            a[0, 1] = upper[0] + corner_top
            a[1, 0] = lower[1] + corner_bottom
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularTridiagonal(str(exc)) from exc
    gamma = -diag[0]
    diag2 = diag.copy()
    diag2[0] = diag[0] - gamma
    diag2[-1] = diag[-1] - corner_top * corner_bottom / gamma
    y = thomas_solve(lower, diag2, upper, rhs)
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner_bottom
    z = thomas_solve(lower, diag2, upper, u)
    denom = 1.0 + z[0] + corner_top * z[-1] / gamma
    if abs(denom) < _PIVOT_TINY:
        raise SingularTridiagonal("singular rank-one correction")
    factor = (y[0] + corner_top * y[-1] / gamma) / denom
    return y - factor * z


def warmup():
    """No-op kept for callers that warm the kernels before timing.

    Every kernel is a plain numpy/LAPACK call, so nothing needs compiling.
    """
