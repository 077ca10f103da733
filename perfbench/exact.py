"""Reference solutions computed apart from the library, for the correctness checks.

* Viscous Burgers ``u_t + u u_x = nu u_xx`` on the periodic interval with
  ``u0 = 1 + sin x``: the Galilean shift ``u = 1 + w(x - t, t)`` reduces it to
  ``w0 = sin x``, which the Cole-Hopf transform ``w = -2 nu phi_x / phi``
  turns into the heat equation. With ``a = 1 / (2 nu)``,
  ``phi0 = exp(a cos x) = I0(a) + 2 sum_n In(a) cos(n x)`` (modified Bessel
  series), so each Fourier term decays as ``exp(-nu n^2 t)``.
* Inviscid Burgers with the same profile before the shock (t < 1): the
  characteristics give the implicit relation ``u = 1 + sin(x - u t)``, solved
  pointwise by Newton iteration.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ive

BESSEL_TERMS = 80


def viscous_burgers(x: np.ndarray, t: float, nu: float) -> np.ndarray:
    """Cole-Hopf solution for u0 = 1 + sin x at time t."""
    a = 1.0 / (2.0 * nu)
    n = np.arange(1, BESSEL_TERMS + 1)
    # exponentially scaled Bessel values; the common exp(a) cancels in the ratio
    weights = ive(n, a) * np.exp(-nu * n**2 * t)
    xi = np.asarray(x, dtype=float)[:, None] - t
    phi = ive(0, a) + 2.0 * np.cos(xi * n) @ weights
    phi_x_neg = 2.0 * np.sin(xi * n) @ (n * weights)
    return 1.0 + 2.0 * nu * phi_x_neg / phi


def inviscid_burgers(x: np.ndarray, t: float) -> np.ndarray:
    """Characteristic solution of u = 1 + sin(x - u t), valid for t < 1."""
    if not 0.0 <= t < 1.0:
        raise ValueError("characteristics cross at t = 1")
    x = np.asarray(x, dtype=float)
    u = 1.0 + np.sin(x)
    for _ in range(100):
        g = u - 1.0 - np.sin(x - u * t)
        step = g / (1.0 + t * np.cos(x - u * t))
        u = u - step
        if np.max(np.abs(step)) < 1e-15:
            return u
    raise ArithmeticError("Newton iteration for the characteristics did not converge")
