"""Kernels against independent references: dense solves, dense operators, per-point formulas."""

from dataclasses import replace

import numpy as np
import pytest

from lagrom import kernels
from lagrom.core import PERIODIC, DiffusionSystem, diffusion_system_for
from lagrom.errors import NumericalFailure, SingularTridiagonal

from conftest import make_spec


def random_tridiag(n, rng):
    lower = np.zeros(n)
    upper = np.zeros(n)
    lower[1:] = -rng.random(n - 1)
    upper[:-1] = -rng.random(n - 1)
    diag = 2.0 + rng.random(n) - lower - upper
    rhs = rng.standard_normal(n)
    return lower, diag, upper, rhs


def dense_from_bands(lower, diag, upper, corner_top=0.0, corner_bottom=0.0):
    n = diag.size
    a = np.diag(diag)
    for i in range(1, n):
        a[i, i - 1] = lower[i]
        a[i - 1, i] = upper[i - 1]
    a[0, -1] += corner_top
    a[-1, 0] += corner_bottom
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 17, 400])
def test_thomas_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    lower, diag, upper, rhs = random_tridiag(n, rng)
    dense = dense_from_bands(lower, diag, upper)
    factor = kernels.factor_tridiagonal(lower, diag, upper)
    x = kernels.thomas_solve(factor, rhs)
    assert x.shape == (n,)
    assert np.allclose(x, np.linalg.solve(dense, rhs), atol=1e-12)
    # one factorization serves any number of right-hand sides
    for _ in range(3):
        b = rng.standard_normal(n)
        assert np.allclose(kernels.thomas_solve(factor, b), np.linalg.solve(dense, b), atol=1e-12)


def test_thomas_zero_pivot_raises():
    n = 4
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    with pytest.raises(SingularTridiagonal):
        kernels.factor_tridiagonal(lower, diag, upper)


@pytest.mark.parametrize("n", [2, 3, 5, 128])
def test_cyclic_thomas_matches_dense(n):
    rng = np.random.default_rng(n + 100)
    lower, diag, upper, rhs = random_tridiag(n, rng)
    ct, cb = -0.3, -0.4
    dense = dense_from_bands(lower, diag, upper, ct, cb)
    factor = kernels.factor_cyclic(lower, diag, upper, ct, cb)
    x = kernels.cyclic_thomas_solve(factor, rhs)
    assert x.shape == (n,)
    assert np.allclose(x, np.linalg.solve(dense, rhs), atol=1e-11)
    for _ in range(3):
        b = rng.standard_normal(n)
        assert np.allclose(kernels.cyclic_thomas_solve(factor, b), np.linalg.solve(dense, b), atol=1e-11)


def interp_per_point(src, vals, x):
    """Reference: hold the edge sample outside the hull, else the chord through the bracketing nodes."""
    if x <= src[0]:
        return vals[0]
    if x >= src[-1]:
        return vals[-1]
    i = int(np.searchsorted(src, x, side="right")) - 1
    w = (x - src[i]) / (src[i + 1] - src[i])
    return vals[i] + w * (vals[i + 1] - vals[i])


def test_interp_clamped_matches_per_point_reference():
    rng = np.random.default_rng(3)
    src = np.sort(rng.random(40)) * 5.0
    vals = np.cos(src)
    dst = rng.random(200) * 7.0 - 1.0  # includes out-of-hull points
    out = kernels.interp_clamped(src, vals, dst)
    reference = np.array([interp_per_point(src, vals, x) for x in dst])
    assert np.allclose(out, reference, atol=1e-14)
    below, above = dst < src[0], dst > src[-1]
    assert below.any() and above.any()
    assert np.all(out[below] == vals[0])
    assert np.all(out[above] == vals[-1])


def _periodic_case():
    """A source spanning less than one period, and destinations around and
    exactly on its wrap edges, from one period below to two above."""
    rng = np.random.default_rng(4)
    period = 2.0 * np.pi
    src = np.sort(rng.random(50)) * (period * 0.97)
    vals = np.sin(src)
    wrap_edges = [
        src[:1],
        src[:1] + period,
        np.nextafter(src[:1], -np.inf),
        src - period,
        src + period,
    ]
    dst = np.concatenate([rng.random(300) * 3 * period - period, *wrap_edges])
    # Bit for bit what wrapping by np.mod and bridging the seam gives.
    shifted = src[0] + np.mod(dst - src[0], period)
    by_mod = np.interp(shifted, np.append(src, src[0] + period), np.append(vals, vals[0]))
    return period, src, vals, dst, by_mod


def test_interp_periodic_matches_np_interp_period_mode():
    # The kernel reads its wrap bounds from the end points of an ascending
    # destination; core.linear_interpolate serves any order (test_core).
    period, src, vals, dst, by_mod = _periodic_case()
    order = np.argsort(dst)
    fast = kernels.interp_periodic(src, vals, dst[order], period)
    assert np.allclose(np.interp(dst[order], src, vals, period=period), fast, atol=1e-12)
    assert np.array_equal(fast, by_mod[order])
    assert kernels.interp_periodic(src, vals, np.empty(0), period).shape == (0,)


@pytest.mark.parametrize("lo, hi", [(-0.3, 0.9), (0.1, 1.2), (-1.5, 0.5), (0.5, 2.5), (-0.3, 1.2), (0.2, 0.8)])
def test_interp_periodic_wrap_branches_match_np_mod(lo, hi):
    # Each wrap branch: an add below the window, a subtract above it, np.mod
    # beyond one period or past both sides, and none inside it; period 1,
    # source from 0.
    src = np.linspace(0.0, 0.9, 10)
    vals = np.cos(3.0 * src)
    dst = np.linspace(lo, hi, 41)
    by_mod = np.interp(np.mod(dst, 1.0), np.append(src, 1.0), np.append(vals, vals[0]))
    assert np.array_equal(kernels.interp_periodic(src, vals, dst, 1.0), by_mod)


def dense_diffusion_operator(x, d, dt, period):
    """Reference I - dt L(x) assembled entry by entry, and the coefficients
    of the ghost values in the first and last rows (zero when periodic).

    Row i of L couples node i to each neighbour through the face between
    them, whose D is the mean of its two nodal values: the term is
    2 D (u_nb - u_i) / (h (h_- + h_+)), h the gap to that neighbour. Across
    the boundary the neighbour is the other end node shifted by the period,
    or without one a ghost one end-spacing out whose face takes the end
    node's D.
    """
    n = x.size
    dense = np.eye(n)
    ghosts = np.zeros(2)
    for i in range(n):
        terms = []
        for side in (-1, 1):
            nb = i + side
            if 0 <= nb < n:
                terms.append((nb, abs(x[nb] - x[i]), 0.5 * (d[i] + d[nb])))
            elif period is not None:
                nb %= n
                terms.append((nb, abs(x[nb] + side * period - x[i]), 0.5 * (d[i] + d[nb])))
            else:
                terms.append((None, abs(x[i - side] - x[i]), d[i]))
        span = sum(gap for _, gap, _ in terms)
        for (nb, gap, face), end in zip(terms, (0, 1)):
            weight = 2.0 * dt * face / (gap * span)
            dense[i, i] += weight
            if nb is None:
                ghosts[end] = -weight
            else:
                dense[i, nb] -= weight
    return dense, ghosts


def random_nodes(rng, n, period):
    """n strictly increasing nodes of uneven spacing spanning less than ``period``."""
    gaps = 0.2 + rng.random(n)
    return 0.1 + np.cumsum(gaps) * (0.9 * period / gaps.sum())


def test_diffusion_bands_match_dense_operator():
    rng = np.random.default_rng(5)
    n, dt = 33, 0.01
    x = random_nodes(rng, n, 2.0)
    d = 0.01 + rng.random(n)
    for period in (2.0, None):
        periodic = period is not None
        lower, diag, upper = kernels.diffusion_bands(x, d, dt, period)
        dense, ghosts = dense_diffusion_operator(x, d, dt, period)
        assert np.allclose(diag, np.diag(dense), rtol=1e-14, atol=0.0)
        assert np.allclose(lower[1:], np.diag(dense, -1), rtol=1e-14, atol=0.0)
        assert np.allclose(upper[:-1], np.diag(dense, 1), rtol=1e-14, atol=0.0)
        # the end rows' couplings across the boundary: the corners of the
        # periodic cycle, or the Dirichlet ghosts' coefficients
        ends = (dense[0, n - 1], dense[n - 1, 0]) if periodic else tuple(ghosts)
        assert np.allclose((lower[0], upper[-1]), ends, rtol=1e-14, atol=0.0)
        # apply() is the operator with zero ghost values: boundary data enter
        # only through with_boundary_terms, so nonzero data must not show in
        # it, and show in the residual as the ghost terms.
        bc_values = (0.3, -0.2)
        system = DiffusionSystem(None, lower, diag, upper, periodic, bc_values)
        vector = rng.standard_normal(n)
        block = rng.standard_normal((n, 4))
        assert np.allclose(system.apply(vector), dense @ vector, rtol=1e-13, atol=1e-13)
        assert np.allclose(system.apply(block), dense @ block, rtol=1e-13, atol=1e-13)
        assert system.apply(block[:, 1]).tolist() == system.apply(block)[:, 1].tolist()
        rhs = rng.standard_normal(n)
        known = rhs.copy()
        if not periodic:
            known[[0, -1]] -= ghosts * bc_values
        worst = np.max(np.abs(dense @ vector - known))
        assert np.isclose(system.residual(vector, rhs), worst, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("periodic", [True, False])
def test_diffusion_system_leaves_its_inputs_alone(periodic):
    # apply, residual and the periodic solve reuse the bands formed at
    # construction and work in place on their own outputs only; a system
    # factored in another's LU solves as a fresh one does.
    rng = np.random.default_rng(12)
    n = 40
    spec = make_spec(diffusion=lambda x, t, u: 0.2 + np.cos(x) ** 2 + t * u, n=n, m_steps=10, bc_values=(0.3, -0.2))
    if periodic:
        spec = replace(spec, bc=PERIODIC, bc_values=(0.0, 0.0))
    x = random_nodes(rng, n, spec.domain_length)
    u = rng.standard_normal(n)
    system = diffusion_system_for(spec, x, 0.5, u)
    lower, diag, upper = kernels.diffusion_bands(x, spec.diffusion_at(x, 0.5, u), spec.dt, spec.period)
    assert np.array_equal(system.lower, lower) and np.array_equal(system.diag, diag) and np.array_equal(system.upper, upper)
    dense, ghosts = dense_diffusion_operator(x, spec.diffusion_at(x, 0.5, u), spec.dt, spec.period)
    rhs = rng.standard_normal(n)
    kept = rhs.copy()
    solution = system.solve(rhs)
    assert np.array_equal(rhs, kept)
    known = rhs.copy()
    if not periodic:
        known[[0, -1]] -= ghosts * spec.bc_values
    assert np.allclose(dense @ solution, known, atol=1e-12)
    assert np.allclose(system.with_boundary_terms(rhs), known, rtol=1e-14, atol=1e-15)
    solution_kept = solution.copy()
    expected = float(np.max(np.abs(system.apply(solution) - system.with_boundary_terms(rhs))))
    assert system.residual(solution, rhs) == expected <= 1e-12
    assert np.array_equal(rhs, kept) and np.array_equal(solution, solution_kept)
    if periodic:
        again = kernels.cyclic_thomas_solve(system.factor, rhs)
        assert np.array_equal(rhs, kept) and np.array_equal(again, solution)
    x2, u2 = np.sort(x + 0.01 * rng.random(n)), rng.standard_normal(n)
    reused = diffusion_system_for(spec, x2, 0.6, u2, into=system)
    assert np.array_equal(reused.solve(rhs), diffusion_system_for(spec, x2, 0.6, u2).solve(rhs))


def test_solve_small_matches_lapack():
    rng = np.random.default_rng(6)
    for n in (1, 2, 5, 12):
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        assert np.allclose(kernels.solve_small(a, b), np.linalg.solve(a, b), atol=1e-10)


def test_solve_small_singular_raises():
    with pytest.raises(NumericalFailure, match="zero pivot"):
        kernels.solve_small(np.zeros((3, 3)), np.ones(3))


def test_factor_small_solves_match_lapack():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 12):
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        factor = kernels.factor_small(a)
        for _ in range(3):
            b = rng.standard_normal(n)
            assert np.allclose(factor.solve(b), np.linalg.solve(a, b), atol=1e-10)


def test_factor_small_singular_raises():
    with pytest.raises(NumericalFailure, match="zero pivot"):
        kernels.factor_small(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(NumericalFailure):
        kernels.factor_small(np.zeros((1, 1)))


def upwind_per_row(values, speeds, dt_over_dx, periodic):
    """Reference first-order upwind step written row by row and node by node."""
    ny, nx = values.shape
    out = np.empty_like(values)
    for i in range(ny):
        nu = speeds[i] * dt_over_dx
        row = values[i]
        for j in range(nx):
            if speeds[i] >= 0.0:
                left = row[j - 1] if j > 0 else (row[nx - 1] if periodic else row[0])
                out[i, j] = row[j] - nu * (row[j] - left)
            else:
                right = row[j + 1] if j < nx - 1 else (row[0] if periodic else row[nx - 1])
                out[i, j] = row[j] - nu * (right - row[j])
    return out


@pytest.mark.parametrize("periodic", [True, False])
def test_levelset_step_matches_per_row_upwind(periodic):
    rng = np.random.default_rng(8)
    values = rng.standard_normal((12, 30))
    speeds = np.linspace(-1.5, 2.0, 12)  # both signs
    assert np.any(speeds < 0.0) and np.any(speeds > 0.0)
    out = kernels.levelset_step(values, speeds, 0.3, periodic)
    assert np.allclose(out, upwind_per_row(values, speeds, 0.3, periodic), atol=1e-14)


def test_levelset_unit_courant_is_exact_shift():
    rng = np.random.default_rng(9)
    row = rng.standard_normal(25)
    values = row[None, :]
    shifted = kernels.levelset_step(values, np.array([1.0]), 1.0, True)
    assert np.allclose(shifted[0], np.roll(row, 1), atol=1e-14)
    shifted_left = kernels.levelset_step(values, np.array([-1.0]), 1.0, True)
    assert np.allclose(shifted_left[0], np.roll(row, -1), atol=1e-14)


def test_warmup_idempotent():
    kernels.warmup()
    kernels.warmup()
