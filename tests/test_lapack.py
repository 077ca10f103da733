"""The LAPACK bindings against scipy's wrappers of the same routines, bit for
bit, and the import that no longer loads scipy.

scipy's ``gttrf``/``gttrs`` wrappers reject systems of fewer than three rows,
so the reference pads those with decoupled identity rows, which leave the
elimination of the leading block unchanged. The QR pair (``dgeqrf`` and
``dormqr``) is compared in ``test_svd_core.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs, dgttrf, dgttrs

from lagrom import kernels, lapack

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_MIN_ROWS = 3


class ScipyTridiagonal:
    """``lapack.TridiagonalLU`` computed by scipy's wrappers."""

    def __init__(self, sub, diag, sup):
        n = diag.shape[0]
        size = max(n, SCIPY_MIN_ROWS)
        dl, d, du = np.zeros(size - 1), np.ones(size), np.zeros(size - 1)
        dl[: n - 1], d[:n], du[: n - 1] = sub, diag, sup
        self.dl, self.d, self.du, self.du2, self.ipiv, self.info = dgttrf(dl, d, du)
        self.n = n

    def solve(self, rhs):
        padded = np.concatenate([rhs, np.zeros(max(SCIPY_MIN_ROWS - self.n, 0))])
        return dgttrs(self.dl, self.d, self.du, self.du2, self.ipiv, padded)[0][: self.n]


def bands(n, seed):
    rng = np.random.default_rng(seed)
    lower, upper = np.zeros(n), np.zeros(n)
    lower[1:] = -rng.random(n - 1)
    upper[:-1] = -rng.random(n - 1)
    diag = 2.0 + rng.random(n) - lower - upper
    return lower, diag, upper, rng.standard_normal((3, n))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 400])
def test_tridiagonal_equals_scipy_bit_for_bit(n):
    lower, diag, upper, rhs = bands(n, n)
    ours = kernels.factor_tridiagonal(lower, diag, upper)
    theirs = ScipyTridiagonal(lower[1:], diag, upper[:-1])
    assert ours.info == theirs.info == 0
    for mine, ref in ((ours.dl, theirs.dl), (ours.d, theirs.d), (ours.du, theirs.du), (ours.du2, theirs.du2)):
        assert np.array_equal(mine, ref[: mine.size])
    assert np.array_equal(ours.ipiv, theirs.ipiv[:n])
    for b in rhs:
        assert np.array_equal(kernels.thomas_solve(ours, b), theirs.solve(b))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 400])
def test_periodic_tridiagonal_equals_scipy_bit_for_bit(n, monkeypatch):
    lower, diag, upper, rhs = bands(n, n + 100)
    corners = (-0.3, -0.4)
    ours = kernels.factor_cyclic(lower, diag, upper, *corners)
    monkeypatch.setattr(kernels, "TridiagonalLU", ScipyTridiagonal)
    theirs = kernels.factor_cyclic(lower, diag, upper, *corners)
    assert (ours.z is None) == (theirs.z is None) and np.array_equal(ours.z, theirs.z)
    assert ours.denom == theirs.denom
    for b in rhs:
        assert np.array_equal(kernels.cyclic_thomas_solve(ours, b), kernels.cyclic_thomas_solve(theirs, b))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 400])
def test_factoring_into_an_lu_equals_a_fresh_factorization(n):
    # A moving grid factors each step's system in its run's one LU: its
    # buffers must hold what a new factorization of that system holds.
    first, second = bands(n, n + 200), bands(n, n + 300)
    reused = kernels.factor_tridiagonal(*first[:3])
    assert kernels.factor_tridiagonal(*second[:3], into=reused) is reused
    fresh = kernels.factor_tridiagonal(*second[:3])
    for name in ("dl", "d", "du", "du2", "ipiv"):
        assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
    corners = (-0.3, -0.4)
    cyclic = kernels.factor_cyclic(*second[:3], *corners, into=kernels.factor_tridiagonal(*first[:3]))
    fresh_cyclic = kernels.factor_cyclic(*second[:3], *corners)
    for b in second[3]:
        assert np.array_equal(kernels.thomas_solve(reused, b), kernels.thomas_solve(fresh, b))
        assert np.array_equal(kernels.cyclic_thomas_solve(cyclic, b), kernels.cyclic_thomas_solve(fresh_cyclic, b))


@pytest.mark.parametrize("r", [1, 2, 5, 12])
def test_dense_lu_equals_scipy_bit_for_bit(r):
    rng = np.random.default_rng(r)
    a = rng.standard_normal((r, r)) + r * np.eye(r)
    ours = kernels.factor_small(a)
    lu, piv, info = dgetrf(a)
    assert ours.info == info == 0
    assert np.array_equal(ours.lu, lu) and np.array_equal(ours.ipiv, piv + 1)  # scipy's getrf pivots are 0-based
    for b in rng.standard_normal((3, r)):
        assert np.array_equal(ours.solve(b), dgetrs(lu, piv, b)[0])


def test_solve_rejects_a_right_hand_side_of_another_length():
    factor = kernels.factor_small(np.eye(3))
    with pytest.raises(ValueError, match="shape"):
        factor.solve(np.ones(4))


def test_openblas_reports_its_build_and_threads():
    assert "OpenBLAS" in lapack.build()
    assert lapack.threads() >= 1


def test_import_and_run_load_no_scipy(tmp_path):
    # A fresh interpreter: the test session itself has imported scipy.
    code = (
        "import sys\n"
        "import lagrom, lagrom.cli\n"
        f"status = lagrom.cli.main(['run', 'test1', '--scale', '10', '--out', {str(tmp_path / 'run')!r}])\n"
        "print(status, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
