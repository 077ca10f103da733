"""The window QR, the SVDs taken from it, and the share-based truncation rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import qr

from lagrom import dmd_rom, pod_rom, svd_core
from lagrom.core import SnapshotMatrix
from lagrom.dmd_rom import fit_dmd
from lagrom.errors import EmptySpectrum, NumericalFailure, RankOutOfRange
from lagrom.pod_rom import fit_pod
from lagrom.svd_core import HandedOverWindow, fit_svd, reduced_svd, select_rank, truncate, truncation_rank


def full_svd(x):
    """Every numerically nonzero triplet of x, with the left vectors formed."""
    factor = reduced_svd(x)
    return factor.lift(factor.svd())


class TestReducedSvd:
    def test_identity_spectrum(self):
        svd = reduced_svd(np.eye(3)).svd()
        assert np.allclose(svd.singular_values, [1.0, 1.0, 1.0])
        assert svd.rank == 3

    def test_rank_one_outer_product(self):
        a = np.array([1.0, -2.0, 2.0])
        b = np.array([3.0, 4.0])
        svd = reduced_svd(np.outer(a, b)).svd()
        assert svd.rank == 1
        assert np.isclose(svd.singular_values[0], np.linalg.norm(a) * np.linalg.norm(b))

    def test_diagonal_matrix(self):
        svd = full_svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(svd.singular_values, [3.0, 2.0, 1.0])
        # factors are signed permutations of the identity
        assert np.allclose(np.abs(svd.left_vectors), np.eye(3), atol=1e-12)

    def test_factorization_reconstructs(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 8))
        svd = full_svd(x)
        recon = svd.left_vectors @ np.diag(svd.singular_values) @ svd.right_vectors.T
        assert np.allclose(recon, x, atol=1e-12)
        svd.validate()

    def test_eckart_young_consistency(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 12))
        svd = full_svd(x)
        for r in (1, 4, 9):
            t = truncate(svd, r)
            recon = t.left_vectors @ np.diag(t.singular_values) @ t.right_vectors.T
            full = svd.full_singular_values
            bound = full[r] * np.sqrt(len(full) - r) + 1e-9
            assert np.linalg.norm(x - recon) <= bound

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((15, 6))
        svd = full_svd(x)
        for k in range(svd.rank):
            col = svd.left_vectors[:, k]
            lead = col[np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))]
            assert lead > 0

    def test_zero_matrix_rejected(self):
        with pytest.raises(EmptySpectrum):
            reduced_svd(np.zeros((4, 3))).svd()


def graded(rows, cols, seed=0):
    """Random singular vectors under singular values graded from 1 down to
    1e-15, so the shares reach about 1e-15."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (u * np.logspace(0, -15, k)) @ v.T


# A tall window and a wide one (rows < columns, like the DMD unit tests' windows).
QR_SHAPES = [(300, 40), (12, 40)]


@pytest.mark.parametrize("shape", QR_SHAPES)
class TestQrRoute:
    """One QR serves the POD block (all columns) and the DMD block (all but
    the last) as a direct SVD of each block would."""

    def test_spectrum_and_rank_match_a_direct_svd(self, shape):
        x = graded(*shape)
        factor = reduced_svd(x)
        for columns in (shape[1], shape[1] - 1):
            direct = np.linalg.svd(x[:, :columns], compute_uv=False)
            svd = factor.svd(columns)
            assert np.max(np.abs(svd.full_singular_values - direct)) <= 1e-13 * direct[0]
            numerical = int(np.sum(direct > max(shape[0], columns) * direct[0] * np.finfo(float).eps))
            assert svd.rank == numerical
            for eps in (1e-4, 1e-8, 1e-12):
                assert select_rank(svd, epsilon=eps) == truncation_rank(direct[:numerical], eps)
            for fixed in (3, 30, 100):
                assert select_rank(svd, fixed_rank=fixed) == min(fixed, numerical)

    def test_left_vectors_orthonormal(self, shape):
        x = graded(*shape)
        factor = reduced_svd(x)
        for columns in (shape[1], shape[1] - 1):
            kept = fit_svd(factor, columns, fixed_rank=columns)
            u = kept.left_vectors
            assert u.shape == (shape[0], kept.rank)
            assert np.max(np.abs(u.T @ u - np.eye(kept.rank))) <= 1e-12
            recon = (u * kept.singular_values) @ kept.right_vectors.T
            assert np.max(np.abs(recon - x[:, :columns])) <= 1e-13

    @pytest.mark.parametrize("rule", [dict(fixed_rank=5), dict(epsilon=1e-4)])
    def test_r_space_train_residual_equals_full_dimension_formula(self, shape, rule):
        x = graded(*shape)
        model = fit_dmd(x, **rule)
        u, k_tilde = model.projector, model.reduced_operator
        y1, y2 = x[:, :-1], x[:, 1:]
        full = np.max(np.linalg.norm(y2 - u @ (k_tilde @ (u.T @ y1)), axis=0))
        assert abs(model.train_residual - full) <= 1e-12 * full


@pytest.mark.parametrize("shape", QR_SHAPES)
class TestWindowHandOver:
    """``reduced_svd`` factors a ``HandedOverWindow`` in its own memory and
    copies every other input, with the same bits either way."""

    def test_factor_equals_scipy_raw_qr_bit_for_bit(self, shape):
        x = graded(*shape)
        (reflectors, tau), r = qr(x, mode="raw")
        factor = reduced_svd(x)
        for ours, theirs in ((factor.reflectors, reflectors), (factor.tau, tau), (factor.r, r)):
            assert ours.shape == theirs.shape and np.array_equal(ours, theirs)

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: x.copy(),  # writable, row-major
            np.asfortranarray,  # writable, the layout dgeqrf works in
            lambda x: SnapshotMatrix(x, np.arange(1, x.shape[1] + 1)),
        ],
        ids=["c-order", "fortran-order", "snapshot-matrix"],
    )
    def test_caller_window_left_untouched(self, shape, make):
        x = graded(*shape)
        window = make(x)
        data = window.data if isinstance(window, SnapshotMatrix) else window
        writable = data.flags.writeable
        factor = reduced_svd(window)
        assert np.array_equal(data, x) and data.flags.writeable == writable
        assert not np.shares_memory(factor.reflectors, data)

    def test_handed_over_window_holds_the_reflectors(self, shape):
        x = graded(*shape)
        window = np.asfortranarray(x)
        factor = reduced_svd(HandedOverWindow(window))
        assert np.shares_memory(factor.reflectors, window)
        copied = reduced_svd(x)
        for ours, theirs in ((factor.reflectors, copied.reflectors), (factor.tau, copied.tau), (factor.r, copied.r)):
            assert np.array_equal(ours, theirs)

    def test_handed_over_window_not_in_fortran_order_is_copied(self, shape):
        x = graded(*shape)
        window = x.copy()
        factor = reduced_svd(HandedOverWindow(window))
        assert np.array_equal(window, x) and not np.shares_memory(factor.reflectors, window)

    def test_non_finite_cell_in_a_later_column_block_rejected(self, shape, monkeypatch):
        # One column per block of the finiteness check: the NaN sits in the
        # last; a handed-over window is left as it was.
        monkeypatch.setattr(svd_core, "FINITE_CHECK_CELLS", shape[0])
        window = np.asfortranarray(graded(*shape))
        window[-1, -1] = np.nan
        before = window.copy()
        with pytest.raises(NumericalFailure, match="NaN or Inf"):
            reduced_svd(HandedOverWindow(window))
        assert np.array_equal(window, before, equal_nan=True)


class TestTruncationRank:
    def test_single_mode(self):
        assert truncation_rank(np.array([1.0]), 1e-4) == 1

    def test_hand_evaluated_shares(self):
        # shares 0.9, 0.0999, 0.0001: threshold 1e-3 keeps the first two
        sigma = np.array([0.9, 0.0999, 0.0001]) * 7.3
        assert truncation_rank(sigma, 1e-3) == 2

    def test_no_truncation_when_all_above(self):
        sigma = np.array([2.0, 1.5, 1.0])
        assert truncation_rank(sigma, 0.05) == 3

    def test_all_zero_rejected(self):
        with pytest.raises(EmptySpectrum):
            truncation_rank(np.zeros(3), 1e-4)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_domain_enforced(self, eps):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0]), eps)

    def test_ascending_input_rejected(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0, 2.0]), 1e-4)

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=15),
        e1=st.floats(1e-9, 0.5),
        e2=st.floats(1e-9, 0.5),
    )
    def test_monotone_in_epsilon(self, sigma, e1, e2):
        s = np.sort(np.asarray(sigma))[::-1].copy()
        lo, hi = min(e1, e2), max(e1, e2)
        assert truncation_rank(s, lo) >= truncation_rank(s, hi)


class TestTruncate:
    def test_full_rank_is_identity(self):
        svd = full_svd(np.diag([3.0, 2.0, 1.0]))
        assert truncate(svd, svd.rank) is svd

    def test_leading_triplet(self):
        svd = truncate(full_svd(np.diag([3.0, 2.0, 1.0])), 1)
        assert np.allclose(svd.singular_values, [3.0])
        assert svd.left_vectors.shape == (3, 1)

    def test_out_of_range(self):
        svd = full_svd(np.diag([3.0, 2.0, 1.0]))
        for r in (0, 4, -1):
            with pytest.raises(RankOutOfRange):
                truncate(svd, r)

    def test_composition_collapses(self):
        rng = np.random.default_rng(3)
        svd = full_svd(rng.standard_normal((10, 6)))
        once = truncate(svd, 2)
        twice = truncate(truncate(svd, 5), 2)
        assert np.array_equal(once.singular_values, twice.singular_values)
        assert np.array_equal(once.left_vectors, twice.left_vectors)


class TestRankRule:
    """One rank rule for both fits, checked before any factoring."""

    def test_select_rank_by_share_or_clamped_fixed_rank(self):
        svd = reduced_svd(np.diag([3.0, 2.0, 1e-6])).svd()
        assert select_rank(svd, epsilon=1e-3) == 2
        assert select_rank(svd, fixed_rank=2) == 2
        assert select_rank(svd, fixed_rank=9) == 3

    @pytest.mark.parametrize(
        "rule, error",
        [
            (dict(fixed_rank=0), RankOutOfRange),
            (dict(fixed_rank=-2), RankOutOfRange),
            (dict(epsilon=2.0), ValueError),
            (dict(epsilon=0.0), ValueError),
            (dict(epsilon=1e-8, fixed_rank=3), ValueError),
            (dict(), ValueError),
        ],
    )
    @pytest.mark.parametrize("fit", [fit_pod, fit_dmd])
    def test_both_fits_reject_a_bad_rule_before_the_svd(self, fit, rule, error, monkeypatch):
        def no_factoring(*args):
            raise AssertionError("factored before checking the rank rule")

        for module in (dmd_rom, pod_rom):
            monkeypatch.setattr(module, "window_factor", no_factoring)
            monkeypatch.setattr(module, "fit_svd", no_factoring)
        with pytest.raises(error):
            fit(np.eye(4), **rule)
        # a good rule reaches the stubs: they are what the fits factor through
        with pytest.raises(AssertionError, match="factored"):
            fit(np.eye(4), fixed_rank=1)
