"""Truncation errors of reduced models and the a-posteriori linear error bound.

The bound at index n >= m (m = last training index) is

    ||pinv(modes)||_F * ( ||e^m||_2 + (n - m) * eps_m )

where eps_m is the worst one-step residual of the fitted propagator over the
consecutive column pairs of whatever trajectory the caller passes to
``estimate_eps_m``. ``bench.run_experiment`` passes the whole reference
trajectory (indices 1..M, past the training window too), in blocks that
overlap by one column, so the bound is not a-posteriori in the strict
sense: its slope sees data the fit did not. Validity (bound >= measured
error) is the asserted property; tightness is not.

The modes are U W with U's columns orthonormal (``dmd_rom``), so
pinv(modes) = W^-1 U^T and ||pinv(modes)||_F is evaluated as ||W^-1||_F,
from r x r algebra alone.

This module writes no file: ``rundir`` writes an ``ErrorReport`` and checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SnapshotMatrix
from .dmd_rom import DmdModel, one_step_map
from .errors import DimensionMismatch, IndexBeforeAnchor


def _as_array(data) -> np.ndarray:
    return data.data if isinstance(data, SnapshotMatrix) else np.asarray(data, dtype=float)


def _column_norms(columns: np.ndarray) -> np.ndarray:
    """Column 2-norms of an array the caller made and gives up: a real one
    is squared in place, which sums the products ``np.linalg.norm(columns,
    axis=0)`` sums, in the same layout, without its two temporaries."""
    if np.iscomplexobj(columns):
        return np.linalg.norm(columns, axis=0)
    np.multiply(columns, columns, out=columns)
    return np.sqrt(np.add.reduce(columns, axis=0))


def truncation_error(reference, rom) -> np.ndarray:
    """Per-column 2-norm differences between matching trajectories."""
    ref = _as_array(reference)
    approx = _as_array(rom)
    if ref.shape != approx.shape:
        raise DimensionMismatch(f"shape mismatch {ref.shape} vs {approx.shape}")
    return _column_norms(ref - approx)


def relative_l2(reference, rom) -> np.ndarray:
    """Column-wise ||ref - rom|| / ||ref||, falling back to absolute on zero columns."""
    diff = truncation_error(reference, rom)
    return diff / np.maximum(np.linalg.norm(_as_array(reference), axis=0), 1e-300)


def last_training_index(model: DmdModel) -> int:
    return model.base_time_index + model.training_count - 1


def estimate_eps_m(model: DmdModel, training) -> float:
    """Worst one-step residual of the fitted propagator over the consecutive
    column pairs of ``training`` (whatever trajectory the caller passes)."""
    y = _as_array(training)
    if y.shape[1] < 2:
        return 0.0
    residuals = one_step_map(model, y[:, :-1])
    np.subtract(y[:, 1:], residuals, out=residuals)
    return float(np.max(_column_norms(residuals)))


def phi_pinv_fnorm(model: DmdModel) -> float:
    """||pinv(modes)||_F, evaluated as ||W^-1||_F (see the module docstring)."""
    return float(np.linalg.norm(np.linalg.inv(model.eigenvectors), "fro"))


def error_bound_series(model: DmdModel, indices, anchor_error: float, eps_m: float) -> np.ndarray:
    """Bound on the observable error at each index (affine in n past the anchor)."""
    idx = np.asarray(indices, dtype=int)
    if idx.size and idx.min() < last_training_index(model):
        raise IndexBeforeAnchor("series starts before the last training index")
    return phi_pinv_fnorm(model) * (anchor_error + (idx - last_training_index(model)) * eps_m)


@dataclass
class ErrorReport:
    """Per-index error curves of one reduced model against a reference."""

    times: np.ndarray
    t_values: np.ndarray
    error_state: Optional[np.ndarray]
    error_observable: np.ndarray
    bound: Optional[np.ndarray] = None
    phi_pinv_fnorm: Optional[float] = None
    eps_m: Optional[float] = None
    anchor_error: Optional[float] = None
    anchor_index: Optional[int] = None

    def bound_is_valid(self) -> bool:
        """Bound must dominate the observable error wherever both are defined."""
        if self.bound is None:
            return True
        mask = ~np.isnan(self.bound)
        return bool(np.all(self.bound[mask] + 1e-12 >= self.error_observable[mask]))

