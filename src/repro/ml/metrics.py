"""Regression metrics, including the paper's MRE (Equation 1)."""

from __future__ import annotations

import numpy as np

from ..errors import MLError


def _check(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise MLError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if len(y_true) == 0:
        raise MLError("metrics need at least one sample")
    return y_true, y_pred


def mean_relative_error(y_true, y_pred) -> float:
    """MRE = (1/N) * sum |y' - y| / y   (paper Equation 1).

    The paper's targets (IPC, energy) are strictly positive; zero true
    values are rejected rather than silently skipped.
    """
    y_true, y_pred = _check(y_true, y_pred)
    if (y_true == 0).any():
        raise MLError("MRE is undefined for zero true values")
    return float(np.mean(np.abs(y_pred - y_true) / np.abs(y_true)))


def rmse(y_true, y_pred) -> float:
    """Root mean squared error."""
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.sqrt(np.mean((y_pred - y_true) ** 2)))


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination (1 - SSE/SST)."""
    y_true, y_pred = _check(y_true, y_pred)
    sse = float(np.sum((y_true - y_pred) ** 2))
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst
