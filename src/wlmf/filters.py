"""Strictly linear and widely linear matched filters for improper noise.

A strictly linear filter forms ``y = f^H w`` from the newest-first window
``w``; a widely linear filter adds a conjugate branch, ``y = f1^H w + f2^H
conj(w)``, equivalently one filter on the augmented vector ``z = (w,
conj(w))``. For a deterministic target ``x`` observed in zero-mean noise with
covariance pair ``(R, C)``, the output-SNR-optimal solutions and their SNR
values are closed forms in the (augmented) covariance; the widely linear SNR
never falls below the strictly linear one, and the surplus is itself a
quadratic form in the Schur complement of the augmented covariance, which
:func:`snr_gain` evaluates as a squared norm through the whitening map the
covariance pair factors once and caches (``CovariancePair.whitening``);
:func:`wlmf_solve` solves for the widely linear weights through the same map,
and :func:`slmf_solve` and :func:`snr_slmf` through the pair's cached
inverse Cholesky factor of ``R`` (``CovariancePair.inverse_cholesky``).

All SNR functions accept a single window (shape ``(L,)``) or a batch of
windows as columns (shape ``(L, K)``), returning a scalar or a length-K
vector accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NumericalConsistencyError,
)
from .linalg import _lower_inverse, _pd_cholesky, _refined_solve
from .noise import CovariancePair, sliding_windows

__all__ = [
    "SlmfWeights",
    "WlmfWeights",
    "slmf_solve",
    "wlmf_solve",
    "snr_slmf",
    "snr_wlmf",
    "snr_gain",
    "apply_filter_sequence",
    "template_to_feature",
]


@dataclass(frozen=True)
class SlmfWeights:
    """Strictly linear matched filter ``f``."""

    f: np.ndarray


@dataclass(frozen=True)
class WlmfWeights:
    """Widely linear matched filter pair ``(f1, f2)``."""

    f1: np.ndarray
    f2: np.ndarray


def _as_columns(x, dim: int, name: str = "x") -> tuple[np.ndarray, bool]:
    """Coerce to an (L, K) column matrix; report whether input was a vector."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise DimensionMismatchError(f"{name} has length {x.shape[0]}, expected {dim}")
        return x[:, None], True
    if x.ndim == 2:
        if x.shape[0] != dim:
            raise DimensionMismatchError(f"{name} has {x.shape[0]} rows, expected {dim}")
        if x.shape[1] == 0:
            raise EmptyInputError(f"{name} has no columns")
        return x, False
    raise DimensionMismatchError(f"{name} must be 1- or 2-dimensional, got ndim={x.ndim}")


def _squared_norms(w: np.ndarray, was_vector: bool):
    """Squared column norms of ``w``, a float for a single-window input."""
    values = np.sum(w.real**2 + w.imag**2, axis=0)
    return float(values[0]) if was_vector else values


def _real_map_squared_norms(real_map: np.ndarray, cols: np.ndarray, was_vector: bool):
    """Squared column norms of ``real_map @ [Re x; Im x]`` for complex columns ``x``."""
    mapped = real_map @ np.vstack([cols.real, cols.imag])
    values = np.einsum("ij,ij->j", mapped, mapped)
    return float(values[0]) if was_vector else values


def slmf_solve(x: np.ndarray, cov: CovariancePair) -> SlmfWeights:
    """Strictly linear matched filter ``f = R^{-1} x`` (the paper's ``f = alpha
    R^{-1} x`` at ``alpha = 1``), solved through the pair's cached inverse
    Cholesky factor of ``R`` with one refinement step."""
    cols, _ = _as_columns(x, cov.dim)
    if cols.shape[1] != 1:
        raise DimensionMismatchError("slmf_solve expects a single window")
    return SlmfWeights(f=_refined_solve(cov.r, cov.inverse_cholesky, cols[:, 0]))


def wlmf_solve(x: np.ndarray, cov: CovariancePair) -> WlmfWeights:
    """Widely linear matched filter, the solution ``w = (f1, f2)`` of
    ``R_q w = z`` for the augmented covariance ``R_q`` and ``z = (x, x^*)``
    (the paper's ``w = beta R_q^{-1} z`` at ``beta = 1``).

    The optimal branches are conjugate pairs, ``f1 = f2^*``, so block
    elimination leaves one equation in the Schur complement ``S = R^* - C^*
    R^{-1} C``,

        f2 = S^{-1} (x^* - C^* R^{-1} x),

    applied through the pair's cached whitening map ``(A, W)``, ``S^{-1} =
    W^H W``, with one step of iterative refinement through the same map.
    Repeated calls on one pair factor nothing.

    Raises
    ------
    NotPositiveDefiniteError
        If ``R`` or ``S`` is not positive definite.
    NumericalConsistencyError
        If the normwise backward error ``||R_q w - z|| / (||R_q|| ||w|| +
        ||z||)`` exceeds 1e-12, which for positive definite inputs indicates
        severe ill-conditioning.
    """
    cols, _ = _as_columns(x, cov.dim)
    if cols.shape[1] != 1:
        raise DimensionMismatchError("wlmf_solve expects a single window")
    xv = cols[:, 0]
    a, white = cov.whitening

    def conjugate_branch(rhs):
        """``f2`` with ``R f2^* + C f2 = rhs``."""
        return white.conj().T @ (white @ (np.conj(rhs) - a @ rhs))

    f2 = conjugate_branch(xv)
    f2 = f2 + conjugate_branch(xv - (cov.r @ np.conj(f2) + cov.c @ f2))
    f1 = np.conj(f2)

    norm = np.linalg.norm
    w = np.concatenate([f1, f2])
    z = np.concatenate([xv, np.conj(xv)])
    residual = norm(cov.augmented @ w - z)
    scale = norm(cov.augmented) * norm(w) + norm(z)
    if residual > 1e-12 * scale:
        raise NumericalConsistencyError(
            f"widely linear filter has backward error {residual / scale:.3e} (above 1e-12)"
        )
    return WlmfWeights(f1=f1, f2=f2)


def snr_slmf(x: np.ndarray, cov: CovariancePair):
    """Output SNR of the strictly linear matched filter, ``x^H R^{-1} x``,
    evaluated as ``||L^{-1} x||^2`` with the pair's cached inverse Cholesky
    factor, ``R = L L^H``."""
    cols, was_vector = _as_columns(x, cov.dim)
    return _squared_norms(cov.inverse_cholesky @ cols, was_vector)


def snr_wlmf(x: np.ndarray, cov: CovariancePair):
    """Output SNR of the widely linear matched filter, ``z^H R_q^{-1} z`` for
    ``z = (x, x^*)``, evaluated as ``||L_q^{-1} z||^2`` with a Cholesky factor
    ``R_q = L_q L_q^H`` of the augmented covariance taken on each call.

    The augmented factor is independent of the Schur-complement map that
    :func:`snr_gain` uses, so the two cross-check each other.
    """
    cols, was_vector = _as_columns(x, cov.dim)
    z = np.vstack([cols, np.conj(cols)])
    return _squared_norms(_lower_inverse(_pd_cholesky(cov.augmented)) @ z, was_vector)


def snr_gain(x: np.ndarray, cov: CovariancePair):
    """SNR surplus of the widely linear filter over the strictly linear one.

    The surplus is the quadratic form

        (x^* - C^* R^{-1} x)^H (R^* - C^* R^{-1} C)^{-1} (x^* - C^* R^{-1} x)

    in the Schur complement ``S = R^* - C^* R^{-1} C``. With the pair's
    cached whitening map ``(A, W)``, ``A = C^* R^{-1}`` and ``W = L_S^{-1}``
    for the Cholesky factor ``S = L_S L_S^H``, it is the squared norm
    ``||W (x^* - A x)||^2``. That map is real-linear: on ``[Re x; Im x]`` it
    is the ``2L x 2L`` matrix ``[[W_r, -W_i], [W_i, W_r]] @ [[I - A_r, A_i],
    [-A_i, -(I + A_r)]]``, cached on the pair, so a batch is one real matrix
    product and repeated calls factor nothing. ``I - A`` is formed before
    whitening: whitening the two terms apart cancels catastrophically when
    ``S`` is nearly singular.

    The value is positive for every nonzero ``x`` whenever the augmented
    covariance is positive definite, and equals ``snr_wlmf - snr_slmf``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``R`` or ``S`` is not positive definite.
    """
    cols, was_vector = _as_columns(x, cov.dim)
    return _real_map_squared_norms(cov._gain_map, cols, was_vector)


def apply_filter_sequence(sequence: np.ndarray, weights: SlmfWeights | WlmfWeights) -> np.ndarray:
    """Run a filter along a sequence, one output per full window.

    Output ``k`` (0-based) is the response to the newest-first window ending
    at sample ``k + L - 1``, so a sequence of N samples yields N - L + 1
    outputs covering window positions L..N.
    """
    if isinstance(weights, SlmfWeights):
        filter_len = weights.f.shape[0]
    elif isinstance(weights, WlmfWeights):
        filter_len = weights.f1.shape[0]
    else:
        raise TypeError(f"unsupported weights type {type(weights).__name__}")
    windows = sliding_windows(np.asarray(sequence, dtype=complex), filter_len)
    if isinstance(weights, SlmfWeights):
        return np.conj(weights.f) @ windows
    return np.conj(weights.f1) @ windows + np.conj(weights.f2) @ np.conj(windows)


def template_to_feature(template: np.ndarray) -> np.ndarray:
    """Conjugate time-reverse of a template, ``feature[k] = conj(template[L-1-k])``.

    This is the classic correspondence between a matched-filter template and
    its convolution-form impulse response. The map is an involution. A filter
    designed on the newest-first window ``feature[::-1]`` (that is,
    ``conj(template)``) responds coherently where the running sequence
    contains the feature in time order.
    """
    template = np.asarray(template, dtype=complex)
    if template.ndim != 1 or template.size == 0:
        raise EmptyInputError("template must be a nonempty vector")
    return np.conj(template[::-1])
