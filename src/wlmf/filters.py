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
covariance pair factors once and caches (``CovariancePair.whitening``).

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
from .linalg import hermitian_solve
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
    """Strictly linear matched filter ``f`` with its gain factor ``alpha``."""

    f: np.ndarray
    alpha: float = 1.0


@dataclass(frozen=True)
class WlmfWeights:
    """Widely linear matched filter pair ``(f1, f2)``.

    ``dual_path_rel_error`` records the relative disagreement between the
    direct augmented solve and the block-elimination solve measured when the
    weights were computed.
    """

    f1: np.ndarray
    f2: np.ndarray
    beta: float = 1.0
    dual_path_rel_error: float = 0.0


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


def _real_with_residue_check(values: np.ndarray) -> np.ndarray:
    """Discard imaginary parts only after checking they are rounding noise."""
    re = np.real(values)
    im = np.imag(values)
    if np.any(np.abs(im) > 1e-12 * np.abs(re) + 1e-300):
        worst = float(np.max(np.abs(im)))
        raise NumericalConsistencyError(
            f"quadratic form has non-negligible imaginary residue {worst:.3e}"
        )
    return re


def _scalar_or_vector(values: np.ndarray, was_vector: bool):
    return float(values[0]) if was_vector else values


def slmf_solve(x: np.ndarray, cov: CovariancePair, alpha: float = 1.0) -> SlmfWeights:
    """Strictly linear matched filter ``f = alpha R^{-1} x``."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    cols, _ = _as_columns(x, cov.dim)
    if cols.shape[1] != 1:
        raise DimensionMismatchError("slmf_solve expects a single window")
    f = alpha * hermitian_solve(cov.r, cols[:, 0])
    return SlmfWeights(f=f, alpha=alpha)


def wlmf_solve(x: np.ndarray, cov: CovariancePair, beta: float = 1.0) -> WlmfWeights:
    """Widely linear matched filter from the augmented covariance.

    Solves ``R_q w = beta z`` directly and again by block elimination
    through the Schur complements,

        f1 = beta (R - C R^{-*} C^*)^{-1} (x - C R^{-*} x^*)
        f2 = beta (R^* - C^* R^{-1} C)^{-1} (x^* - C^* R^{-1} x),

    and requires the two solutions to agree to 1e-9 in relative norm. The
    optimal branches are mutually conjugate; that pairing is verified too.

    Raises
    ------
    NumericalConsistencyError
        If the two solution paths disagree or the conjugate pairing fails,
        which for positive definite inputs indicates severe ill-conditioning.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    cols, _ = _as_columns(x, cov.dim)
    if cols.shape[1] != 1:
        raise DimensionMismatchError("wlmf_solve expects a single window")
    xv = cols[:, 0]
    r, c = cov.r, cov.c

    z = np.concatenate([xv, np.conj(xv)])
    w_direct = beta * hermitian_solve(cov.augmented, z)

    r_inv_x = hermitian_solve(r, xv)
    r_inv_c = hermitian_solve(r, c)
    schur_lower = np.conj(r) - np.conj(c) @ r_inv_c
    schur_lower = (schur_lower + schur_lower.conj().T) / 2.0
    f2 = beta * hermitian_solve(schur_lower, np.conj(xv) - np.conj(c) @ r_inv_x)

    rc_inv_xc = hermitian_solve(np.conj(r), np.conj(xv))
    rc_inv_cc = hermitian_solve(np.conj(r), np.conj(c))
    schur_upper = r - c @ rc_inv_cc
    schur_upper = (schur_upper + schur_upper.conj().T) / 2.0
    f1 = beta * hermitian_solve(schur_upper, xv - c @ rc_inv_xc)

    w_block = np.concatenate([f1, f2])
    scale = max(float(np.linalg.norm(w_direct)), 1e-300)
    rel_error = float(np.linalg.norm(w_direct - w_block)) / scale
    if rel_error > 1e-9:
        raise NumericalConsistencyError(
            f"augmented and block filter solutions disagree (relative error {rel_error:.3e})"
        )

    f1_out, f2_out = w_direct[: cov.dim], w_direct[cov.dim :]
    pair_residual = float(np.linalg.norm(f1_out - np.conj(f2_out)))
    if pair_residual > 1e-10 * max(float(np.linalg.norm(f1_out)), 1e-300):
        raise NumericalConsistencyError(
            f"filter branches are not conjugate pairs (residual {pair_residual:.3e})"
        )
    return WlmfWeights(f1=f1_out, f2=f2_out, beta=beta, dual_path_rel_error=rel_error)


def snr_slmf(x: np.ndarray, cov: CovariancePair):
    """Output SNR of the strictly linear matched filter, ``x^H R^{-1} x``."""
    cols, was_vector = _as_columns(x, cov.dim)
    solved = hermitian_solve(cov.r, cols)
    values = _real_with_residue_check(np.sum(np.conj(cols) * solved, axis=0))
    return _scalar_or_vector(values, was_vector)


def snr_wlmf(x: np.ndarray, cov: CovariancePair):
    """Output SNR of the widely linear matched filter, ``z^H R_q^{-1} z``."""
    cols, was_vector = _as_columns(x, cov.dim)
    z = np.vstack([cols, np.conj(cols)])
    solved = hermitian_solve(cov.augmented, z)
    values = _real_with_residue_check(np.sum(np.conj(z) * solved, axis=0))
    return _scalar_or_vector(values, was_vector)


def snr_gain(x: np.ndarray, cov: CovariancePair):
    """SNR surplus of the widely linear filter over the strictly linear one.

    The surplus is the quadratic form

        (x^* - C^* R^{-1} x)^H (R^* - C^* R^{-1} C)^{-1} (x^* - C^* R^{-1} x)

    in the Schur complement ``S = R^* - C^* R^{-1} C``. With the pair's
    cached whitening map ``(A, W)``, ``A = C^* R^{-1}`` and ``W = L_S^{-1}``
    for the Cholesky factor ``S = L_S L_S^H``, it is evaluated as the squared
    norm ``||W (x^* - A x)||^2``, so repeated calls on one pair factor
    nothing. The difference ``x^* - A x`` is formed before whitening:
    whitening the two terms apart cancels catastrophically when ``S`` is
    nearly singular.

    The value is positive for every nonzero ``x`` whenever the augmented
    covariance is positive definite, and equals ``snr_wlmf - snr_slmf``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``R`` or ``S`` is not positive definite.
    """
    cols, was_vector = _as_columns(x, cov.dim)
    a, white = cov.whitening
    w = white @ (np.conj(cols) - a @ cols)
    values = np.sum(w.real**2 + w.imag**2, axis=0)
    return _scalar_or_vector(values, was_vector)


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
