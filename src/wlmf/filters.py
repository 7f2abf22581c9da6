"""Strictly linear and widely linear matched filters for improper noise.

A strictly linear filter forms ``y = f^H w`` from the newest-first window
``w``; a widely linear filter adds a conjugate branch, ``y = f1^H w + f2^H
conj(w)``, equivalently one filter on the augmented vector ``z = (w,
conj(w))``. For a deterministic target ``x`` in zero-mean noise with
covariance pair ``(R, C)``, the widely linear output SNR is the strictly
linear one plus a nonnegative surplus, a quadratic form in the Schur
complement ``S`` of the augmented covariance. Every solve and SNR here runs
on the pair's two cached factors, of ``R`` (``CovariancePair.
inverse_cholesky``) and of ``S`` (``CovariancePair.whitening``); none forms
the augmented matrix.

All SNR functions accept a single window (shape ``(L,)``) or a batch of
windows as columns (shape ``(L, K)``), returning a scalar or a length-K
vector accordingly. The solvers take exactly one window: any 2-D input, a
single ``(L, 1)`` column included, raises ``DimensionMismatchError``. A NaN
or infinite entry raises ``NonFiniteInputError``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    NumericalConsistencyError,
    _as_array,
)
from .linalg import _refined_solve
from .noise import CovariancePair, sliding_windows

__all__ = [
    "slmf_solve",
    "wlmf_solve",
    "snr_slmf",
    "snr_wlmf",
    "snr_gain",
    "apply_filter_sequence",
    "template_to_feature",
]


def _as_columns(x, dim: int, finite: bool = True) -> tuple[np.ndarray, bool]:
    """Coerce a window (``dim``,) or a batch (``dim``, K >= 1) to (L, K)
    columns, finite unless ``finite`` is False; report whether it was a vector."""
    x = _as_array("x", x, (1, 2), finite, lead=(dim,))
    if x.ndim == 2 and x.shape[1] == 0:
        raise EmptyInputError("x has no columns")
    return (x[:, None], True) if x.ndim == 1 else (x, False)


# Columns per block of _real_map_squared_norms: its two (2L, width) float
# buffers stay cache-sized (256 KB at L = 8) and are reused across blocks.
_BLOCK_WIDTH = 2048


def _real_map_squared_norms(real_map: np.ndarray, x):
    """Squared column norms of ``real_map @ [Re x; Im x]`` for a complex
    window or column batch ``x``, a scalar or a vector accordingly.

    The batch is walked in blocks of ``_BLOCK_WIDTH`` columns through two
    buffers allocated once per call, so the temporaries do not grow with the
    batch. Every column before the last block gets the whole-batch product's
    value bit for bit. The last, shorter block is a product of its own, and
    BLAS rounds a product's last few columns by its width, so there a value
    can move by an ulp or two, as it does between any two batch widths.

    ``x`` is converted by ``_as_columns(..., finite=False)``: a NaN or
    infinite entry makes its column's value NaN or infinite (``0 * inf`` is
    NaN), so the input is scanned for one only when a value is not finite. A
    finite input that overflows returns ``inf``.
    """
    cols, was_vector = _as_columns(x, real_map.shape[1] // 2, finite=False)
    rows, count = cols.shape
    size = 2 * rows
    width = min(count, _BLOCK_WIDTH)
    # Flat, so the last block views a contiguous (2L, n) front of each buffer
    # and every block is the product a batch of its own columns would be.
    stack_buffer = np.empty(size * width)
    mapped_buffer = np.empty(size * width)
    values = np.empty(count)
    # A non-finite input raises below, not as a warning from the product.
    with np.errstate(invalid="ignore"):
        for start in range(0, count, width):
            block = cols[:, start : start + width]
            n = block.shape[1]
            stack = stack_buffer[: size * n].reshape(size, n)
            mapped = mapped_buffer[: size * n].reshape(size, n)
            stack[:rows] = block.real
            stack[rows:] = block.imag
            np.matmul(real_map, stack, out=mapped)
            np.einsum("ij,ij->j", mapped, mapped, out=values[start : start + n])
    if not np.isfinite(values).all() and not np.isfinite(cols).all():
        raise NonFiniteInputError("x contains non-finite entries")
    return float(values[0]) if was_vector else values


def slmf_solve(x: np.ndarray, cov: CovariancePair) -> np.ndarray:
    """Taps ``f = R^{-1} x`` of the strictly linear matched filter (the
    paper's ``f = alpha R^{-1} x`` at ``alpha = 1``), solved through the
    pair's cached inverse Cholesky factor of ``R`` with one refinement step."""
    return _refined_solve(cov.r, cov.inverse_cholesky, _as_array("x", x, (1,), lead=(cov.dim,)))


def wlmf_solve(x: np.ndarray, cov: CovariancePair) -> tuple[np.ndarray, np.ndarray]:
    """Taps ``(f1, f2)`` of the widely linear matched filter: the solution ``w =
    (f1, f2)`` of ``R_q w = z`` for the augmented covariance ``R_q`` and ``z =
    (x, x^*)`` (the paper's ``w = beta R_q^{-1} z`` at ``beta = 1``).

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
    xv = _as_array("x", x, (1,), lead=(cov.dim,))
    a, white = cov.whitening

    def conjugate_branch(rhs):
        """``f2`` with ``R f2^* + C f2 = rhs``."""
        return white.conj().T @ (white @ (np.conj(rhs) - a @ rhs))

    f2 = conjugate_branch(xv)
    f2 = f2 + conjugate_branch(xv - (cov.r @ np.conj(f2) + cov.c @ f2))
    f1 = np.conj(f2)

    # f1 = conj(f2) makes R_q w - z the stack of e = R f1 + C f2 - x over conj(e); with
    # ||R_q||_F = sqrt(2) hypot(||R||_F, ||C||_F), ||w|| = sqrt(2) ||f1|| and ||z|| =
    # sqrt(2) ||x||, this is the augmented ratio with a factor sqrt(2) cancelled.
    norm = np.linalg.norm
    residual = norm(cov.r @ f1 + cov.c @ f2 - xv)
    scale = np.sqrt(2.0) * np.hypot(norm(cov.r), norm(cov.c)) * norm(f1) + norm(xv)
    if not residual <= 1e-12 * scale:
        raise NumericalConsistencyError(
            f"widely linear filter has backward error {residual / scale:.3e} (above 1e-12)"
        )
    return f1, f2


def snr_slmf(x: np.ndarray, cov: CovariancePair):
    """Output SNR of the strictly linear matched filter, ``x^H R^{-1} x``,
    evaluated as ``||L^{-1} x||^2`` with the pair's cached inverse Cholesky
    factor, ``R = L L^H``: the real form of ``L^{-1}`` on ``[Re x; Im x]``,
    cached on the pair, runs through the same column-block kernel as
    :func:`snr_gain`."""
    return _real_map_squared_norms(cov._slmf_map, x)


def snr_wlmf(x: np.ndarray, cov: CovariancePair):
    """Output SNR of the widely linear matched filter, ``z^H R_q^{-1} z`` for
    ``z = (x, x^*)``, evaluated by block elimination of ``R_q`` as
    ``snr_slmf(x, cov) + snr_gain(x, cov)`` on the pair's cached factors.

    Raises
    ------
    NotPositiveDefiniteError
        If ``R`` or ``S`` is not positive definite.
    """
    return snr_slmf(x, cov) + snr_gain(x, cov)


def snr_gain(x: np.ndarray, cov: CovariancePair):
    """SNR surplus of the widely linear filter over the strictly linear one.

    The surplus is the quadratic form

        (x^* - C^* R^{-1} x)^H (R^* - C^* R^{-1} C)^{-1} (x^* - C^* R^{-1} x)

    in the Schur complement ``S = R^* - C^* R^{-1} C``. With the pair's
    cached whitening map ``(A, W)``, ``A = C^* R^{-1}`` and ``W = L_S^{-1}``
    for the Cholesky factor ``S = L_S L_S^H``, it is the squared norm
    ``||W (x^* - A x)||^2``. That map is real-linear: on ``[Re x; Im x]`` it
    is the ``2L x 2L`` matrix ``[[W_r, -W_i], [W_i, W_r]] @ [[I - A_r, A_i],
    [-A_i, -(I + A_r)]]``, cached on the pair, so a batch is a real matrix
    product, evaluated in cache-sized column blocks through reused buffers,
    and repeated calls factor nothing. ``I - A`` is formed before
    whitening: whitening the two terms apart cancels catastrophically when
    ``S`` is nearly singular.

    The value is positive for every nonzero ``x`` whenever the augmented
    covariance is positive definite; :func:`snr_wlmf` adds it to
    :func:`snr_slmf`.

    Raises
    ------
    NotPositiveDefiniteError
        If ``R`` or ``S`` is not positive definite.
    """
    return _real_map_squared_norms(cov._gain_map, x)


def apply_filter_sequence(
    sequence: np.ndarray, f: np.ndarray, f_conj: np.ndarray | None = None
) -> np.ndarray:
    """Run taps ``f`` and conjugate-branch taps ``f_conj``, zero when None, along
    a sequence: one output ``f^H w + f_conj^H conj(w)`` per full window ``w``.

    Output ``k`` (0-based) is the response to the newest-first window ending
    at sample ``k + L - 1``, so a sequence of N samples yields N - L + 1
    outputs covering window positions L..N. Taps of shape ``(..., L)`` are a
    bank of filters, and sequences of shape ``(..., N)`` a stack; every
    filter runs along every sequence, and the output is ``(stack axes, bank
    axes, K)``. The taps are summed in one order whatever the shapes, so a
    bank on a stack agrees bit for bit with each filter on each sequence
    alone. The sequence and taps follow the array rule of
    :mod:`wlmf.errors`, and 0-d taps raise ``DimensionMismatchError``.
    """
    f = _as_array("taps", f, None)
    if f.ndim == 0:
        raise DimensionMismatchError("taps must be at least 1-D")
    f_conj = (
        np.zeros_like(f) if f_conj is None else _as_array("f_conj", f_conj, (f.ndim,), lead=f.shape)
    )
    return _filter_bank(sliding_windows(sequence, f.shape[-1]), np.stack([np.conj(f), f_conj]))


def _filter_bank(windows: np.ndarray, bank: np.ndarray, out: np.ndarray | None = None):
    """Responses of every filter of a bank to every window of ``windows``
    (..., L, K), of shape ``windows.shape[:-2] + bank.shape[1:-1] + (K,)``.

    ``bank`` (2, ..., L) holds two branches: the conjugated taps ``conj(f)``
    and the conjugate-branch taps ``f_conj``, zero for a strictly linear
    filter. The response ``f^H w + f_conj^H conj(w)`` is ``r0 + conj(r1)``
    for the two branches' plain sums ``r = bank . w``; a bank (1, ..., L) of
    the first branch alone is strictly linear, its response ``r0``. On one
    sequence's windows the branches' sums land in ``out`` (branches, *response
    shape*) when it is given, and the response in ``out[0]``, so a caller
    that owns ``out`` allocates nothing.

    One sequence's windows (L, K) are contracted in place; the windows of
    several sequences are folded into one contiguous (L, B, K) block that
    every filter meets in one contraction, the branches as more filters, into
    an array that einsum lays out itself (into a given one it runs up to 4x
    slower). Each response is the same sum over L in the same order either
    way, and einsum, unlike a matmul, rounds each filter of a bank as it
    rounds that filter alone, so neither folding nor banking changes a
    bit."""
    length, count = windows.shape[-2:]
    if windows.ndim == 2:
        sums = np.einsum("...l,lk->...k", bank, windows, out=out)
    else:
        shape = windows.shape[:-2] + bank.shape[:-1] + (count,)
        folded = np.ascontiguousarray(np.moveaxis(windows.reshape(-1, length, count), 1, 0))
        sums = np.einsum("cl,lbk->bck", bank.reshape(-1, length), folded).reshape(shape)
        sums = np.moveaxis(sums, windows.ndim - 2, 0)
    # conj(f2ᵀ w) and conj(f2)ᵀ conj(w) differ at most in the sign of an
    # exactly zero imaginary part, and einsum sums from +0, so adding the
    # strictly linear part, which is never -0, makes the two sums
    # bit-identical; for the same reason, adding a zero branch's ±0 changes
    # nothing.
    if len(sums) == 1:
        return sums[0]
    # Without ``out`` the response is a new array, so it does not keep the
    # second branch's sums alive.
    y, conj_sums = sums
    np.conj(conj_sums, out=conj_sums)
    return np.add(y, conj_sums, out=None if out is None else y)


def template_to_feature(template: np.ndarray) -> np.ndarray:
    """Conjugate time-reverse of a template, ``feature[k] = conj(template[L-1-k])``.

    This is the classic correspondence between a matched-filter template and
    its convolution-form impulse response. The map is an involution. A filter
    designed on the newest-first window ``feature[::-1]`` (that is,
    ``conj(template)``) responds coherently where the running sequence
    contains the feature in time order.

    Raises
    ------
    InvalidParameterError, DimensionMismatchError, NonFiniteInputError
        If ``template`` breaks the array rule of :mod:`wlmf.errors` for a
        1-D array; ``EmptyInputError`` if it is empty.
    """
    template = _as_array("template", template, (1,))
    if template.size == 0:
        raise EmptyInputError("template is empty")
    return np.conj(template[::-1])
