"""Improper Gaussian noise models built from moving-average filters.

The driving process is doubly white: each sample ``u(n)`` is an independent
complex Gaussian with ``E[|u|^2] = sigma2_u`` and a real second-moment
``E[u^2] = rho_u * sigma2_u`` controlled by the impropriety coefficient
``rho_u``. Passing it through a finite impulse response gives colored noise
whose covariance and complementary covariance are both Toeplitz and available
in closed form.

A :class:`CovariancePair` factors ``R`` and the Schur complement ``S`` of
the augmented covariance once each, on first use, for every filter and SNR
on the pair; the ``2L x 2L`` augmented matrix itself is never formed.

Windows are read newest-first throughout the package: the window at position
``n`` is ``[v(n), v(n-1), ..., v(n-L+1)]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InsufficientSamplesError,
    InvalidImproprietyError,
    InvalidParameterError,
    _as_array,
    _as_float,
    _as_int,
)
from .linalg import _as_structured, _inverse_cholesky, _read_only, _real_form, _refined_solve
from .seeding import as_generator

__all__ = [
    "NoiseModel",
    "CovariancePair",
    "demo_model",
    "sample_improper_white",
    "ma_filter",
    "analytic_covariances",
    "empirical_covariances",
    "sliding_windows",
]


def _driving_noise(rho_u, sigma2_u) -> tuple[float, float]:
    """``rho_u`` and ``sigma2_u`` of the driving noise as plain floats, with
    ``rho_u`` in [0, 1] and ``sigma2_u`` in (0, inf)."""
    rho_u, sigma2_u = _as_float("rho_u", rho_u), _as_float("sigma2_u", sigma2_u)
    if not 0.0 <= rho_u <= 1.0:
        raise InvalidImproprietyError(f"rho_u must lie in [0, 1], got {rho_u}")
    if not 0 < sigma2_u < np.inf:
        raise InvalidParameterError(f"sigma2_u must lie in (0, inf), got {sigma2_u}")
    return rho_u, sigma2_u


@dataclass(frozen=True)
class NoiseModel:
    """Moving-average noise model driven by doubly white improper Gaussians.

    Attributes
    ----------
    taps : tuple of complex
        Finite impulse response coefficients; ``v(n) = sum_k taps[k] u(n-k)``.
    rho_u : float
        Impropriety coefficient of the driving noise, in [0, 1].
    sigma2_u : float
        Power of the driving noise, positive and finite.

    Taps follow the array rule of :mod:`wlmf.errors` for a 1-D array.
    """

    taps: tuple[complex, ...]
    rho_u: float
    sigma2_u: float = 1.0

    def __post_init__(self):
        taps = tuple(_as_array("taps", self.taps, (1,)).tolist())
        if len(taps) == 0:
            raise EmptyInputError("taps must be nonempty")
        if all(t == 0 for t in taps):
            raise InvalidParameterError("at least one tap must be nonzero")
        object.__setattr__(self, "taps", taps)
        rho_u, sigma2_u = _driving_noise(self.rho_u, self.sigma2_u)
        object.__setattr__(self, "rho_u", rho_u)
        object.__setattr__(self, "sigma2_u", sigma2_u)


@dataclass(frozen=True)
class CovariancePair:
    """Covariance ``r = E[w w^H]`` and complementary covariance ``c = E[w w^T]``
    of a length-L noise window, plus, each built on first use and cached, the
    inverse Cholesky factor of ``r`` and the whitening map of the Schur
    complement of the augmented covariance ``[[R, C], [C^*, R^*]]``.

    ``r`` and ``c`` are the exact Hermitian and symmetric parts of the
    inputs; they and every cached factor are read-only.

    Raises
    ------
    DimensionMismatchError
        If ``r`` or ``c`` is not square, or (after the structure checks) the
        two differ in shape.
    NonFiniteInputError
        If an entry is NaN or infinite.
    NotHermitianError, NotSymmetricError
        If ``r`` is not Hermitian or ``c`` not complex symmetric (1e-10 relative).
    """

    r: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        r = _as_structured(self.r, "covariance r", hermitian=True)
        c = _as_structured(self.c, "complementary covariance c", hermitian=False)
        if r.shape != c.shape:
            raise DimensionMismatchError(
                f"covariances must have equal shapes, got {r.shape} and {c.shape}"
            )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.r.shape[0]

    @cached_property
    def inverse_cholesky(self) -> np.ndarray:
        """``L^{-1}``, the inverse of the lower Cholesky factor of ``R = L
        L^H``, computed on first access and cached, so every solve with ``R``
        on this pair is two matrix products.

        Raises
        ------
        NotPositiveDefiniteError
            If ``R`` is not positive definite or a squared pivot falls below
            ``1e-12 * max(diag(R))``.
        """
        return _inverse_cholesky(self.r)

    @cached_property
    def whitening(self) -> tuple[np.ndarray, np.ndarray]:
        """``(A, W)``: ``A = conj(C) R^{-1}`` and ``W = L_S^{-1}``, the inverse
        of the lower Cholesky factor of the Schur complement ``S = conj(R) -
        A C`` of the augmented covariance.

        ``W (conj(x) - A x)`` whitens the widely linear SNR surplus of a
        window ``x`` (see :func:`wlmf.filters.snr_gain`). Built on first
        access and cached on the pair, so every later batch costs two small
        matrix products.

        Raises
        ------
        NotPositiveDefiniteError
            If ``R`` or ``S`` is not positive definite, i.e. the augmented
            covariance is not.
        """
        # R^{-1} C is the conjugate transpose of A because R is Hermitian and
        # C symmetric.
        a = _read_only(_refined_solve(self.r, self.inverse_cholesky, self.c).conj().T)
        schur = np.conj(self.r) - a @ self.c
        return a, _inverse_cholesky((schur + schur.conj().T) / 2.0)

    @cached_property
    def _slmf_map(self) -> np.ndarray:
        """Real ``2L x 2L`` form of ``x -> L^{-1} x`` on ``[Re x; Im x]``,
        built from :attr:`inverse_cholesky` on first access and cached."""
        return _read_only(_real_form(self.inverse_cholesky))

    @cached_property
    def _gain_map(self) -> np.ndarray:
        """Real ``2L x 2L`` form of ``x -> W (conj(x) - A x)`` on ``[Re x; Im
        x]``, built from :attr:`whitening` on first access and cached."""
        a, white = self.whitening
        # conj(x) is diag(I, -I) on [Re x; Im x].
        conjugate = np.diag(np.repeat([1.0, -1.0], self.dim))
        return _read_only(_real_form(white) @ (_real_form(-a) + conjugate))


def demo_model(rho_u: float) -> NoiseModel:
    """The two-tap moving average ``v(n) = 0.9 u(n) - 0.1j u(n-1)``, driven at
    unit power, used by the demos."""
    return NoiseModel(taps=(0.9, -0.1j), rho_u=rho_u)


def sample_improper_white(
    n: int,
    rho_u: float,
    sigma2_u: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw ``n`` doubly white improper Gaussian samples.

    Real and imaginary parts are independent zero-mean Gaussians with
    variances ``sigma2_u (1 + rho_u) / 2`` and ``sigma2_u (1 - rho_u) / 2``,
    the unique split with uncorrelated parts giving ``E[|u|^2] = sigma2_u``
    and ``E[u^2] = rho_u sigma2_u``; the real part is drawn first.
    """
    n = _as_int("n", n, None)
    if n <= 0:
        raise EmptyInputError(f"sample count must be positive, got {n}")
    rho_u, sigma2_u = _driving_noise(rho_u, sigma2_u)
    gen = as_generator(rng)
    u = np.empty(n, dtype=complex)
    np.multiply(gen.standard_normal(n), np.sqrt(sigma2_u * (1.0 + rho_u) / 2.0), out=u.real)
    np.multiply(gen.standard_normal(n), np.sqrt(sigma2_u * (1.0 - rho_u) / 2.0), out=u.imag)
    return u


def ma_filter(u: np.ndarray, taps) -> np.ndarray:
    """Apply the moving-average filter with zero initial state.

    Returns a sequence of the same length as ``u``; the first ``len(taps)``
    outputs (where the filter is still filling) are kept.

    Raises
    ------
    InvalidParameterError, DimensionMismatchError, NonFiniteInputError
        If ``u`` or ``taps`` breaks the array rule of :mod:`wlmf.errors` for
        1-D arrays; ``EmptyInputError`` if either is empty.
    """
    u, taps = _as_array("u", u, (1,)), _as_array("taps", taps, (1,))
    if u.size == 0 or taps.size == 0:
        raise EmptyInputError("ma_filter needs a nonempty input and taps")
    return np.convolve(u, taps)[: u.size]


def _lagged_products(taps: np.ndarray, conjugate: bool, length: int) -> np.ndarray:
    """Vector of ``sum_m taps[m+k] * (conj)taps[m]`` for k = 0..length-1."""
    full = np.correlate(taps, taps if conjugate else np.conj(taps), mode="full")
    nonneg = full[len(taps) - 1 :]
    out = np.zeros(length, dtype=complex)
    take = min(length, len(nonneg))
    out[:take] = nonneg[:take]
    return out


def analytic_covariances(model: NoiseModel, filter_len: int) -> CovariancePair:
    """Exact window covariances of the filtered noise.

    With ``r(k) = sigma2_u sum_m taps[m+k] conj(taps[m])`` and
    ``c(k) = rho_u sigma2_u sum_m taps[m+k] taps[m]``, the newest-first
    window has Toeplitz covariance ``R[a, b] = r(b - a)`` (conjugated below
    the diagonal) and symmetric Toeplitz complementary covariance
    ``C[a, b] = c(|a - b|)``.
    """
    filter_len = _as_int("filter_len", filter_len, None)
    if filter_len < 1:
        raise EmptyInputError(f"filter_len must be >= 1, got {filter_len}")
    taps = np.asarray(model.taps, dtype=complex)
    r = model.sigma2_u * _lagged_products(taps, conjugate=True, length=filter_len)
    c = model.rho_u * model.sigma2_u * _lagged_products(taps, conjugate=False, length=filter_len)
    # Toeplitz by indexing with lag[a, b] = a - b; R is conjugated on and below the diagonal.
    lag = np.subtract.outer(np.arange(filter_len), np.arange(filter_len))
    dist = np.abs(lag)
    r_mat = np.where(lag >= 0, np.conj(r)[dist], r[dist])
    return CovariancePair(r=r_mat, c=c[dist])


def sliding_windows(sequence: np.ndarray, window_len: int) -> np.ndarray:
    """Newest-first windows of a sequence as columns of an (L, K) matrix.

    Column ``k`` is the window ending at sample ``k + window_len - 1``
    (0-based), i.e. positions L..N in 1-based terms, K = N - L + 1 columns.
    A stack of sequences, shape ``(..., N)``, gives one such matrix per
    sequence, shape ``(..., L, K)``. The sequence follows the array rule of
    :mod:`wlmf.errors`, so the windows are complex; a 0-d one raises
    ``DimensionMismatchError``, and one shorter than ``window_len``
    ``InsufficientSamplesError``.
    """
    sequence = _as_array("sequence", sequence, None)
    window_len = _as_int("window_len", window_len, None)
    if window_len < 1:
        raise EmptyInputError(f"window_len must be >= 1, got {window_len}")
    if sequence.ndim < 1:
        raise DimensionMismatchError("sequence must be at least 1-D, got shape ()")
    if sequence.shape[-1] < window_len:
        raise InsufficientSamplesError(
            f"need sequences of at least {window_len} samples, got shape {sequence.shape}"
        )
    # Entry (l, k) is sequence[k + L - 1 - l]: start at sample L - 1, step
    # back along l and forward along k; the last entry read is sample N - 1.
    step = sequence.strides[-1]
    return np.lib.stride_tricks.as_strided(
        sequence[..., window_len - 1 :],
        shape=sequence.shape[:-1] + (window_len, sequence.shape[-1] - window_len + 1),
        strides=sequence.strides[:-1] + (-step, step),
        writeable=False,
    )


def empirical_covariances(v: np.ndarray, filter_len: int) -> CovariancePair:
    """Sample window covariances from a noise record.

    Averages ``w w^H`` and ``w w^T`` over every sliding window (normalized by
    the window count); :class:`CovariancePair` symmetrizes them exactly, so
    the augmented matrix is a genuine sample covariance of the stacked ``(w,
    conj(w))`` vectors and inherits positive semidefiniteness by
    construction.
    """
    v = _as_array("noise record", v, (1,), finite=False)
    filter_len = _as_int("filter_len", filter_len, None)
    if v.size < 10 * filter_len:
        raise InsufficientSamplesError(
            f"need at least {10 * filter_len} samples for filter_len={filter_len}, got {v.size}"
        )
    windows = sliding_windows(v, filter_len)
    count = windows.shape[1]
    r_mat = windows @ windows.conj().T / count
    c_mat = windows @ windows.T / count
    return CovariancePair(r=r_mat, c=c_mat)
