"""Impropriety-driven analysis of the widely linear SNR surplus.

A covariance pair ``(R, C)`` is approximately uncorrelated by the unitary
basis ``Q`` from the Takagi factorization ``C = Q diag(p) Q^T``; in that
basis ``R`` is treated through its eigenvalue spectrum ``lambda``. The
model's assumption is the rank pairing: the i-th largest Takagi value
``p_i`` goes with the i-th largest eigenvalue ``lambda_i``, although the
eigenvectors of ``R`` need not be the columns of ``Q``. Under it the surplus
SNR of the widely linear matched filter decomposes into per-component
contributions

    gain ~= sum_i |xt_i|^2 / lambda_i * g(rho_i; eps_i),

where ``xt = Q^H x``, ``rho_i = p_i / lambda_i`` is the component circularity
quotient, ``eps_i = Re(xt_i^2) / |xt_i|^2`` measures the input's phase
alignment, and ``g(rho; eps) = (1 + rho^2 - 2 eps rho) / (1 - rho^2)``.
In the parts of ``xt_i`` a term is ``[(1 - rho_i)/(1 + rho_i) Re(xt_i)^2 +
(1 + rho_i)/(1 - rho_i) Im(xt_i)^2] / lambda_i``: the SNR of matching the
real and imaginary parts of the rotated noise component against variances
``lambda_i (1 +- rho_i) / 2`` minus the strictly linear SNR ``|xt_i|^2 /
lambda_i``. Those are the component's true variances only when
``offdiag_residual`` is 0; when in addition the pairing matches, so that
``lambda_i = (Q^H R Q)_ii``, the expansion is exact. Otherwise the rotated
components are correlated, and a rank-paired ``rho_i`` can exceed 1 on a
valid pair (the demo model at ``rho_u >= 0.9``, ``L >= 4``), where the
expansion raises :class:`SingularAtOneError` while the noise-power quotient
``p_i / (Q^H R Q)_ii`` (``AutDecomposition.noise_power`` holds the
denominators) stays below 1 and the exact surplus
:func:`wlmf.filters.snr_gain` stays defined; the error names both quotients.

``g`` is minimized over ``rho`` at 0 for ``eps <= 0`` and otherwise at
``(1 - sqrt(1 - eps^2)) / eps``, where it equals ``sqrt(1 - eps^2)``; a
sequence whose components sit exactly at that minimizer is produced by
:func:`design_matched_sequence`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateWindowError, InvalidImproprietyError
from .errors import SingularAtOneError, _as_array, _as_float
from .filters import _as_columns, _real_map_squared_norms, snr_gain
from .linalg import _read_only, _real_form, hermitian_eig, takagi
from .noise import CovariancePair, sliding_windows
from .seeding import as_generator

__all__ = [
    "AutDecomposition",
    "ImproprietyProfile",
    "aut_decompose",
    "rotated_input",
    "impropriety_profile",
    "g_of_rho",
    "lower_bound_rho",
    "approx_snr_gain",
    "normalized_snr_bias",
    "design_matched_sequence",
]

logger = logging.getLogger(__name__)

# Quotients may exceed 1 by sampling noise when the covariances are
# estimated; tiny excursions are clamped, anything larger is a real
# singularity of the model.
_RHO_CEILING = 1.0 - 1e-9
_RHO_SLACK = 1e-6


@dataclass(frozen=True)
class AutDecomposition:
    """Approximate joint diagonalization of a covariance pair. The arrays
    :func:`aut_decompose` returns, the cached quotients :attr:`rho` and the
    cached map of :func:`approx_snr_gain` are read-only.

    Attributes
    ----------
    q : ndarray
        Unitary Takagi basis of the complementary covariance.
    lambda_c : ndarray
        Takagi values of ``C`` (descending, nonnegative).
    lambda_r : ndarray
        Eigenvalues of ``R`` (descending, real positive), paired index-wise
        with ``lambda_c`` by rank. This pairing is the model's assumption;
        ``lambda_r[i]`` is the noise power along ``q[:, i]`` only when
        ``offdiag_residual`` is 0.
    noise_power : ndarray
        ``diag(Q^H R Q)``, the noise power along each basis vector; the
        quotients ``lambda_c / noise_power`` are below 1 on a valid pair.
    offdiag_residual : float
        ``||offdiag(Q^H R Q)||_F / ||R||_F``; zero iff the basis in fact
        diagonalizes ``R``, which the approximation needs to be exact.
    """

    q: np.ndarray
    lambda_c: np.ndarray
    lambda_r: np.ndarray
    noise_power: np.ndarray
    offdiag_residual: float

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @cached_property
    def rho(self) -> np.ndarray:
        """Circularity quotients ``lambda_c / lambda_r``, kept strictly below
        one, read-only. Computed on first access and cached, so a clamped
        quotient logs once per decomposition; a quotient at or past one
        raises ``SingularAtOneError`` on every access."""
        rho = self.lambda_c / self.lambda_r
        index = int(np.argmax(rho)) if rho.size else 0
        worst = float(rho[index]) if rho.size else 0.0
        if worst >= 1.0 + _RHO_SLACK:
            raise SingularAtOneError(
                f"component {index}: rank-paired circularity quotient {worst:.6f} >= 1 "
                "(the Takagi value of C over the eigenvalue of R of equal rank) makes "
                "the AUT gain expansion singular; the AUT basis leaves off-diagonal "
                f"residual {self.offdiag_residual:.3f} in Q^H R Q, so this pairing is "
                "inexact; the largest noise-power quotient p_i / (Q^H R Q)_ii is "
                f"{np.max(self.lambda_c / self.noise_power):.6f}, and the exact surplus "
                "snr_gain is still defined for the pair"
            )
        if worst > _RHO_CEILING:
            logger.warning(
                "clamping circularity quotient %.12f to %.12f (finite-sample excursion)",
                worst,
                _RHO_CEILING,
            )
            rho = np.minimum(rho, _RHO_CEILING)
        return _read_only(np.maximum(rho, 0.0))

    @cached_property
    def _approx_map(self) -> np.ndarray:
        """The real map of :func:`approx_snr_gain`, built on first access and
        cached."""
        rho = self.rho
        weights = np.concatenate([(1.0 - rho) / (1.0 + rho), (1.0 + rho) / (1.0 - rho)])
        scale = np.sqrt(weights / np.tile(self.lambda_r, 2))
        # Fortran order, the layout of the transposed Q parts: a one-window
        # product is a matrix-vector product, whose rounding follows the layout.
        real_map = np.asfortranarray(_real_form(self.q.conj().T))
        real_map *= scale[:, None]
        return _read_only(real_map)


@dataclass(frozen=True)
class ImproprietyProfile:
    """Per-component circularity description of an input in the rotated basis.

    ``epsilon[i]`` is 0 wherever ``zero_mask[i]`` is set (a zero rotated
    component has no phase to measure).
    """

    epsilon: np.ndarray
    rho: np.ndarray
    zero_mask: np.ndarray


def aut_decompose(cov: CovariancePair) -> AutDecomposition:
    """Approximately uncorrelate a covariance pair.

    The basis is the Takagi factorization of the complementary covariance
    (eigenvectors of ``R`` when ``C`` is exactly zero, making the
    decomposition exact); the noise powers are the eigenvalues of ``R``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``R`` is not positive definite.
    """
    cov.inverse_cholesky  # factors R once per pair; raises unless R is positive definite
    lambda_r, eigvecs = hermitian_eig(cov.r)
    factor = takagi(cov.c)
    # takagi gives all-zero values only for C = 0, whose identity basis
    # carries no information; R's eigenbasis makes the decomposition exact.
    q = factor.q if np.any(factor.p) else eigvecs
    rotated = q.conj().T @ cov.r @ q
    diagonal = np.diag(rotated)
    off = rotated - np.diag(diagonal)
    residual = float(np.linalg.norm(off) / max(np.linalg.norm(cov.r), 1e-300))
    return AutDecomposition(*map(_read_only, (q, factor.p, lambda_r, diagonal.real)), residual)


def rotated_input(aut: AutDecomposition, x: np.ndarray) -> np.ndarray:
    """Coordinates of ``x`` in the uncorrelating basis, ``Q^H x``."""
    cols, was_vector = _as_columns(x, aut.dim)
    rotated = aut.q.conj().T @ cols
    return rotated[:, 0] if was_vector else rotated


def impropriety_profile(aut: AutDecomposition, rotated: np.ndarray) -> ImproprietyProfile:
    """Circularity measures of one already-rotated input (see rotated_input).

    ``rho[i]`` is the per-component degree of impropriety of the noise,
    ``epsilon[i] = Re(rotated[i]^2)/|rotated[i]|^2`` the power-difference
    coefficient of the input. Zero components get epsilon 0 and a raised
    ``zero_mask`` flag instead of an exception.
    """
    xt = _as_array("rotated", rotated, (1,), lead=(aut.dim,))
    power = np.abs(xt) ** 2
    zero = power == 0.0
    eps = np.where(zero, 0.0, np.real(xt * xt) / np.where(zero, 1.0, power))
    return ImproprietyProfile(epsilon=eps, rho=aut.rho, zero_mask=zero)


def g_of_rho(rho, epsilon):
    """Component gain factor ``(1 + rho^2 - 2 eps rho) / (1 - rho^2)``.

    Scalar or elementwise on arrays. Requires ``0 <= rho < 1`` and
    ``|eps| <= 1``; a string, bool, complex or ``None`` argument raises
    ``InvalidParameterError``.

    Evaluated as ``((1 - rho)^2 + 2 rho (1 - eps)) / ((1 - rho)(1 + rho))``,
    whose terms are all nonnegative: no digit is lost as ``(rho, eps) -> (1, 1)``.
    """
    scalar = np.isscalar(rho) and np.isscalar(epsilon)
    rho = _as_array("rho", rho, None, finite=False, dtype=float)
    epsilon = _as_array("epsilon", epsilon, None, finite=False, dtype=float)
    if not (np.isfinite(rho).all() and np.isfinite(epsilon).all()):
        raise InvalidImproprietyError("rho and epsilon must be finite")
    if np.any(rho < 0):
        raise InvalidImproprietyError("rho must be nonnegative")
    if np.any(rho >= 1):
        raise SingularAtOneError("g(rho; eps) is singular at rho = 1")
    if np.any(np.abs(epsilon) > 1):
        raise InvalidImproprietyError("epsilon must lie in [-1, 1]")
    value = ((1.0 - rho) ** 2 + 2.0 * rho * (1.0 - epsilon)) / ((1.0 - rho) * (1.0 + rho))
    return float(value) if scalar else value


def lower_bound_rho(epsilon: float) -> float:
    """Quotient at which the component gain factor is smallest.

    Zero for ``epsilon <= 0``; otherwise ``(1 - sqrt(1 - eps^2)) / eps``,
    reaching 1 only in the limit ``epsilon = 1``. At the interior minimizer
    the factor value is ``sqrt(1 - eps^2)``.

    Evaluated as ``eps / (1 + sqrt((1 - eps)(1 + eps)))``, which has no
    cancellation: the textbook form loses every digit as ``eps`` goes to 0.
    """
    epsilon = _as_float("epsilon", epsilon)
    if not -1.0 <= epsilon <= 1.0:
        raise InvalidImproprietyError(f"epsilon must lie in [-1, 1], got {epsilon}")
    if epsilon <= 0.0:
        return 0.0
    return float(epsilon / (1.0 + np.sqrt((1.0 - epsilon) * (1.0 + epsilon))))


def approx_snr_gain(x: np.ndarray, aut: AutDecomposition):
    """Component-wise approximation of the widely linear SNR surplus.

    Sums ``|xt_i|^2 / lambda_i * g(rho_i; eps_i)`` over components in the
    closed form ``sum_i [(1 - rho_i)/(1 + rho_i) Re(xt_i)^2 +
    (1 + rho_i)/(1 - rho_i) Im(xt_i)^2] / lambda_i``: the SNR of matching the
    real and imaginary parts of each rotated component against variances
    ``lambda_i (1 +- rho_i) / 2``, minus the strictly linear
    ``|xt_i|^2 / lambda_i``, with ``lambda_i`` the rank-paired eigenvalue of
    ``R``. On ``[Re x; Im x]``, ``xt`` is the real form of ``Q^H``,
    ``[[Q_r^T, Q_i^T], [-Q_i^T, Q_r^T]]``; scaling its rows by the square
    roots of the weights makes the sum one squared norm, with no
    cancellation and no ``eps``. The variances, and so the sum, are exact
    only when ``aut.offdiag_residual`` is 0, i.e. the basis truly
    diagonalizes both covariances (in particular for zero complementary
    covariance). Accepts a window or a column batch.

    Raises
    ------
    SingularAtOneError
        If a rank-paired quotient ``rho_i`` reaches 1 beyond the clamp's
        slack; the message names the component, its quotient, the
        off-diagonal residual and the largest noise-power quotient.
    """
    return _real_map_squared_norms(aut._approx_map, x)


def normalized_snr_bias(signal: np.ndarray, cov: CovariancePair, aut: AutDecomposition) -> float:
    """Average relative error of the approximate gain ``approx_snr_gain(.,
    aut)`` against the exact surplus ``snr_gain(., cov)`` over all signal
    windows.

    For each window position ``n = L..N`` computes ``(approx - exact) /
    exact`` and returns the mean. Positive values mean the approximation
    statistically overestimates the surplus. ``aut`` is the decomposition
    being scored, normally ``aut_decompose(cov)``; a caller averaging many
    signals under one pair decomposes it once.

    Raises
    ------
    DegenerateWindowError
        If some window's exact surplus falls below 1e-14, making the
        normalization meaningless.
    """
    windows = sliding_windows(_as_array("signal", signal, (1,)), cov.dim)
    exact = snr_gain(windows, cov)
    if np.any(exact < 1e-14):
        raise DegenerateWindowError("a window has numerically zero exact SNR surplus")
    approx = approx_snr_gain(windows, aut)
    return float(np.mean((approx - exact) / exact))


def design_matched_sequence(
    aut: AutDecomposition, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Construct an input whose components sit at the gain-factor minimizer.

    Component ``i`` of the rotated input gets phase ``theta_i = arccos(
    eps_i) / 2`` where ``eps_i = 2 rho_i / (1 + rho_i^2)`` inverts the
    minimizer condition, so ``Re(xt_i^2)/|xt_i|^2 = eps_i`` lands each
    component exactly on the circularity quotient the noise already has.
    The bound condition fixes only these phases and leaves the magnitudes
    free: they are absolute values of standard normal draws from ``rng``.
    """
    rho = aut.rho
    eps_target = 2.0 * rho / (1.0 + rho**2)
    magnitudes = np.abs(as_generator(rng).standard_normal(aut.dim))
    theta = 0.5 * np.arccos(eps_target)
    rotated = magnitudes * np.exp(1j * theta)
    return aut.q @ rotated
