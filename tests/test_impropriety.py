import dataclasses
import logging
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from wlmf import (
    CnnConfig,
    CovariancePair,
    DegenerateWindowError,
    DimensionMismatchError,
    InvalidImproprietyError,
    InvalidParameterError,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    SingularAtOneError,
    WlmfError,
    analytic_covariances,
    apply_filter_sequence,
    approx_snr_gain,
    aut_decompose,
    demo_model,
    design_matched_sequence,
    empirical_covariances,
    g_of_rho,
    hermitian_eig,
    hermitian_solve,
    impropriety_profile,
    lower_bound_rho,
    ma_filter,
    normalized_snr_bias,
    predict_proba,
    rotated_input,
    sample_improper_white,
    sliding_windows,
    slmf_solve,
    snr_gain,
    snr_slmf,
    snr_wlmf,
    takagi,
    template_to_feature,
    wlmf_solve,
)
from wlmf import cnn
from wlmf.impropriety import AutDecomposition
from wlmf.noise import NoiseModel

from helpers import jointly_diagonalizable_pair, random_improper_pair

DEMO_LAMBDA_R = np.array([0.98217, 0.93223, 0.86005, 0.77995, 0.70777, 0.65783])
DEMO_LAMBDA_C = np.array([0.4081, 0.4081, 0.4039, 0.4039, 0.4005, 0.4005])
DEMO_RHO = np.array([0.4155, 0.4378, 0.4696, 0.5179, 0.5659, 0.6088])
DESIGNED_SEQUENCE = np.array(
    [
        0.77 + 0.13j,
        0.71 + 0.25j,
        -0.91 - 0.33j,
        -0.87 - 0.07j,
        -1.65 - 0.62j,
        0.74 + 0.27j,
    ]
)


def demo_aut():
    return aut_decompose(analytic_covariances(demo_model(0.5), 6))


def random_window(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_aut_demo_spectra():
    aut = demo_aut()
    assert np.allclose(aut.lambda_r, DEMO_LAMBDA_R, atol=1e-4)
    assert np.allclose(aut.lambda_c, DEMO_LAMBDA_C, atol=1e-4)
    profile = impropriety_profile(aut, rotated_input(aut, DESIGNED_SEQUENCE))
    assert np.allclose(profile.rho, DEMO_RHO, atol=1e-3)
    assert np.all(np.diff(aut.lambda_r) <= 0)
    assert np.all(np.diff(aut.lambda_c) <= 1e-15)


def test_aut_proper_noise_is_exact():
    rng = np.random.default_rng(51)
    r = random_improper_pair(rng, 5).r
    cov = CovariancePair(r=r, c=np.zeros((5, 5)))
    aut = aut_decompose(cov)
    assert np.all(aut.lambda_c == 0.0)
    assert aut.offdiag_residual < 1e-10
    rotated = aut.q.conj().T @ cov.r @ aut.q
    assert np.allclose(rotated, np.diag(aut.lambda_r), atol=1e-10)


def test_aut_jointly_diagonalizable_is_exact():
    rng = np.random.default_rng(52)
    for _ in range(10):
        cov = jointly_diagonalizable_pair(rng, int(rng.integers(2, 7)))
        aut = aut_decompose(cov)
        assert aut.offdiag_residual < 1e-8


def test_aut_imaginary_tap_noise():
    """Purely imaginary taps make C = -rho_u times a real positive definite
    Toeplitz matrix, whose Takagi values all sit on the branch cut of the
    basis's phase root."""
    for length in range(2, 17):
        cov = analytic_covariances(NoiseModel(taps=(1j, 0.5j), rho_u=0.5), length)
        aut = aut_decompose(cov)
        recon = aut.q @ np.diag(aut.lambda_c) @ aut.q.T
        assert np.linalg.norm(recon - cov.c) <= 1e-8 * np.linalg.norm(cov.c), length
        assert np.linalg.norm(aut.q.conj().T @ aut.q - np.eye(length)) <= 1e-10, length


CACHED_ARRAYS = {
    "r": lambda cov, aut: cov.r,
    "whitening-A": lambda cov, aut: cov.whitening[0],
    "whitening-W": lambda cov, aut: cov.whitening[1],
    "gain_map": lambda cov, aut: cov._gain_map,
    "q": lambda cov, aut: aut.q,
    "lambda_c": lambda cov, aut: aut.lambda_c,
    "lambda_r": lambda cov, aut: aut.lambda_r,
    "noise_power": lambda cov, aut: aut.noise_power,
    "approx_map": lambda cov, aut: aut._approx_map,
}


@pytest.mark.parametrize("rho_u", [0.0, 0.5], ids=["proper", "improper"])
@pytest.mark.parametrize("name", sorted(CACHED_ARRAYS))
def test_pair_and_aut_arrays_are_read_only(name, rho_u):
    """A write in place to a pair's ``r``, its cached whitening or gain map,
    or an array of its AUT raises, so nothing derived from it goes stale: a
    doubled ``W`` would leave ``snr_gain`` on its old cached map and make
    ``wlmf_solve`` fail its backward-error check. (``test_snr_gain_reuses_
    cached_whitening`` checks ``c`` and ``inverse_cholesky``.) A proper pair
    takes its AUT basis from ``R``'s eigenvectors, an improper one from
    Takagi."""
    cov = analytic_covariances(demo_model(rho_u), 4)
    array = CACHED_ARRAYS[name](cov, aut_decompose(cov))
    with pytest.raises(ValueError, match="read-only"):
        array[...] *= 2.0


def test_aut_rejects_indefinite_covariance():
    with pytest.raises(NotPositiveDefiniteError):
        aut_decompose(CovariancePair(r=-np.eye(3), c=np.zeros((3, 3))))


def test_rotated_input_preserves_norm_and_roundtrips():
    rng = np.random.default_rng(53)
    aut = demo_aut()
    x = random_window(rng, 6)
    xt = rotated_input(aut, x)
    assert np.isclose(np.linalg.norm(xt), np.linalg.norm(x), rtol=1e-12)
    assert np.allclose(aut.q @ xt, x, atol=1e-12)


def test_profile_epsilon_extremes():
    cov = CovariancePair(r=np.eye(4), c=np.zeros((4, 4)))
    aut = aut_decompose(cov)
    rotated = np.array([2.0 + 0j, 3.0j, (1.0 + 1.0j) / np.sqrt(2.0), 0.0])
    profile = impropriety_profile(aut, rotated)
    assert np.allclose(profile.epsilon, [1.0, -1.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(profile.zero_mask, [False, False, False, True])
    assert np.all(profile.rho == 0.0)


def test_profile_rejects_batch_input():
    aut = demo_aut()
    with pytest.raises(DimensionMismatchError):
        impropriety_profile(aut, np.ones((6, 2), dtype=complex))


def test_g_trivial_values():
    assert g_of_rho(0.0, 0.7) == 1.0
    assert g_of_rho(0.0, -0.3) == 1.0
    rho = np.linspace(0.0, 0.95, 50)
    circular = g_of_rho(rho, np.zeros_like(rho))
    assert np.allclose(circular, (1 + rho**2) / (1 - rho**2), rtol=1e-12)
    assert np.all(np.diff(circular) > 0)
    # With eps <= 0 the factor never decreases in rho.
    for eps in (-0.9, -0.2):
        assert np.all(np.diff(g_of_rho(rho, np.full_like(rho, eps))) >= 0)


def test_g_validation():
    with pytest.raises(SingularAtOneError):
        g_of_rho(1.0, 0.5)
    with pytest.raises(InvalidImproprietyError):
        g_of_rho(0.5, 1.5)
    with pytest.raises(InvalidImproprietyError):
        g_of_rho(-0.2, 0.5)
    # every comparison with NaN is False, so non-finite input is named explicitly
    for rho, eps in ((np.nan, 0.0), (0.5, np.nan), (np.inf, 0.0), (0.5, -np.inf)):
        with pytest.raises(InvalidImproprietyError):
            g_of_rho(rho, eps)
    with pytest.raises(InvalidImproprietyError):
        g_of_rho(np.array([0.2, np.nan]), 0.5)
    with pytest.raises(InvalidImproprietyError):
        g_of_rho(0.5, np.array([0.1, np.nan]))


def test_g_value_at_minimizer():
    for eps in (-0.8, -0.3, 0.0, 0.2, 0.5, 0.6, 0.8, 0.95):
        root = lower_bound_rho(eps)
        floor = np.sqrt(1 - eps**2) if eps > 0 else 1.0
        assert abs(g_of_rho(root, eps) - floor) <= 1e-10
    root = lower_bound_rho(0.6)
    assert np.isclose(root, 1.0 / 3.0, rtol=1e-12)
    assert np.isclose(g_of_rho(root, 0.6), 0.8, rtol=1e-12)


def test_lower_bound_rho_branches_and_inverse():
    assert lower_bound_rho(-0.7) == 0.0
    assert lower_bound_rho(0.0) == 0.0
    assert lower_bound_rho(1.0) == 1.0
    for rho in np.linspace(0.0, 0.99, 40):
        eps = 2 * rho / (1 + rho**2)
        assert abs(lower_bound_rho(eps) - rho) <= 1e-9
    with pytest.raises(InvalidImproprietyError):
        lower_bound_rho(1.2)


def test_lower_bound_rho_matches_decimal_oracle():
    for eps in (1e-9, 1e-7, 1e-4, 0.5, 1.0 - 1e-12):
        with localcontext() as ctx:
            ctx.prec = 60
            exact = Decimal(eps) / (1 + (1 - Decimal(eps) ** 2).sqrt())
        error = abs(Decimal(lower_bound_rho(eps)) - exact)
        assert error <= 4 * Decimal(math.ulp(float(exact)))


def test_g_of_rho_matches_decimal_oracle_near_one():
    """The denominator ``1 - rho^2`` cancels as ``rho`` nears 1, and the
    numerator ``1 + rho^2 - 2 eps rho`` as ``(rho, eps)`` nears ``(1, 1)``; the
    factor must keep full relative accuracy there."""
    for rho in (0.999, 1.0 - 1e-6, 1.0 - 1e-9):
        for eps in (-0.9, 0.0, 0.3, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0):
            with localcontext() as ctx:
                ctx.prec = 60
                r, e = Decimal(rho), Decimal(eps)
                exact = (1 + r * r - 2 * e * r) / (1 - r * r)
            error = abs(Decimal(g_of_rho(rho, eps)) - exact) / exact
            assert error <= Decimal("1e-14"), (rho, eps, float(error))


def test_approx_gain_matches_decimal_oracle_near_one():
    """One component with ``lambda_r = 1`` and quotient ``rho``: the surplus of
    ``x = 1 + i t`` is ``(1 - rho)/(1 + rho) + t^2 (1 + rho)/(1 - rho)``, which
    the ``eps`` form ``|x|^2 g(rho; eps)`` loses as ``(rho, eps)`` nears
    ``(1, 1)``."""
    for rho in (0.999, 1.0 - 1e-6, 1.0 - 1e-9):
        aut = AutDecomposition(
            q=np.eye(1, dtype=complex),
            lambda_c=np.array([rho]),
            lambda_r=np.array([1.0]),
            noise_power=np.array([1.0]),
            offdiag_residual=0.0,
        )
        for t in (1e-4, 1e-6, 1e-8):
            with localcontext() as ctx:
                ctx.prec = 60
                r, im = Decimal(rho), Decimal(t)
                exact = (1 - r) / (1 + r) + im * im * (1 + r) / (1 - r)
            value = approx_snr_gain(np.array([complex(1.0, t)]), aut)
            error = abs(Decimal(value) - exact) / exact
            assert error <= Decimal("1e-14"), (rho, t, float(error))


def test_g_stays_above_lower_bound_on_grid():
    rho = np.arange(0.0, 0.999, 1e-3)
    for eps in (-0.8, -0.3, 0.0, 0.2, 0.5, 0.6, 0.8, 0.95):
        values = g_of_rho(rho, np.full_like(rho, eps))
        floor = np.sqrt(1 - eps**2)
        assert np.all(values >= floor - 1e-12)
        minimizer = lower_bound_rho(eps)
        assert abs(rho[int(np.argmin(values))] - minimizer) <= 1e-3 + 1e-12


def test_g_is_midpoint_convex():
    rng = np.random.default_rng(55)
    for eps in (0.2, 0.5, 0.8):
        a = rng.uniform(0.0, 0.95, size=300)
        b = rng.uniform(0.0, 0.95, size=300)
        eps_arr = np.full_like(a, eps)
        lhs = g_of_rho((a + b) / 2, eps_arr)
        rhs = (g_of_rho(a, eps_arr) + g_of_rho(b, eps_arr)) / 2
        assert np.all(lhs <= rhs + 1e-12)


def test_approx_gain_exact_for_proper_noise():
    rng = np.random.default_rng(56)
    for _ in range(50):
        dim = int(rng.integers(1, 8))
        r = random_improper_pair(rng, dim).r
        cov = CovariancePair(r=r, c=np.zeros((dim, dim)))
        x = random_window(rng, dim)
        exact = snr_gain(x, cov)
        approx = approx_snr_gain(x, aut_decompose(cov))
        assert abs(approx - exact) <= 1e-9 * max(exact, 1.0)


def test_approx_gain_exact_when_jointly_diagonalizable():
    rng = np.random.default_rng(57)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        cov = jointly_diagonalizable_pair(rng, dim)
        x = random_window(rng, dim)
        exact = snr_gain(x, cov)
        approx = approx_snr_gain(x, aut_decompose(cov))
        assert abs(approx - exact) <= 1e-8 * max(exact, 1.0)


def test_approx_gain_nonnegative_and_batch_consistent():
    rng = np.random.default_rng(58)
    aut = demo_aut()
    windows = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    batch = approx_snr_gain(windows, aut)
    assert batch.shape == (9,)
    assert np.all(batch >= 0.0)
    singles = np.array([approx_snr_gain(windows[:, k], aut) for k in range(9)])
    assert np.allclose(batch, singles, rtol=1e-12)


def test_approx_gain_tracks_exact_for_demo_noise():
    # The basis only approximately diagonalizes R, so per-window agreement is
    # loose while the deviation averages out across windows of a circular
    # Gaussian signal.
    rng = np.random.default_rng(59)
    cov = analytic_covariances(demo_model(0.5), 6)
    aut = aut_decompose(cov)
    for _ in range(20):
        x = random_window(rng, 6)
        exact = snr_gain(x, cov)
        approx = approx_snr_gain(x, aut)
        assert 0.5 * exact < approx < 2.0 * exact
    signal = random_window(rng, 4000)
    low_cov = analytic_covariances(demo_model(0.2), 6)
    assert abs(normalized_snr_bias(signal, low_cov, aut_decompose(low_cov))) < 0.03


def test_normalized_bias_zero_when_decomposition_exact():
    rng = np.random.default_rng(60)
    cov = jointly_diagonalizable_pair(rng, 4)
    signal = random_window(rng, 200)
    assert abs(normalized_snr_bias(signal, cov, aut_decompose(cov))) <= 1e-8


def test_normalized_bias_grows_with_impropriety():
    rng = np.random.default_rng(61)
    signal = random_window(rng, 4000)

    def bias_at(rho_u):
        cov = analytic_covariances(demo_model(rho_u), 8)
        return normalized_snr_bias(signal, cov, aut_decompose(cov))

    low, mid, high = bias_at(0.04), bias_at(0.1), bias_at(0.8)
    assert abs(low) < 0.02
    assert high > mid


def test_normalized_bias_rejects_degenerate_windows():
    cov = analytic_covariances(demo_model(0.5), 6)
    with pytest.raises(DegenerateWindowError):
        normalized_snr_bias(np.zeros(80, dtype=complex), cov, aut_decompose(cov))


def test_designed_sequence_hits_target_epsilon():
    # Rejection keeps only pairs whose circularity quotients stay below one;
    # the designer is singular beyond that by construction.
    rng = np.random.default_rng(62)
    done = 0
    while done < 25:
        dim = int(rng.integers(1, 8))
        cov = random_improper_pair(rng, dim)
        aut = aut_decompose(cov)
        try:
            x = design_matched_sequence(aut, rng)
        except SingularAtOneError:
            continue
        profile = impropriety_profile(aut, rotated_input(aut, x))
        target = 2 * profile.rho / (1 + profile.rho**2)
        assert np.max(np.abs(profile.epsilon - target)) <= 1e-10
        done += 1


def test_designed_sequence_proper_noise_balances_parts():
    rng = np.random.default_rng(63)
    r = random_improper_pair(rng, 5).r
    aut = aut_decompose(CovariancePair(r=r, c=np.zeros((5, 5))))
    x = design_matched_sequence(aut, rng)
    xt = rotated_input(aut, x)
    assert np.allclose(np.abs(xt.real), np.abs(xt.imag), atol=1e-12)


def test_designed_sequence_magnitude_validation():
    """The magnitudes are draws from ``rng``: one seed, one sequence."""
    aut = demo_aut()
    first = design_matched_sequence(aut, rng=7)
    second = design_matched_sequence(aut, rng=7)
    assert np.array_equal(first, second)


def test_frozen_design_matches_targets_up_to_basis_rotation():
    # The Takagi values come in equal pairs, so the uncorrelating basis is
    # only fixed up to a real rotation inside each pair. The frozen reference
    # design must hit the per-component epsilon targets in some such gauge.
    aut = demo_aut()
    xt = rotated_input(aut, DESIGNED_SEQUENCE)
    rho = impropriety_profile(aut, xt).rho
    target = 2 * rho / (1 + rho**2)
    angles = np.linspace(0.0, 2 * np.pi, 20001)
    cos, sin = np.cos(angles), np.sin(angles)
    for block in ([0, 1], [2, 3], [4, 5]):
        assert np.isclose(aut.lambda_c[block[0]], aut.lambda_c[block[1]], rtol=1e-8)
        v0, v1 = xt[block[0]], xt[block[1]]
        rotated0 = cos * v0 + sin * v1
        rotated1 = -sin * v0 + cos * v1
        dev0 = np.abs(np.real(rotated0**2) / np.abs(rotated0) ** 2 - target[block[0]])
        dev1 = np.abs(np.real(rotated1**2) / np.abs(rotated1) ** 2 - target[block[1]])
        assert float(np.min(np.maximum(dev0, dev1))) <= 0.05


def noise_power_quotients(aut, cov):
    """``lambda_c,i / (Q^H R Q)_ii``: each Takagi value over the noise power
    along its own basis vector."""
    return aut.lambda_c / np.real(np.diag(aut.q.conj().T @ cov.r @ aut.q))


def test_noise_power_quotient_below_one():
    """In the Takagi basis the augmented covariance has the 2 x 2 principal
    block ``[[d_i, p_i], [p_i, d_i]]`` per component, ``d_i = (Q^H R Q)_ii``,
    so a positive definite pair has ``p_i < d_i``, whatever the rank-paired
    quotients ``p_i / lambda_i`` do."""
    rng = np.random.default_rng(64)
    pairs = [random_improper_pair(rng, int(rng.integers(1, 9))) for _ in range(200)]
    pairs += [
        analytic_covariances(demo_model(rho_u), length)
        for rho_u in (0.04, 0.5, 0.8, 0.9, 0.99, 0.999, 1.0 - 1e-6)
        for length in (1, 2, 4, 8, 16)
    ]
    for cov in pairs:
        quotients = noise_power_quotients(aut_decompose(cov), cov)
        assert np.all(quotients < 1.0), (cov.dim, float(np.max(quotients)))


def demo_pair_past_one():
    """The demo pair at (rho_u 0.9, L 4), whose largest rank-paired quotient
    exceeds one although the noise is valid."""
    return analytic_covariances(demo_model(0.9), 4)


def test_rank_paired_quotient_exceeds_one_where_noise_power_quotient_does_not():
    cov = demo_pair_past_one()
    aut = aut_decompose(cov)
    assert np.max(aut.lambda_c / aut.lambda_r) == pytest.approx(1.0702297, rel=1e-6)
    assert np.max(noise_power_quotients(aut, cov)) == pytest.approx(0.8954838, rel=1e-6)
    assert np.array_equal(aut.lambda_c / aut.noise_power, noise_power_quotients(aut, cov))


def test_singular_at_one_message_says_why():
    cov = demo_pair_past_one()
    x = random_window(np.random.default_rng(65), 4)
    with pytest.raises(
        SingularAtOneError,
        match=r"component 3: rank-paired circularity quotient 1\.070230 >= 1 .*"
        r"off-diagonal residual 0\.133 .*noise-power quotient p_i / \(Q\^H R Q\)_ii "
        r"is 0\.895484, .*exact surplus snr_gain is still defined",
    ):
        approx_snr_gain(x, aut_decompose(cov))
    assert snr_gain(x, cov) > 0.0


def test_rho_clamp_and_singularity():
    dim = 3
    slightly_over = CovariancePair(r=np.eye(dim), c=(1 + 5e-10) * np.eye(dim))
    profile = impropriety_profile(
        aut_decompose(slightly_over), np.ones(dim, dtype=complex)
    )
    assert np.all(profile.rho <= 1.0 - 1e-9)
    assert np.isfinite(approx_snr_gain(np.ones(dim, dtype=complex), aut_decompose(slightly_over)))
    far_over = CovariancePair(r=np.eye(dim), c=(1 + 2e-5) * np.eye(dim))
    with pytest.raises(SingularAtOneError):
        impropriety_profile(aut_decompose(far_over), np.ones(dim, dtype=complex))


def test_clamped_quotient_logs_once_per_decomposition(caplog):
    """approx_snr_gain builds its map once per decomposition, so a clamped
    quotient logs one warning however many calls score it."""
    dim = 3
    aut = aut_decompose(CovariancePair(r=np.eye(dim), c=(1 + 5e-10) * np.eye(dim)))
    x = np.ones(dim, dtype=complex)
    with caplog.at_level(logging.WARNING, logger="wlmf.impropriety"):
        values = [approx_snr_gain(x, aut) for _ in range(3)]
    assert values[0] == values[1] == values[2]
    assert len(caplog.records) == 1 and "clamping" in caplog.records[0].getMessage()


def test_clamped_quotients_log_once_across_their_consumers(caplog):
    """The clamped quotients are computed once per decomposition and shared,
    read-only, by approx_snr_gain's map, impropriety_profile and
    design_matched_sequence: one warning across all three, at lambda_c /
    lambda_r = 1 - 1e-10. A quotient past one raises on every access."""
    dim = 3
    aut = aut_decompose(CovariancePair(r=np.eye(dim), c=(1 - 1e-10) * np.eye(dim)))
    x = np.ones(dim, dtype=complex)
    with caplog.at_level(logging.WARNING, logger="wlmf.impropriety"):
        for _ in range(2):
            approx_snr_gain(x, aut)
            profile = impropriety_profile(aut, x)
            design_matched_sequence(aut, rng=1)
    assert len(caplog.records) == 1 and "clamping" in caplog.records[0].getMessage()
    assert profile.rho is aut.rho and not aut.rho.flags.writeable
    assert np.all(aut.rho == 1.0 - 1e-9)
    far_over = aut_decompose(CovariancePair(r=np.eye(dim), c=(1 + 2e-5) * np.eye(dim)))
    for compute in (
        lambda: far_over.rho,
        lambda: approx_snr_gain(x, far_over),
        lambda: impropriety_profile(far_over, x),
        lambda: design_matched_sequence(far_over, rng=1),
    ):
        with pytest.raises(SingularAtOneError):
            compute()


def _finite_or_typed_error(compute):
    """Run ``compute``: it returns a finite value (a dataclass of finite
    fields counts) or raises a WlmfError. A raw LinAlgError, another
    exception type, or a NaN or inf in the result fails the caller."""
    try:
        result = compute()
    except WlmfError:
        return None
    parts = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
    for part in parts:
        assert np.all(np.isfinite(part))
    return result


@pytest.mark.parametrize("rho_u", [0.99, 0.999, 1 - 1e-6])
def test_edge_sweep_ends_in_values_or_typed_errors(rho_u):
    """Near-circularity-one noise on the analytic pair and on an empirical
    pair estimated from the 10 L minimum of samples, through every entry
    point that factors or rotates the pair."""
    model = demo_model(rho_u)
    for length in (1, 2, 3, 8, 16, 32, 64):
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        v = ma_filter(sample_improper_white(10 * length, rho_u, rng=rng), model.taps)
        for cov in (analytic_covariances(model, length), empirical_covariances(v, length)):
            _finite_or_typed_error(lambda: snr_gain(x, cov))
            _finite_or_typed_error(lambda: snr_wlmf(x, cov))
            _finite_or_typed_error(lambda: wlmf_solve(x, cov))
            _finite_or_typed_error(lambda: normalized_snr_bias(v, cov, aut_decompose(cov)))
            aut = _finite_or_typed_error(lambda: aut_decompose(cov))
            if aut is not None:
                _finite_or_typed_error(lambda: design_matched_sequence(aut, rng=1))


CNN_PARAMS = cnn.init_params(CnnConfig("wl"), 0)


def _with_first_entry(values, bad):
    values = np.array(values, dtype=complex)
    values.flat[0] = bad
    return values


NON_FINITE_CALLS = {
    "snr_slmf": lambda cov, aut, bad: snr_slmf(_with_first_entry(np.ones(4), bad), cov),
    "snr_wlmf": lambda cov, aut, bad: snr_wlmf(_with_first_entry(np.ones((4, 3)), bad), cov),
    "snr_gain": lambda cov, aut, bad: snr_gain(_with_first_entry(np.ones((4, 3)), bad), cov),
    "approx_snr_gain": lambda cov, aut, bad: approx_snr_gain(
        _with_first_entry(np.ones(4), bad), aut
    ),
    "slmf_solve": lambda cov, aut, bad: slmf_solve(_with_first_entry(np.ones(4), bad), cov),
    "apply_filter_sequence": lambda cov, aut, bad: apply_filter_sequence(
        _with_first_entry(np.ones(6), bad), np.ones(4)
    ),
    "sliding_windows": lambda cov, aut, bad: sliding_windows(
        _with_first_entry(np.ones(6), bad), 2
    ),
    "ma_filter": lambda cov, aut, bad: ma_filter(np.ones(6), _with_first_entry((1.0, 0.5), bad)),
    "wlmf_solve": lambda cov, aut, bad: wlmf_solve(_with_first_entry(np.ones(4), bad), cov),
    "normalized_snr_bias": lambda cov, aut, bad: normalized_snr_bias(
        _with_first_entry(np.ones(50), bad), cov, aut
    ),
    "NoiseModel": lambda cov, aut, bad: NoiseModel(taps=(bad, 0.5), rho_u=0.5),
    "template_to_feature": lambda cov, aut, bad: template_to_feature(
        _with_first_entry(np.ones(3), bad)
    ),
    "predict_proba": lambda cov, aut, bad: predict_proba(
        _with_first_entry(np.ones(8), bad), CNN_PARAMS
    ),
    "cnn.forward": lambda cov, aut, bad: cnn.forward(_with_first_entry(np.ones(8), bad), CNN_PARAMS),
    "cnn.backward": lambda cov, aut, bad: cnn.backward(
        _with_first_entry(np.ones(8), bad), np.array([1.0, 0.0]), CNN_PARAMS
    ),
}


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"]
)
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_input_raises_typed_error(name, bad):
    """A NaN or infinite entry in a window, a signal or the taps ends in
    NonFiniteInputError, not in a NaN result."""
    cov = analytic_covariances(demo_model(0.5), 4)
    with pytest.raises(NonFiniteInputError):
        NON_FINITE_CALLS[name](cov, aut_decompose(cov), bad)


NON_NUMERIC_INPUTS = {
    "string": np.array(["a", "b", "c"]),
    "object": np.array([1.0, 2.0, 3.0], dtype=object),
    "ragged": [[1.0, 2.0], [3.0]],
    "numeric-string": np.array(["1", "2", "3"]),
    "bool": np.array([True, False, True]),
    "bool-in-list": [0.5, True, 0.0],
}

NON_NUMERIC_CALLS = {
    "CovariancePair": lambda cov, aut, bad: CovariancePair(bad, cov.c),
    "takagi": lambda cov, aut, bad: takagi(bad),
    "hermitian_eig": lambda cov, aut, bad: hermitian_eig(bad),
    "hermitian_solve": lambda cov, aut, bad: hermitian_solve(cov.r, bad),
    "snr_gain": lambda cov, aut, bad: snr_gain(bad, cov),
    "snr_slmf": lambda cov, aut, bad: snr_slmf(bad, cov),
    "snr_wlmf": lambda cov, aut, bad: snr_wlmf(bad, cov),
    "slmf_solve": lambda cov, aut, bad: slmf_solve(bad, cov),
    "wlmf_solve": lambda cov, aut, bad: wlmf_solve(bad, cov),
    "ma_filter": lambda cov, aut, bad: ma_filter(bad, (1.0, 0.5)),
    "NoiseModel": lambda cov, aut, bad: NoiseModel(taps=bad, rho_u=0.5),
    "empirical_covariances": lambda cov, aut, bad: empirical_covariances(bad, 1),
    "apply_filter_sequence": lambda cov, aut, bad: apply_filter_sequence(np.ones(6), bad),
    "sliding_windows": lambda cov, aut, bad: sliding_windows(bad, 2),
    "template_to_feature": lambda cov, aut, bad: template_to_feature(bad),
    "rotated_input": lambda cov, aut, bad: rotated_input(aut, bad),
    "approx_snr_gain": lambda cov, aut, bad: approx_snr_gain(bad, aut),
    "normalized_snr_bias": lambda cov, aut, bad: normalized_snr_bias(bad, cov, aut),
    "predict_proba": lambda cov, aut, bad: predict_proba(bad, CNN_PARAMS),
    "cnn.backward": lambda cov, aut, bad: cnn.backward(bad, np.array([1.0, 0.0]), CNN_PARAMS),
}


@pytest.mark.parametrize("bad", list(NON_NUMERIC_INPUTS.values()), ids=list(NON_NUMERIC_INPUTS))
@pytest.mark.parametrize("name", sorted(NON_NUMERIC_CALLS))
def test_non_numeric_array_raises_invalid_parameter(name, bad):
    """A ragged nesting, or an array of strings (numeric ones included),
    objects or booleans, ends in InvalidParameterError at every root entry
    point that takes an array: not in a numpy error, and not in a value
    read from the strings or booleans."""
    cov = analytic_covariances(demo_model(0.5), 4)
    with pytest.raises(InvalidParameterError):
        NON_NUMERIC_CALLS[name](cov, aut_decompose(cov), bad)
