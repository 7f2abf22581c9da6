import numpy as np
import pytest

from wlmf import (
    CovariancePair,
    DimensionMismatchError,
    EmptyInputError,
    InsufficientSamplesError,
    NonFiniteInputError,
    analytic_covariances,
    NotPositiveDefiniteError,
    NumericalConsistencyError,
    apply_filter_sequence,
    aut_decompose,
    demo_model,
    hermitian_solve,
    ma_filter,
    slmf_solve,
    snr_gain,
    snr_slmf,
    snr_wlmf,
    template_to_feature,
    wlmf_solve,
)
from wlmf.experiments import DEMO_MATCHED_SEQUENCE
from wlmf.filters import _filter_windows, _real_map_squared_norms

from helpers import (
    augmented,
    random_improper_pair,
    random_unitary,
    sample_improper_law,
    sut_snr_gain,
)

# The strong-uncorrelating-transform oracle loses accuracy as its largest
# circularity coefficient k_max nears 1, like eps / (1 - k_max). The worst
# measured gap over eps / (1 - k_max) was 52.8 on the demo grid (at rho_u 0.9,
# L 4, where the k_i cluster and the oracle carries the error) and 20.3 over
# 300 random pairs; the bound keeps about 5x headroom over that.
SUT_GAP_FACTOR = 256.0


def white_pair(dim, power=1.0):
    return CovariancePair(r=power * np.eye(dim), c=np.zeros((dim, dim)))


def random_window(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def two_solve_snr_gain(cols, cov):
    """Reference surplus ``u^H S^{-1} u``, ``u = conj(x) - conj(C) R^{-1} x``,
    by separate Hermitian solves with ``R`` and ``S`` and no cached factors."""
    r, c = cov.r, cov.c
    u = np.conj(cols) - np.conj(c) @ hermitian_solve(r, cols)
    schur = np.conj(r) - np.conj(c) @ hermitian_solve(r, c)
    schur = (schur + schur.conj().T) / 2.0
    return np.real(np.sum(np.conj(u) * hermitian_solve(schur, u), axis=0))


def augmented_oracle(x, cov):
    """``(f1, f2)`` stacked, by a direct Hermitian solve of ``R_q w = z``."""
    return hermitian_solve(augmented(cov), np.concatenate([x, np.conj(x)]))


def block_elimination_weights(x, cov):
    """``(f1, f2)`` stacked, each branch from its own Schur complement:
    ``f1 = (R - C R^{-*} C^*)^{-1} (x - C R^{-*} x^*)`` and
    ``f2 = (R^* - C^* R^{-1} C)^{-1} (x^* - C^* R^{-1} x)``."""
    r, c = cov.r, cov.c
    schur_lower = np.conj(r) - np.conj(c) @ hermitian_solve(r, c)
    schur_lower = (schur_lower + schur_lower.conj().T) / 2.0
    f2 = hermitian_solve(schur_lower, np.conj(x) - np.conj(c) @ hermitian_solve(r, x))
    schur_upper = r - c @ hermitian_solve(np.conj(r), np.conj(c))
    schur_upper = (schur_upper + schur_upper.conj().T) / 2.0
    f1 = hermitian_solve(schur_upper, x - c @ hermitian_solve(np.conj(r), np.conj(x)))
    return np.concatenate([f1, f2])


def backward_error(taps, x, cov):
    """Normwise backward error of the taps ``(f1, f2)`` in ``R_q w = z``."""
    w = np.concatenate(taps)
    z = np.concatenate([x, np.conj(x)])
    r_q = augmented(cov)
    residual = np.linalg.norm(r_q @ w - z)
    return residual / (np.linalg.norm(r_q) * np.linalg.norm(w) + np.linalg.norm(z))


def relative_error(value, reference):
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


def test_slmf_white_noise_weights_equal_template():
    x = np.array([1.0 + 2.0j, -0.5j, 3.0])
    f = slmf_solve(x, white_pair(3))
    assert isinstance(f, np.ndarray)
    assert np.allclose(f, x, atol=1e-14)


def test_slmf_solution_residual():
    rng = np.random.default_rng(32)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        cov = random_improper_pair(rng, dim)
        x = random_window(rng, dim)
        f = slmf_solve(x, cov)
        assert np.linalg.norm(cov.r @ f - x) <= 1e-10 * np.linalg.norm(x)


def test_slmf_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        slmf_solve(np.ones(3), white_pair(4))


def test_snr_slmf_white_noise_is_energy():
    x = np.array([1.0, 2.0j, -1.0 + 1.0j])
    assert np.isclose(snr_slmf(x, white_pair(3)), np.linalg.norm(x) ** 2, rtol=1e-12)


def test_snr_slmf_zero_window_is_zero():
    assert snr_slmf(np.zeros(4, dtype=complex), white_pair(4)) == 0.0


def test_snr_slmf_is_the_maximum_over_filters():
    rng = np.random.default_rng(33)
    cov = random_improper_pair(rng, 4)
    x = random_window(rng, 4)
    best = snr_slmf(x, cov)
    f_opt = slmf_solve(x, cov)
    opt_ratio = np.abs(np.vdot(f_opt, x)) ** 2 / np.real(np.vdot(f_opt, cov.r @ f_opt))
    assert np.isclose(opt_ratio, best, rtol=1e-9)
    for _ in range(2000):
        f = random_window(rng, 4)
        ratio = np.abs(np.vdot(f, x)) ** 2 / np.real(np.vdot(f, cov.r @ f))
        assert ratio <= best * (1.0 + 1e-9)


def test_wlmf_proper_noise_branches():
    x = np.array([0.3 - 1.0j, 2.0, 1.0j])
    f1, f2 = wlmf_solve(x, white_pair(3))
    assert np.allclose(f1, x, atol=1e-14)
    assert np.allclose(f2, np.conj(x), atol=1e-14)


def test_wlmf_branches_are_conjugate_pairs():
    rng = np.random.default_rng(34)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        cov = random_improper_pair(rng, dim)
        f1, f2 = wlmf_solve(random_window(rng, dim), cov)
        assert np.allclose(f2, np.conj(f1), atol=1e-12)


def test_wlmf_dual_path_agreement():
    """The weights match both the direct augmented solve and the elimination
    through both Schur complements, and their halves are exact conjugates."""
    rng = np.random.default_rng(35)
    for _ in range(60):
        dim = int(rng.integers(1, 9))
        cov = random_improper_pair(rng, dim)
        x = random_window(rng, dim)
        taps = wlmf_solve(x, cov)
        assert isinstance(taps, tuple) and len(taps) == 2
        w = np.concatenate(taps)
        direct = augmented_oracle(x, cov)
        assert relative_error(w, direct) <= 1e-9
        assert relative_error(block_elimination_weights(x, cov), direct) <= 1e-9
        assert np.array_equal(taps[0], np.conj(taps[1]))
        assert backward_error(taps, x, cov) <= 1e-15


def test_snr_wlmf_doubles_under_proper_noise():
    rng = np.random.default_rng(37)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        r = random_improper_pair(rng, dim).r
        cov = CovariancePair(r=r, c=np.zeros((dim, dim)))
        x = random_window(rng, dim)
        ratio = snr_wlmf(x, cov) / snr_slmf(x, cov)
        assert abs(ratio - 2.0) <= 1e-10


def test_snr_gain_strictly_positive_for_improper_noise():
    rng = np.random.default_rng(38)
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        cov = random_improper_pair(rng, dim)
        x = random_window(rng, dim)
        assert snr_gain(x, cov) > 0.0
        assert snr_wlmf(x, cov) > snr_slmf(x, cov)


def test_snr_gain_zero_window_is_zero():
    rng = np.random.default_rng(39)
    cov = random_improper_pair(rng, 5)
    assert snr_gain(np.zeros(5, dtype=complex), cov) == 0.0


def test_snr_gain_scalar_closed_form():
    for rho in (0.0, 0.3, 0.7, 0.95):
        cov = CovariancePair(r=np.array([[1.0]]), c=np.array([[rho]]))
        gain = snr_gain(np.array([1.0 + 0j]), cov)
        assert np.isclose(gain, (1.0 - rho) / (1.0 + rho), rtol=1e-12)


def test_snr_gain_equals_snr_difference():
    """The surplus equals ``z^H R_q^{-1} z - x^H R^{-1} x``, both forms by
    direct solves of the augmented matrix and of ``R``."""
    rng = np.random.default_rng(40)
    for _ in range(60):
        dim = int(rng.integers(1, 9))
        cov = random_improper_pair(rng, dim)
        x = random_window(rng, dim)
        z = np.concatenate([x, np.conj(x)])
        widely = np.real(np.vdot(z, hermitian_solve(augmented(cov), z)))
        strictly = np.real(np.vdot(x, hermitian_solve(cov.r, x)))
        diff = widely - strictly
        assert abs(snr_gain(x, cov) - diff) <= 1e-9 * max(abs(diff), 1.0)


def test_snr_gain_matches_two_solve_reference():
    rng = np.random.default_rng(49)
    pairs = [random_improper_pair(rng, dim) for dim in range(1, 17)]
    pairs += [
        analytic_covariances(demo_model(rho), length)
        for rho in (0.04, 0.5, 0.999)
        for length in (4, 8, 16)
    ]
    for cov in pairs:
        windows = rng.standard_normal((cov.dim, 64)) + 1j * rng.standard_normal((cov.dim, 64))
        reference = two_solve_snr_gain(windows, cov)
        rel = np.abs(snr_gain(windows, cov) - reference) / reference
        assert np.max(rel) <= 1e-12, (cov.dim, float(np.max(rel)))


def complex_whitened_gain(cols, cov):
    """``||W (conj(x) - A x)||^2`` in complex arithmetic from the cached
    ``(A, W)``, the reference for the real form :func:`snr_gain` evaluates."""
    a, white = cov.whitening
    u = white @ (np.conj(cols) - a @ cols)
    return np.sum(u.real**2 + u.imag**2, axis=0)


def near_singular_rotated_pairs(rng, delta):
    """``R = I`` and ``C = (1 - delta) V V^T`` for random real orthogonal and
    random unitary ``V``, n = 1..8: ``V V^T`` is then the identity up to
    roundoff, or a complex symmetric unitary matrix, and the Schur complement
    ``(1 - (1 - delta)^2) I`` nearly vanishes."""
    for dim in range(1, 9):
        orthogonal, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        for v in (orthogonal, random_unitary(rng, dim)):
            c = (1.0 - delta) * (v @ v.T)
            yield CovariancePair(r=np.eye(dim), c=(c + c.T) / 2.0)


@pytest.mark.parametrize("delta", [1e-6, 1e-10, 1e-13])
def test_snr_gain_real_form_near_singular_rotated(delta):
    rng = np.random.default_rng(53)
    for cov in near_singular_rotated_pairs(rng, delta):
        windows = rng.standard_normal((cov.dim, 32)) + 1j * rng.standard_normal((cov.dim, 32))
        reference = complex_whitened_gain(windows, cov)
        rel = np.abs(snr_gain(windows, cov) - reference) / reference
        assert np.max(rel) <= 1e-12, (cov.dim, float(np.max(rel)))


@pytest.mark.parametrize("rho_u", [0.04, 0.5, 0.999, 1.0 - 1e-6])
def test_snr_gain_real_form_demo_pairs(rho_u):
    rng = np.random.default_rng(54)
    for length in (1, 4, 8, 16, 32):
        cov = analytic_covariances(demo_model(rho_u), length)
        windows = rng.standard_normal((length, 64)) + 1j * rng.standard_normal((length, 64))
        reference = complex_whitened_gain(windows, cov)
        rel = np.abs(snr_gain(windows, cov) - reference) / reference
        assert np.max(rel) <= 1e-12, (length, float(np.max(rel)))
        assert snr_gain(windows[:, 0], cov) == pytest.approx(reference[0], rel=1e-12)


def assert_matches_sut_oracle(windows, cov):
    exact = snr_gain(windows, cov)
    oracle, k_max = sut_snr_gain(windows, cov)
    gap = float(np.max(np.abs(oracle - exact) / exact))
    bound = SUT_GAP_FACTOR * np.finfo(float).eps / (1.0 - k_max)
    assert gap <= bound, (cov.dim, k_max, gap, bound)


@pytest.mark.parametrize("rho_u", [0.04, 0.5, 0.8, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6])
def test_snr_gain_matches_sut_oracle_demo_grid(rho_u):
    """The exact surplus through the Schur-complement map equals the closed
    form in the strong uncorrelating transform's coordinates."""
    for length in (1, 2, 4, 8, 16):
        rng = np.random.default_rng(length)
        windows = rng.standard_normal((length, 200)) + 1j * rng.standard_normal((length, 200))
        assert_matches_sut_oracle(windows, analytic_covariances(demo_model(rho_u), length))


def test_snr_gain_matches_sut_oracle_random_pairs():
    rng = np.random.default_rng(55)
    for _ in range(100):
        cov = random_improper_pair(rng, int(rng.integers(1, 9)))
        windows = rng.standard_normal((cov.dim, 50)) + 1j * rng.standard_normal((cov.dim, 50))
        assert_matches_sut_oracle(windows, cov)


def test_snr_slmf_reads_the_cached_real_form():
    """The pair builds the real form of its inverse Cholesky factor once and
    keeps it read-only; ``snr_slmf`` on a window and on a batch gives, bit for
    bit, the value of the real form built afresh by ``np.block``."""
    rng = np.random.default_rng(51)
    cov = random_improper_pair(rng, 5)
    x = random_window(rng, 5)
    batch = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    got_window, got_batch = snr_slmf(x, cov), snr_slmf(batch, cov)
    real_map = cov._slmf_map
    assert cov._slmf_map is real_map
    with pytest.raises(ValueError, match="read-only"):
        real_map[0, 0] = 0.0
    factor = cov.inverse_cholesky
    block = np.block([[factor.real, -factor.imag], [factor.imag, factor.real]])
    assert got_window == _real_map_squared_norms(block, x)
    assert np.array_equal(got_batch, _real_map_squared_norms(block, batch))
    assert snr_slmf(x, cov) == got_window


def test_snr_gain_reuses_cached_whitening(monkeypatch):
    """A pair factors ``R`` and the Schur complement once each, whatever mix
    of solves, SNRs and AUTs then runs on it."""
    calls = []
    factor = np.linalg.cholesky

    def counted_factor(a):
        calls.append(a.shape)
        return factor(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted_factor)
    rng = np.random.default_rng(50)
    cov = random_improper_pair(rng, 5)
    first = snr_gain(random_window(rng, 5), cov)
    whitening = cov.whitening
    second = snr_gain(rng.standard_normal((5, 3)) + 0j, cov)
    assert first > 0.0 and np.all(second > 0.0)
    assert len(calls) == 2
    x = random_window(rng, 5)
    wlmf_solve(x, cov)
    slmf_solve(x, cov)
    snr_slmf(x, cov)
    aut_decompose(cov)
    assert len(calls) == 2
    assert cov.whitening is whitening
    with pytest.raises(ValueError):
        cov.c[0, 0] = 0.0
    with pytest.raises(ValueError):
        cov.inverse_cholesky[0, 0] = 0.0
    snr_wlmf(x, cov)
    snr_wlmf(rng.standard_normal((5, 3)) + 0j, cov)
    assert len(calls) == 2
    other = random_improper_pair(rng, 5)
    slmf_solve(x, other)
    snr_slmf(x, other)
    aut_decompose(other)
    assert len(calls) == 3
    snr_gain(x, other)
    assert len(calls) == 4
    snr_wlmf(x, other)
    assert len(calls) == 4


@pytest.mark.parametrize("ridge", [1e-6, 1e-10], ids=["1e-6", "1e-10"])
def test_snr_wlmf_ill_conditioned_pairs(ridge):
    """Positive definite pairs with augmented condition numbers up to about
    1e7, on a few of which a check of the quadratic form's imaginary residue
    used to raise: the squared norm must return and agree with a refined
    augmented solve."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        cov = random_improper_pair(rng, dim, ridge=ridge)
        x = random_window(rng, dim)
        z = np.concatenate([x, np.conj(x)])
        reference = np.real(np.vdot(z, hermitian_solve(augmented(cov), z)))
        assert abs(snr_wlmf(x, cov) - reference) <= 1e-8 * reference


@pytest.mark.parametrize("delta", [1e-6, 1e-10, 1e-13])
def test_snr_gain_near_singular_schur_complement(delta):
    """``R = I``, ``C = (1 - delta) I``: ``S = delta' (2 - delta') I`` nearly
    vanishes, and the surplus of ``x = ones`` is ``3 delta' / (2 - delta')``
    with ``delta' = 1 - fl(1 - delta)`` the perturbation actually stored.
    ``snr_wlmf`` is defined exactly where ``snr_gain`` is, as ``snr_slmf + snr_gain``
    (at delta 1e-13 a Cholesky factor of the whole augmented matrix fails)."""
    stored = 1.0 - (1.0 - delta)
    cov = CovariancePair(r=np.eye(3), c=(1.0 - delta) * np.eye(3))
    x = np.ones(3)
    expected = 3.0 * stored / (2.0 - stored)
    assert abs(snr_gain(x, cov) - expected) <= 1e-9 * expected
    assert snr_wlmf(x, cov) == snr_slmf(x, cov) + snr_gain(x, cov)
    assert abs(snr_wlmf(x, cov) - (3.0 + expected)) <= 1e-9 * expected
    singular = CovariancePair(r=np.eye(3), c=np.eye(3))
    for func in (snr_gain, snr_wlmf, wlmf_solve):
        with pytest.raises(NotPositiveDefiniteError):
            func(x, singular)


@pytest.mark.parametrize(
    "corrupt", [np.zeros_like, lambda a: a * (1.0 + 1e-3)], ids=["zero", "scaled"]
)
def test_wlmf_solve_rejects_corrupted_whitening(corrupt):
    """A wrong cached ``A`` gives weights far off ``R_q w = z``; the backward
    error check must catch it rather than return them."""
    cov = analytic_covariances(demo_model(0.5), 6)
    a, white = cov.whitening
    vars(cov)["whitening"] = (corrupt(a), white)
    with pytest.raises(NumericalConsistencyError):
        wlmf_solve(random_window(np.random.default_rng(51), 6), cov)


@pytest.mark.parametrize("length", [4, 16, 64])
@pytest.mark.parametrize("rho_u", [0.999, 1.0 - 1e-6, 1.0 - 1e-8])
def test_wlmf_solve_backward_error_near_maximal_impropriety(rho_u, length):
    cov = analytic_covariances(demo_model(rho_u), length)
    x = random_window(np.random.default_rng(52), length)
    assert backward_error(wlmf_solve(x, cov), x, cov) <= 1e-15


def test_snr_batch_matches_per_column():
    rng = np.random.default_rng(41)
    cov = random_improper_pair(rng, 4)
    windows = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    for func in (snr_slmf, snr_wlmf, snr_gain):
        batch = func(windows, cov)
        assert batch.shape == (7,)
        singles = np.array([func(windows[:, k], cov) for k in range(7)])
        assert np.allclose(batch, singles, rtol=1e-12)
        assert isinstance(func(windows[:, 0], cov), float)


def test_snr_phase_and_scale_invariance():
    rng = np.random.default_rng(42)
    cov = random_improper_pair(rng, 4)
    x = random_window(rng, 4)
    rotated = np.exp(0.7j) * x
    assert np.isclose(snr_slmf(rotated, cov), snr_slmf(x, cov), rtol=1e-12)
    for func in (snr_slmf, snr_wlmf, snr_gain):
        assert np.isclose(func(2.0 * x, cov), 4.0 * func(x, cov), rtol=1e-12)
        assert np.isclose(func(-3.0 * x, cov), 9.0 * func(x, cov), rtol=1e-12)


def test_wlmf_snr_is_the_maximum_over_conjugate_pair_filters():
    rng = np.random.default_rng(43)
    cov = random_improper_pair(rng, 4)
    x = random_window(rng, 4)
    z = np.concatenate([x, np.conj(x)])
    r_q = augmented(cov)
    best = snr_wlmf(x, cov)
    for _ in range(2000):
        g = random_window(rng, 4)
        w = np.concatenate([g, np.conj(g)])
        w = w / np.linalg.norm(w)
        ratio = np.abs(np.vdot(w, z)) ** 2 / np.real(np.vdot(w, r_q @ w))
        assert ratio <= best * (1.0 + 1e-9)
    w_opt = np.concatenate(wlmf_solve(x, cov))
    opt_ratio = np.abs(np.vdot(w_opt, z)) ** 2 / np.real(np.vdot(w_opt, r_q @ w_opt))
    assert np.isclose(opt_ratio, best, rtol=1e-9)


def test_augment_structure():
    rng = np.random.default_rng(44)
    cov = random_improper_pair(rng, 3)
    x = random_window(rng, 3)
    r_q = augmented(cov)
    assert r_q.shape == (6, 6)
    assert np.array_equal(r_q[:3, :3], cov.r)
    assert np.array_equal(r_q[:3, 3:], cov.c)
    assert np.array_equal(r_q[3:, :3], np.conj(cov.c))
    assert np.array_equal(r_q[3:, 3:], np.conj(cov.r))
    # The augmented covariance belongs to the stack (x; conj x), the vector
    # snr_wlmf whitens.
    z = np.concatenate([x, np.conj(x)])
    direct = np.real(np.vdot(z, np.linalg.solve(r_q, z)))
    assert np.isclose(snr_wlmf(x, cov), direct, rtol=1e-10)


def test_apply_filter_newest_sample_tap():
    sequence = np.arange(1, 7, dtype=complex) * (1 + 1j)
    f = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert np.allclose(apply_filter_sequence(sequence, f), sequence[2:])


def test_apply_filter_wl_degenerates_to_sl():
    rng = np.random.default_rng(45)
    sequence = random_window(rng, 20)
    f = random_window(rng, 4)
    sl = apply_filter_sequence(sequence, f)
    wl = apply_filter_sequence(sequence, f, np.zeros(4, dtype=complex))
    assert np.allclose(sl, wl, atol=1e-14)


def test_apply_filter_peaks_at_embedding_end():
    rng = np.random.default_rng(46)
    template = random_window(rng, 3)
    feature = template_to_feature(template)
    sequence = np.zeros(8, dtype=complex)
    start = 3
    sequence[start : start + 3] = feature
    y = apply_filter_sequence(sequence, slmf_solve(feature[::-1], white_pair(3)))
    peak = int(np.argmax(np.abs(y)))
    assert peak == start
    assert np.isclose(y[peak], np.linalg.norm(template) ** 2, rtol=1e-12)


def _signed_zero_mix(rng, shape):
    """Parts drawn from {-1, -0, +0, 1} plus a few Gaussian entries, so that
    products and sums cancel exactly and zeros of both signs occur."""
    parts = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape + (2,))
    gaussian = rng.uniform(size=parts.shape) < 0.2
    parts[gaussian] = rng.standard_normal(np.count_nonzero(gaussian))
    return parts.view(complex)[..., 0]


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("bank", [False, True])
@pytest.mark.parametrize("stack", [False, True])
def test_conjugate_branch_matches_conjugated_windows(length, bank, stack):
    """The conjugate branch, taken as conj(f2ᵀ w), gives the responses of
    conj(f2)ᵀ conj(w) bit for bit, signs of zeros included, and a zero
    branch gives the strictly linear responses bit for bit. Every filter
    meets every window: a stack of banks (S, C, L) on a window stack
    (B, L, K) gives (B, S, C, K)."""

    def assert_bits(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))

    rng = np.random.default_rng(47)
    f_shape = (4, length) if bank else (length,)
    w_shape = (5, length, 9) if stack else (length, 9)
    cases = [(f_shape, "cl,...lk->...ck" if bank else "l,...lk->...k")]
    if bank and stack:
        cases.append(((2,) + f_shape, "scl,blk->bsck"))
    for f_shape, subscripts in cases:
        for _ in range(50):
            f, f2 = (_signed_zero_mix(rng, f_shape) for _ in range(2))
            windows = _signed_zero_mix(rng, w_shape)
            want = np.einsum(subscripts, np.conj(f), windows) + np.einsum(
                subscripts, np.conj(f2), np.conj(windows)
            )
            assert_bits(_filter_windows(windows, f, f2), want)
            assert_bits(_filter_windows(windows, f, np.zeros_like(f)), _filter_windows(windows, f))


def test_apply_filter_rejects_short_sequence():
    with pytest.raises(InsufficientSamplesError):
        apply_filter_sequence(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


def test_apply_filter_rejects_non_finite_taps():
    bad = np.array([np.nan, 1.0], dtype=complex)
    with pytest.raises(NonFiniteInputError):
        apply_filter_sequence(np.ones(4, complex), bad)
    with pytest.raises(NonFiniteInputError):
        apply_filter_sequence(np.ones(4, complex), np.ones(2, complex), bad)


def test_apply_filter_rejects_mismatched_conjugate_branch():
    with pytest.raises(DimensionMismatchError):
        apply_filter_sequence(np.ones(5, complex), np.ones(2, complex), np.ones(3, complex))


def test_template_to_feature_examples():
    template = np.array([-0.1 + 1j, 1 + 1j, -0.5 + 1j])
    expected = np.array([-0.5 - 1j, 1 - 1j, -0.1 - 1j])
    assert np.array_equal(template_to_feature(template), expected)
    palindrome = np.array([1.0, 2.0, 1.0])
    assert np.array_equal(template_to_feature(palindrome), palindrome)
    rng = np.random.default_rng(47)
    x = random_window(rng, 6)
    assert np.array_equal(template_to_feature(template_to_feature(x)), x)
    with pytest.raises(EmptyInputError):
        template_to_feature(np.array([], dtype=complex))


@pytest.mark.parametrize(
    "law, rho_u, seed",
    [
        ("gaussian", 0.0, 601), ("gaussian", 0.5, 602), ("gaussian", 0.8, 603),
        ("uniform", 0.0, 611), ("uniform", 0.5, 612), ("uniform", 0.8, 613),
        ("binary", 0.0, 621), ("binary", 0.5, 622), ("binary", 0.8, 623),
    ],
)
def test_closed_form_snrs_are_filter_output_power_on_non_gaussian_noise(law, rho_u, seed):
    """The matched filters' SNRs depend on the noise through (R, C) alone,
    whatever its law. With ``f = R^{-1} x`` (and its widely linear
    counterpart), ``|f^H x|^2 = E|y|^2``, so the SNR is the mean output power
    over noise windows. This joins ``analytic_covariances``' conjugation,
    ``sliding_windows``' newest-first order, ``apply_filter_sequence``'s
    ``f^H w`` and the solvers; the bound is 5 standard errors of 40 batch
    means."""
    length, count, batches = 6, 400_000, 40
    model = demo_model(rho_u)
    cov = analytic_covariances(model, length)
    x = DEMO_MATCHED_SEQUENCE
    rng = np.random.default_rng(seed)
    v = ma_filter(sample_improper_law(law, count, rho_u, model.sigma2_u, rng), model.taps)
    for taps, snr in (
        ((slmf_solve(x, cov),), snr_slmf(x, cov)),
        (wlmf_solve(x, cov), snr_wlmf(x, cov)),
    ):
        # The windows that meet the moving average's zero initial state go.
        power = np.abs(apply_filter_sequence(v, *taps)[len(model.taps) :]) ** 2
        means = power[: power.size - power.size % batches].reshape(batches, -1).mean(axis=1)
        standard_error = means.std(ddof=1) / np.sqrt(batches)
        assert abs(means.mean() - snr) <= 5 * standard_error, (len(taps), means.mean(), snr)


def test_demo_covariance_filter_roundtrip():
    cov = analytic_covariances(demo_model(0.5), 6)
    rng = np.random.default_rng(48)
    x = random_window(rng, 6)
    w = np.concatenate(wlmf_solve(x, cov))
    gain = snr_gain(x, cov)
    assert gain > 0.0
    assert relative_error(w, augmented_oracle(x, cov)) <= 1e-9
