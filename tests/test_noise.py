import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wlmf import (
    CovariancePair,
    DimensionMismatchError,
    EmptyInputError,
    InsufficientSamplesError,
    InvalidImproprietyError,
    InvalidParameterError,
    NonFiniteInputError,
    NotHermitianError,
    NotSymmetricError,
    analytic_covariances,
    demo_model,
    empirical_covariances,
    ma_filter,
    sample_improper_white,
    sliding_windows,
    snr_wlmf,
)
from wlmf.noise import NoiseModel

from helpers import ma_principal_cosines, whitened_complementary


def test_model_validation():
    with pytest.raises(InvalidImproprietyError):
        NoiseModel(taps=(1.0,), rho_u=1.5)
    with pytest.raises(InvalidImproprietyError):
        NoiseModel(taps=(1.0,), rho_u=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(taps=(1.0,), rho_u=0.5, sigma2_u=0.0)
    with pytest.raises(ValueError):
        NoiseModel(taps=(0.0, 0.0), rho_u=0.5)
    with pytest.raises(InvalidParameterError, match="sigma2_u"):
        NoiseModel(taps=(1.0,), rho_u=0.5, sigma2_u=-1.0)
    with pytest.raises(InvalidParameterError, match="nonzero"):
        NoiseModel(taps=(0.0,), rho_u=0.5)


def test_demo_model_taps():
    model = demo_model(0.5)
    assert model.taps == (0.9 + 0j, -0.1j)
    assert model.rho_u == 0.5


def test_sample_improper_white_proper():
    u = sample_improper_white(100_000, 0.0, rng=np.random.default_rng(21))
    assert abs(np.var(u.real) - 0.5) <= 0.015
    assert abs(np.var(u.imag) - 0.5) <= 0.015


def test_sample_improper_white_maximal():
    u = sample_improper_white(1000, 1.0, rng=np.random.default_rng(22))
    assert np.all(u.imag == 0.0)


def test_sample_improper_white_moments():
    u = sample_improper_white(100_000, 0.5, rng=np.random.default_rng(23))
    assert abs(np.mean(u * u) - 0.5) <= 0.03
    assert abs(np.mean(u * np.conj(u)) - 1.0) <= 0.03


def test_sample_improper_white_rejects_bad_rho():
    with pytest.raises(InvalidImproprietyError):
        sample_improper_white(10, 1.2)


def test_sample_improper_white_rejects_bad_power():
    with pytest.raises(InvalidParameterError, match="sigma2_u"):
        sample_improper_white(10, 0.5, sigma2_u=0.0)


def test_ma_filter_identity():
    u = np.arange(5, dtype=complex)
    assert np.array_equal(ma_filter(u, (1.0,)), u)


def test_ma_filter_impulse_response():
    u = np.zeros(5, dtype=complex)
    u[0] = 1.0
    v = ma_filter(u, (0.9, -0.1j))
    assert np.allclose(v, [0.9, -0.1j, 0.0, 0.0, 0.0], atol=1e-15)
    assert len(v) == len(u)


def test_ma_filter_matches_direct_sum():
    """Against ``v(n) = sum_k taps[k] u(n - k)`` with zero initial state,
    including inputs shorter than, and as long as, the filter."""
    rng = np.random.default_rng(5)
    for n, order in ((1, 3), (3, 3), (4, 2), (40, 5)):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        expected = np.array(
            [sum(taps[k] * u[i - k] for k in range(order) if i - k >= 0) for i in range(n)]
        )
        assert np.allclose(ma_filter(u, taps), expected, rtol=1e-14, atol=1e-14)


def test_import_leaves_scipy_unloaded():
    """The package runs on numpy alone; scipy would add a second BLAS and
    about half of the import time of every process."""
    root = Path(__file__).resolve().parents[1]
    probe = "import sys, wlmf; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_leaves_ctypes_to_first_use():
    """The BLAS thread cap opens OpenBLAS through ctypes on first use only:
    ``import wlmf`` adds no ctypes module to those numpy loads itself, binds
    none in ``wlmf.linalg`` and does not look for OpenBLAS."""
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import sys, numpy\n"
        "def loaded(): return {m for m in sys.modules if m.split('.')[0] == 'ctypes'}\n"
        "before = loaded()\n"
        "import wlmf.linalg as linalg\n"
        "print(sorted(loaded() - before), 'ctypes' in vars(linalg),"
        " linalg._openblas_threads.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] False 0"


def test_ma_filter_rejects_empty():
    with pytest.raises(EmptyInputError):
        ma_filter(np.array([], dtype=complex), (1.0,))


def test_analytic_covariance_entries():
    cov = analytic_covariances(demo_model(0.5), 4)
    assert np.isclose(cov.r[0, 0], 0.82)
    assert np.isclose(cov.r[0, 1], -0.09j)
    assert np.isclose(cov.r[1, 0], 0.09j)
    assert np.isclose(cov.c[0, 0], 0.40)
    assert np.isclose(cov.c[0, 1], -0.045j)
    assert np.isclose(cov.r[0, 2], 0.0)
    assert np.linalg.norm(cov.r - cov.r.conj().T) == 0.0
    assert np.linalg.norm(cov.c - cov.c.T) == 0.0


def test_analytic_covariance_proper_limit():
    cov = analytic_covariances(demo_model(0.0), 5)
    assert np.all(cov.c == 0.0)


def test_complementary_scales_linearly_in_rho():
    base = analytic_covariances(NoiseModel(taps=(0.9, -0.1j), rho_u=1.0), 6)
    for rho in (0.1, 0.37, 0.8):
        cov = analytic_covariances(NoiseModel(taps=(0.9, -0.1j), rho_u=rho), 6)
        assert np.array_equal(cov.c, rho * base.c)


def test_augmented_positive_definite_across_models():
    rng = np.random.default_rng(24)
    for _ in range(30):
        order = int(rng.integers(1, 4))
        taps = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        rho = float(rng.uniform(0.0, 0.95))
        model = NoiseModel(taps=tuple(taps), rho_u=rho)
        cov = analytic_covariances(model, int(rng.integers(1, 8)))
        x = rng.standard_normal(cov.dim) + 1j * rng.standard_normal(cov.dim)
        assert snr_wlmf(x, cov) > 0.0  # factors R and S; raises unless both are definite


def test_covariance_pair_validation():
    # The structure tolerances are relative: tiny and huge inputs are judged
    # as at unit scale, not symmetrized silently.
    for scale in (1e-12, 1.0, 1e12):
        with pytest.raises(NotHermitianError):
            CovariancePair(r=scale * np.array([[2.0, 1.0], [0.0, 2.0]]), c=np.zeros((2, 2)))
        with pytest.raises(NotSymmetricError):
            CovariancePair(r=scale * np.eye(2), c=scale * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        CovariancePair(r=np.array([[1.0, 1.0], [0.0, 1.0]]), c=np.zeros((2, 2)))
    with pytest.raises(NonFiniteInputError):
        CovariancePair(r=np.array([[1.0, 0.0], [0.0, np.nan]]), c=np.zeros((2, 2)))
    with pytest.raises(NonFiniteInputError):
        CovariancePair(r=np.eye(2), c=np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        CovariancePair(r=np.eye(2), c=np.zeros((3, 3)))


def test_sliding_windows_newest_first():
    windows = sliding_windows(np.arange(4, dtype=complex), 2)
    assert windows.shape == (2, 3)
    assert np.array_equal(windows[:, 0], [1, 0])
    assert np.array_equal(windows[:, 1], [2, 1])
    assert np.array_equal(windows[:, 2], [3, 2])
    stack = np.arange(30, dtype=complex).reshape(3, 10)[:, ::2]
    stacked = sliding_windows(stack, 2)
    assert stacked.shape == (3, 2, 4)
    for row_windows, row in zip(stacked, stack):
        assert np.array_equal(row_windows, sliding_windows(row, 2))
    assert np.array_equal(stacked[1][:, 0], [12, 10])
    with pytest.raises(InsufficientSamplesError):
        sliding_windows(np.arange(3, dtype=complex), 4)
    # A real sequence follows the array rule: its windows are complex.
    real = sliding_windows([1, 2, 3], 2)
    assert real.dtype == complex and np.array_equal(real, [[2, 3], [1, 2]])


def test_empirical_matches_analytic():
    model = demo_model(0.5)
    u = sample_improper_white(100_000, 0.5, rng=np.random.default_rng(25))
    v = ma_filter(u, model.taps)
    est = empirical_covariances(v, 4)
    ref = analytic_covariances(model, 4)
    scale = np.max(np.abs(ref.r))
    assert np.max(np.abs(est.r - ref.r)) <= 0.05 * scale
    assert np.max(np.abs(est.c - ref.c)) <= 0.05 * scale


def test_empirical_trivial_and_proper():
    zero = empirical_covariances(np.zeros(200, dtype=complex), 3)
    assert np.all(zero.r == 0.0) and np.all(zero.c == 0.0)
    u = sample_improper_white(100_000, 0.0, rng=np.random.default_rng(26))
    est = empirical_covariances(u, 4)
    assert np.linalg.norm(est.c) / np.linalg.norm(est.r) < 0.05


def test_empirical_requires_samples():
    with pytest.raises(InsufficientSamplesError):
        empirical_covariances(np.ones(25, dtype=complex), 3)


def test_empirical_convergence_ladder():
    model = demo_model(0.5)
    ref = analytic_covariances(model, 4)
    errors = np.zeros(3)
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        u = sample_improper_white(100_000, 0.5, rng=rng)
        v = ma_filter(u, model.taps)
        for step, count in enumerate((1000, 10_000, 100_000)):
            est = empirical_covariances(v[:count], 4)
            errors[step] += max(
                np.max(np.abs(est.r - ref.r)), np.max(np.abs(est.c - ref.c))
            )
    assert errors[0] > errors[1] > errors[2]


# The demo's taps, a complex and a random complex set, and a real set.
SUT_TAP_SETS = {
    "demo": (0.9, -0.1j),
    "complex-3": (1.0, 0.3 + 0.4j, -0.2j),
    "random-4": tuple([1.0, 1.0j] @ np.random.default_rng(86).standard_normal((2, 4))),
    "real-3": (1.0, 0.5, 0.25),
}


@pytest.mark.parametrize("name", SUT_TAP_SETS)
def test_sut_spectrum_of_ma_noise_in_closed_form(name):
    """For moving-average noise ``w = T u`` driven by doubly white noise of
    impropriety ``rho_u``, ``R = sigma2_u T Tᴴ`` and ``C = rho_u sigma2_u T
    Tᵀ``, so the circularity coefficients, the singular values of ``R^{-1/2}
    C R^{-T/2}``, are ``rho_u cos θᵢ`` for the principal angles ``θᵢ``
    between ``span(Tᴴ)`` and ``span(Tᵀ)``. The two spans share at least
    ``L − M + 1`` dimensions, so at least that many coefficients equal
    ``rho_u``; for real taps they coincide and all of them do."""
    taps = SUT_TAP_SETS[name]
    for length in (4, 6, 9):
        cosines = ma_principal_cosines(taps, length)
        for rho_u in (0.3, 0.8):
            cov = analytic_covariances(NoiseModel(taps=taps, rho_u=rho_u), length)
            k = np.linalg.svd(whitened_complementary(cov)[1], compute_uv=False)
            bound = 32 * np.finfo(float).eps * np.linalg.cond(cov.r)
            assert np.max(np.abs(k - rho_u * cosines)) <= bound, (length, rho_u)
            at_rho_u = int(np.sum(np.abs(k - rho_u) <= bound))
            assert at_rho_u >= length - len(taps) + 1, (length, rho_u)
            assert at_rho_u == length or np.iscomplexobj(np.array(taps)), (length, rho_u)
