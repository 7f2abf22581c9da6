"""The column-block kernel behind every window SNR, ``snr_slmf`` and both
surpluses, ``snr_gain`` and ``approx_snr_gain``: equal bit for bit to
one-shot products, at the default BLAS thread count and at the one thread
every run holds, typed errors for non-finite windows in any block, and
temporaries that do not grow with the batch."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from wlmf import (
    NonFiniteInputError,
    analytic_covariances,
    approx_snr_gain,
    aut_decompose,
    demo_model,
    normalized_snr_bias,
    sliding_windows,
    snr_gain,
    snr_slmf,
)
from wlmf.filters import _BLOCK_WIDTH
from wlmf.linalg import _blas_threads

WIDTH = _BLOCK_WIDTH


def whole_batch_squared_norms(real_map, cols):
    """The one-shot form: one product on the whole ``[Re x; Im x]`` stack."""
    mapped = real_map @ np.vstack([cols.real, cols.imag])
    return np.einsum("ij,ij->j", mapped, mapped)


def slmf_real_map(cov):
    inv_chol = cov.inverse_cholesky
    return np.block([[inv_chol.real, -inv_chol.imag], [inv_chol.imag, inv_chol.real]])


def gain_real_map(cov):
    a, white = cov.whitening
    eye = np.eye(cov.dim)
    difference = np.block([[eye - a.real, a.imag], [-a.imag, -(eye + a.real)]])
    return np.block([[white.real, -white.imag], [white.imag, white.real]]) @ difference


def approx_real_map(aut):
    rho = aut.rho
    qr, qi = aut.q.real.T, aut.q.imag.T
    weights = np.concatenate([(1.0 - rho) / (1.0 + rho), (1.0 + rho) / (1.0 - rho)])
    scale = np.sqrt(weights / np.tile(aut.lambda_r, 2))
    return scale[:, None] * np.block([[qr, qi], [-qi, qr]])


def demo_windows(length, count, seed=3):
    rng = np.random.default_rng(seed)
    n = count + length - 1
    signal = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sliding_windows(signal, length)


def assert_block_equal(values, real_map, windows):
    """Columns before the last block equal the whole-batch form bit for bit,
    and the last block equals the one-shot form on its own columns. BLAS
    rounds a product's last few columns by its width, so those may differ
    from the whole batch's by an ulp or two, as any two batch widths do."""
    whole = whole_batch_squared_norms(real_map, windows)
    last = (windows.shape[1] - 1) // WIDTH * WIDTH
    assert np.array_equal(values[:last], whole[:last])
    assert np.array_equal(values[last:], whole_batch_squared_norms(real_map, windows[:, last:]))
    assert np.allclose(values, whole, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("length", [1, 4, 8, 16])
@pytest.mark.parametrize("count", [1, WIDTH - 1, WIDTH, WIDTH + 1, 3 * WIDTH + 7])
def test_blocks_equal_one_shot_products(length, count):
    cov = analytic_covariances(demo_model(0.5), length)
    aut = aut_decompose(cov)
    windows = demo_windows(length, count)
    # At the default thread count and at the one thread every run holds.
    for threads in (contextlib.nullcontext(), _blas_threads(1)):
        with threads:
            slmf = snr_slmf(windows, cov)
            exact = snr_gain(windows, cov)
            approx = approx_snr_gain(windows, aut)
            assert slmf.shape == exact.shape == approx.shape == (count,)
            assert_block_equal(slmf, slmf_real_map(cov), windows)
            assert_block_equal(exact, gain_real_map(cov), windows)
            assert_block_equal(approx, approx_real_map(aut), windows)


def test_single_window_is_a_one_column_batch():
    cov = analytic_covariances(demo_model(0.5), 8)
    aut = aut_decompose(cov)
    window = demo_windows(8, 1)
    assert snr_slmf(window[:, 0], cov) == whole_batch_squared_norms(slmf_real_map(cov), window)[0]
    assert snr_gain(window[:, 0], cov) == whole_batch_squared_norms(gain_real_map(cov), window)[0]
    assert approx_snr_gain(window[:, 0], aut) == whole_batch_squared_norms(
        approx_real_map(aut), window
    )[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("column", [-1, WIDTH], ids=["last", "second-block-first"])
def test_non_finite_window_in_any_block_raises(bad, column):
    length, count = 4, 2 * WIDTH + 5
    cov = analytic_covariances(demo_model(0.5), length)
    aut = aut_decompose(cov)
    windows = np.array(demo_windows(length, count))
    windows[length - 1, column] = bad
    with pytest.raises(NonFiniteInputError):
        snr_slmf(windows, cov)
    with pytest.raises(NonFiniteInputError):
        snr_gain(windows, cov)
    with pytest.raises(NonFiniteInputError):
        approx_snr_gain(windows, aut)

    # Sample k + L - 1 is the newest entry of window k and in no earlier window.
    signal = np.random.default_rng(5).standard_normal(count + length - 1).astype(complex)
    signal[column + length - 1 if column >= 0 else -1] = bad
    with pytest.raises(NonFiniteInputError):
        normalized_snr_bias(signal, cov, aut)


def test_finite_overflow_returns_inf():
    cov = analytic_covariances(demo_model(0.5), 4)
    windows = np.full((4, WIDTH + 3), 1e200 + 1e200j)
    assert np.all(snr_slmf(windows, cov) == np.inf)
    assert np.all(snr_gain(windows, cov) == np.inf)
    assert np.all(approx_snr_gain(windows, aut_decompose(cov)) == np.inf)
    assert snr_gain(windows[:, 0], cov) == np.inf


def test_temporaries_do_not_grow_with_the_batch():
    # The whole-batch form holds two (16, 100k) float arrays, about 25 MB.
    cov = analytic_covariances(demo_model(0.5), 8)
    cov._gain_map  # built and cached outside the measurement
    windows = demo_windows(8, 100_000)
    for snr in (snr_slmf, snr_gain):
        tracemalloc.start()
        try:
            values = snr(windows, cov)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (100_000,)
        assert peak < 3e6, f"{snr.__name__} peak {peak / 1e6:.1f} MB"
