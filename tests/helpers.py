"""Shared random-instance generators, the CNN gradient checker and the dense
CNN backward pass."""

import copy

import numpy as np

from wlmf import CnnConfig, CovariancePair, takagi
from wlmf.cnn import (
    PATTERN_ONE,
    PATTERN_TWO,
    CnnParams,
    LabeledSignal,
    backward,
    forward,
    make_dataset,
)
from wlmf.noise import sliding_windows
from wlmf.seeding import as_generator


def random_hermitian_pd(rng, dim, ridge=0.5):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    r = a @ a.conj().T + ridge * np.eye(dim)
    return 0.5 * (r + r.conj().T)


def random_improper_pair(rng, dim, scale=0.6, ridge=0.05):
    """Valid (R, C) of a widely linear mix w = A u + B conj(u), u circular.

    The augmented matrix equals a Gram matrix plus ridge x I, so it is
    positive definite by construction.
    """
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    r = a @ a.conj().T + b @ b.conj().T + ridge * np.eye(dim)
    c = a @ b.T + b @ a.T
    return CovariancePair(r=0.5 * (r + r.conj().T), c=0.5 * (c + c.T))


def augmented(cov):
    """The augmented covariance ``[[R, C], [C^*, R^*]]`` of ``(w, conj(w))``,
    which the package never forms: the test oracle for its block formulas."""
    return np.block([[cov.r, cov.c], [np.conj(cov.c), np.conj(cov.r)]])


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, upper = np.linalg.qr(a)
    return q * (np.diag(upper) / np.abs(np.diag(upper)))


def jointly_diagonalizable_pair(rng, dim):
    """(R, C) sharing one unitary eigenstructure with strictly spaced,
    co-monotone spectra, so the uncorrelating transform is exact."""
    q = random_unitary(rng, dim)
    lam = 1.0 + 0.3 * np.arange(dim)[::-1] + 0.1 * rng.uniform(size=dim)
    lam = np.sort(lam)[::-1]
    rho = np.linspace(0.85, 0.15, dim) + 0.02 * rng.uniform(size=dim)
    rho = np.sort(rho)[::-1]
    p = rho * lam
    r = q @ np.diag(lam) @ q.conj().T
    c = q @ np.diag(p) @ q.T
    return CovariancePair(r=0.5 * (r + r.conj().T), c=0.5 * (c + c.T))


def whitened_complementary(cov):
    """The Hermitian ``R^{-1/2}``, by eigh, and the complementary covariance
    ``K = R^{-1/2} C R^{-T/2}`` it leaves, whose singular values are the
    circularity coefficients of the noise."""
    lam, vecs = np.linalg.eigh(cov.r)
    r_inv_half = (vecs / np.sqrt(lam)) @ vecs.conj().T
    return r_inv_half, r_inv_half @ cov.c @ r_inv_half.T


def ma_principal_cosines(taps, length):
    """Cosines of the principal angles between ``span(Tᴴ)`` and ``span(Tᵀ)``,
    descending, for the ``L × (L+M−1)`` Toeplitz matrix ``T`` of the M
    moving-average ``taps`` that maps the driving samples to a newest-first
    window, ``w = T u`` with ``T[a, a + k] = taps[k]``: the singular values
    of ``Q1ᴴ Q2`` for orthonormal bases ``Q1`` of ``Tᴴ`` and ``Q2`` of
    ``Tᵀ`` from their QR factorizations (Björck & Golub, 1973)."""
    taps = np.asarray(taps, dtype=complex)
    t = np.zeros((length, length + len(taps) - 1), dtype=complex)
    for a in range(length):
        t[a, a : a + len(taps)] = taps
    q1, q2 = np.linalg.qr(t.conj().T)[0], np.linalg.qr(t.T)[0]
    return np.linalg.svd(q1.conj().T @ q2, compute_uv=False)


def sut_snr_gain(cols, cov):
    """Widely linear SNR surplus through the strong uncorrelating transform
    (SUT), independent of the Schur-complement map behind ``snr_gain``.

    Whitening by the Hermitian ``R^{-1/2}`` leaves complementary covariance
    ``K = R^{-1/2} C R^{-T/2}``; its Takagi factorization ``K = U diag(k)
    U^T`` gives circularity coefficients ``k_i`` in [0, 1) and coordinates
    ``y = U^H R^{-1/2} x`` whose noise is uncorrelated across components,
    with real and imaginary variances ``(1 +- k_i) / 2``. The surplus is then
    exactly ``sum_i (1 - k_i)/(1 + k_i) Re(y_i)^2 + (1 + k_i)/(1 - k_i)
    Im(y_i)^2``. Returns the surpluses of the columns of ``cols`` and the
    largest coefficient ``k_max``.
    """
    r_inv_half, k_mat = whitened_complementary(cov)
    factor = takagi((k_mat + k_mat.T) / 2.0)
    y = factor.q.conj().T @ (r_inv_half @ cols)
    k = factor.p[:, None]
    surplus = np.sum((1.0 - k) / (1.0 + k) * y.real**2 + (1.0 + k) / (1.0 - k) * y.imag**2, axis=0)
    return surplus, float(factor.p[0])


# Zero-mean, unit-variance real laws: (rng, n) -> n draws.
UNIT_VARIANCE_LAWS = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "uniform": lambda rng, n: rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), n),
    "binary": lambda rng, n: rng.choice([-1.0, 1.0], n),
}


def sample_improper_law(law, n, rho_u, sigma2_u, rng):
    """``n`` white samples with ``sample_improper_white``'s second-order
    moments, ``E|u|^2 = sigma2_u`` and ``E u^2 = rho_u sigma2_u``, whose real
    and imaginary parts are independent draws of one of
    ``UNIT_VARIANCE_LAWS``, scaled; the real part is drawn first."""
    real = UNIT_VARIANCE_LAWS[law](rng, n) * np.sqrt(sigma2_u * (1.0 + rho_u) / 2.0)
    imag = UNIT_VARIANCE_LAWS[law](rng, n) * np.sqrt(sigma2_u * (1.0 - rho_u) / 2.0)
    return real + 1j * imag


def make_dataset_per_sample(count, rng=None, *, input_len=8):
    """``make_dataset`` one sample at a time: the reference for its batched
    arithmetic, with the same six generator calls per sample in one order and
    the paper's noise levels written out, not read from the module."""
    gen = as_generator(rng)
    signals = []
    for _ in range(count):
        pattern_id = int(gen.integers(2))
        pattern = PATTERN_ONE if pattern_id == 0 else PATTERN_TWO
        start = int(gen.integers(0, input_len - len(pattern) + 1))
        x = gen.uniform(0.0, 0.3, input_len) + 1j * gen.uniform(0.0, 0.3, input_len)
        x[start : start + len(pattern)] += pattern
        x += 0.05 * (
            gen.standard_normal(input_len) + 1j * gen.standard_normal(input_len)
        )
        x /= np.linalg.norm(x)
        t = np.array([1.0, 0.0]) if pattern_id == 0 else np.array([0.0, 1.0])
        signals.append(LabeledSignal(x=x, t=t, pattern=pattern_id + 1, start=start))
    return signals


def random_cnn_params(rng, config):
    shape = (config.channels, config.filter_len)
    conv1 = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    conv2 = None
    if config.mode == "wl":
        conv2 = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return CnnParams(
        conv1=conv1,
        conv2=conv2,
        bias_re=rng.uniform(-0.2, 0.2, config.channels),
        bias_im=rng.uniform(-0.2, 0.2, config.channels),
        head_w=0.3 * rng.standard_normal((2, 2 * config.channels)),
        head_b=0.1 * rng.standard_normal(2),
    )


def _kink_margins(x, params):
    """Distance to the nearest ReLU sign flip and pooling tie."""
    y = forward(x, params)[1]["y"]
    re = np.abs(y.real + params.bias_re[:, None])
    im = np.abs(y.imag + params.bias_im[:, None])
    a = np.maximum(y.real + params.bias_re[:, None], 0) + 1j * np.maximum(
        y.imag + params.bias_im[:, None], 0
    )
    mods = np.sort(np.abs(a), axis=1)
    tie_gap = mods[:, -1] - mods[:, -2]
    return min(re.min(), im.min()), tie_gap.min()


def kink_free_case(rng, mode, margin=1e-3):
    """Rejection-sample a (sample, params) pair away from ReLU kinks and
    pooling ties, so central differences see a locally smooth loss."""
    config = CnnConfig(mode=mode)
    while True:
        params = random_cnn_params(rng, config)
        sample = make_dataset(1, rng)[0]
        relu_gap, tie_gap = _kink_margins(sample.x, params)
        if relu_gap > margin and tie_gap > margin:
            return sample, params


def _param_slots(params):
    yield "conv1", params.conv1, True
    if params.conv2 is not None:
        yield "conv2", params.conv2, True
    yield "bias_re", params.bias_re, False
    yield "bias_im", params.bias_im, False
    yield "head_w", params.head_w, False
    yield "head_b", params.head_b, False


def gradient_check(sample, params, h=1e-6):
    """Max relative error of analytic vs central-difference gradients,
    taken per parameter array over its stacked real slots."""

    def loss_at(p):
        loss, _, _ = backward(sample.x, sample.t, p)
        return loss

    _, _, grads = backward(sample.x, sample.t, params)
    worst = 0.0
    for name, array, is_complex in _param_slots(params):
        numeric = np.zeros(array.shape + ((2,) if is_complex else ()))
        for idx in np.ndindex(array.shape):
            parts = (1.0, 1j) if is_complex else (1.0,)
            for part_i, part in enumerate(parts):
                probe = copy.deepcopy(params)
                getattr(probe, name)[idx] += h * part
                up = loss_at(probe)
                probe = copy.deepcopy(params)
                getattr(probe, name)[idx] -= h * part
                down = loss_at(probe)
                value = (up - down) / (2 * h)
                if is_complex:
                    numeric[idx + (part_i,)] = value
                else:
                    numeric[idx] = value
        analytic = grads[name]
        if is_complex:
            analytic = np.stack([analytic.real, analytic.imag], axis=-1)
        scale = max(float(np.linalg.norm(analytic)), 1e-8)
        worst = max(worst, float(np.linalg.norm(numeric - analytic)) / scale)
    return worst


def dense_backward(x, t, params):
    """Probabilities and gradients of one signal by the dense formulation,
    the reference for the pooled-window backward pass: the pooled gradient
    is scattered over all K windows of each channel at the first
    largest-modulus window, gated by the rectifier, summed over the windows
    for the biases, and multiplied by the whole (K, L) window matrix for the
    taps. ``params`` may be one network or a stack."""
    windows = sliding_windows(np.asarray(x, dtype=complex), params.conv1.shape[-1])
    probs, cache = forward(x, params)
    dlogits = probs - t
    grads = {"head_w": dlogits[..., None] * cache["feat"][..., None, :], "head_b": dlogits}
    dfeat = (np.swapaxes(params.head_w, -1, -2) @ dlogits[..., None])[..., 0]
    dpool = dfeat.view(complex)

    a = cache["a"]
    idx = np.argmax(np.abs(a), axis=-1)
    da = np.zeros(a.shape, dtype=complex)
    np.put_along_axis(da, idx[..., None], dpool[..., None], axis=-1)
    s_re = da.real * (a.real > 0)
    s_im = da.imag * (a.imag > 0)
    s = s_re + 1j * s_im
    grads["bias_re"] = s_re.sum(axis=-1)
    grads["bias_im"] = s_im.sum(axis=-1)

    s = np.conj(s)
    grads["conv1"] = s @ windows.T
    if params.conv2 is not None:
        grads["conv2"] = s @ windows.conj().T
    return probs, grads
