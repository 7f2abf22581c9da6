"""Kernel block: the public functions timed directly, outside any workload.

Filter lengths L in {4, 8, 16}: ``filters.snr_gain`` and
``linalg.hermitian_solve`` on a batch of 10,000 windows, and single-window
``filters.slmf_solve`` / ``filters.wlmf_solve``, ``linalg.takagi`` and
``impropriety.aut_decompose``, all on the demo noise model at driving
impropriety 0.5. Then single-sample ``cnn.forward`` / ``cnn.backward`` at
the default CNN configuration, strictly and widely linear. Each value is
the median over ``SAMPLES`` timed batches of the time of one call, in
microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from wlmf import cnn, filters, impropriety, linalg, noise

FILTER_LENGTHS = (4, 8, 16)
BATCH_WINDOWS = 10_000
SAMPLES = 7
MIN_BATCH_S = 0.005


def _per_call_us(fn) -> float:
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    calls = max(1, int(MIN_BATCH_S / max(once, 1e-9)))
    samples = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(samples)


def kernel_metrics(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for length in FILTER_LENGTHS:
        cov = noise.analytic_covariances(noise.demo_model(0.5), length)
        shape = (length, BATCH_WINDOWS)
        batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = batch[:, 0]
        timed = {
            "filters.snr_gain": lambda: filters.snr_gain(batch, cov),
            "linalg.hermitian_solve": lambda: linalg.hermitian_solve(cov.r, batch),
            "filters.slmf_solve": lambda: filters.slmf_solve(x, cov),
            "filters.wlmf_solve": lambda: filters.wlmf_solve(x, cov),
            "linalg.takagi": lambda: linalg.takagi(cov.c),
            "impropriety.aut_decompose": lambda: impropriety.aut_decompose(cov),
        }
        for name, fn in timed.items():
            out[f"kernel.{name}.L{length}_us"] = _per_call_us(fn)
    for mode in ("sl", "wl"):
        config = cnn.CnnConfig(mode=mode)
        params = cnn.init_params(config, rng)
        sample = cnn.make_dataset(1, rng, input_len=config.input_len)[0]
        out[f"kernel.cnn.forward.{mode}_us"] = _per_call_us(lambda: cnn.forward(sample.x, params))
        out[f"kernel.cnn.backward.{mode}_us"] = _per_call_us(
            lambda: cnn.backward(sample.x, sample.t, params)
        )
    return out
