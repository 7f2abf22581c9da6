"""Tour of the improper moving-average noise model.

Builds the two-tap demo model, samples a long realization, and compares
empirical second-order statistics against the closed-form Toeplitz
covariances. Run with ``python3 demos/noise_model_tour.py``.
"""

import numpy as np

from wlmf import (
    analytic_covariances,
    demo_model,
    empirical_covariances,
    hermitian_eig,
    ma_filter,
    sample_improper_white,
    sliding_windows,
)


def main():
    rng = np.random.default_rng(0)
    model = demo_model(rho_u=0.5)
    print("driving noise: unit variance, complementary variance rho_u =", model.rho_u)
    print("MA taps:", np.asarray(model.taps))

    filter_len = 6
    cov = analytic_covariances(model, filter_len)
    print("\nanalytic covariance R, first row:")
    print(np.array2string(cov.r[0], precision=4))
    print("analytic complementary C, first row:")
    print(np.array2string(cov.c[0], precision=4))
    augmented = np.block([[cov.r, cov.c], [np.conj(cov.c), np.conj(cov.r)]])
    smallest = hermitian_eig(augmented)[0][-1]
    print("smallest eigenvalue of the augmented covariance: %.4f (positive definite)" % smallest)

    u = sample_improper_white(200_000, rho_u=model.rho_u, rng=rng)
    v = ma_filter(u, model.taps)
    print("\nsampled", len(v), "colored noise values")
    print("mean power E|v|^2 = %.4f (expect %.4f)" % (np.mean(np.abs(v) ** 2), cov.r[0, 0].real))

    for est_len in (2_000, 20_000, 200_000):
        est = empirical_covariances(v[:est_len], filter_len)
        err_r = np.linalg.norm(est.r - cov.r) / np.linalg.norm(cov.r)
        err_c = np.linalg.norm(est.c - cov.c) / np.linalg.norm(cov.c)
        print("est_len %6d: rel error R %.3f, C %.3f" % (est_len, err_r, err_c))

    windows = sliding_windows(v[:50], filter_len)
    print("\nsliding windows of the first 50 samples have shape", windows.shape)
    print("column k stacks v[n], v[n-1], ..., newest first:")
    print("  window 0 =", np.array2string(windows[:, 0], precision=3))
    print("  v[5..0 reversed] =", np.array2string(v[5::-1][:filter_len], precision=3))


if __name__ == "__main__":
    main()
