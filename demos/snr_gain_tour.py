"""Strictly linear versus widely linear matched-filter output SNR.

Shows the exact doubling under proper noise, the strict gain under
improper noise, and the closed form for the scalar case. Run with
``python3 demos/snr_gain_tour.py``.
"""

import numpy as np

from wlmf import (
    CovariancePair,
    analytic_covariances,
    demo_model,
    snr_gain,
    snr_slmf,
    snr_wlmf,
)


def main():
    rng = np.random.default_rng(1)
    filter_len = 6
    x = rng.standard_normal(filter_len) + 1j * rng.standard_normal(filter_len)

    proper = analytic_covariances(demo_model(rho_u=0.0), filter_len)
    print("proper noise (C = 0):")
    print("  SNR strictly linear  = %.6f" % snr_slmf(x, proper))
    print("  SNR widely linear    = %.6f" % snr_wlmf(x, proper))
    print("  ratio = %.12f (exactly 2)" % (snr_wlmf(x, proper) / snr_slmf(x, proper)))

    print("\nimproper noise, same template:")
    print("  rho_u   SNR_SL    SNR_WL    gain")
    for rho_u in (0.1, 0.3, 0.5, 0.7, 0.9):
        cov = analytic_covariances(demo_model(rho_u), filter_len)
        print(
            "  %4.1f   %.4f   %.4f   %.4f"
            % (rho_u, snr_slmf(x, cov), snr_wlmf(x, cov), snr_gain(x, cov))
        )
    print("the gain is strictly positive whenever C is nonzero and x is not 0")

    print("\nscalar case, R = 1, C = rho, x = 1: gain = (1 - rho) / (1 + rho)")
    for rho in (0.0, 0.25, 0.5, 0.75):
        cov1 = CovariancePair(r=np.array([[1.0 + 0j]]), c=np.array([[rho + 0j]]))
        gain = snr_gain(np.array([1.0 + 0j]), cov1)
        print("  rho %.2f: gain %.6f (closed form %.6f)" % (rho, gain, (1 - rho) / (1 + rho)))


if __name__ == "__main__":
    main()
