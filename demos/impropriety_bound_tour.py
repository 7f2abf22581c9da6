"""Per-component gain factors, their sharp lower bound, and sequence design.

Walks the approximate SNR-gain decomposition: rotate into the basis that
diagonalizes both covariances, read off circularity quotients, evaluate the
gain factor g and its minimizer, then design an input that sits exactly at
the minimizer. Run with ``python3 demos/impropriety_bound_tour.py``.
"""

import numpy as np

from wlmf import (
    analytic_covariances,
    approx_snr_gain,
    aut_decompose,
    demo_model,
    design_matched_sequence,
    g_of_rho,
    impropriety_profile,
    lower_bound_rho,
    normalized_snr_bias,
    rotated_input,
    sample_improper_white,
    snr_gain,
    ma_filter,
)


def main():
    filter_len = 6
    cov = analytic_covariances(demo_model(rho_u=0.5), filter_len)
    aut = aut_decompose(cov)
    print("approximately uncorrelating transform of the demo noise, L = 6")
    print("  lambda_r =", np.array2string(aut.lambda_r, precision=3))
    print("  lambda_c =", np.array2string(aut.lambda_c, precision=3))
    print("  rho      =", np.array2string(aut.lambda_c / aut.lambda_r, precision=3))

    print("\ngain factor g(rho; eps) and its minimizer over rho:")
    print("  eps    rho*      g(rho*)   sqrt(1 - eps^2)")
    for eps in (-0.5, 0.0, 0.3, 0.6, 0.9):
        root = lower_bound_rho(eps)
        print(
            "  %+.1f   %.4f   %.6f   %.6f"
            % (eps, root, g_of_rho(root, eps), np.sqrt(1 - eps**2))
        )
    print("for eps <= 0 the minimizer is rho = 0 where g = 1;")
    print("for eps > 0 the minimum value is sqrt(1 - eps^2), reached inside (0, 1)")

    rng = np.random.default_rng(2)
    designed = design_matched_sequence(aut, rng=rng)
    profile = impropriety_profile(aut, rotated_input(aut, designed))
    target = 2 * profile.rho / (1 + profile.rho**2)
    print("\ndesigned input lands every component on its minimizer:")
    print("  achieved eps =", np.array2string(profile.epsilon, precision=4))
    print("  target eps   =", np.array2string(target, precision=4))

    print("\napproximation quality (normalized bias of the approximate gain):")
    x = rng.standard_normal(filter_len) + 1j * rng.standard_normal(filter_len)
    print("  random window:   exact %.4f approx %.4f" % (snr_gain(x, cov), approx_snr_gain(x, aut)))
    u = sample_improper_white(40_000, rho_u=0.2, rng=rng)
    signal = ma_filter(u, demo_model(0.2).taps)
    low_cov = analytic_covariances(demo_model(0.2), filter_len)
    bias = normalized_snr_bias(signal, low_cov, aut_decompose(low_cov))
    print("  averaged over 40k windows at rho_u = 0.2: bias %.4f" % bias)


if __name__ == "__main__":
    main()
