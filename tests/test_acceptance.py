"""End-to-end acceptance checks for the package's headline guarantees.

Each numbered test prints a single PASS/FAIL line (visible with ``pytest -s``
or in captured output on failure) and asserts the same condition, including
the runtime budget where one applies.
"""

import time

import numpy as np

from wlmf import (
    CovariancePair,
    aut_decompose,
    demo_model,
    analytic_covariances,
    g_of_rho,
    hermitian_solve,
    impropriety_profile,
    lower_bound_rho,
    rotated_input,
    snr_gain,
    snr_slmf,
    snr_wlmf,
    takagi,
    train,
    wlmf_solve,
)
from wlmf import cli
from wlmf.experiments import ExperimentSpec, run_experiment

from helpers import augmented, gradient_check, kink_free_case, random_improper_pair


def _report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _random_window(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_criterion_1_proper_noise_doubling():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        r = random_improper_pair(rng, dim).r
        cov = CovariancePair(r=r, c=np.zeros((dim, dim)))
        x = _random_window(rng, dim)
        ratio = snr_wlmf(x, cov) / snr_slmf(x, cov)
        worst = max(worst, abs(ratio - 2.0) / 2.0)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"proper-noise SNR doubles exactly (worst rel err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_gain_positivity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    all_positive = True
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        cov = random_improper_pair(rng, dim)
        x = _random_window(rng, dim)
        all_positive &= snr_gain(x, cov) > 0.0
    zero_exact = all(
        snr_gain(np.zeros(dim, dtype=complex), random_improper_pair(rng, dim)) == 0.0
        for dim in range(1, 9)
    )
    elapsed = time.perf_counter() - start
    _report(
        2,
        all_positive and zero_exact and elapsed < 10.0,
        f"gain positive on 500 improper draws, exactly zero at x=0 ({elapsed:.2f}s)",
    )


def test_criterion_3_dual_path_equality():
    rng = np.random.default_rng(103)
    worst_path = 0.0
    worst_pair = 0.0
    for i in range(200):
        dim = i % 8 + 1
        cov = random_improper_pair(rng, dim)
        x = _random_window(rng, dim)
        f1, f2 = wlmf_solve(x, cov)
        # Oracle: the direct solve of the augmented system R_q w = z.
        direct = hermitian_solve(augmented(cov), np.concatenate([x, np.conj(x)]))
        path = np.linalg.norm(np.concatenate([f1, f2]) - direct)
        worst_path = max(worst_path, path / np.linalg.norm(direct))
        pair_res = np.linalg.norm(f1 - np.conj(f2))
        worst_pair = max(worst_pair, pair_res / np.linalg.norm(f1))
    _report(
        3,
        worst_path <= 1e-9 and worst_pair <= 1e-10,
        f"augmented vs block solves agree (path {worst_path:.2e}, pairing {worst_pair:.2e})",
    )


def test_criterion_4_lower_bound_grid():
    grid = np.arange(9991) * 1e-4
    ok = True
    detail = []
    for eps in (-0.8, -0.3, 0.0, 0.2, 0.5, 0.6, 0.8, 0.95):
        values = g_of_rho(grid, np.full_like(grid, eps))
        root = lower_bound_rho(eps)
        gap = abs(grid[int(np.argmin(values))] - root)
        ok &= gap <= 1e-4 + 1e-12
        if eps > 0:
            ok &= abs(g_of_rho(root, eps) - np.sqrt(1 - eps**2)) <= 1e-10
        detail.append(f"{eps:+.2f}:{gap:.1e}")
    _report(4, ok, "grid minimizer matches closed form (" + ", ".join(detail) + ")")


def test_criterion_5_reference_spectra():
    start = time.perf_counter()
    aut = aut_decompose(analytic_covariances(demo_model(0.5), 6))
    lambda_r_ref = np.array([0.98, 0.93, 0.86, 0.77, 0.70, 0.65])
    rho_ref = np.array([0.41, 0.43, 0.46, 0.51, 0.56, 0.60])
    rho = impropriety_profile(aut, np.ones(6, dtype=complex)).rho
    ok = (
        np.all(np.abs(aut.lambda_r - lambda_r_ref) <= 0.02)
        and np.all(np.abs(aut.lambda_c - 0.40) <= 0.01)
        and np.all(np.abs(rho - rho_ref) <= 0.02)
    )
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok and elapsed < 1.0,
        f"noise spectra and circularity quotients match reference values ({elapsed:.2f}s)",
    )


def test_criterion_6_bias_grid_trends(tmp_path):
    start = time.perf_counter()
    spec = ExperimentSpec.with_defaults("gain-bias", out_dir=str(tmp_path))
    run_experiment(spec)
    lines = (tmp_path / "gain-bias.csv").read_text().splitlines()[1:]
    bias = {}
    for line in lines:
        rho, length, value = line.split(",")
        bias[(float(rho), int(length))] = float(value)
    elapsed = time.perf_counter() - start

    nonnegative = all(v >= -1e-6 for v in bias.values())
    increasing = all(bias[(0.8, L)] > bias[(0.04, L)] for L in (4, 6, 8))
    small_when_nearly_proper = all(
        bias[(rho, L)] < 0.02 for rho in (0.04, 0.1) for L in (4, 6, 8)
    )
    _report(
        6,
        nonnegative and increasing and small_when_nearly_proper and elapsed < 120.0,
        f"bias grid nonnegative, rising in rho_u, small near proper ({elapsed:.1f}s)",
    )


def test_criterion_7_gain_surface_slice(tmp_path):
    start = time.perf_counter()
    spec = ExperimentSpec.with_defaults("gain-surface", out_dir=str(tmp_path))
    run_experiment(spec)
    lines = (tmp_path / "gain-surface.csv").read_text().splitlines()[1:]
    all_positive = True
    slice_values = {}
    for line in lines:
        n_p, rho, value = line.split(",")
        all_positive &= float(value) > 0.0
        if n_p == "6":
            slice_values[float(rho)] = float(value)
    elapsed = time.perf_counter() - start

    grid = sorted(slice_values)
    arg = min(slice_values, key=slice_values.get)
    step = max(b - a for a, b in zip(grid, grid[1:]))
    near_half = abs(arg - 0.5) <= step + 1e-12
    _report(
        7,
        all_positive and near_half and elapsed < 300.0,
        f"surface positive, matched-sequence slice dips at rho_u={arg} ({elapsed:.1f}s)",
    )


def test_criterion_8_demo_peaks(tmp_path):
    start = time.perf_counter()
    spec = ExperimentSpec.with_defaults("mf-demo", out_dir=str(tmp_path))
    run_experiment(spec)
    import json

    summary = json.loads((tmp_path / "mf-demo-summary.json").read_text())
    elapsed = time.perf_counter() - start
    ok = (
        summary["sl_peak_n"] == 7
        and summary["wl_peak_n"] == 7
        and summary["wl_peak_modulus"] > summary["sl_peak_modulus"]
    )
    _report(
        8,
        ok and elapsed < 1.0,
        f"both filters peak at n=7, widely linear strictly larger ({elapsed:.2f}s)",
    )


def test_criterion_9_gradient_checks():
    start = time.perf_counter()
    worst = 0.0
    for mode, seed in (("sl", 109), ("wl", 110)):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            sample, params = kink_free_case(rng, mode)
            worst = max(worst, gradient_check(sample, params))
    elapsed = time.perf_counter() - start
    _report(
        9,
        worst <= 1e-5 and elapsed < 30.0,
        f"finite differences confirm gradients (worst rel err {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_10_training_speed_ordering():
    start = time.perf_counter()
    strictly_earlier = 0
    both_accurate = 0
    for seed in range(10):
        sl, wl = train(seed)
        if wl.first_sustained is not None and (
            sl.first_sustained is None or wl.first_sustained < sl.first_sustained
        ):
            strictly_earlier += 1
        sl_final, wl_final = sl.evals[-1], wl.evals[-1]
        if min(sl_final[1:]) > 0.9 and min(wl_final[1:]) > 0.9:
            both_accurate += 1
    elapsed = time.perf_counter() - start
    _report(
        10,
        strictly_earlier >= 7 and both_accurate >= 6 and elapsed < 300.0,
        f"widely linear net sustained earlier on {strictly_earlier}/10 seeds, "
        f"both accurate on {both_accurate}/10 ({elapsed:.1f}s)",
    )


def test_criterion_11_takagi_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(111)
    worst_recon = 0.0
    worst_unitary = 0.0
    sorted_ok = True
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = a + a.T
        factor = takagi(c)
        recon = np.linalg.norm(factor.q @ np.diag(factor.p) @ factor.q.T - c)
        worst_recon = max(worst_recon, recon / max(np.linalg.norm(c), 1e-30))
        unitary = np.linalg.norm(factor.q.conj().T @ factor.q - np.eye(dim))
        worst_unitary = max(worst_unitary, unitary)
        sorted_ok &= bool(np.all(np.diff(factor.p) <= 1e-12)) and bool(
            np.all(factor.p >= -1e-15)
        )
    elapsed = time.perf_counter() - start
    _report(
        11,
        worst_recon <= 1e-8 and worst_unitary <= 1e-10 and sorted_ok and elapsed < 30.0,
        f"1000 factorizations reconstruct (worst {worst_recon:.2e}), stay unitary "
        f"(worst {worst_unitary:.2e}), sorted ({elapsed:.1f}s)",
    )


def test_criterion_12_cli_determinism(tmp_path, capsys):
    cases = {
        "gain-bias": (
            ["--rho-u", "0.1,0.5", "--filter-len", "4,6", "--signal-len", "600",
             "--trials", "2", "--seed", "31"],
            ("gain-bias.csv",),
            True,
        ),
        "gain-surface": (
            ["--rho-u", "0.2,0.5", "--signal-len", "20", "--trials", "3",
             "--est-len", "600", "--seed", "32"],
            ("gain-surface.csv",),
            True,
        ),
        "mf-demo": ([], ("mf-demo.csv", "mf-demo-summary.json"), False),
        "cnn-train": ([], ("cnn-train.csv", "cnn-train-summary.json"), False),
        "design-sequence": ([], ("design-sequence.json",), False),
    }
    ok = True
    notes = []
    for experiment, (flags, outputs, parallelizable) in cases.items():
        blobs = []
        run_dirs = ["one", "two"] + (["par"] if parallelizable else [])
        for label in run_dirs:
            out_dir = tmp_path / experiment / label
            args = ["--experiment", experiment, *flags, "--out-dir", str(out_dir)]
            if label == "par":
                args += ["--workers", "3"]
            assert cli.main(args) == 0
            blobs.append(tuple((out_dir / name).read_bytes() for name in outputs))
        identical = all(blob == blobs[0] for blob in blobs[1:])
        ok &= identical
        notes.append(f"{experiment}:{'=' if identical else '!='}")
    capsys.readouterr()
    _report(12, ok, "reruns byte-identical incl. parallel (" + ", ".join(notes) + ")")
