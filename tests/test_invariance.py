"""Invariance of the exact SNR chain under changes of coordinates.

The paper's SNRs are functions of the target and of the noise's
second-order statistics alone, so they cannot depend on the coordinates a
window is written in. For a unitary ``U``, a phase ``phi`` and conjugation,
the maps

    (x, R, C) -> (U x, U R U^H, U C U^T)
    (x, R, C) -> (e^{j phi} x, R, e^{2j phi} C)
    (x, R, C) -> (conj(x), conj(R), conj(C))

leave ``snr_slmf``, ``snr_gain`` and ``snr_wlmf`` unchanged and carry the
matched-filter taps along with the window: ``f -> U f``, ``f -> e^{j phi}
f`` and ``f -> conj(f)``, for ``slmf_solve``'s taps and ``wlmf_solve``'s
``f1``, while ``f1 == conj(f2)`` holds exactly.

The seeds and the points (rho_u, L) are fixed in advance. Every value runs
through two triangular factors of dimension L and, for the taps, one
refinement step, so a backward-stable evaluation moves a value by a few
``L * eps`` relative, amplified by at most the condition number ``kappa`` of
the augmented covariance. The bound is ``4 * L * eps * kappa``; the worst
move measured was about ``3 * eps * kappa`` (the unitary map at (0.1, 6)).
The approximate AUT gain is not covered here: its Takagi basis is not yet a
function of the pair.
"""

import numpy as np
import pytest

from wlmf import (
    CovariancePair,
    analytic_covariances,
    demo_model,
    slmf_solve,
    snr_gain,
    snr_slmf,
    snr_wlmf,
    wlmf_solve,
)

from helpers import augmented, random_unitary

POINTS = [((0.1, 6), 1), ((0.5, 4), 2), ((0.8, 8), 3)]
PHASE = 0.7
WINDOWS = 200
SOLVED = 10


def _maps(rng, cov):
    """Name -> (window map, mapped pair, tap map) of each coordinate change."""
    u = random_unitary(rng, cov.dim)
    turn = np.exp(1j * PHASE)
    return {
        "unitary": (lambda x: u @ x, CovariancePair(u @ cov.r @ u.conj().T, u @ cov.c @ u.T),
                    lambda f: u @ f),
        "phase": (lambda x: turn * x, CovariancePair(cov.r, turn**2 * cov.c), lambda f: turn * f),
        "conjugate": (np.conj, CovariancePair(np.conj(cov.r), np.conj(cov.c)), np.conj),
    }


def _case(point, seed):
    (rho_u, length) = point
    rng = np.random.default_rng(seed)
    cov = analytic_covariances(demo_model(rho_u), length)
    bound = 4 * length * np.finfo(float).eps * np.linalg.cond(augmented(cov))
    x = rng.standard_normal((length, WINDOWS)) + 1j * rng.standard_normal((length, WINDOWS))
    return rng, cov, bound, x


@pytest.mark.parametrize("map_name", ["unitary", "phase", "conjugate"])
@pytest.mark.parametrize("point, seed", POINTS, ids=[f"{p[0]}-{p[1]}" for p, _ in POINTS])
def test_exact_snrs_are_coordinate_free(point, seed, map_name):
    rng, cov, bound, x = _case(point, seed)
    move_x, mapped, _ = _maps(rng, cov)[map_name]
    for snr in (snr_slmf, snr_gain, snr_wlmf):
        want = snr(x, cov)
        got = snr(move_x(x), mapped)
        assert np.all(np.abs(got - want) <= bound * np.abs(want)), snr.__name__
        single = snr(move_x(x[:, 0]), mapped)
        assert abs(single - want[0]) <= bound * abs(want[0]), snr.__name__


@pytest.mark.parametrize("map_name", ["unitary", "phase", "conjugate"])
@pytest.mark.parametrize("point, seed", POINTS, ids=[f"{p[0]}-{p[1]}" for p, _ in POINTS])
def test_matched_filter_taps_follow_the_window(point, seed, map_name):
    rng, cov, bound, x = _case(point, seed)
    move_x, mapped, move_f = _maps(rng, cov)[map_name]
    for window in x[:, :SOLVED].T:
        f = slmf_solve(window, cov)
        got = slmf_solve(move_x(window), mapped)
        assert np.linalg.norm(got - move_f(f)) <= bound * np.linalg.norm(f)
        f1, f2 = wlmf_solve(window, cov)
        got1, got2 = wlmf_solve(move_x(window), mapped)
        assert np.linalg.norm(got1 - move_f(f1)) <= bound * np.linalg.norm(f1)
        assert np.array_equal(got1, np.conj(got2)) and np.array_equal(f1, np.conj(f2))
