"""scipy as the reference for the package's numpy-only kernels: the Takagi
basis (SVD phase-corrected by ``scipy.linalg.sqrtm`` per group of equal
singular values, an independent construction from the package's single root
of the whole phase matrix) and the Toeplitz covariance construction."""

import numpy as np
import pytest
import scipy.linalg as sla

from wlmf import CovariancePair, analytic_covariances, demo_model, takagi
from wlmf.noise import NoiseModel, _lagged_products
from helpers import random_unitary


def sqrtm_takagi_basis(c):
    """Takagi basis from the SVD ``c = u s v^H`` with each equal-value block
    of ``u^H c conj(u)`` corrected by its principal root from ``sqrtm``."""

    def _group_close(values: np.ndarray, rtol: float) -> list[list[int]]:
        """Partition indices of a descending vector into runs of near-equal values."""
        scale = max(float(values[0]), 1e-300) if len(values) else 1.0
        groups: list[list[int]] = []
        start = 0
        for i in range(1, len(values) + 1):
            if i == len(values) or abs(values[start] - values[i]) > rtol * scale:
                groups.append(list(range(start, i)))
                start = i
        return groups

    n = c.shape[0]
    u, s, _ = np.linalg.svd(c)
    t = u.conj().T @ c @ u.conj()
    d = np.zeros((n, n), dtype=complex)
    for group in _group_close(s, 1e-8):
        block = np.ix_(group, group)
        if s[group[0]] <= 1e-13 * s[0]:
            d[block] = np.eye(len(group))
        elif len(group) == 1:
            d[block] = np.sqrt(t[block] / s[group[0]])
        else:
            d[block] = sla.sqrtm(t[block] / s[group[0]])
    return u @ d


@pytest.mark.parametrize("rho_u", [0.04, 0.1, 0.3, 0.5, 0.8, 0.99])
def test_takagi_basis_matches_sqrtm_on_demo_pairs(rho_u):
    """The demo complementary covariance has paired Takagi values at every
    L >= 2, and at odd L a group block with eigenvalue -1, on the branch cut
    of the root; the basis inside each pair feeds every gain-bias value."""
    for length in range(1, 17):
        c = analytic_covariances(demo_model(rho_u), length).c
        assert np.max(np.abs(takagi(c).q - sqrtm_takagi_basis(c))) <= 1e-12, length


def test_takagi_basis_matches_sqrtm_on_repeated_values():
    rng = np.random.default_rng(27)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        q = random_unitary(rng, dim)
        values = np.sort(rng.choice([1.0, 0.5, 0.2], size=dim))[::-1]
        c = q @ np.diag(values) @ q.T
        c = 0.5 * (c + c.T)
        assert np.max(np.abs(takagi(c).q - sqrtm_takagi_basis(c))) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [demo_model(0.5), NoiseModel(taps=(0.7, 0.2 - 0.4j, -0.1j), rho_u=0.3, sigma2_u=2.0)],
    ids=["demo", "three-tap"],
)
def test_analytic_covariances_match_scipy_toeplitz(model):
    taps = np.asarray(model.taps)
    for length in (1, 2, len(taps), len(taps) + 1, 12):
        r = model.sigma2_u * _lagged_products(taps, conjugate=True, length=length)
        c = model.rho_u * model.sigma2_u * _lagged_products(taps, conjugate=False, length=length)
        expected = CovariancePair(r=sla.toeplitz(np.conj(r), r), c=sla.toeplitz(c, c))
        cov = analytic_covariances(model, length)
        assert cov.r.tobytes() == expected.r.tobytes()  # bit-identical, signed zeros too
        assert cov.c.tobytes() == expected.c.tobytes()
