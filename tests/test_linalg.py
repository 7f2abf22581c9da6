import ctypes

import numpy as np
import pytest

from wlmf import (
    DimensionMismatchError,
    NonFiniteInputError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    CovariancePair,
    analytic_covariances,
    demo_model,
    hermitian_eig,
    hermitian_solve,
    linalg,
    takagi,
)
from helpers import random_hermitian_pd, random_improper_pair, random_unitary


def test_hermitian_solve_identity():
    b = np.array([1.0, 1j, -1.0])
    assert np.allclose(hermitian_solve(np.eye(3), b), b, atol=1e-14)


def test_hermitian_solve_diagonal():
    y = hermitian_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(y, [1.0, 1.0], atol=1e-14)


def test_hermitian_solve_residual_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        a = random_hermitian_pd(rng, dim)
        b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = hermitian_solve(a, b)
        assert np.linalg.norm(a @ y - b) <= 1e-10 * np.linalg.norm(b)


def test_hermitian_solve_roundtrip_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        a = random_hermitian_pd(rng, dim)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = hermitian_solve(a, a @ x)
        assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)


def test_hermitian_solve_matrix_rhs():
    rng = np.random.default_rng(13)
    a = random_hermitian_pd(rng, 5)
    b = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    y = hermitian_solve(a, b)
    assert y.shape == (5, 7)
    assert np.linalg.norm(a @ y - b) <= 1e-10 * np.linalg.norm(b)


def test_hermitian_solve_errors():
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_solve(np.diag([1.0, -1.0]), np.ones(2))
    # positive semidefinite with an exactly zero direction fails the pivot test
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_solve(np.ones((3, 3)), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        hermitian_solve(np.eye(3), np.ones(2))
    skew = np.array([[1.0, 1j], [1j, 1.0]])
    with pytest.raises(NotHermitianError):
        hermitian_solve(skew, np.ones(2))
    with pytest.raises(NonFiniteInputError):
        hermitian_solve(np.diag([1.0, np.nan]), np.ones(2))
    for b in ([np.nan, 1.0], [1.0, np.inf], [[1.0, 2.0], [1j * np.nan, 0.0]]):
        with pytest.raises(NonFiniteInputError):
            hermitian_solve(np.eye(2), b)
    with pytest.raises(DimensionMismatchError):
        hermitian_solve(np.eye(2), 1.0)


def test_takagi_zero_matrix():
    result = takagi(np.zeros((4, 4)))
    assert np.allclose(result.p, 0.0)
    assert np.allclose(result.q, np.eye(4))


def test_takagi_real_diagonal():
    result = takagi(np.diag([0.5, 0.2]))
    assert np.allclose(result.p, [0.5, 0.2], atol=1e-14)
    assert np.allclose(np.abs(result.q), np.eye(2), atol=1e-12)


def test_takagi_demo_noise_values():
    cov = analytic_covariances(demo_model(0.5), 6)
    result = takagi(cov.c)
    assert np.all(np.abs(result.p - 0.40) <= 0.01)


def test_takagi_rejects_unsymmetric():
    """The symmetry tolerance is relative, so tiny and huge matrices are
    judged as at unit scale."""
    for scale in (1e-12, 1.0, 1e12):
        with pytest.raises(NotSymmetricError):
            takagi(scale * np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_takagi_property_suite():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = 0.5 * (m + m.T)
        result = takagi(c)
        norm_c = np.linalg.norm(c)
        recon = result.q @ np.diag(result.p) @ result.q.T
        assert np.linalg.norm(recon - c) <= 1e-8 * max(norm_c, 1e-30)
        assert np.linalg.norm(result.q @ result.q.conj().T - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(result.p) <= 1e-12)
        assert np.all(result.p >= -1e-15)
        singular = np.linalg.svd(c, compute_uv=False)
        assert np.allclose(result.p, singular, atol=1e-9 * max(norm_c, 1.0))


def test_takagi_degenerate_singular_values():
    # repeated singular values leave a symmetric unitary block, not a scalar
    # phase, in the SVD phase matrix
    rng = np.random.default_rng(16)
    q = random_unitary(rng, 4)
    c = q @ np.diag([0.7, 0.7, 0.3, 0.3]) @ q.T
    c = 0.5 * (c + c.T)
    result = takagi(c)
    assert np.linalg.norm(result.q @ np.diag(result.p) @ result.q.T - c) <= 1e-8


@pytest.mark.parametrize("gap", [2e-8, 5e-8])
def test_takagi_near_equal_singular_values(gap):
    """Singular values closer than any fixed grouping tolerance can resolve
    still factor: a root of the whole phase matrix needs no grouping."""
    rng = np.random.default_rng(5)
    values = np.array([1.0, 1.0 - gap, 0.5, 0.2])
    for _ in range(200):
        q = random_unitary(rng, 4)
        c = q @ np.diag(values) @ q.T
        c = 0.5 * (c + c.T)
        result = takagi(c)
        recon = result.q @ np.diag(result.p) @ result.q.T
        assert np.linalg.norm(recon - c) <= 1e-8 * np.linalg.norm(c)
        assert np.linalg.norm(result.q @ result.q.conj().T - np.eye(4)) <= 1e-10


@pytest.mark.parametrize("values", [(1.0, 0.5, 0.2), (1.0, 1.0 - 2e-8, 0.5, 0.2)])
def test_takagi_real_symmetric_negative_definite(values):
    """A real symmetric c = -Q D Q^T has the SVD phase matrix -I up to
    roundoff, with eigenvalues on both sides of the root's branch cut; a
    root that took +i for some and -i for others would mix the columns of
    unequal singular values."""
    rng = np.random.default_rng(17)
    dim = len(values)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        c = -(q @ np.diag(values) @ q.T)
        result = takagi(c)
        recon = result.q @ np.diag(result.p) @ result.q.T
        assert np.linalg.norm(recon - c) <= 1e-8 * np.linalg.norm(c)
        assert np.linalg.norm(result.q.conj().T @ result.q - np.eye(dim)) <= 1e-10


def test_hermitian_eig_trivial():
    vals, _ = hermitian_eig(np.eye(3))
    assert np.allclose(vals, 1.0)
    vals, _ = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [3.0, 1.0])


def test_hermitian_eig_demo_noise_values():
    cov = analytic_covariances(demo_model(0.5), 6)
    vals, vecs = hermitian_eig(cov.r)
    expected = np.array([0.98, 0.93, 0.86, 0.77, 0.70, 0.65])
    assert np.all(np.abs(vals - expected) <= 0.02)
    residual = cov.r @ vecs - vecs @ np.diag(vals)
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(cov.r)


def test_hermitian_eig_unitary_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        a = random_hermitian_pd(rng, dim)
        u = random_unitary(rng, dim)
        vals_a, _ = hermitian_eig(a)
        vals_b, _ = hermitian_eig(u @ a @ u.conj().T)
        assert np.all(np.abs(vals_a.imag) == 0)
        assert np.allclose(vals_a, vals_b, atol=1e-9 * np.linalg.norm(a))


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_strided_complex_operands_are_accepted():
    """A Fortran-ordered complex matrix and a strided complex right-hand
    side, whose last axes are not contiguous, give the results of their
    C-ordered copies."""
    cov = analytic_covariances(demo_model(0.5), 4)
    r, c = np.asfortranarray(cov.r), np.asfortranarray(cov.c)
    b = (np.arange(8.0) + 1j).reshape(4, 2)[:, 0]
    np.testing.assert_allclose(hermitian_eig(r)[0], hermitian_eig(cov.r)[0], rtol=1e-12)
    np.testing.assert_allclose(takagi(c).p, takagi(cov.c).p, rtol=1e-12)
    np.testing.assert_allclose(hermitian_solve(r, b), hermitian_solve(cov.r, b.copy()), rtol=1e-12)


def near_structured_pair(seed, dim=5, rtol=1e-12):
    """A random pair ``(r, c)`` with each matrix moved off its structure by
    a perturbation of relative size ``rtol``, within the 1e-10 tolerance, and
    the exact Hermitian and symmetric parts ``(r + r^H) / 2`` and ``(c +
    c^T) / 2`` of the perturbed matrices."""
    rng = np.random.default_rng(seed)
    pair = random_improper_pair(rng, dim)
    r, c = (
        m + rtol * np.linalg.norm(m) * (rng.standard_normal((dim, dim)) + 1j)
        for m in (pair.r, pair.c)
    )
    return r, c, (r + r.conj().T) / 2.0, (c + c.T) / 2.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_hermitian_input_is_taken_as_its_hermitian_part(seed):
    """``hermitian_solve`` and ``hermitian_eig`` act on the exact Hermitian
    part of an input within tolerance, bit for bit, as ``CovariancePair``
    stores it; a result that read the raw triangles would differ."""
    r, c, r_part, _ = near_structured_pair(seed)
    assert not np.array_equal(r, r_part)
    np.testing.assert_array_equal(CovariancePair(r, c).r, r_part)
    b = np.random.default_rng(seed).standard_normal((5, 3)) + 0j
    np.testing.assert_array_equal(hermitian_solve(r, b), hermitian_solve(r_part, b))
    for got, want in zip(hermitian_eig(r), hermitian_eig(r_part)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_symmetric_input_is_taken_as_its_symmetric_part(seed):
    """``takagi`` acts on the exact symmetric part of an input within
    tolerance, bit for bit, as ``CovariancePair`` stores it."""
    r, c, _, c_part = near_structured_pair(seed)
    assert not np.array_equal(c, c_part)
    np.testing.assert_array_equal(CovariancePair(r, c).c, c_part)
    for got, want in zip(takagi(c), takagi(c_part)):
        np.testing.assert_array_equal(got, want)


class FakeBlas:
    """Stands in for an OpenBLAS's (set, get) thread-count pair."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def set(self, n):
        self.sets.append(n)
        self.count = n

    def get(self):
        return self.count


def test_blas_threads_restores_prior_count(monkeypatch):
    fake = FakeBlas(4)
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: (fake.set, fake.get))
    with linalg._blas_threads(1):
        assert fake.count == 1
    assert fake.count == 4
    with pytest.raises(RuntimeError):
        with linalg._blas_threads(1):
            assert fake.count == 1
            raise RuntimeError("inside the block")
    assert fake.count == 4
    assert fake.sets == [1, 4, 1, 4]


def test_blas_threads_without_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    assert linalg._set_blas_threads(1) is None
    with linalg._blas_threads(1):
        pass
    with pytest.raises(RuntimeError):
        with linalg._blas_threads(1):
            raise RuntimeError("inside the block")


@pytest.mark.parametrize("broken", ["maps", "load", "symbols"])
def test_openblas_lookup_that_finds_nothing_changes_nothing(broken, monkeypatch):
    """With no readable ``/proc/self/maps``, an OpenBLAS that fails to load,
    or one without the thread-count symbols, the lookup returns None and
    holding one thread leaves the count alone."""

    def unreadable(*args, **kwargs):
        raise OSError("unreadable")

    linalg._openblas_threads.cache_clear()
    loaded = linalg._openblas_threads()
    linalg._openblas_threads.cache_clear()
    prior = loaded[1]() if loaded else None
    if broken == "maps":
        monkeypatch.setattr(linalg, "open", unreadable, raising=False)
    else:
        monkeypatch.setattr(ctypes, "CDLL", unreadable if broken == "load" else lambda path: object())
    try:
        assert linalg._openblas_threads() is None
        with linalg._blas_threads(1):
            assert loaded is None or loaded[1]() == prior
    finally:
        monkeypatch.undo()
        linalg._openblas_threads.cache_clear()


def test_blas_threads_sets_the_loaded_openblas():
    funcs = linalg._openblas_threads()
    if funcs is None:
        pytest.skip("numpy is not linked to a findable OpenBLAS")
    _, get_threads = funcs
    prior = get_threads()
    with linalg._blas_threads(1):
        assert get_threads() == 1
    assert get_threads() == prior


@pytest.mark.parametrize("n", [1, 4, 6, 8])
def test_real_form_is_the_block_matrix(n):
    """The real form written by slice assignment equals ``np.block`` of its
    four blocks bit for bit, signs of zeros included."""
    rng = np.random.default_rng(60 + n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m[0, 0] = complex(0.0, -0.0)
    m[-1, 0] = complex(-0.0, 0.0)
    got = linalg._real_form(m)
    want = np.block([[m.real, -m.imag], [m.imag, m.real]])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
