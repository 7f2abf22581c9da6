"""Complex linear algebra kernels: Hermitian solves, eigensystems, and the
Takagi factorization of complex symmetric matrices.

All matrices are plain numpy arrays. Functions validate structure (shape,
finiteness, Hermitian/symmetric character, positive definiteness) and raise
the library's typed errors instead of letting LAPACK failures float up. A
matrix within tolerance of its structure is taken as its exact Hermitian or
symmetric part, ``(a + a^H) / 2`` or ``(a + a^T) / 2``.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NumericalConsistencyError,
    _as_array,
)

__all__ = [
    "TakagiResult",
    "hermitian_solve",
    "hermitian_eig",
    "takagi",
]

# Structure checks use a relative Frobenius tolerance; covariance builders in
# this package symmetrize exactly, so anything past this is a caller bug.
_STRUCTURE_RTOL = 1e-10

# (set, get) thread-count symbols of the OpenBLAS builds numpy ships or links:
# numpy's own ILP64 wheel build, its LP64 variant, then a system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(set, get) thread-count functions of the OpenBLAS loaded in this
    process, or None where there is none to find (another BLAS, or a system
    without ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {
                    line.split(maxsplit=5)[5].strip()
                    for line in maps
                    if "openblas" in os.path.basename(line).lower()
                }
            )
    except OSError:
        return None
    import ctypes

    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def _set_blas_threads(n: int) -> int | None:
    """Set the OpenBLAS thread count to ``n``; return the prior count, or
    None (and change nothing) when no OpenBLAS is loaded."""
    funcs = _openblas_threads()
    if funcs is None:
        return None
    setter, getter = funcs
    prior = getter()
    setter(n)
    return prior


@contextmanager
def _blas_threads(n: int):
    """Hold OpenBLAS at ``n`` threads inside the block, then restore the
    prior count. The kernels here multiply (L, L) matrices by (L, K) batches
    with small L, where a second BLAS thread only competes with the first."""
    prior = _set_blas_threads(n)
    try:
        yield
    finally:
        if prior is not None:
            _set_blas_threads(prior)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` with its write flag cleared, so nothing derived from it goes stale."""
    array.flags.writeable = False
    return array


def _as_structured(a: np.ndarray, name: str, hermitian: bool) -> np.ndarray:
    """The exact Hermitian part ``(a + a^H) / 2`` of a square ``a`` within
    tolerance of Hermitian, or with ``hermitian`` False the exact symmetric
    part ``(a + a^T) / 2`` of one within tolerance of complex symmetric, as a
    new read-only array."""
    a = _as_array(name, a, (2,))
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise EmptyInputError(f"{name} must have at least one row")
    mirror = a.conj().T if hermitian else a.T
    if np.linalg.norm(a - mirror) > _STRUCTURE_RTOL * np.linalg.norm(a):
        if hermitian:
            raise NotHermitianError(f"{name} is not Hermitian")
        raise NotSymmetricError(f"{name} is not complex symmetric")
    return _read_only((a + mirror) / 2.0)


def _inverse_cholesky(a: np.ndarray) -> np.ndarray:
    """Read-only inverse ``L^{-1}`` of the lower Cholesky factor ``a = L L^H``
    of a finite Hermitian ``a`` whose squared pivots all exceed ``1e-12 *
    max(diag(a))``, by forward substitution row by row, so it is exactly
    lower triangular."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    tol = 1e-12 * max(float(np.max(np.real(np.diag(a)))), 0.0)
    if not np.all(np.real(np.diag(chol)) ** 2 > tol):
        raise NotPositiveDefiniteError("matrix has a pivot below tolerance")
    inv = np.zeros_like(chol)
    for i in range(chol.shape[0]):
        inv[i, :i] = -(chol[i, :i] @ inv[:i, :i]) / chol[i, i]
        inv[i, i] = 1.0 / chol[i, i]
    return _read_only(inv)


def _real_form(m: np.ndarray) -> np.ndarray:
    """Real ``2n x 2n`` form ``[[Re m, -Im m], [Im m, Re m]]`` of a complex
    ``m``: it maps ``[Re x; Im x]`` to ``[Re(m x); Im(m x)]``. Written by
    slice assignment, which equals ``np.block`` bit for bit, signs of zeros
    included."""
    n = m.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = out[n:, n:] = m.real
    np.negative(m.imag, out=out[:n, n:])
    out[n:, :n] = m.imag
    return out


def hermitian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ y = b`` for Hermitian positive definite ``a``.

    Parameters
    ----------
    a : ndarray
        Hermitian positive definite matrix, shape (n, n).
    b : ndarray
        Right-hand side, shape (n,) or (n, k) for multiple columns.

    Returns
    -------
    ndarray
        Solution with the same shape as ``b``. One step of iterative
        refinement is applied, which keeps the residual near machine level
        even for ill-conditioned augmented covariances.

    Raises
    ------
    InvalidParameterError, DimensionMismatchError, NonFiniteInputError
        If ``a`` or ``b`` breaks the array rule of :mod:`wlmf.errors`.
    NotHermitianError
        If ``a`` departs from Hermitian by more than 1e-10 relative.
    NotPositiveDefiniteError
        If the Cholesky factorization fails or a squared pivot falls below
        ``1e-12 * max(diag(a))``.
    """
    a = _as_structured(a, "a", hermitian=True)
    b = _as_array("b", b, (1, 2), lead=a.shape[:1])
    return _refined_solve(a, _inverse_cholesky(a), b)


def _refined_solve(a: np.ndarray, inv_chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ y = b`` as ``L^{-H} (L^{-1} b)`` through the inverse
    ``inv_chol = L^{-1}`` of the lower Cholesky factor of ``a``, with one step
    of iterative refinement through the same inverse."""

    def solve(rhs):
        return inv_chol.conj().T @ (inv_chol @ rhs)

    y = solve(b)
    return y + solve(b - a @ y)


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and matching eigenvectors of Hermitian ``a``."""
    vals, vecs = np.linalg.eigh(_as_structured(a, "a", hermitian=True))
    return vals[::-1], vecs[:, ::-1]


class TakagiResult(NamedTuple):
    """Takagi factorization ``c = q @ diag(p) @ q.T``.

    Attributes
    ----------
    q : ndarray
        Unitary matrix whose columns are ordered by descending ``p``.
    p : ndarray
        Real nonnegative factor values (the singular values of ``c``),
        sorted descending.
    """

    q: np.ndarray
    p: np.ndarray


def takagi(c: np.ndarray) -> TakagiResult:
    """Factor a complex symmetric matrix as ``c = q @ diag(p) @ q.T``.

    Computed from the singular value decomposition ``c = u s v^H`` as
    ``q = u z^(1/2)``, the principal square root of the whole unitary phase
    matrix ``z = v^H conj(u)``. Symmetry of ``c`` makes ``z`` block diagonal
    over equal singular values, with a symmetric unitary block for each
    nonzero value (Horn & Johnson, *Matrix Analysis*, Cor. 4.4.4), so one
    root corrects every block at once and the singular values need no
    grouping: values that are close but unequal leave ``O(eps / gap)``
    entries off the blocks, which cost ``gap * O(eps / gap) = O(eps)`` in the
    reconstruction. Columns for zero singular values are constrained only by
    the unitarity of ``q``. Eigenvalues of ``z`` within 1e-6 of -1, on the
    branch cut of the root, would take roots near ``+i`` or ``-i`` by the
    sign of their roundoff; when they lie on both sides of the cut, all of
    them are rooted from above, since a root that jumps inside such a
    cluster mixes blocks of unequal singular values (a real symmetric ``c``
    with several negative eigenvalues has ``z = -I`` up to roundoff).

    Parameters
    ----------
    c : ndarray
        Complex symmetric matrix. The zero matrix yields the identity basis.

    Raises
    ------
    NotSymmetricError
        If ``c`` departs from complex symmetric by more than 1e-10 relative.
    NumericalConsistencyError
        If the phase matrix has no invertible eigenbasis, the factors fail
        to reconstruct ``c`` or ``q`` is not unitary.
    """
    c = _as_structured(c, "c", hermitian=False)
    n = c.shape[0]

    c_norm = float(np.linalg.norm(c))
    if c_norm == 0.0:
        return TakagiResult(np.eye(n, dtype=complex), np.zeros(n))

    u, s, vh = np.linalg.svd(c)
    try:
        vals, vecs = np.linalg.eig(vh @ u.conj())
        roots = np.sqrt(vals)
        # roundoff splits a cluster at -1 by about eps / gap, under 1e-7
        # whenever the singular-value gap is wide enough for a mix to show
        cut = (vals.real < 0) & (np.abs(vals.imag) <= 1e-6)
        below = cut & np.signbit(vals.imag)
        if below.any() and (cut & ~below).any():
            roots[cut] = 1j * np.sqrt(-vals[cut])
        q = u @ ((vecs * roots) @ np.linalg.inv(vecs))
    except np.linalg.LinAlgError:
        raise NumericalConsistencyError(
            "Takagi phase matrix has no invertible eigenbasis"
        ) from None

    # Failure here means the result would silently violate the factorization
    # contract (an ill-conditioned eigenbasis of the phase matrix, say).
    residual = np.linalg.norm(q @ np.diag(s) @ q.T - c)
    if residual > 1e-8 * c_norm:
        raise NumericalConsistencyError(
            f"Takagi reconstruction residual {residual:.3e} exceeds 1e-8 * ||c||"
        )
    departure = np.linalg.norm(q.conj().T @ q - np.eye(n))
    if departure > 1e-8:
        raise NumericalConsistencyError(
            f"Takagi basis departs from unitary by {departure:.3e}, above 1e-8"
        )
    return TakagiResult(q, s)
