"""Dense complex-matrix kernel.

The validator of stacks of Hermitian PSD matrices, the inverse square
root, Gram-matrix factorization and the partial trace.  Everything
operates on plain numpy arrays, treats inputs as immutable and returns new
arrays.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NonSquareError,
    NonUnitDiagonalError,
    NotPSDError,
)

# Tolerances, chosen with headroom for double precision at dimensions up
# to a few hundred.
HERMITIAN_TOL = 1e-12  # max entrywise |A - A^dag|
PSD_SLACK = 1e-9       # eigenvalues above -PSD_SLACK count as nonnegative
KERNEL_CUTOFF = 1e-10  # eigenvalues below this are treated as exact zeros


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2 of a matrix or of each matrix in a stack;
    cheap guard against arithmetic drift."""
    return (a + dagger(a)) / 2.0


def lowest_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a stack of exactly Hermitian
    matrices.  ``eigvalsh`` reads one triangle only, so hermitize input
    that is Hermitian only within a tolerance first."""
    return np.linalg.eigvalsh(a)[..., 0]


def require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.shape[0]:
        raise NonSquareError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a finite square matrix Hermitian within HERMITIAN_TOL."""
    a = require_square(a)
    if not np.isfinite(a).all():
        raise NonHermitianError("matrix must have finite entries")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > HERMITIAN_TOL:
        raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e} > {HERMITIAN_TOL:.0e}")
    return hermitize(a)


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(require_hermitian(a))[0])


def hermitian_stack(
    a: np.ndarray,
    item: str,
    tol: float,
    slack: float,
    error: type[Exception],
    shape_error: type[Exception],
) -> np.ndarray:
    """Hermitian part of a stack of n >= 1 finite (d, d) matrices, d >= 1,
    each Hermitian within ``tol`` (max entrywise |A - A^dag|) and with no
    eigenvalue below ``-slack``.

    A stack of any other shape raises ``shape_error``; every other fault
    raises ``error`` naming the first offending ``item`` by its index.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or 0 in a.shape:
        raise shape_error(f"{item}s must have shape (n, d, d) with n, d >= 1, got {a.shape}")
    if not np.isfinite(a).all():
        raise error(f"{item}s must have finite entries")
    dev = np.abs(a - dagger(a)).max(axis=(-2, -1))
    herm = hermitize(a)
    lowest = lowest_eigenvalues(herm)
    bad = np.flatnonzero((dev > tol) | (lowest < -slack))
    if bad.size:
        i = bad[0]
        if dev[i] > tol:
            raise error(f"{item} {i} deviates from Hermiticity by {dev[i]:.3e}")
        raise error(f"{item} {i} has eigenvalue {lowest[i]:.3e}")
    return herm


def mat_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse square root on the support of a Hermitian PSD matrix ``a``,
    zero on its kernel.

    Eigenvalues in [-PSD_SLACK, 0) are clipped to 0; anything below
    -PSD_SLACK raises NotPSDError.
    """
    v, f = _inv_sqrt_eig(require_hermitian(a))
    return hermitize((v * f) @ v.conj().T)


def _inv_sqrt_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors ``v`` of a Hermitian matrix ``h``, in ascending order of
    its eigenvalues w, and weights f with v diag(f) v^dag the inverse
    square root of h on its support: f = w^(-1/2) above KERNEL_CUTOFF and
    exactly 0 on the kernel, at or below it.

    Unchecked: ``eigh`` reads one triangle of ``h``.  Eigenvalues in
    [-PSD_SLACK, 0) are clipped to 0; anything below -PSD_SLACK raises
    NotPSDError.
    """
    w, v = np.linalg.eigh(h)
    if w[0] < -PSD_SLACK:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} < -{PSD_SLACK:.0e}")
    # np.maximum gives np.clip(w, 0.0, None) bit for bit, at less overhead
    w = np.maximum(w, 0.0)
    # Pseudo-inverse convention: the kernel (eigenvalues below the cutoff)
    # maps to 0 instead of blowing up.
    f = np.zeros(w.shape)
    np.divide(1.0, np.sqrt(w), out=f, where=w > KERNEL_CUTOFF)
    return v, f


def vectors_from_gram(g: np.ndarray) -> np.ndarray:
    """Factor a PSD unit-diagonal Gram matrix into unit vectors.

    Returns an array of shape (m, rank); row i is the vector v_i with
    <v_i|v_j> = G_ij.  The rank is the number of eigenvalues above
    KERNEL_CUTOFF after clipping negatives in [-PSD_SLACK, 0) to zero.
    """
    g = require_hermitian(g)
    diag_dev = float(np.max(np.abs(np.diag(g) - 1.0)))
    if diag_dev > 1e-10:
        raise NonUnitDiagonalError(f"Gram diagonal deviates from 1 by {diag_dev:.3e}")
    w, v = np.linalg.eigh(g)
    if w[0] < -PSD_SLACK:
        raise NotPSDError(f"Gram matrix has eigenvalue {w[0]:.3e} < -{PSD_SLACK:.0e}")
    w = np.clip(w, 0.0, None)
    keep = w > KERNEL_CUTOFF
    # factor F = sqrt(L) V^dag restricted to the support; columns are the vectors
    factor = (np.sqrt(w[keep])[:, None] * v[:, keep].conj().T)
    return factor.T.copy()


def subsystem_pair(dims: tuple[int, int]) -> tuple[int, int]:
    """``dims`` as a pair of ints; DimensionMismatchError unless it is a
    pair of positive integers."""
    if len(dims) != 2:
        raise DimensionMismatchError(f"subsystem dimensions must be a pair, got {dims}")
    # a negative pair passes a size test, and a fractional one would be
    # truncated to some other pair
    if not all(isinstance(k, numbers.Real) and k >= 1 and k % 1 == 0 for k in dims):
        raise DimensionMismatchError(f"subsystem dimensions must be positive integers, got {dims}")
    return int(dims[0]), int(dims[1])


def partial_trace(a: np.ndarray, dims: tuple[int, int], trace_out: int) -> np.ndarray:
    """Trace out one tensor factor of a matrix on C^{d_a} x C^{d_b}.

    ``trace_out`` = 0 removes the first factor, 1 the second.  Both
    dimensions must be positive integers.
    """
    a = require_square(a)
    da, db = subsystem_pair(dims)
    if a.shape[0] != da * db:
        raise DimensionMismatchError(
            f"matrix of size {a.shape[0]} does not factor as {da} x {db}"
        )
    if trace_out not in (0, 1):
        raise DimensionMismatchError("trace_out must be 0 (first factor) or 1 (second)")
    t = a.reshape(da, db, da, db)
    if trace_out == 0:
        return np.einsum("ijik->jk", t)
    return np.einsum("ijkj->ik", t)
