"""Dense complex-matrix kernel.

Hermitian eigendecompositions, spectral matrix functions, Gram-matrix
factorization and tensor-product helpers.  Everything operates on plain
numpy arrays, treats inputs as immutable and returns new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
RECON_TOL = 1e-10      # relative Frobenius reconstruction budget


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2 of a matrix or of each matrix in a stack;
    cheap guard against arithmetic drift."""
    return (a + dagger(a)) / 2.0


def hermitian_deviations(a: np.ndarray) -> np.ndarray:
    """Max entrywise |A - A^dag| of each matrix in a stack (n, d, d)."""
    return np.abs(a - dagger(a)).max(axis=(-2, -1))


def lowest_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix in a stack."""
    return np.linalg.eigvalsh(hermitize(a))[..., 0]


def require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = require_square(a)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > tol:
        raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e} > {tol:.0e}")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    a = require_hermitian(a)
    w, v = np.linalg.eigh(hermitize(a))
    return EigenDecomposition(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    a = require_hermitian(a)
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def mat_func(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to the spectrum of a Hermitian PSD matrix.

    Eigenvalues in [-PSD_SLACK, 0) are clipped to 0 before applying ``f``;
    anything below -PSD_SLACK raises NotPSDError.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(hermitize(a))
    if w.size and w[0] < -PSD_SLACK:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} < -{PSD_SLACK:.0e}")
    w = np.clip(w, 0.0, None)
    return hermitize((v * np.asarray(f(w))) @ v.conj().T)


def mat_sqrt(a: np.ndarray) -> np.ndarray:
    return mat_func(a, np.sqrt)


def _inv_sqrt_spectrum(w: np.ndarray) -> np.ndarray:
    # Pseudo-inverse convention: the kernel (eigenvalues below the cutoff)
    # maps to 0 instead of blowing up.
    out = np.zeros_like(w)
    mask = w > KERNEL_CUTOFF
    out[mask] = 1.0 / np.sqrt(w[mask])
    return out


def mat_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse square root on the support of ``a``, zero on its kernel."""
    return mat_func(a, _inv_sqrt_spectrum)


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
    w, v = np.linalg.eigh(hermitize(g))
    if w[0] < -PSD_SLACK:
        raise NotPSDError(f"Gram matrix has eigenvalue {w[0]:.3e} < -{PSD_SLACK:.0e}")
    w = np.clip(w, 0.0, None)
    keep = w > KERNEL_CUTOFF
    # factor F = sqrt(L) V^dag restricted to the support; columns are the vectors
    factor = (np.sqrt(w[keep])[:, None] * v[:, keep].conj().T)
    return factor.T.copy()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(a: np.ndarray, dims: tuple[int, int], trace_out: int) -> np.ndarray:
    """Trace out one tensor factor of a matrix on C^{d_a} x C^{d_b}.

    ``trace_out`` = 0 removes the first factor, 1 the second.
    """
    da, db = int(dims[0]), int(dims[1])
    a = require_square(a)
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
