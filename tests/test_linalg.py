import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infocap import EADimension, check_assumption, dense_coding_ensemble, linalg
from infocap.errors import (
    DimensionMismatchError,
    NonHermitianError,
    NonSquareError,
    NonUnitDiagonalError,
    NotPSDError,
)

from conftest import random_psd


class TestMatFunc:
    def test_sqrt_identity(self):
        np.testing.assert_allclose(linalg.mat_inv_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_inv_sqrt_pseudo_inverse_on_kernel(self):
        out = linalg.mat_inv_sqrt(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    def test_sqrt_squaring_oracle(self, rng):
        # independent oracle: (A^(-1/2))^2 A is the identity on a full-rank A
        a = random_psd(rng, 6)
        root = linalg.mat_inv_sqrt(a)
        np.testing.assert_allclose(root @ root @ a, np.eye(6), atol=1e-9 * max(1.0, np.linalg.norm(a)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            linalg.mat_inv_sqrt(np.diag([1.0, -1.0]))

    def test_clips_tiny_negatives(self):
        # an eigenvalue in [-PSD_SLACK, 0) is clipped to 0 before its
        # square root is taken, so no NaN (and no warning) arises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.mat_inv_sqrt(np.diag([1.0, -1e-10]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-5)

    def test_inv_sqrt_validates_its_input(self):
        # the oracle's unchecked kernel sits behind this entry point, which
        # keeps both checks
        with pytest.raises(NonHermitianError):
            linalg.mat_inv_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(NotPSDError):
            linalg.mat_inv_sqrt(np.diag([1.0, -1.0]))

    def test_inv_sqrt_matches_the_unchecked_kernel(self, rng):
        h = linalg.hermitize(random_psd(rng, 5))
        np.testing.assert_array_equal(linalg.mat_inv_sqrt(h), linalg._inv_sqrt_hermitized(h))


class TestMinEigenvalue:
    def test_diagonal(self):
        assert linalg.min_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0)

    def test_identity(self):
        assert linalg.min_eigenvalue(np.eye(4)) == pytest.approx(1.0)

    def test_rank_one_projector(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert linalg.min_eigenvalue(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            linalg.min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            linalg.min_eigenvalue(np.zeros((2, 3)))


class TestVectorsFromGram:
    def test_identity_gives_orthonormal(self):
        vecs = linalg.vectors_from_gram(np.eye(3))
        np.testing.assert_allclose(vecs.conj() @ vecs.T, np.eye(3), atol=1e-10)

    def test_two_by_two(self):
        g = np.array([[1.0, 0.5], [0.5, 1.0]])
        vecs = linalg.vectors_from_gram(g)
        assert vecs.shape == (2, 2)
        np.testing.assert_allclose(vecs.conj() @ vecs.T, g, atol=1e-10)

    def test_equiangular_gram_recheck(self):
        n, a = 4, 1.0 / 3.0
        g = (1 - a) * np.eye(n) + a * np.ones((n, n))
        vecs = linalg.vectors_from_gram(g)
        np.testing.assert_allclose(vecs.conj() @ vecs.T, g, atol=1e-8)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-8)

    def test_singular_gram_drops_rank(self):
        g = np.ones((3, 3))
        vecs = linalg.vectors_from_gram(g)
        assert vecs.shape == (3, 1)
        np.testing.assert_allclose(vecs.conj() @ vecs.T, g, atol=1e-8)

    def test_rejects_indefinite(self):
        g = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPSDError):
            linalg.vectors_from_gram(g)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(NonUnitDiagonalError):
            linalg.vectors_from_gram(np.diag([1.0, 2.0]))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    def test_gram_roundtrip_property(self, seed, n):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        g = v.conj() @ v.T
        vecs = linalg.vectors_from_gram((g + g.conj().T) / 2)
        np.testing.assert_allclose(vecs.conj() @ vecs.T, g, atol=1e-8)


class TestNonFinite:
    # a NaN makes every comparison with the tolerance false, so the
    # validator checks finiteness itself
    @pytest.mark.parametrize("f", [linalg.mat_inv_sqrt, linalg.min_eigenvalue, linalg.vectors_from_gram])
    def test_nan_entry_raises(self, f):
        with pytest.raises(NonHermitianError, match="finite entries"):
            f(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_returns_the_hermitian_part(self):
        a = np.array([[1.0, 0.5 + 4e-13j], [0.5, 2.0 + 1e-13j]])
        h = linalg.require_hermitian(a)
        np.testing.assert_array_equal(h, linalg.hermitize(a))
        np.testing.assert_array_equal(h, h.conj().T)


class TestEmptyMatrix:
    # a matrix with no rows has no eigenvalue to report or invert, and
    # factors trivially as 0 x d_b, so each entry point refuses it
    @pytest.mark.parametrize(
        "f",
        [
            linalg.min_eigenvalue,
            linalg.mat_inv_sqrt,
            linalg.vectors_from_gram,
            lambda a: linalg.partial_trace(a, (0, 3), trace_out=0),
        ],
        ids=["min_eigenvalue", "mat_inv_sqrt", "vectors_from_gram", "partial_trace"],
    )
    def test_no_rows_is_not_square(self, f):
        with pytest.raises(NonSquareError, match=r"nonempty square matrix, got shape \(0, 0\)"):
            f(np.zeros((0, 0)))


class TestTensorOps:
    def test_partial_trace_maximally_entangled(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        reduced = linalg.partial_trace(rho, (2, 2), trace_out=0)
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_trace_preservation(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for side in (0, 1):
            reduced = linalg.partial_trace(a, (2, 3), trace_out=side)
            assert abs(np.trace(reduced) - np.trace(a)) <= 1e-12 * max(1.0, abs(np.trace(a)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(5), (2, 3), trace_out=0)

    @pytest.mark.parametrize("dims", [(-2, -2), (2.5, 1.6), (0, 4), (2, float("nan"))])
    def test_dimensions_not_positive_integers(self, dims):
        # (-2)(-2) and 2.5 x 1.6 both pass the size test: numpy refused the
        # first with a bare ValueError, and the second was truncated to 2 x 1;
        # membership names the pair too, whichever test refuses it
        message = f"subsystem dimensions must be positive integers, got {dims}"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            linalg.partial_trace(np.eye(4), dims, trace_out=0)
        with pytest.raises(DimensionMismatchError, match=re.escape(str(dims))):
            check_assumption(dense_coding_ensemble(2, 4), EADimension(d=2), subsystem_dims=dims)
