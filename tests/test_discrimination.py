import math

import numpy as np
import pytest

from infocap import (
    POVM,
    StateEnsemble,
    Vacuum,
    accessible_information,
    basis_ensemble,
    bound_overlap,
    dense_coding_ensemble,
    dual_certificate,
    ensemble_from_vectors,
    guess_value,
    optimize_discrimination,
    pgm,
)
from infocap import discrimination
from infocap.bounds import WITNESSES
from infocap.checks import _SAMPLERS
from infocap.discrimination import DEFAULT_TOL, povm_from_json, povm_to_json
from infocap.linalg import KERNEL_CUTOFF
from infocap.errors import DimensionMismatchError, InvalidPOVMError, ParamOutOfRangeError

from conftest import equiangular, random_pure_ensemble, uniform_povm


def rank2_ensemble(rng, n, dim):
    g = rng.standard_normal((n, dim, 2)) + 1j * rng.standard_normal((n, dim, 2))
    s = g @ np.conj(np.transpose(g, (0, 2, 1)))
    s = s / np.trace(s, axis1=1, axis2=2).real[:, None, None]
    return StateEnsemble((s + np.conj(np.transpose(s, (0, 2, 1)))) / 2)


def subspace_ensemble(rng):
    """Five rank-2 states confined to the first 3 of 6 dimensions."""
    states = np.zeros((5, 6, 6), dtype=complex)
    states[:, :3, :3] = rank2_ensemble(rng, 5, 3).states
    return StateEnsemble(states)


def near_kernel_ensemble(rng, n, dim_t):
    """Each state mixes two pure states along one random target direction,
    each leaking into the state's own extra dimension: S has eigenvalues
    near the kernel cutoff."""
    dim = dim_t + n
    states = np.zeros((n, dim, dim), dtype=complex)
    for x in range(n):
        t = rng.standard_normal(dim_t) + 1j * rng.standard_normal(dim_t)
        t /= np.linalg.norm(t)
        lam = rng.uniform()
        for weight in (lam, 1.0 - lam):
            beta = rng.uniform(0.6, 1.0)
            v = np.zeros(dim, dtype=complex)
            v[:dim_t] = math.sqrt(beta) * t
            v[dim_t + x] = math.sqrt(1.0 - beta)
            states[x] += weight * np.outer(v, v.conj())
    return StateEnsemble(states)


def basis_povm(d):
    return POVM(np.stack([np.diag(np.eye(d)[i]).astype(complex) for i in range(d)]))


def random_povm(rng, n, dim):
    """Normalize random PSD blocks into a POVM."""
    blocks = []
    for _ in range(n):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(z @ z.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    isq = (v / np.sqrt(w)) @ v.conj().T
    return POVM(np.stack([isq @ b @ isq for b in blocks]))


class TestGuessValue:
    def test_basis_with_projective_measurement(self):
        e = basis_ensemble(2, 2)
        assert guess_value(e, basis_povm(2)) == pytest.approx(1.0)

    def test_uniform_povm_is_chance(self):
        e = equiangular(3, 0.2)
        assert guess_value(e, uniform_povm(3, e.dim)) == pytest.approx(1.0 / 3.0)

    def test_pgm_matches_overlap_closed_form(self):
        e = equiangular(3, 0.5)
        target = bound_overlap(3, 0.5).pg_bound
        assert abs(guess_value(e, pgm(e)) - target) <= 1e-10

    def test_dimension_mismatch(self):
        e = basis_ensemble(2, 2)
        with pytest.raises(DimensionMismatchError):
            guess_value(e, uniform_povm(2, 3))
        with pytest.raises(DimensionMismatchError):
            guess_value(e, uniform_povm(3, 2))


class TestPGM:
    def test_orthonormal_basis_gives_projectors(self):
        e = basis_ensemble(3, 3)
        m = pgm(e)
        np.testing.assert_allclose(m.elements, e.states, atol=1e-10)

    def test_single_state_gives_identity(self):
        e = basis_ensemble(2, 1)
        m = pgm(e)
        np.testing.assert_allclose(m.elements[0], np.eye(2), atol=1e-10)

    def test_completeness_on_equiangular(self):
        m = pgm(equiangular(4, 1.0 / 3.0))
        np.testing.assert_allclose(m.elements.sum(axis=0), np.eye(m.dim), atol=1e-8)

    def test_completeness_with_kernel(self):
        # states span only 2 of 3 dimensions; the deficit must be shared out
        vecs = np.zeros((2, 3), dtype=complex)
        vecs[0, 0] = 1.0
        vecs[1, 1] = 1.0
        m = pgm(ensemble_from_vectors(vecs))
        np.testing.assert_allclose(m.elements.sum(axis=0), np.eye(3), atol=1e-10)

    def test_matches_per_element_reference_with_kernel(self, rng):
        # 4 pure states in dimension 6: S has a 2-dimensional kernel, which
        # the pseudo-inverse square root maps to 0
        e = random_pure_ensemble(rng, 4, 6)
        w, v = np.linalg.eigh(e.states.sum(axis=0))
        assert np.sum(w > KERNEL_CUTOFF) == 4
        inv = np.zeros_like(w)
        inv[w > KERNEL_CUTOFF] = 1.0 / np.sqrt(w[w > KERNEL_CUTOFF])
        s_isqrt = (v * inv) @ v.conj().T
        ref = np.stack([s_isqrt @ rho @ s_isqrt for rho in e.states])
        ref = ref + (np.eye(6) - ref.sum(axis=0)) / e.n
        np.testing.assert_allclose(pgm(e).elements, ref, rtol=0, atol=1e-12)


class TestHelstrom:
    # the oracle meets the two-state optimum 1/2 + ||rho1 - rho2||_tr / 4

    def test_orthogonal_pair(self):
        assert optimize_discrimination(basis_ensemble(2, 2), tol=1e-12).value == pytest.approx(1.0)

    def test_identical_states(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        e = StateEnsemble(np.stack([rho, rho]))
        assert optimize_discrimination(e, tol=1e-12).value == pytest.approx(0.5)

    def test_pure_pair_formula_and_oracle_agreement(self):
        e = equiangular(2, 0.6)
        # a pure pair with overlap a: (1 + sqrt(1 - a^2)) / 2
        value = (1.0 + math.sqrt(1.0 - 0.6**2)) / 2.0
        assert value == pytest.approx(0.9, abs=1e-12)
        res = optimize_discrimination(e, tol=1e-12)
        assert abs(res.value - value) <= 1e-8


class TestOptimizer:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_tol_outside_positive_finite(self, tol):
        with pytest.raises(ParamOutOfRangeError, match="tol must be positive and finite"):
            optimize_discrimination(basis_ensemble(2, 2), tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ParamOutOfRangeError, match="max_iter must be >= 1"):
            optimize_discrimination(basis_ensemble(2, 2), max_iter=max_iter)

    def test_orthonormal_basis(self):
        res = optimize_discrimination(basis_ensemble(3, 3))
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.converged

    def test_vacuum_cone_saturation(self):
        e, _ = WITNESSES[Vacuum](4, 0.1)
        res = optimize_discrimination(e)
        expected = (math.sqrt(0.3) + math.sqrt(0.9)) ** 2 / 4.0
        assert abs(res.value - expected) <= 1e-6
        assert abs(expected - 0.559808) <= 1e-6

    def test_dense_coding(self):
        res = optimize_discrimination(dense_coding_ensemble(3, 9))
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_value_recomputes_from_povm(self, rng):
        e = random_pure_ensemble(rng, 4, 3)
        res = optimize_discrimination(e, tol=1e-11)
        assert res.value == pytest.approx(guess_value(e, res.povm), abs=1e-12)

    def test_no_povm_beats_the_oracle(self, rng):
        e = random_pure_ensemble(rng, 3, 3)
        res = optimize_discrimination(e, tol=1e-11)
        for _ in range(20):
            m = random_povm(rng, 3, 3)
            assert guess_value(e, m) <= res.value + 1e-7

    def test_rank2_16x8_iterations_and_value_pinned(self):
        # pinned: a kernel change that moves the arithmetic shows here
        res = optimize_discrimination(rank2_ensemble(np.random.default_rng(11), 16, 8))
        assert res.iterations == 68
        assert abs(res.value - 0.3240721473114963) <= 1e-12

    @pytest.mark.parametrize(
        "make, value, upper, min_slack, iterations",
        [
            # pure qubits with n=4, the shape of distrust targets
            (lambda: random_pure_ensemble(np.random.default_rng(5), 4, 2),
             "0.49389760524454207", "0.4938976069646934", "-8.600756634669082e-10", 181),
            (lambda: rank2_ensemble(np.random.default_rng(3), 6, 4),
             "0.4715737597925722", "0.471573772777179", "-3.246151731965685e-09", 164),
            # S and T have a 3-dimensional kernel: the KERNEL_CUTOFF branch
            (lambda: subspace_ensemble(np.random.default_rng(2)),
             "0.4633919254182888", "0.4633944736978009", "-4.2471325200247634e-07", 72),
            # _repair_elements runs on the PGM and on the last iterate
            (lambda: near_kernel_ensemble(np.random.default_rng(14), 2, 2),
             "0.9088643672063539", "0.908864367207916", "-3.905175868546912e-13", 3),
        ],
        ids=["pure_qubits_n4", "rank2_6x4", "subspace_kernel", "repaired"],
    )
    def test_exact_output_pinned(self, make, value, upper, min_slack, iterations):
        # literals captured before the loop stopped re-validating its own
        # iterates; a kernel change that moves any bit shows here
        res = optimize_discrimination(make())
        assert repr(res.value) == value
        assert repr(res.certificate.certified_upper()) == upper
        assert repr(res.certificate.min_slack) == min_slack
        assert res.iterations == iterations

    def test_pinned_inputs_reach_their_branches(self, monkeypatch):
        e = subspace_ensemble(np.random.default_rng(2))
        assert np.sum(np.linalg.eigvalsh(e.states.sum(axis=0)) > KERNEL_CUTOFF) == 3
        repaired = []

        def spy(elements):
            repaired.append(elements.shape)
            return repair(elements)

        repair = discrimination._repair_elements
        monkeypatch.setattr(discrimination, "_repair_elements", spy)
        optimize_discrimination(near_kernel_ensemble(np.random.default_rng(14), 2, 2))
        assert len(repaired) == 2

    def test_converged_results_carry_tight_certificates(self, rng):
        for _ in range(5):
            e = random_pure_ensemble(rng, 4, 2)
            res = optimize_discrimination(e, tol=1e-11)
            if res.converged:
                assert res.certificate.certified_upper() - res.value <= 1e-10

    def test_converged_iff_certified_gap_within_tol(self):
        # soundness-sweep members of every kind, and the vacuum witness at
        # omega = 1e-12, where the iteration stops at the PGM's kernel cutoff
        # with a certified gap of 1e-6
        rng = np.random.default_rng(20240503)
        members = [sampler(rng)[0] for sampler, _ in _SAMPLERS.values() for _ in range(5)]
        members.append(WITNESSES[Vacuum](2, 1e-12)[0])
        converged = []
        for e in members:
            res = optimize_discrimination(e, tol=1e-7, max_iter=150)
            assert res.converged == (res.certificate.certified_upper() - res.value <= 1e-7)
            converged.append(res.converged)
        assert any(converged) and not all(converged)


class TestDualCertificate:
    def test_basis_povm_is_optimal(self):
        e = basis_ensemble(2, 2)
        cert = dual_certificate(e, basis_povm(2))
        assert cert.trace_value == pytest.approx(1.0, abs=1e-12)
        assert cert.min_slack >= -1e-12
        np.testing.assert_allclose(cert.K, np.eye(2) / 2, atol=1e-12)

    def test_pgm_optimal_on_equiangular(self):
        e = equiangular(3, 0.5)
        cert = dual_certificate(e, pgm(e))
        assert cert.min_slack >= -1e-7
        assert cert.certifies(guess_value(e, pgm(e)), 1e-7)

    def test_states_within_hermiticity_tolerance(self):
        # the ensemble accepts deviations up to 1e-10; the stored states are
        # their Hermitian part, so the certificate sees Hermitian operators
        states = basis_ensemble(2, 2).states.copy()
        states[0, 0, 1] = 5e-11
        e = StateEnsemble(states)
        np.testing.assert_array_equal(e.states, e.states.conj().transpose(0, 2, 1))
        cert = dual_certificate(e, basis_povm(2))
        assert cert.trace_value == pytest.approx(1.0, abs=1e-12)
        res = optimize_discrimination(e)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.converged

    def test_povm_within_hermiticity_tolerance(self):
        # the POVM accepts deviations up to 1e-8; it stores the Hermitian
        # part, so the success probability carries no imaginary residue
        plus_minus = ensemble_from_vectors(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
        elements = plus_minus.states.copy()
        elements[0, 0, 1] += 5e-9j
        m = POVM(elements)
        np.testing.assert_array_equal(m.elements, m.elements.conj().transpose(0, 2, 1))
        assert guess_value(plus_minus, m) == pytest.approx(1.0, abs=1e-12)
        assert dual_certificate(plus_minus, m).certifies(guess_value(plus_minus, m), DEFAULT_TOL)

    def test_uniform_povm_is_not_a_certificate(self):
        e = basis_ensemble(2, 2)
        cert = dual_certificate(e, uniform_povm(2, 2))
        assert cert.trace_value == pytest.approx(0.5, abs=1e-12)
        assert cert.min_slack < -1e-3
        # K = I/4, and K + I/4 dominates both rho_x/2: the certified bound is 1 against a value of 1/2
        value = guess_value(e, uniform_povm(2, 2))
        assert cert.gap(value) == pytest.approx(0.5, abs=1e-12)
        assert not cert.certifies(value, DEFAULT_TOL)


class TestAccessibleInformation:
    @pytest.mark.parametrize("n,pg,expected", [(4, 1.0, 2.0), (4, 0.25, 0.0), (4, 0.5, 1.0)])
    def test_exact_values(self, n, pg, expected):
        assert accessible_information(n, pg) == pytest.approx(expected, abs=1e-12)

    def test_clamps_with_warning(self):
        with pytest.warns(RuntimeWarning):
            assert accessible_information(4, 0.2) == pytest.approx(0.0)

    def test_clamps_above_one_with_warning(self):
        # no guessing probability exceeds 1; rounding slack is clamped, loudly
        with pytest.warns(RuntimeWarning, match=r"outside \[1/4, 1\]"):
            assert accessible_information(4, 1.5) == 2.0

    @pytest.mark.parametrize("pg", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_a_parameter_error(self, pg):
        with pytest.raises(ParamOutOfRangeError, match="pg must be finite"):
            accessible_information(4, pg)

    def test_no_inputs_is_a_parameter_error(self):
        # a package error, so callers that catch InfocapError see it
        with pytest.raises(ParamOutOfRangeError, match=r"^n must be >= 1$"):
            accessible_information(0, 0.5)


class TestPOVMType:
    def test_rejects_incomplete(self):
        with pytest.raises(InvalidPOVMError):
            POVM(np.stack([np.eye(2) / 3] * 2))

    def test_rejects_indefinite_element(self):
        bad = np.stack([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]).astype(complex)
        with pytest.raises(InvalidPOVMError):
            POVM(bad)

    def test_rejects_nan_element(self):
        elements = basis_povm(2).elements.copy()
        elements[0, 0, 1] = np.nan
        with pytest.raises(InvalidPOVMError):
            POVM(elements)

    def test_json_roundtrip(self, rng):
        m = random_povm(rng, 3, 2)
        back = povm_from_json(povm_to_json(m))
        np.testing.assert_allclose(back.elements, m.elements, atol=1e-15)
