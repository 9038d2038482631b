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
from infocap import discrimination, linalg
from infocap.bounds import WITNESSES
from infocap.checks import _SAMPLERS
from infocap.discrimination import DEFAULT_TOL, DualCertificate, povm_from_json, povm_to_json
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


def repaired_ensemble():
    # an input whose PGM and last iterate, completed by an additive deficit,
    # both have an eigenvalue below -1e-12: the dense reference repairs them
    return near_kernel_ensemble(np.random.default_rng(55), 3, 3)


def rejected_step_ensemble():
    """Nearly pure states, each with weight w = 10^U(-14, -6) on a second
    Haar-random vector: the step after the PGM loses more than 1e-12 of
    value and is rejected."""
    rng = np.random.default_rng(14)
    n, dim = rng.integers(2, 5), rng.integers(2, 5)
    states = []
    for _ in range(n):
        u, v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(2))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        w = 10.0 ** rng.uniform(-14, -6)
        states.append((1.0 - w) * np.outer(u, u.conj()) + w * np.outer(v, v.conj()))
    return StateEnsemble(np.array(states))


def psd_elements(elements):
    """``elements``, repaired by ``repair_elements`` if one has an
    eigenvalue below -1e-12, as an ill-conditioned S^(-1/2) can leave."""
    if linalg.lowest_eigenvalues(elements).min() < -1e-12:
        return repair_elements(elements)
    return elements


def repair_elements(elements):
    """Project elements onto the PSD cone and restore completeness by a
    congruence with (sum)^(-1/2)."""
    w, v = np.linalg.eigh(elements)
    projected = (v * np.clip(w, 0.0, None)[:, None, :]) @ linalg.dagger(v)
    clipped = np.where((w[:, 0] >= 0.0)[:, None, None], elements, projected)
    total = linalg.hermitize(clipped.sum(axis=0))
    tisq = linalg.mat_inv_sqrt(total)
    return linalg.hermitize(tisq @ clipped @ tisq)


def dense_oracle(e, tol, max_iter):
    """The reference oracle, one dense d x d step per state, completed by an
    additive deficit and repaired where that leaves an element non-PSD:
    (value, certified upper, iterations)."""
    rt, eye = e.states / e.n, np.eye(e.dim)

    def completed(a):
        s_isqrt = linalg.mat_inv_sqrt(linalg.hermitize(a.sum(axis=0)))
        elements = s_isqrt @ a @ s_isqrt
        return linalg.hermitize(elements + (eye - elements.sum(axis=0)) / e.n)

    elements = psd_elements(completed(e.states))
    value = float(np.einsum("xij,xji->", rt, elements).real)
    for iterations in range(1, max_iter + 1):
        new = completed(rt @ elements @ rt)
        new_value = float(np.einsum("xij,xji->", rt, new).real)
        if new_value < value - 1e-12:
            break
        elements, increment, value = new, new_value - value, max(value, new_value)
        if increment < tol:
            break
    povm = POVM(psd_elements(elements))
    return guess_value(e, povm), dual_certificate(e, povm).certified_upper(), iterations


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
             "0.4938976052445418", "0.4938976069646933", "-8.600757397947412e-10", 181),
            (lambda: rank2_ensemble(np.random.default_rng(3), 6, 4),
             "0.47157375979257193", "0.4715737727771788", "-3.2461517415066643e-09", 164),
            # S and T have a 3-dimensional kernel: the KERNEL_CUTOFF branch
            (lambda: subspace_ensemble(np.random.default_rng(2)),
             "0.4633919254182888", "0.46339447369780173", "-4.2471325214823716e-07", 72),
            # an additive completion leaves its PGM and last iterate non-PSD
            (repaired_ensemble, "0.88091182217723", "0.8809135260023041", "-2.8397084567531297e-07", 6),
        ],
        ids=["pure_qubits_n4", "rank2_6x4", "subspace_kernel", "repaired"],
    )
    def test_exact_output_pinned(self, make, value, upper, min_slack, iterations):
        # a kernel change that moves any bit shows here
        res = optimize_discrimination(make())
        assert repr(res.value) == value
        assert repr(res.certificate.certified_upper()) == upper
        assert repr(res.certificate.min_slack) == min_slack
        assert res.iterations == iterations

    def test_pinned_inputs_reach_their_branches(self):
        e = subspace_ensemble(np.random.default_rng(2))
        assert np.sum(np.linalg.eigvalsh(e.states.sum(axis=0)) > KERNEL_CUTOFF) == 3

    def test_povm_psd_and_complete_near_the_kernel_cutoff(self):
        # S has eigenvalues near the kernel cutoff, where an additive
        # completion leaves elements with eigenvalues near -1e-12
        members = [repaired_ensemble()]
        members += [near_kernel_ensemble(np.random.default_rng(s), 3, 3) for s in range(200)]
        for e in members:
            for m in (pgm(e), optimize_discrimination(e).povm):
                assert linalg.lowest_eigenvalues(m.elements).min() >= -1e-14
                assert np.linalg.norm(m.elements.sum(axis=0) - np.eye(m.dim)) <= 1e-14

    def test_rejected_first_step_returns_the_pgm(self):
        e = rejected_step_ensemble()
        res = optimize_discrimination(e)
        assert res.iterations == 1
        np.testing.assert_array_equal(res.povm.elements, pgm(e).elements)

    def test_one_element_build_per_solve(self, monkeypatch):
        built = []

        def spy(*args):
            built.append(args[1].shape)
            return elements(*args)

        elements = discrimination._elements
        monkeypatch.setattr(discrimination, "_elements", spy)
        res = optimize_discrimination(rank2_ensemble(np.random.default_rng(3), 6, 4))
        assert res.iterations > 1
        assert len(built) == 1

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


class TestFactoredIteration:
    @pytest.mark.parametrize(
        "make, rank",
        [
            (lambda: random_pure_ensemble(np.random.default_rng(1), 5, 4), 1),
            (lambda: rank2_ensemble(np.random.default_rng(1), 6, 5), 2),
            (lambda: StateEnsemble(np.stack([np.eye(3) / 3, np.diag([0.5, 0.3, 0.2])]).astype(complex)), 3),
            # 1e-13 lies far above d eps_mach: kept
            (lambda: StateEnsemble(np.stack([np.diag([1.0 - 1e-13, 1e-13, 0.0]),
                                             np.diag([0.0, 0.0, 1.0])]).astype(complex)), 2),
        ],
        ids=["pure", "rank2", "full_rank", "tiny_eigenvalue"],
    )
    def test_factor_rank(self, make, rank):
        e = make()
        a, acat, _ = discrimination._factor(e.states)
        assert a.shape == (e.n, e.dim, rank)
        np.testing.assert_allclose(a @ linalg.dagger(a), e.states / e.n, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(acat[:, :rank], a[0])

    @pytest.mark.parametrize("tol, max_iter", [(1e-7, 150), (DEFAULT_TOL, 10_000)])
    def test_agrees_with_dense_steps(self, tol, max_iter):
        # the same map: the same iteration counts, and a value and certified
        # upper bound no worse than the dense steps' beyond rounding
        rng = np.random.default_rng(20240503)
        members = [sampler(rng)[0] for sampler, _ in _SAMPLERS.values() for _ in range(10)]
        members += [random_pure_ensemble(np.random.default_rng(5), 4, 2),
                    rank2_ensemble(np.random.default_rng(3), 6, 4),
                    subspace_ensemble(np.random.default_rng(2)), repaired_ensemble()]
        for e in members:
            value, upper, iterations = dense_oracle(e, tol, max_iter)
            res = optimize_discrimination(e, tol=tol, max_iter=max_iter)
            assert res.iterations == iterations
            assert res.value >= value - 1e-12
            assert res.certificate.certified_upper() <= upper + 1e-11


class TestDualCertificate:
    @pytest.mark.parametrize(
        "povm, message",
        [
            # one element would broadcast over the three states
            (lambda: POVM(np.eye(3)[None]), "POVM has 1 outcomes for 3 states"),
            (lambda: uniform_povm(3, 2), "POVM dim 2 != ensemble dim 3"),
            (lambda: uniform_povm(2, 3), "POVM has 2 outcomes for 3 states"),
        ],
        ids=["one_outcome", "dim_2", "two_outcomes"],
    )
    def test_povm_must_fit_the_ensemble(self, povm, message):
        e, m = basis_ensemble(3, 3), povm()
        for f in (dual_certificate, guess_value):
            with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
                f(e, m)

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

    def test_nan_slack_certifies_nothing(self):
        cert = DualCertificate(K=np.eye(2), trace_value=1.0, min_slack=math.nan)
        assert math.isnan(cert.certified_upper())
        assert not cert.certifies(1.0, DEFAULT_TOL)

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
