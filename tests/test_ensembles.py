import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infocap import (
    AlmostDim,
    Dimension,
    Distrust,
    EADimension,
    Information,
    StateEnsemble,
    UniformOverlap,
    Vacuum,
    almost_qubit_epsilon,
    basis_ensemble,
    check_assumption,
    circulant_ensemble,
    coherent_state,
    dense_coding_ensemble,
    ensemble_from_json,
    ensemble_from_vectors,
    ensemble_to_json,
    guess_value,
    linalg,
    pgm,
)
from infocap.bounds import WITNESSES
from infocap.checks import random_unit
from infocap.ensembles import assumption_from_json, assumption_to_json

from conftest import equiangular, random_psd, random_pure_ensemble
from infocap.errors import (
    CutoffTooSmallError,
    DimensionMismatchError,
    InfocapError,
    MissingContextError,
    MixedStateOverlapError,
    ParamOutOfRangeError,
)


def overlaps(e):
    g = np.einsum("xij,yji->xy", e.states, e.states).real
    return np.sqrt(np.clip(g, 0, None))


class TestStateEnsembleType:
    def test_rejects_nan_entry(self):
        states = basis_ensemble(2, 2).states.copy()
        states[1, 0, 1] = np.nan
        with pytest.raises(InfocapError):
            StateEnsemble(states)

    def test_pure_flags_are_computed_not_passed(self):
        # overlap membership and the distrust targets hold for pure states only
        mixed = np.stack([np.eye(2, dtype=complex) / 2] * 2)
        with pytest.raises(TypeError):
            StateEnsemble(mixed, pure_flags=(True, True))
        assert StateEnsemble(mixed).pure_flags == (False, False)
        assert basis_ensemble(2, 2).pure_flags == (True, True)

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2)], ids=["one_vector_flat", "three_axes"])
    def test_vectors_must_be_rows(self, shape):
        # a flat vector is not one row: an (n, dim) array is required
        with pytest.raises(DimensionMismatchError, match="must be an \\(n, dim\\) array"):
            ensemble_from_vectors(np.ones(shape) / math.sqrt(shape[-1]))


class TestStateVectors:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8), dim=st.integers(1, 9))
    def test_matches_per_state_eigh_reference(self, seed, n, dim):
        e = random_pure_ensemble(np.random.default_rng(seed), n, dim)
        expected = np.empty((n, dim), dtype=complex)
        for i, rho in enumerate(e.states):
            # top eigenvector of each state on its own, phase-fixed
            v = np.linalg.eigh(rho)[1][:, ::-1].copy()[:, 0]
            k = int(np.argmax(np.abs(v)))
            phase = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
            expected[i] = v / phase
        np.testing.assert_array_equal(e.state_vectors(), expected)


class TestAssumptionParameters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Information(alpha=math.nan),
            lambda: Dimension(d=math.nan),
            lambda: Distrust(targets=np.array([[1.0, 0.0], [math.nan, 0.0]]), eps=0.1),
            lambda: Distrust(targets=np.zeros((0, 2)), eps=0.1),
            lambda: assumption_from_json({"kind": "dimension", "d": 2.5}),
            # an almost-dim projector must be a projector of rank at most d
            lambda: AlmostDim(d=1, eps=0.0, projector=np.diag([2.0, 2.0, 2.0])),
            lambda: AlmostDim(d=1, eps=0.0, projector=np.ones((2, 3))),
            lambda: AlmostDim(d=1, eps=0.0, projector=np.array([[1.0, 1.0], [0.0, 0.0]])),
            lambda: AlmostDim(d=1, eps=0.0, projector=np.diag([1.0, np.nan])),
            lambda: AlmostDim(d=1, eps=0.0, projector=np.diag([1.0, 1e-6])),
            lambda: AlmostDim(d=1, eps=0.0, projector=np.zeros((0, 0))),
        ],
        ids=["information_nan_alpha", "dimension_nan_d", "distrust_nan_target", "distrust_no_targets",
             "json_fractional_d",
             "projector_not_idempotent", "projector_not_square", "projector_not_hermitian", "projector_nan",
             "projector_off_by_1e-6", "projector_empty"],
    )
    def test_rejected(self, make):
        with pytest.raises(ParamOutOfRangeError):
            make()

    @pytest.mark.parametrize(
        "make",
        [lambda: Dimension(d=2.0), lambda: EADimension(d=2.0), lambda: AlmostDim(d=2.0, eps=0.1)],
        ids=["dimension", "ea_dimension", "almost_dim"],
    )
    def test_integral_d_stored_as_int(self, make):
        # files record "d": 2, not "d": 2.0
        a = make()
        assert type(a.d) is int
        assert json.dumps(assumption_to_json(a)["d"]) == "2"


class TestBasisEnsemble:
    def test_qubit_pair(self):
        e = basis_ensemble(2, 2)
        np.testing.assert_allclose(e.states[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(e.states[1], np.diag([0.0, 1.0]))

    def test_repeats_when_n_exceeds_d(self):
        e = basis_ensemble(2, 4)
        np.testing.assert_allclose(e.states[0], e.states[2])
        np.testing.assert_allclose(e.states[1], e.states[3])

    def test_orthonormal_set(self):
        e = basis_ensemble(3, 3)
        ov = overlaps(e)
        np.testing.assert_allclose(ov, np.eye(3), atol=1e-12)


class TestDenseCoding:
    def test_bell_states_orthogonal(self):
        e = dense_coding_ensemble(2, 4)
        assert e.dim == 4
        ov = overlaps(e)
        np.testing.assert_allclose(ov, np.eye(4), atol=1e-10)

    def test_single_state_maximally_entangled(self):
        e = dense_coding_ensemble(2, 1)
        reduced = linalg.partial_trace(e.states[0], (2, 2), trace_out=0)
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 7), (3, 9), (3, 30)])
    def test_constant_receiver_marginal(self, d, n):
        e = dense_coding_ensemble(d, n)
        for rho in e.states:
            reduced = linalg.partial_trace(rho, (d, d), trace_out=0)
            np.testing.assert_allclose(reduced, np.eye(d) / d, atol=1e-10)


class TestEquiangular:
    # the overlap row of bounds.WITNESSES
    def test_orthonormal_at_zero(self):
        # from the phase-fixed vectors: sqrt(tr rho_x rho_y) would read the
        # Fourier basis's 1e-17 rounding as 1e-9
        vecs = equiangular(3, 0.0).state_vectors()
        np.testing.assert_allclose(np.abs(vecs.conj() @ vecs.T), np.eye(3), rtol=0, atol=1e-10)

    def test_pair_overlap(self):
        ov = overlaps(equiangular(2, 0.6))
        assert ov[0, 1] == pytest.approx(0.6, abs=1e-10)

    def test_gram_recheck(self):
        n, a = 4, 1.0 / 3.0
        e = equiangular(n, a)
        target = (1 - a) * np.eye(n) + a * np.ones((n, n))
        np.testing.assert_allclose(overlaps(e) ** 2, target**2, atol=1e-8)
        vecs = e.state_vectors()
        np.testing.assert_allclose(np.abs(vecs.conj() @ vecs.T), np.abs(target), atol=1e-8)

    def test_rejects_out_of_range(self):
        for a in (-0.9, 1.5):
            with pytest.raises(ParamOutOfRangeError, match=r"^overlap must lie in \[0, 1\]$"):
                equiangular(3, a)


def vacuum_cone(n, omega):
    """The vacuum witness and its vacuum vector."""
    e, _ = WITNESSES[Vacuum](n, omega)
    return e, np.eye(e.dim, dtype=complex)[0]


class TestCirculant:
    @pytest.mark.parametrize("lam", [[4.0, 0.0, 0.0, 0.0], [1.0] * 5, [2.5, 0.3, 0.0, 1.2], [0.6, 1.4, 1.0]])
    def test_gram_is_circulant_with_the_eigenvalues(self, lam):
        e = circulant_ensemble(lam)
        n = len(lam)
        vecs = e.state_vectors()
        gram = vecs.conj() @ vecs.T
        # the phase-fixed vectors keep the magnitudes of the circulant Gram
        # matrix and its spectrum
        for x in range(n):
            np.testing.assert_allclose(np.abs(gram[x]), np.roll(np.abs(gram[0]), x), atol=1e-14)
        np.testing.assert_allclose(np.linalg.eigvalsh(gram), np.sort(lam), atol=1e-13)

    def test_pgm_value_is_the_closed_form(self):
        rng = np.random.default_rng(20240601)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            lam = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
            lam[int(rng.integers(n))] += 0.1
            lam *= n / lam.sum()
            e = circulant_ensemble(lam)
            expected = np.sum(np.sqrt(lam)) ** 2 / n**2
            assert abs(guess_value(e, pgm(e)) - expected) <= 1e-14

    def test_zero_eigenvalues_drop_their_coordinates(self):
        e = circulant_ensemble([0.0, 2.0, 0.0, 2.0])
        assert e.dim == 2
        # coordinate j is frequency kept[j]: psi_x = (i^x, (-i)^x) / sqrt(2)
        np.testing.assert_allclose(e.states[1], np.array([[1, -1], [-1, 1]]) / 2, atol=1e-15)

    @pytest.mark.parametrize(
        "lam", [[], [[1.0, 1.0]], [2.5, -0.5], [1.0, math.nan], [math.inf, 1.0], [1.0, 1.5], [0.0, 0.0]]
    )
    def test_rejects_bad_eigenvalues(self, lam):
        with pytest.raises(ParamOutOfRangeError):
            circulant_ensemble(lam)


class TestVacuumCone:
    def test_zero_radius_collapses_to_vacuum(self):
        e, vac = vacuum_cone(2, 0.0)
        assert e.dim == 1
        for rho in e.states:
            np.testing.assert_allclose(rho, np.outer(vac, vac.conj()), atol=1e-10)

    def test_pairwise_overlap_formula(self):
        e, vac = vacuum_cone(3, 0.2)
        ov = overlaps(e)
        off = ov[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.7, atol=1e-8)

    def test_boundary_orthogonal(self):
        e, vac = vacuum_cone(4, 0.75)
        ov = overlaps(e)
        np.testing.assert_allclose(ov, np.eye(4), atol=1e-8)

    def test_vacuum_amplitude_and_constraint(self):
        for n, omega in [(2, 0.1), (3, 0.2), (5, 0.5)]:
            e, vac = vacuum_cone(n, omega)
            h = np.eye(e.dim) - np.outer(vac, vac.conj())
            for rho in e.states:
                energy = float(np.trace(h @ rho).real)
                assert energy <= omega + 1e-8
                amp = float(np.sqrt(np.real(vac.conj() @ rho @ vac)))
                assert amp == pytest.approx(math.sqrt(1 - omega), abs=1e-8)


class TestCoherent:
    def test_vacuum_limit(self):
        v = coherent_state(0.0, 0.0, 4)
        np.testing.assert_allclose(v, np.eye(5)[0], atol=1e-14)

    def test_vacuum_amplitude_poisson_oracle(self):
        v = coherent_state(1.0, 0.0, 20)
        assert abs(v[0] - math.exp(-0.5)) <= 1e-10

    @pytest.mark.parametrize("mag,phase", [(0.3, 0.0), (1.0, 1.2), (2.0, -0.4)])
    def test_unit_norm(self, mag, phase):
        v = coherent_state(mag, phase, 40)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError):
            coherent_state(2.0, 0.0, 5)

    def test_epsilon_values(self):
        assert almost_qubit_epsilon(0.0) == 0.0
        assert almost_qubit_epsilon(0.1) == pytest.approx(
            1 - math.exp(-0.1) * 1.1, abs=1e-12
        )
        assert abs(almost_qubit_epsilon(0.1) - 0.004679) <= 1e-6
        assert abs(almost_qubit_epsilon(1.0) - 0.264241) <= 1e-6

    def test_epsilon_monotone(self):
        grid = np.linspace(0.0, 5.0, 101)
        values = [almost_qubit_epsilon(float(x)) for x in grid]
        assert np.all(np.diff(values) >= 0.0)

    def test_epsilon_matches_truncated_state_weight(self):
        # the two-level weight of the actual Fock vector is an independent
        # oracle for the closed form
        for nbar in (0.05, 0.2, 0.8):
            v = coherent_state(math.sqrt(nbar), 0.7, 40)
            outside = 1.0 - abs(v[0]) ** 2 - abs(v[1]) ** 2
            assert abs(outside - almost_qubit_epsilon(nbar)) <= 1e-10


class TestMembership:
    def test_basis_satisfies_dimension(self):
        rep = check_assumption(basis_ensemble(2, 4), Dimension(d=2))
        assert rep.satisfied

    def test_vacuum_cone_saturates(self):
        e, vac = vacuum_cone(3, 0.2)
        rep = check_assumption(e, Vacuum(omega=0.2), vacuum_vector=vac)
        assert rep.satisfied
        assert abs(rep.worst_slack) <= 1e-8

    def test_vacuum_defaults_to_basis_vector_zero(self, rng):
        # the witness, on its bound, and random pure and mixed ensembles
        psd = np.stack([random_psd(rng, 3) for _ in range(3)])
        mixed = StateEnsemble(psd / np.trace(psd, axis1=1, axis2=2).real[:, None, None])
        for e in (vacuum_cone(4, 0.3)[0], random_pure_ensemble(rng, 3, 3), mixed):
            given = check_assumption(e, Vacuum(omega=0.3), vacuum_vector=np.eye(e.dim)[0])
            assert check_assumption(e, Vacuum(omega=0.3)) == given

    @pytest.mark.parametrize("length", [2, 4])
    def test_vacuum_vector_of_wrong_length(self, length):
        e, _ = vacuum_cone(3, 0.2)
        with pytest.raises(DimensionMismatchError, match="vacuum vector dimension does not match"):
            check_assumption(e, Vacuum(omega=0.2), vacuum_vector=np.eye(length)[0])

    def test_overlap_violation_slack(self):
        rep = check_assumption(equiangular(3, 0.5), UniformOverlap(a=0.6))
        assert not rep.satisfied
        assert rep.worst_slack == pytest.approx(-0.1, abs=1e-8)

    def test_overlap_rejects_mixed(self):
        mixed = StateEnsemble(np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]))
        with pytest.raises(MixedStateOverlapError):
            check_assumption(mixed, UniformOverlap(a=0.5))

    def test_ea_dense_coding_passes(self):
        e = dense_coding_ensemble(2, 4)
        rep = check_assumption(e, EADimension(d=2))
        assert rep.satisfied

    def test_ea_qutrit_fails_qubit_claim(self):
        e = dense_coding_ensemble(3, 9)
        rep = check_assumption(e, EADimension(d=2), subsystem_dims=(3, 3))
        assert not rep.satisfied

    @pytest.mark.parametrize(("d", "satisfied", "slack"), [(2, True, 0.0), (1, False, -0.5)])
    def test_dimension_above_d_checks_the_average_state(self, d, satisfied, slack):
        # two basis states of C^3 span 2 dimensions: the (d+1)-th eigenvalue
        # of their average is 0 for d = 2 and 1/2 for d = 1
        e = basis_ensemble(3, 2)
        rep = check_assumption(e, Dimension(d=d))
        assert rep.satisfied is satisfied
        assert rep.worst_slack == slack
        # the slack is minus the (d+1)-th eigenvalue of the average state
        assert rep.worst_slack == -np.linalg.eigvalsh(e.states.mean(axis=0))[::-1][d]

    def test_ea_infers_message_first_split(self):
        # |0>|0> and |1>|0> in C^2 x C^3: dim 6 is not d^2 = 4, so the split
        # is inferred as (d, dim/d) = (2, 3), under which the receiver
        # marginal is constant; under (3, 2) it is not
        e = ensemble_from_vectors(np.stack([np.kron(np.eye(2)[x], np.eye(3)[0]) for x in range(2)]))
        rep = check_assumption(e, EADimension(d=2))
        assert rep.satisfied
        assert rep == check_assumption(e, EADimension(d=2), subsystem_dims=(2, 3))
        assert not check_assumption(e, EADimension(d=2), subsystem_dims=(3, 2)).satisfied

    def test_ea_split_not_inferable_needs_context(self):
        with pytest.raises(MissingContextError, match="cannot infer a message x receiver split of dimension 3"):
            check_assumption(basis_ensemble(3, 2), EADimension(d=2))

    def test_ea_subsystem_dims_must_match(self):
        with pytest.raises(DimensionMismatchError, match=r"subsystem dims \(3, 2\) do not match dim 4"):
            check_assumption(basis_ensemble(4, 2), EADimension(d=2), subsystem_dims=(3, 2))

    def test_almost_dim_heuristic_witness(self):
        # the witness's average state has the supplied projector as its
        # top-d eigenspace, so the heuristic finds that projector
        e, witnessed = WITNESSES[AlmostDim](4, 2, 0.1)
        heuristic = AlmostDim(d=2, eps=0.1)
        rep = check_assumption(e, heuristic)
        assert rep.satisfied
        np.testing.assert_allclose(heuristic.anchors(e, None)[0], witnessed.projector, rtol=0, atol=1e-12)

    def test_almost_dim_supplied_projector(self):
        e, witnessed = WITNESSES[AlmostDim](4, 2, 0.1)
        supplied = AlmostDim(d=2, eps=0.1, projector=witnessed.projector)
        rep = check_assumption(e, supplied)
        assert rep.satisfied
        assert np.array_equal(supplied.anchors(e, None), np.broadcast_to(witnessed.projector, (4, 4, 4)))
        assert abs(rep.worst_slack) <= 1e-8

    def test_distrust_membership(self, rng):
        targets = np.stack([random_unit(rng, 2) for _ in range(3)])
        e = ensemble_from_vectors(targets)
        assert check_assumption(e, Distrust(targets=targets, eps=0.0)).satisfied
        other = ensemble_from_vectors(np.roll(targets, 1, axis=0))
        assert not check_assumption(other, Distrust(targets=targets, eps=0.01)).satisfied

    def test_information_needs_pg(self):
        e = basis_ensemble(2, 2)
        with pytest.raises(MissingContextError):
            check_assumption(e, Information(alpha=1.0))
        assert check_assumption(e, Information(alpha=1.0), pg=1.0).satisfied
        assert not check_assumption(e, Information(alpha=0.5), pg=1.0).satisfied

    @pytest.mark.parametrize("pg", [math.nan, math.inf, -math.inf])
    def test_information_refuses_non_finite_pg(self, pg):
        # a non-finite pg has no finite slack to report
        with pytest.raises(ParamOutOfRangeError, match="pg must be finite"):
            check_assumption(basis_ensemble(2, 2), Information(alpha=1.0), pg=pg)

    def test_every_constructor_passes_its_own_check(self):
        e = basis_ensemble(3, 5)
        assert check_assumption(e, Dimension(d=3)).worst_slack >= -1e-8
        e = dense_coding_ensemble(2, 6)
        assert check_assumption(e, EADimension(d=2)).worst_slack >= -1e-8
        e = equiangular(4, 0.4)
        assert check_assumption(e, UniformOverlap(a=0.4)).worst_slack >= -1e-8
        e, vac = vacuum_cone(4, 0.3)
        assert check_assumption(e, Vacuum(omega=0.3), vacuum_vector=vac).worst_slack >= -1e-8
        e, witnessed = WITNESSES[AlmostDim](5, 2, 0.2)
        assert check_assumption(e, witnessed).worst_slack >= -1e-8


class TestAnchors:
    def test_vacuum_is_almost_dim_one_and_distrust_on_the_vacuum(self):
        # vacuum(omega) is almost-dim(1, omega) with the vacuum as its
        # projector, and distrust with the vacuum as every target: the same
        # anchors and floor in one membership body, so the same reports to
        # the last bit
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, dim = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            psd = np.stack([random_psd(rng, dim) for _ in range(n)])
            mixed = StateEnsemble(psd / np.trace(psd, axis1=1, axis2=2).real[:, None, None])
            vacuum = np.eye(dim, dtype=complex)[0]
            for e in (random_pure_ensemble(rng, n, dim), mixed):
                omega = float(rng.uniform())
                kinds = (Vacuum(omega=omega), AlmostDim(d=1, eps=omega, projector=np.outer(vacuum, vacuum)),
                         Distrust(targets=np.tile(vacuum, (n, 1)), eps=omega))
                anchors = [a.anchors(e, None) for a in kinds]
                assert all(np.array_equal(stack, anchors[0]) for stack in anchors[1:])
                reports = [check_assumption(e, a) for a in kinds]
                assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_orthonormal_basis_is_not_almost_one_dimensional(self):
        e = ensemble_from_vectors(np.eye(3))
        assert not check_assumption(e, AlmostDim(d=1, eps=0.0)).satisfied
        with pytest.raises(ParamOutOfRangeError, match="trace 3, above d = 1"):
            AlmostDim(d=1, eps=0.0, projector=np.eye(3))

    @pytest.mark.parametrize(
        ("d", "projector"),
        [(1, np.diag([1.0, 1e-9])), (3, np.diag([1.0, 1.0, 0.0, 0.0])), (1, np.zeros((2, 2))),
         (2, np.full((2, 2), 0.5))],
        ids=["within_tolerance", "rank_below_d", "zero", "off_diagonal"],
    )
    def test_almost_dim_accepts_a_projector_of_rank_at_most_d(self, d, projector):
        a = AlmostDim(d=d, eps=0.1, projector=projector)
        np.testing.assert_array_equal(a.projector, projector)

    def test_vacuum_vector_must_be_a_unit_vector(self):
        # two copies of sqrt(0.3)|0> + sqrt(0.7)|1>: vacuum weight 0.3
        psi = np.array([math.sqrt(0.3), math.sqrt(0.7)])
        e = ensemble_from_vectors(np.stack([psi, psi]))
        assert not check_assumption(e, Vacuum(omega=0.1)).satisfied
        for vac in ([2.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [1.0, 1e-4]):
            with pytest.raises(ParamOutOfRangeError, match="vacuum vector must be finite and normalized"):
                check_assumption(e, Vacuum(omega=0.1), vacuum_vector=np.array(vac))
        rep = check_assumption(e, Vacuum(omega=0.1), vacuum_vector=np.array([1.0 + 5e-11, 0.0]))
        assert not rep.satisfied


class TestJson:
    def test_ensemble_roundtrip(self, rng):
        e = equiangular(3, 0.4)
        back = ensemble_from_json(ensemble_to_json(e))
        np.testing.assert_allclose(back.states, e.states, atol=1e-15)

    def test_assumption_roundtrip(self):
        targets = np.array([[1.0, 0.0], [0.6, 0.8j]])
        projector = np.diag([1.0, 0.0])
        cases = [
            (Dimension(d=2), {"kind": "dimension", "d": 2}),
            (EADimension(d=3), {"kind": "ea_dimension", "d": 3}),
            (Vacuum(omega=0.25), {"kind": "vacuum", "omega": 0.25}),
            (UniformOverlap(a=0.5), {"kind": "uniform_overlap", "a": 0.5}),
            (AlmostDim(d=2, eps=0.1), {"kind": "almost_dim", "d": 2, "eps": 0.1}),
            (
                AlmostDim(d=1, eps=0.2, projector=projector),
                {
                    "kind": "almost_dim",
                    "d": 1,
                    "eps": 0.2,
                    "projector": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                },
            ),
            (
                Distrust(targets=targets, eps=0.05),
                {
                    "kind": "distrust",
                    "eps": 0.05,
                    "targets": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]]],
                },
            ),
            (Information(alpha=1.5), {"kind": "information", "alpha": 1.5}),
        ]
        for a, expected in cases:
            out = assumption_to_json(a)
            # key order is part of the file format
            assert json.dumps(out) == json.dumps(expected)
            back = assumption_from_json(json.loads(json.dumps(out)))
            assert type(back) is type(a)
            assert json.dumps(assumption_to_json(back)) == json.dumps(expected)
        back = assumption_from_json(cases[5][1])
        np.testing.assert_array_equal(back.projector, projector)
        back = assumption_from_json(cases[6][1])
        np.testing.assert_array_equal(back.targets, targets)

    @pytest.mark.parametrize(
        ("obj", "key"),
        [({"kind": "almost_dim", "d": 1, "eps": 0.1, "projecter": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
          "projecter"),
         ({"kind": "vacuum", "omega": 0.1, "d": 3}, "d")],
        ids=["misspelt_projector", "field_of_another_kind"],
    )
    def test_unknown_field_refused(self, obj, key):
        with pytest.raises(InfocapError, match=f"^unknown field '{key}' for kind {obj['kind']}$"):
            assumption_from_json(obj)
