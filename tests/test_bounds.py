import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infocap import (
    AlmostDim,
    Dimension,
    Distrust,
    EADimension,
    UniformOverlap,
    Vacuum,
    Validity,
    basis_ensemble,
    bound_almost_dim,
    bound_dimension,
    bound_distrust,
    bound_ea_dimension,
    bound_eps,
    bound_overlap,
    bound_vacuum,
    accessible_information,
    check_assumption,
    coherent_capacity,
    coherent_state,
    concavity_probe,
    almost_qubit_epsilon,
    dense_coding_ensemble,
    ensemble_from_vectors,
    guess_value,
    h_func,
    lemma_check,
    min_overlap_vacuum,
    optimize_discrimination,
    pgm,
)
from infocap import bounds, linalg, search
from infocap.checks import _SAMPLERS, TIGHT_LIMIT, random_unit
from infocap.discrimination import DEFAULT_TOL
from infocap.errors import NonFiniteError, ParamOutOfRangeError

from conftest import equiangular


class TestDimension:
    def test_half(self):
        res = bound_dimension(2, 4)
        assert res.pg_bound == pytest.approx(0.5)
        assert res.info_bits == pytest.approx(1.0)

    def test_trivial(self):
        assert bound_dimension(3, 3).pg_bound == pytest.approx(1.0)

    def test_info_independent_of_n(self):
        assert bound_dimension(2, 8).info_bits == pytest.approx(1.0, abs=1e-12)


class TestEADimension:
    def test_values(self):
        assert bound_ea_dimension(2, 8).pg_bound == pytest.approx(0.5)
        assert bound_ea_dimension(2, 8).info_bits == pytest.approx(2.0)
        assert bound_ea_dimension(3, 30).pg_bound == pytest.approx(0.3)
        assert bound_ea_dimension(2, 4).pg_bound == pytest.approx(1.0)


class TestOverlap:
    def test_endpoints(self):
        for n in (2, 3, 5):
            assert bound_overlap(n, 1.0).pg_bound == pytest.approx(1.0 / n, abs=1e-12)
            assert bound_overlap(n, 0.0).pg_bound == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        # direct evaluation of the closed form
        expected = (3 * math.sqrt(2.0 / 3.0) + math.sqrt(2.0)) ** 2 / 16.0
        res = bound_overlap(4, 1.0 / 3.0)
        assert res.pg_bound == pytest.approx(expected, abs=1e-14)
        assert abs(res.pg_bound - 0.933013) <= 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            bound_overlap(3, 1.2)


class TestMinOverlapVacuum:
    def test_no_deviation_means_identical(self):
        for n in (2, 4):
            assert min_overlap_vacuum(n, 0.0) == pytest.approx(1.0)

    def test_formula_and_bordered_gram_oracle(self):
        a = min_overlap_vacuum(3, 0.2)
        assert a == pytest.approx(0.7, abs=1e-12)
        gram = np.empty((4, 4))
        gram[:3, :3] = (1 - a) * np.eye(3) + a * np.ones((3, 3))
        gram[:3, 3] = gram[3, :3] = math.sqrt(0.8)
        gram[3, 3] = 1.0
        assert abs(linalg.min_eigenvalue(gram)) <= 1e-9

    def test_boundary(self):
        assert min_overlap_vacuum(2, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            min_overlap_vacuum(3, 0.9)


class TestVacuumBound:
    def test_no_deviation(self):
        for n in (2, 5):
            assert bound_vacuum(n, 0.0).pg_bound == pytest.approx(1.0 / n, abs=1e-12)

    def test_boundary_is_one(self):
        res = bound_vacuum(2, 0.5)
        assert res.pg_bound == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        res = bound_vacuum(4, 0.1)
        expected = (math.sqrt(0.3) + math.sqrt(0.9)) ** 2 / 4
        assert res.pg_bound == pytest.approx(expected, abs=1e-14)
        assert abs(res.pg_bound - 0.559808) <= 1e-6

    def test_trivial_region(self):
        res = bound_vacuum(4, 0.9)
        assert res.pg_bound == 1.0
        assert res.validity is Validity.TRIVIALLY_ONE


class TestHFunc:
    def test_mu_zero(self):
        for eps in (0.0, 0.04, 0.5, 1.0):
            assert h_func(eps, 0.0) == pytest.approx(math.sqrt(eps), abs=1e-14)

    def test_eps_zero(self):
        for mu in (0.0, 0.5, 3.0):
            assert h_func(0.0, mu) == pytest.approx(0.0, abs=1e-14)

    def test_reference_value(self):
        assert h_func(0.04, 1.0) == pytest.approx((math.sqrt(1.32) - 1) / 2, abs=1e-14)
        assert abs(h_func(0.04, 1.0) - 0.074456) <= 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            h_func(0.1, -1.5)


class TestLemma:
    def test_inside_projector(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        pi = np.diag([1.0, 0.0]).astype(complex)
        assert lemma_check(phi, pi, mu=0.7, tol=1e-9)

    def test_random_triples(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            phi = random_unit(rng, dim)
            u = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            rank = int(rng.integers(1, dim))
            pi = u[:, :rank] @ u[:, :rank].conj().T
            assert lemma_check(phi, pi, mu=0.0, tol=1e-9)

    def test_negative_control(self, rng):
        fails = 0
        for _ in range(50):
            phi = random_unit(rng, 3)
            u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            pi = u[:, :1] @ u[:, :1].conj().T
            if not lemma_check(phi, pi, mu=0.2, tol=1e-9, h_scale=0.5):
                fails += 1
        assert fails >= 45


class TestDeviationBound:
    def test_zero_eps(self):
        for pg0 in (0.1, 0.5, 0.9):
            assert bound_eps(pg0, 0.0) == pytest.approx(pg0, abs=1e-14)

    def test_reference_value(self):
        assert bound_eps(0.5, 0.1) == pytest.approx(0.8, abs=1e-12)

    def test_peak_value(self):
        # at eps = 1 - pg0 the bound reaches exactly 1
        assert bound_eps(0.9, 0.1) == pytest.approx(1.0, abs=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(n=st.integers(2, 30), omega=st.floats(0.0, 1.0))
    def test_vacuum_identity_property(self, n, omega):
        assert abs(bound_eps(1.0 / n, omega) - bound_vacuum(n, omega).pg_bound) <= 1e-12

    @settings(deadline=None, max_examples=100)
    @given(
        pg0=st.floats(0.05, 0.95),
        e1=st.floats(0.0, 1.0),
        e2=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
    )
    def test_concave_and_monotone(self, pg0, e1, e2, q):
        mix = q * e1 + (1 - q) * e2
        assert bound_eps(pg0, mix) >= q * bound_eps(pg0, e1) + (1 - q) * bound_eps(
            pg0, e2
        ) - 1e-10
        lo, hi = min(e1, e2), max(e1, e2)
        assert bound_eps(pg0, hi) >= bound_eps(pg0, lo) - 1e-12

    @settings(deadline=None, max_examples=100)
    @given(pg0=st.floats(0.02, 0.98), eps=st.floats(0.0, 1.0), mu=st.floats(-1.0, 6.0))
    def test_lower_bounds_mu_family(self, pg0, eps, mu):
        # the closed form is the minimum of the mu-parametrized family
        assert bound_eps(pg0, eps) <= (1 + mu) * pg0 + h_func(eps, mu) + 1e-12


class TestAlmostDimBound:
    def test_reduces_to_dimension(self):
        assert bound_almost_dim(2, 4, 0.0).pg_bound == pytest.approx(0.5, abs=1e-12)

    def test_d_one_reduces_to_vacuum(self):
        for n in (2, 4, 7):
            for omega in np.linspace(0.0, 1.0, 9):
                assert bound_almost_dim(1, n, float(omega)).pg_bound == pytest.approx(
                    bound_vacuum(n, float(omega)).pg_bound, abs=1e-12
                )

    def test_monotone_in_eps_and_n(self):
        values = [bound_almost_dim(2, 5, e).pg_bound for e in np.linspace(0, 1, 21)]
        assert np.all(np.diff(values) >= -1e-12)
        by_n = [bound_almost_dim(2, n, 0.1).pg_bound for n in range(2, 10)]
        assert np.all(np.diff(by_n) <= 1e-12)


class TestDistrustBound:
    def test_orthogonal_targets_no_distrust(self):
        res = bound_distrust(basis_ensemble(2, 2), 0.0)
        assert res.pg_bound == pytest.approx(1.0, abs=1e-9)

    def test_pair_targets(self):
        targets = equiangular(2, 0.6)
        res = bound_distrust(targets, 0.0)
        assert res.pg_bound == pytest.approx(0.9, abs=1e-8)
        res = bound_distrust(targets, 0.1)
        # eps = 1 - pg0 sits exactly at the peak of the deviation bound
        assert res.pg_bound == pytest.approx(bound_eps(0.9, 0.1), abs=1e-7)
        assert res.pg_bound == pytest.approx(1.0, abs=1e-7)


_SQRT3 = 1.0 / math.sqrt(3.0)
# (targets, their exact guessing value): an orthogonal pair, the README
# targets and the tetrahedron (Bloch vectors at its vertices)
_QUBIT_TARGETS = [
    ([[1, 0], [0, 1]], 1.0),
    ([[1, 0], [0, 1], [0.6, 0.8]], 2.0 / 3.0),
    ([[1, 0], *([_SQRT3, math.sqrt(2.0 / 3.0) * np.exp(2j * math.pi * k / 3)] for k in range(3))], 0.5),
]


def _qubit_target_sets():
    rng = np.random.default_rng(2010)
    sets = [np.array(vectors, dtype=complex) for vectors, _ in _QUBIT_TARGETS]
    for _ in range(40):
        n, dim = int(rng.integers(1, 9)), int(rng.integers(1, 3))
        sets.append(np.stack([random_unit(rng, dim) for _ in range(n)]))
    return sets


class TestQubitTargetsValue:
    @pytest.mark.parametrize("vectors, exact", _QUBIT_TARGETS)
    def test_exact_value(self, vectors, exact):
        value = bounds.targets_value(ensemble_from_vectors(np.array(vectors, dtype=complex)))
        assert value == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("vectors", _qubit_target_sets(), ids=lambda v: f"{v.shape[0]}x{v.shape[1]}")
    def test_between_oracle_value_and_certificate(self, vectors):
        # certified, so at least the oracle's value, and exact, so at most
        # the oracle's certified upper bound, each to rounding
        targets = ensemble_from_vectors(vectors)
        result = optimize_discrimination(targets, tol=1e-12)
        value = bounds.targets_value(targets)
        assert result.value - 1e-15 <= value <= result.certificate.certified_upper() + 1e-15

    @pytest.mark.parametrize("dim, calls", [(1, 0), (2, 0), (3, 1)])
    def test_oracle_only_from_dimension_three(self, monkeypatch, dim, calls):
        seen = []
        real = bounds.optimize_discrimination
        monkeypatch.setattr(bounds, "optimize_discrimination", lambda e, tol: seen.append(e.dim) or real(e, tol=tol))
        rng = np.random.default_rng(dim)
        bounds.targets_value(ensemble_from_vectors(np.stack([random_unit(rng, dim) for _ in range(4)])))
        assert len(seen) == calls

    def test_many_targets_are_fast(self):
        rng = np.random.default_rng(1)
        targets = ensemble_from_vectors(np.stack([random_unit(rng, 2) for _ in range(2000)]))
        start = time.perf_counter()
        value = bounds.targets_value(targets)
        assert time.perf_counter() - start < 1.0
        assert 1.0 / 2000 <= value <= 2.0 / 2000

    def test_capped_at_the_dimension_bound(self):
        # the distrust bound never exceeds the almost-dim bound of the
        # targets' dimension, which it refines
        rng = np.random.default_rng(7)
        sampler = _SAMPLERS[Distrust][0]
        above = 0
        for _ in range(1000):
            e, assumption = sampler(rng)
            distrust = bound_distrust(ensemble_from_vectors(assumption.targets), assumption.eps, 1e-9)
            above += distrust.pg_bound > bound_almost_dim(assumption.targets.shape[1], e.n, assumption.eps).pg_bound
        assert above == 0


_TARGETS = np.array([[1, 0], [0, 1], [0.6, 0.8]], dtype=complex)

# two points per kind: the assumption, n, the oracle tolerance, and the
# direct bound_<kind> call the row must equal
_ROWS = [
    (Dimension(d=2), 4, DEFAULT_TOL, lambda: bound_dimension(2, 4)),
    (Dimension(d=3), 2, DEFAULT_TOL, lambda: bound_dimension(3, 2)),
    (EADimension(d=2), 5, DEFAULT_TOL, lambda: bound_ea_dimension(2, 5)),
    (EADimension(d=3), 30, DEFAULT_TOL, lambda: bound_ea_dimension(3, 30)),
    (Vacuum(omega=0.1), 4, DEFAULT_TOL, lambda: bound_vacuum(4, 0.1)),
    (Vacuum(omega=0.9), 3, DEFAULT_TOL, lambda: bound_vacuum(3, 0.9)),
    (UniformOverlap(a=0.3), 4, DEFAULT_TOL, lambda: bound_overlap(4, 0.3)),
    (UniformOverlap(a=1.0), 2, DEFAULT_TOL, lambda: bound_overlap(2, 1.0)),
    (AlmostDim(d=2, eps=0.05), 4, DEFAULT_TOL, lambda: bound_almost_dim(2, 4, 0.05)),
    (AlmostDim(d=1, eps=0.2, projector=np.diag([1.0, 0.0]).astype(complex)), 5, DEFAULT_TOL,
     lambda: bound_almost_dim(1, 5, 0.2)),
    (Distrust(targets=_TARGETS, eps=0.1), 3, 1e-9,
     lambda: bound_distrust(ensemble_from_vectors(_TARGETS), 0.1, tol=1e-9)),
    (Distrust(targets=_TARGETS, eps=0.1), 3, DEFAULT_TOL,
     lambda: bound_distrust(ensemble_from_vectors(_TARGETS), 0.1)),
]


class TestBoundsTable:
    def test_keyed_like_the_other_kind_tables(self):
        assert set(bounds.BOUNDS) == set(bounds.WITNESSES) == set(_SAMPLERS)
        assert set(search.SEARCHES) <= set(bounds.BOUNDS)

    def test_every_kind_sampled(self):
        assert {type(a) for a, *_ in _ROWS} == set(bounds.BOUNDS)

    @pytest.mark.parametrize("row", range(len(_ROWS)))
    def test_row_is_the_direct_call(self, row):
        assumption, n, tol, direct = _ROWS[row]
        assert bounds.BOUNDS[type(assumption)](assumption, n, tol).to_json() == direct().to_json()

    def test_row_calls_the_module_name(self, monkeypatch):
        calls = []
        real = bounds.bound_vacuum
        monkeypatch.setattr(bounds, "bound_vacuum", lambda n, omega: calls.append((n, omega)) or real(n, omega))
        result = bounds.BOUNDS[Vacuum](Vacuum(omega=0.1), 4, DEFAULT_TOL)
        assert calls == [(4, 0.1)]
        assert result.to_json() == real(4, 0.1).to_json()


class TestWitnesses:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_row_is_defined_and_meets_its_bound(self, n):
        # d > n, d not dividing n, eps = 1 - d/n and omega past (n-1)/n all
        # have a witness: a member, on which the PGM meets the bound
        for d in range(1, n + 3):
            for t in sorted({0.0, 0.05, 0.3, max(0.0, 1.0 - d / n), (n - 1) / n, 0.9, 1.0}):
                points = {Dimension: (n, d), EADimension: (n, min(d, 3)), Vacuum: (n, t),
                          UniformOverlap: (n, t), AlmostDim: (n, d, t), Distrust: (n, d, t)}
                assert set(points) == set(bounds.WITNESSES)
                for cls, point in points.items():
                    found = bounds.WITNESSES[cls](*point)
                    assert found is not None, (cls.kind, point)
                    e, assumption = found
                    assert check_assumption(e, assumption).satisfied, (cls.kind, point)
                    if cls is not EADimension:
                        bound = bounds.BOUNDS[cls](assumption, n, DEFAULT_TOL).pg_bound
                        assert abs(guess_value(e, pgm(e)) - bound) <= 1e-12, (cls.kind, point)

    def test_off_grid_circulant_rows_meet_their_bounds(self):
        # seeded points off every grid: each circulant row is a member, and
        # its states are geometrically uniform, so the PGM attains the bound
        rng = np.random.default_rng(20261020)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            d = int(rng.integers(1, n + 2))
            eps, omega, a = (float(x) for x in rng.uniform(size=3))
            points = {Dimension: (n, d), Vacuum: (n, omega), UniformOverlap: (n, a), AlmostDim: (n, d, eps),
                      Distrust: (n, d, eps)}
            for cls, point in points.items():
                e, assumption = bounds.WITNESSES[cls](*point)
                assert check_assumption(e, assumption).satisfied, (cls.kind, point)
                bound = bounds.BOUNDS[cls](assumption, n, DEFAULT_TOL).pg_bound
                assert abs(guess_value(e, pgm(e)) - bound) <= TIGHT_LIMIT, (cls.kind, point)

    # each refusal used to fail deep inside the construction, with a bare
    # ZeroDivisionError or TypeError, or with circulant_ensemble's message
    @pytest.mark.parametrize(
        ("cls", "point", "message"),
        [
            (AlmostDim, (4, 0, 0.1), "dimension must be >= 1"),
            (Distrust, (4, 0, 0.1), "dimension must be >= 1"),
            (AlmostDim, (0, 2, 0.1), "n must be >= 1, got 0"),
            (AlmostDim, (4, 2.5, 0.1), "d must be an integer, got 2.5"),
            (Vacuum, (3, -0.5), "omega must lie in [0, 1]"),
            (UniformOverlap, (0, 0.5), "n must be >= 1, got 0"),
            (Vacuum, (2.5, 0.1), "n must be an integer, got 2.5"),
        ],
        ids=["almost_dim-d", "distrust-d", "almost_dim-n", "almost_dim-fractional-d", "vacuum-omega",
             "overlap-n", "vacuum-fractional-n"],
    )
    def test_refused_before_it_is_built(self, cls, point, message):
        with pytest.raises(ParamOutOfRangeError, match=f"^{re.escape(message)}$"):
            bounds.WITNESSES[cls](*point)


class TestCoherentCapacity:
    def test_zero_photons(self):
        for n in (2, 3, 8):
            assert coherent_capacity(0.0, n).pg_bound == pytest.approx(
                min(1.0, 2.0 / n), abs=1e-12
            )

    def test_composition(self):
        eps = almost_qubit_epsilon(0.1)
        assert coherent_capacity(0.1, 4).pg_bound == pytest.approx(
            bound_eps(0.5, eps), abs=1e-14
        )

    def test_monotone_in_photon_number(self):
        values = [coherent_capacity(float(x), 8).pg_bound for x in np.linspace(0, 2, 41)]
        assert np.all(np.diff(values) >= -1e-12)

    @pytest.mark.parametrize("nbar", [math.inf, math.nan])
    def test_rejects_non_finite_photon_number(self, nbar):
        with pytest.raises(ParamOutOfRangeError, match="mean photon number must be finite"):
            bounds.coherent_pg([4], nbar)
        with pytest.raises(ParamOutOfRangeError, match="mean photon number must be finite"):
            coherent_capacity(nbar, 4)


class TestFractionalDimension:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: bound_dimension(2.5, 10),
            lambda: bound_ea_dimension(1.5, 10),
            lambda: bound_almost_dim(2.5, 10, 0.1),
            lambda: bound_dimension(math.nan, 10),
        ],
    )
    def test_rejected(self, call):
        # d=2.5 gives pg=0.25, but the recorded qutrit bound would be 0.3
        with pytest.raises(ParamOutOfRangeError, match="d must be an integer"):
            call()

    def test_integer_valued_float_accepted(self):
        res = bound_dimension(3.0, 10)
        assert res.pg_bound == 0.3
        assert res.assumption.d == 3

    def test_raw_formula_takes_averaged_d(self):
        assert bounds.dimension_pg([10], 2.5)[0] == (0.25, Validity.VALID)


# every bound_<kind> that takes n, as a function of n
_BOUNDS_OF_N = {
    "dimension": lambda n: bound_dimension(2, n),
    "ea_dimension": lambda n: bound_ea_dimension(2, n),
    "vacuum": lambda n: bound_vacuum(n, 0.1),
    "overlap": lambda n: bound_overlap(n, 0.3),
    "almost_dim": lambda n: bound_almost_dim(2, n, 0.1),
    "coherent": lambda n: coherent_capacity(0.5, n),
}


# public scalar helpers at a non-finite argument (for coherent_state, also a
# magnitude whose square overflows), which each used to answer with NaN
# (coherent_state with NaN amplitudes; at an infinite phase, a bare math
# domain error)
_NON_FINITE_CALLS = {
    "min_overlap_vacuum-nan": lambda: min_overlap_vacuum(3, math.nan),
    "h_func-nan": lambda: h_func(0.1, math.nan),
    "h_func-inf": lambda: h_func(0.1, math.inf),
    "almost_qubit_epsilon-nan": lambda: almost_qubit_epsilon(math.nan),
    "almost_qubit_epsilon-inf": lambda: almost_qubit_epsilon(math.inf),
    "accessible_information-nan-n": lambda: accessible_information(math.nan, 0.5),
    "coherent_state-nan-magnitude": lambda: coherent_state(math.nan, 0.0, 10),
    "coherent_state-inf-magnitude": lambda: coherent_state(math.inf, 0.0, 10),
    "coherent_state-inf-square": lambda: coherent_state(1e200, 0.0, 10),
    "coherent_state-nan-phase": lambda: coherent_state(1.0, math.nan, 30),
    "coherent_state-inf-phase": lambda: coherent_state(1.0, math.inf, 30),
}


@pytest.mark.parametrize("call", list(_NON_FINITE_CALLS.values()), ids=list(_NON_FINITE_CALLS))
def test_non_finite_scalar_is_a_parameter_error(call):
    # a warning on the way (accessible_information warned of a clamp) fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamOutOfRangeError):
            call()


# counts that must be positive integers: a fraction used to raise a bare
# TypeError or give a number for no count, and zero samples a vacuous pass
_COUNT_CALLS = {
    "max_iter": lambda: optimize_discrimination(basis_ensemble(2, 2), max_iter=2.5),
    "basis_ensemble-d": lambda: basis_ensemble(2.5, 3),
    "dense_coding_ensemble-n": lambda: dense_coding_ensemble(2, 2.5),
    "accessible_information-n": lambda: accessible_information(2.5, 0.5),
    "min_overlap_vacuum-n": lambda: min_overlap_vacuum(3.5, 0.2),
    "coherent_state-cutoff": lambda: coherent_state(1.0, 0.0, 30.5),
    "concavity_probe-samples": lambda: concavity_probe(lambda g: g, lambda rng: 0.5, 0, 0),
}


@pytest.mark.parametrize("call", list(_COUNT_CALLS.values()), ids=list(_COUNT_CALLS))
def test_count_that_is_not_a_positive_integer_is_a_parameter_error(call):
    with pytest.raises(ParamOutOfRangeError):
        call()


class TestIntegerN:
    @pytest.mark.parametrize("n", [math.nan, 4.5])
    @pytest.mark.parametrize("kind", list(_BOUNDS_OF_N))
    def test_rejected(self, kind, n):
        # nan used to give pg_bound 1.0 with nan bits, and 4.5 a bound for
        # 4.5 inputs
        with pytest.raises(ParamOutOfRangeError, match=re.escape(f"n must be an integer, got {n}")):
            _BOUNDS_OF_N[kind](n)

    @pytest.mark.parametrize("kind", list(_BOUNDS_OF_N))
    def test_integer_valued_float_accepted(self, kind):
        res = _BOUNDS_OF_N[kind](4.0)
        assert repr(res) == repr(_BOUNDS_OF_N[kind](4))
        assert type(res.n) is int


class TestRawFormulas:
    @pytest.mark.parametrize(
        "wrapper, formula, args",
        [
            (lambda n, d: bound_dimension(d, n), bounds.dimension_pg, (7, 3)),
            (lambda n, d: bound_ea_dimension(d, n), bounds.ea_dimension_pg, (30, 3)),
            (bound_vacuum, bounds.vacuum_pg, (5, 0.3)),
            (bound_vacuum, bounds.vacuum_pg, (5, 0.9)),
            (bound_overlap, bounds.overlap_pg, (6, 0.2)),
            (lambda n, d, e: bound_almost_dim(d, n, e), bounds.almost_dim_pg, (9, 2, 0.05)),
            (lambda n, nb: coherent_capacity(nb, n), bounds.coherent_pg, (8, 0.7)),
        ],
    )
    def test_wrapper_is_the_clamped_formula(self, wrapper, formula, args):
        res = wrapper(*args)
        [(pg, validity)] = formula([args[0]], *args[1:])
        assert (res.pg_bound, res.info_bits) == bounds.clamp([pg], [args[0]])[0]
        assert res.validity is validity

    @pytest.mark.parametrize("pg", [math.nan, math.inf, -math.inf])
    def test_clamp_rejects_non_finite(self, pg):
        # min(1, max(1/n, nan)) would report the unsound bound 1/n
        with pytest.raises(NonFiniteError):
            bounds.clamp([pg], [4])


# seeded column draws: n (or pg0) values at and past every row check, and
# parameter values in range, out of range and nan
_HUGE = 10**400
_N_POOL = [-2, 0, 1, 2, 3, 4, 7, 30, 20000, 2**600, _HUGE]
_PG0_POOL = [-0.1, 0.0, 0.25, 0.5, 0.9, 1.0, 1.2, math.nan]
_FORMULA_PARAMS = {
    "dimension_pg": [[0, 1, 2, 2.5, 3, 500, _HUGE, math.nan]],
    "ea_dimension_pg": [[0, 1, 2, 2.5, 3, 10**200, math.nan]],
    "vacuum_pg": [[-0.1, 0.0, 0.3, 0.75, 0.9, 1.0, 1.5, math.nan]],
    "overlap_pg": [[-0.5, 0.0, 0.2, 1.0, 2.0, math.nan]],
    "almost_dim_pg": [[0, 1, 2, 2.5, 500, _HUGE, math.nan], [-0.1, 0.0, 0.05, 0.5, 1.0, 1.5, math.nan]],
    "coherent_pg": [[-1.0, 0.0, 0.7, 5.0, math.inf, math.nan]],
    "deviation_pg": [[-0.1, 0.0, 0.05, 0.5, 1.0, 1.5, math.nan]],
}


def _row_by_row(call, firsts):
    """The rows of one-element calls, in order; raises what the first
    failing row raises."""
    return [row for first in firsts for row in call([first])]


def _same_outcome(call, firsts):
    """``call`` on the column ``firsts`` returns what its one-element calls
    return, bit for bit, or raises the first failing row's exception."""
    try:
        expected = _row_by_row(call, firsts)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            call(firsts)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return False
    # repr is exact for floats and, unlike ==, tells -0.0 from 0.0 and matches nan
    assert repr(call(firsts)) == repr(expected)
    return True


class TestColumns:
    @pytest.mark.parametrize("name", list(_FORMULA_PARAMS))
    def test_column_is_its_rows(self, name):
        formula = getattr(bounds, name)
        pool = _PG0_POOL if name == "deviation_pg" else _N_POOL
        rng = np.random.default_rng(7)
        passed = failed = 0
        for _ in range(300):
            params = [values[rng.integers(len(values))] for values in _FORMULA_PARAMS[name]]
            firsts = [pool[i] for i in rng.integers(len(pool), size=rng.integers(0, 7))]
            if _same_outcome(lambda column: formula(column, *params), firsts):
                passed += 1
            else:
                failed += 1
        # the draws reach both outcomes often
        assert passed > 30 and failed > 30

    def test_empty_column_has_no_rows(self):
        # no row fails, even at parameters every row would fail on
        assert bounds.vacuum_pg([], 2.0) == []
        assert bounds.clamp([], []) == []

    def test_clamp_column_is_its_rows(self):
        rng = np.random.default_rng(8)
        pool = [0.0, 0.1, 0.5, 1.0, 3.0, -1.0, math.nan, math.inf, -math.inf]
        outcomes = set()
        for _ in range(300):
            rows = rng.integers(0, 7)
            pgs = [pool[i] for i in rng.integers(len(pool), size=rows)]
            ns = [int(n) for n in rng.integers(1, 9, size=rows)]
            # one-element calls of the clamp take the row's n with its pg
            call = lambda column: bounds.clamp([pg for pg, _ in column], [n for _, n in column])
            outcomes.add(_same_outcome(call, list(zip(pgs, ns))))
        assert outcomes == {True, False}


class TestBoundResultInvariants:
    @pytest.mark.parametrize(
        "res",
        [
            bound_dimension(2, 4),
            bound_ea_dimension(2, 8),
            bound_overlap(4, 0.3),
            bound_vacuum(4, 0.2),
            bound_almost_dim(2, 5, 0.1),
            coherent_capacity(0.3, 6),
        ],
    )
    def test_info_consistent_with_pg(self, res):
        assert res.info_bits == pytest.approx(
            math.log2(res.n) + math.log2(res.pg_bound), abs=1e-12
        )
        assert 1.0 / res.n <= res.pg_bound <= 1.0
