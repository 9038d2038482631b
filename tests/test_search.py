import tracemalloc

import numpy as np
import pytest

from infocap import (
    AlmostDim,
    Dimension,
    Distrust,
    UniformOverlap,
    Vacuum,
    search,
    tightness_search,
)
from infocap.bounds import WITNESSES
from infocap.checks import random_unit
from infocap.ensembles import check_assumption, ensemble_from_vectors, equal_overlap_gram
from infocap.errors import ParamOutOfRangeError


class TestSeeds:
    @pytest.mark.parametrize(
        ("assumption", "point"),
        [(Vacuum(omega=0.3), (4, 0.3)), (Vacuum(omega=0.9), (3, 0.9)),
         (UniformOverlap(a=0.4), (3, 0.4)), (AlmostDim(d=2, eps=0.05), (4, 2, 0.05)),
         (AlmostDim(d=3, eps=0.1), (5, 3, 0.1))],
        ids=["vacuum", "vacuum_past_bound", "overlap", "almost_dim", "almost_dim_uneven"],
    )
    def test_restart_zero_is_the_witness(self, assumption, point):
        make_seed, _ = search.SEARCHES[type(assumption)]
        first = ensemble_from_vectors(make_seed(assumption, point[0])[0])
        witness, _ = WITNESSES[type(assumption)](*point)
        np.testing.assert_allclose(first.states, witness.states, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2, 0.6])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_almost_dim_restart_zero_meets_the_bound(self, n, eps):
        # the circulant witness saturates the bound whether or not d divides n
        report = tightness_search(AlmostDim(d=2, eps=eps), n, restarts=1)
        assert abs(report.restarts[0].value - report.bound.pg_bound) <= 1e-12


class TestVacuumSearch:
    def test_seed_saturates(self):
        report = tightness_search(Vacuum(omega=0.2), n=3, restarts=4, seed=0)
        assert report.gap <= 1e-6
        assert report.restarts[0].feasible

    def test_perturbed_candidates_stay_feasible_and_below_bound(self):
        report = tightness_search(Vacuum(omega=0.3), n=4, restarts=6, seed=1)
        for outcome in report.restarts:
            if outcome.feasible:
                assert outcome.value <= report.bound.pg_bound + 1e-6


class TestOverlapSearch:
    def test_seed_saturates(self):
        report = tightness_search(UniformOverlap(a=0.4), n=3, restarts=4, seed=0)
        assert report.gap <= 1e-8

    # the restarts of the 16 that are members, at n = 4 and seed 0
    @pytest.mark.parametrize(("a", "members"), [(0.3, 2), (0.6, 3), (0.9, 1)])
    def test_only_members_reach_the_oracle(self, monkeypatch, a, members):
        solved = []
        solve = search.optimize_discrimination

        def spy(e, **kwargs):
            solved.append(e)
            return solve(e, **kwargs)

        monkeypatch.setattr(search, "optimize_discrimination", spy)
        report = tightness_search(UniformOverlap(a=a), 4, restarts=16, seed=0)
        assert len(solved) == sum(r.feasible for r in report.restarts) == members
        assert all(r.value == 0.0 and not r.converged for r in report.restarts if not r.feasible)
        assert report.best_value == report.restarts[0].value
        # a perturbed restart is solved as drawn, never as the seed again
        seed_overlaps = equal_overlap_gram(4, a) ** 2
        for e in solved[1:]:
            assert check_assumption(e, UniformOverlap(a=a)).satisfied
            overlaps = np.einsum("xij,yji->xy", e.states, e.states).real
            assert not np.allclose(overlaps, seed_overlaps, rtol=0, atol=1e-9)


class TestAlmostDimSearch:
    def test_balanced_case_is_tight(self):
        report = tightness_search(AlmostDim(d=2, eps=0.05), n=4, restarts=4, seed=0)
        assert report.gap <= 1e-3

    def test_gap_nonnegative(self):
        report = tightness_search(AlmostDim(d=2, eps=0.2), n=5, restarts=4, seed=0)
        assert report.gap >= -1e-8


class TestDistrustSearch:
    def test_reports_honest_gap(self, rng):
        targets = np.stack([random_unit(rng, 2) for _ in range(3)])
        report = tightness_search(Distrust(targets=targets, eps=0.1), restarts=4, seed=0)
        assert report.gap >= -1e-8
        assert any(o.feasible for o in report.restarts)


class TestOptions:
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_restarts_below_one(self, restarts):
        with pytest.raises(ParamOutOfRangeError, match="restarts must be >= 1"):
            tightness_search(Vacuum(omega=0.2), n=3, restarts=restarts)

    def test_rejects_negative_seed(self):
        with pytest.raises(ParamOutOfRangeError, match=r"^seed must be >= 0, got -1$"):
            tightness_search(Vacuum(omega=0.1), n=3, restarts=2, seed=-1)

    @pytest.mark.parametrize("assumption", [Vacuum(omega=0.2), UniformOverlap(a=0.4), AlmostDim(d=2, eps=0.1)])
    def test_requires_n(self, assumption):
        with pytest.raises(ParamOutOfRangeError, match="search needs n"):
            tightness_search(assumption, restarts=1)

    def test_distrust_n_must_be_the_target_count(self, rng):
        a = Distrust(targets=np.stack([random_unit(rng, 2) for _ in range(3)]), eps=0.1)
        with pytest.raises(ParamOutOfRangeError, match="n must equal the 3 targets"):
            tightness_search(a, 99, restarts=1)
        assert tightness_search(a, 3, restarts=1).n == 3


def _qubit_targets(count):
    angles = np.linspace(0.0, np.pi, count, endpoint=False)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(complex)


class TestStateStack:
    @pytest.mark.parametrize(
        ("assumption", "n", "message"),
        [
            # 1 000 states of dimension 1 000 take 14.9 GiB
            (Vacuum(omega=0.1), 1000,
             "kind vacuum with n=1000 needs 1000 states of dimension 1000 (16000000000 bytes),"
             " over the limit of 268435456 bytes"),
            # 2 000 qubit targets give 2 000 states of dimension 2 002, 119 GiB
            (Distrust(targets=_qubit_targets(2000), eps=0.1), None,
             "kind distrust with n=2000 needs 2000 states of dimension 2002 (128256128000 bytes),"
             " over the limit of 268435456 bytes"),
        ],
        ids=["vacuum", "distrust"],
    )
    def test_over_limit_refused_before_it_is_built(self, assumption, n, message):
        tracemalloc.start()
        try:
            with pytest.raises(ParamOutOfRangeError) as info:
                tightness_search(assumption, n, restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 2**20

    @pytest.mark.parametrize(
        "call", [search.check_state_stack, lambda a, n: tightness_search(a, n, restarts=1)],
        ids=["check_state_stack", "tightness_search"],
    )
    def test_kind_without_search_refused(self, call):
        # dimension has a bound and a witness, but no search row
        with pytest.raises(ParamOutOfRangeError) as info:
            call(Dimension(d=2), 4)
        assert str(info.value) == f"search does not support assumption {Dimension(d=2)!r}"


# two parameter points per kind: the assumption on n inputs, and the
# parameters of its witness, which `sweep --with-oracle` builds (if any)
_STACK_CASES = [
    (lambda n: Vacuum(omega=0.1), (0.1,)),
    (lambda n: Vacuum(omega=0.4), (0.4,)),
    (lambda n: UniformOverlap(a=0.2), (0.2,)),
    (lambda n: UniformOverlap(a=0.8), (0.8,)),
    (lambda n: AlmostDim(d=2, eps=0.1), (2, 0.1)),
    (lambda n: AlmostDim(d=5, eps=0.3), (5, 0.3)),
    (lambda n: Distrust(targets=_qubit_targets(n), eps=0.1), None),
    (lambda n: Distrust(targets=np.eye(3, dtype=complex)[np.arange(n) % 3], eps=0.3), None),
]


class TestStateDims:
    def test_every_search_kind_covered(self):
        assert {type(case(2)) for case, _ in _STACK_CASES} == set(search.SEARCHES)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("case", range(len(_STACK_CASES)))
    def test_declared_dim_covers_what_is_built(self, case, n):
        build, params = _STACK_CASES[case]
        a = build(n)
        make_seed, state_dim = search.SEARCHES[type(a)]
        declared = state_dim(a, n)
        assert declared >= make_seed(a, n)[0].shape[1]
        if params is not None:
            assert declared >= WITNESSES[type(a)](n, *params)[0].dim


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = tightness_search(AlmostDim(d=2, eps=0.1), n=4, restarts=5, seed=9)
        b = tightness_search(AlmostDim(d=2, eps=0.1), n=4, restarts=5, seed=9)
        assert a.best_value == b.best_value
        assert [o.value for o in a.restarts] == [o.value for o in b.restarts]


class TestAnchoredRestarts:
    # the search rescales each perturbed state onto the floor of the anchor
    # that check_assumption reads, so every one is a member on its boundary
    @pytest.mark.parametrize(
        ("assumption", "n"),
        [(Vacuum(omega=0.0), 3), (Vacuum(omega=0.3), 4), (Vacuum(omega=0.9), 3),
         (AlmostDim(d=2, eps=0.1), 4), (AlmostDim(d=3, eps=0.2), 5),
         (Distrust(targets=_qubit_targets(3), eps=0.1), 3)],
        ids=["vacuum_zero", "vacuum", "vacuum_past_bound", "almost_dim", "almost_dim_uneven", "distrust"],
    )
    def test_perturbed_restarts_sit_on_the_floor(self, monkeypatch, assumption, n):
        for rep in self._perturbed_reports(monkeypatch, assumption, n):
            assert rep.satisfied and abs(rep.worst_slack) <= 1e-12, rep

    def test_full_rank_anchor_keeps_all_weight_inside(self, monkeypatch):
        # at d >= n the almost-dim anchor is the identity, with no complement
        # to take weight: each perturbed state keeps weight 1, eps above its floor
        for rep in self._perturbed_reports(monkeypatch, AlmostDim(d=4, eps=0.1), 3):
            assert rep.satisfied and abs(rep.worst_slack - 0.1) <= 1e-12, rep

    @staticmethod
    def _perturbed_reports(monkeypatch, assumption, n):
        """The membership reports of a 9-restart search's perturbed
        restarts, all of which it must find feasible."""
        reports = []

        def spy(e, a, **kwargs):
            reports.append(check_assumption(e, a, **kwargs))
            return reports[-1]

        monkeypatch.setattr(search, "check_assumption", spy)
        report = tightness_search(assumption, n, restarts=9, seed=2)
        assert len(reports) == 9
        assert all(r.feasible for r in report.restarts)
        return reports[1:]
