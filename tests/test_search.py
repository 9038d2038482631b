import numpy as np
import pytest

from infocap import AlmostDim, Distrust, UniformOverlap, Vacuum, tightness_search
from infocap.checks import random_unit
from infocap.errors import ParamOutOfRangeError
from infocap.search import almost_dim_seed


class TestSeeds:
    def test_almost_dim_seed_is_orthogonal_sector_sum(self):
        vecs, proj = almost_dim_seed(2, 4, 0.1)
        assert abs(np.trace(proj).real - 2.0) <= 1e-10
        weights = np.einsum("xi,ij,xj->x", vecs.conj(), proj, vecs).real
        np.testing.assert_allclose(weights, 0.9, atol=1e-10)
        # states are grouped block-wise: 0,1 share a sector, 2,3 the other;
        # cross-sector pairs are orthogonal, within-sector pairs sit at the
        # minimal cone overlap 1 - m*eps/(m-1)
        assert abs(np.vdot(vecs[0], vecs[2])) <= 1e-10
        assert abs(np.vdot(vecs[0], vecs[1])) == pytest.approx(0.8, abs=1e-10)


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

    @pytest.mark.parametrize("assumption", [Vacuum(omega=0.2), UniformOverlap(a=0.4), AlmostDim(d=2, eps=0.1)])
    def test_requires_n(self, assumption):
        with pytest.raises(ParamOutOfRangeError, match="search needs n"):
            tightness_search(assumption, restarts=1)

    def test_distrust_n_must_be_the_target_count(self, rng):
        a = Distrust(targets=np.stack([random_unit(rng, 2) for _ in range(3)]), eps=0.1)
        with pytest.raises(ParamOutOfRangeError, match="n must equal the 3 targets"):
            tightness_search(a, 99, restarts=1)
        assert tightness_search(a, 3, restarts=1).n == 3


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = tightness_search(AlmostDim(d=2, eps=0.1), n=4, restarts=5, seed=9)
        b = tightness_search(AlmostDim(d=2, eps=0.1), n=4, restarts=5, seed=9)
        assert a.best_value == b.best_value
        assert [o.value for o in a.restarts] == [o.value for o in b.restarts]
