import math

import numpy as np
import pytest

from infocap import (
    Dimension,
    Information,
    SRStrategy,
    Vacuum,
    averaged_log_pg,
    basis_ensemble,
    bound_ea_dimension,
    bound_eps,
    bound_overlap,
    bound_vacuum,
    check_average,
    concavity_probe,
    ea_average_counterexample,
    embed_cq,
    ensemble_from_vectors,
    mixture_guess_value,
    optimize_discrimination,
    strategy_from_json,
    strategy_to_json,
)
from infocap import checks
from infocap.bounds import WITNESSES
from infocap.errors import InfocapError, NonScalarParameterError, ParamOutOfRangeError

from conftest import equiangular, random_pure_ensemble


def single_branch(e, gamma=None):
    return SRStrategy(branches=((1.0, e, gamma or Information(alpha=1.0)),))


class TestStrategyValidation:
    def test_weights_must_sum_to_one(self):
        e = basis_ensemble(2, 2)
        with pytest.raises(InfocapError):
            SRStrategy(branches=((0.6, e, Dimension(d=2)), (0.6, e, Dimension(d=2))))

    def test_branch_n_must_match(self):
        with pytest.raises(InfocapError):
            SRStrategy(
                branches=(
                    (0.5, basis_ensemble(2, 2), Dimension(d=2)),
                    (0.5, basis_ensemble(2, 3), Dimension(d=2)),
                )
            )

    def test_nan_weight_is_refused(self):
        e = basis_ensemble(2, 2)
        with pytest.raises(InfocapError, match="branch weights must be finite"):
            SRStrategy(branches=((math.nan, e, Dimension(d=2)),))

    def test_kinds_must_match(self):
        e = basis_ensemble(2, 2)
        with pytest.raises(InfocapError):
            SRStrategy(branches=((0.5, e, Dimension(d=2)), (0.5, e, Vacuum(omega=0.1))))


class TestMixtureValue:
    def test_single_branch_is_plain_oracle(self):
        e = equiangular(2, 0.6)
        assert mixture_guess_value(single_branch(e)) == pytest.approx(0.9, abs=1e-8)

    def test_two_identical_branches(self):
        e = equiangular(3, 0.3)
        s = SRStrategy(
            branches=(
                (0.5, e, Information(alpha=2.0)),
                (0.5, e, Information(alpha=2.0)),
            )
        )
        assert mixture_guess_value(s) == pytest.approx(
            mixture_guess_value(single_branch(e)), abs=1e-9
        )


class TestEmbedding:
    def test_single_branch_preserves_value(self):
        e = equiangular(3, 0.4)
        embedded = embed_cq(single_branch(e))
        a = optimize_discrimination(e).value
        b = optimize_discrimination(embedded).value
        assert abs(a - b) <= 1e-8

    def test_two_basis_branches_give_unit_value(self):
        s = SRStrategy(
            branches=(
                (0.5, basis_ensemble(2, 2), Dimension(d=2)),
                (0.5, basis_ensemble(2, 2), Dimension(d=2)),
            )
        )
        assert optimize_discrimination(embed_cq(s)).value == pytest.approx(1.0, abs=1e-9)

    def test_embedded_states_are_block_mixtures(self):
        e1 = basis_ensemble(2, 2)
        e2 = equiangular(2, 0.5)
        s = SRStrategy(
            branches=((0.3, e1, Information(alpha=1.0)), (0.7, e2, Information(alpha=1.0)))
        )
        embedded = embed_cq(s)
        assert embedded.dim == e1.dim + e2.dim
        np.testing.assert_allclose(embedded.states[0][:2, :2], 0.3 * e1.states[0], atol=1e-14)
        np.testing.assert_allclose(embedded.states[0][2:, 2:], 0.7 * e2.states[0], atol=1e-14)

    def test_random_strategies_preserve_value(self, rng):
        for _ in range(5):
            branches = []
            raw = rng.uniform(0.2, 1.0, size=2)
            weights = raw / raw.sum()
            for b in range(2):
                e = random_pure_ensemble(rng, 3, int(rng.integers(2, 4)))
                branches.append((float(weights[b]), e, Information(alpha=1.0)))
            s = SRStrategy(tuple(branches))
            mixture = mixture_guess_value(s, tol=1e-11)
            embedded = optimize_discrimination(embed_cq(s), tol=1e-11).value
            assert abs(mixture - embedded) <= 1e-6


class TestPeakAndAverage:
    def test_average_vacuum(self):
        built = [WITNESSES[Vacuum](3, w) for w in (0.05, 0.15)]
        s = SRStrategy(
            branches=(
                (0.5, built[0][0], Vacuum(omega=0.05)),
                (0.5, built[1][0], Vacuum(omega=0.15)),
            )
        )
        assert check_average(s, 0.1).satisfied

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_is_a_parameter_error(self, target):
        # a NaN average slack came last, where the report's min never saw it,
        # so a NaN target was reported satisfied
        built = [WITNESSES[Vacuum](3, w) for w in (0.05, 0.15)]
        s = SRStrategy(branches=tuple((0.5, e, g) for e, g in built))
        with pytest.raises(ParamOutOfRangeError, match="gamma_target must be finite"):
            check_average(s, target)

    def test_average_dimension_mixed_branches(self):
        s = SRStrategy(
            branches=(
                (2.0 / 3.0, basis_ensemble(2, 6), Dimension(d=2)),
                (1.0 / 3.0, basis_ensemble(5, 6), Dimension(d=5)),
            )
        )
        assert check_average(s, 3.0).satisfied
        assert not check_average(s, 2.9).satisfied

    def test_average_distrust_requires_fixed_targets(self, rng):
        from infocap import Distrust

        t1 = random_pure_ensemble(rng, 2, 2).state_vectors()
        t2 = random_pure_ensemble(rng, 2, 2).state_vectors()
        s = SRStrategy(
            branches=(
                (0.5, ensemble_from_vectors(t1), Distrust(targets=t1, eps=0.1)),
                (0.5, ensemble_from_vectors(t2), Distrust(targets=t2, eps=0.1)),
            )
        )
        with pytest.raises(NonScalarParameterError):
            check_average(s, 0.1)


class TestCounterexample:
    def test_reference_values(self):
        peak, average = ea_average_counterexample(tol=1e-9)
        assert peak == pytest.approx(0.3, abs=1e-6)
        assert average == pytest.approx(11.0 / 30.0, abs=1e-6)
        assert average > bound_ea_dimension(3, 30).pg_bound
        assert average - peak >= 2.0 / 30.0 - 1e-6


def _uniform(rng):
    return rng.uniform(0.0, 1.0)


# each probed bound as a function of its averaged parameter, and a sampler
# of that parameter, at the fixed parameters ``kwargs``
_PROBED = {
    "vacuum": lambda n: (lambda w: bound_vacuum(n, w).pg_bound, _uniform),
    "overlap": lambda n: (lambda a: bound_overlap(n, a).pg_bound, _uniform),
    "eps": lambda pg0: (lambda eps: bound_eps(pg0, eps), _uniform),
    "almost_dim": lambda n: (
        lambda g: bound_eps(min(1.0, g[0] / n), g[1]),
        lambda rng: np.array([rng.uniform(1.0, n), rng.uniform(0.0, 1.0)]),
    ),
}


class TestConcavityProbe:
    @pytest.mark.parametrize(
        "bound_id,kwargs",
        [
            ("vacuum", {"n": 4}),
            ("overlap", {"n": 4}),
            ("eps", {"pg0": 0.5}),
            ("almost_dim", {"n": 5}),
        ],
    )
    def test_bound_functions_pass(self, bound_id, kwargs):
        f, draw = _PROBED[bound_id](**kwargs)
        report = concavity_probe(f, draw, samples=200, seed=5)
        assert report.passed
        assert report.min_margin >= -1e-10

    def test_negative_control_reports_failures(self):
        report = concavity_probe(lambda x: x**2, _uniform, samples=200, seed=5)
        assert not report.passed
        assert report.failures > 0

    def test_non_finite_margin_is_a_failure(self):
        report = concavity_probe(lambda g: math.nan, _uniform, samples=50, seed=0)
        assert not report.passed
        assert report.failures == 50

    @pytest.mark.parametrize("nan_samples", [{0}, {4}, {0, 1, 2, 3, 4}], ids=["first", "last", "all"])
    def test_nan_margin_makes_min_margin_nan(self, nan_samples):
        # min(inf, nan) is inf and min(x, nan) is x, so a plain min would
        # hide the NaN margins behind a finite or infinite minimum
        calls = []

        def f(g):
            calls.append(g)
            # f is called three times per sample
            return math.nan if (len(calls) - 1) // 3 in nan_samples else -g * g

        report = concavity_probe(f, _uniform, samples=5, seed=0)
        assert report.failures == len(nan_samples)
        assert math.isnan(report.min_margin)

    def test_reference_probes_pinned(self):
        # repr of min_margin and the failure count of the four probes that
        # concavity_and_average_sr runs, as the probe computed them when it
        # still dispatched on a kind string
        pinned = {
            "vacuum": ("0.0", 0),
            "overlap": ("2.0461565775065083e-09", 0),
            "eps": ("0.0", 0),
            "almost_dim": ("0.0", 0),
        }
        found = {}
        for label, seed, f, draw in checks._CONCAVITY_PROBES:
            report = concavity_probe(f, draw, 1000, seed)
            found[label] = (repr(report.min_margin), report.failures)
        assert found == pinned


class TestAveragedLogPg:
    def test_single_branch_matches_information(self):
        e = equiangular(2, 0.6)
        value = averaged_log_pg(single_branch(e))
        assert value == pytest.approx(1.0 + math.log2(0.9), abs=1e-7)


class TestJson:
    def test_strategy_roundtrip(self):
        s = SRStrategy(
            branches=(
                (0.25, basis_ensemble(2, 3), Dimension(d=2)),
                (0.75, basis_ensemble(3, 3), Dimension(d=3)),
            )
        )
        back = strategy_from_json(strategy_to_json(s))
        assert back.n == s.n
        assert back.kind == "dimension"
        np.testing.assert_allclose(back.branches[0][1].states, s.branches[0][1].states)
