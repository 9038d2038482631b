"""Negative controls: a bound made unsound must fail a registered check that
names its kind.  Each control patches the library from here, for one test."""

import collections
import dataclasses
import re
from pathlib import Path

import pytest

from infocap import bounds
from infocap.checks import CHECK_NAMES, run_check

_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# each witness-table row: its saturation check, the bound function the
# check evaluates, and the kind its detail names
_ROWS = [
    ("dimension_saturation", "bound_dimension", "dimension"),
    ("ea_dimension_saturation", "bound_ea_dimension", "ea_dimension"),
    ("overlap_pgm_closed_form", "bound_overlap", "uniform_overlap"),
    ("vacuum_saturation", "bound_vacuum", "vacuum"),
    ("almost_dim_saturation", "bound_almost_dim", "almost_dim"),
    ("distrust_saturation", "bound_distrust", "distrust"),
]


def test_every_witness_has_a_saturation_check():
    assert {kind for _, _, kind in _ROWS} == {cls.kind for cls in bounds.WITNESSES}


def test_ci_runs_every_check_once():
    # the workflow's `paper-numbers --only` lines, read as text, name each
    # registered check exactly once, so a new check must join one of them
    lines = re.findall(r"^\s*infocap paper-numbers --only (\S+)\s*$", _WORKFLOW.read_text(), re.MULTILINE)
    named = collections.Counter(name for line in lines for name in line.split(","))
    assert named == collections.Counter(CHECK_NAMES)


@pytest.mark.parametrize(("check", "bound", "kind"), _ROWS, ids=[r[0] for r in _ROWS])
def test_bound_lowered_by_1e4_fails_its_row(monkeypatch, check, bound, kind):
    # a relative 1e-7 is far below the old two-sided limits of 1e-6 and
    # 1e-8, and far above the soundness slack
    original = getattr(bounds, bound)
    for lowering in (1e-4, 1e-7):

        def lowered(*args, **kwargs):
            result = original(*args, **kwargs)
            return dataclasses.replace(result, pg_bound=result.pg_bound * (1.0 - lowering))

        monkeypatch.setattr(bounds, bound, lowered)
        result = run_check(check)
        assert not result.passed, (lowering, result.detail)
        assert result.detail.startswith(f"{kind}: ")


def test_almost_dim_lowered_only_where_d_does_not_divide_n_fails(monkeypatch):
    # the saturation grid has points where d does not divide n
    original = bounds.bound_almost_dim

    def lowered(d, n, eps):
        result = original(d, n, eps)
        if n % d == 0:
            return result
        return dataclasses.replace(result, pg_bound=result.pg_bound * (1.0 - 1e-4))

    monkeypatch.setattr(bounds, "bound_almost_dim", lowered)
    result = run_check("almost_dim_saturation")
    assert not result.passed, result.detail
    assert result.detail.startswith("almost_dim: ")


@pytest.mark.parametrize("check", ["almost_dim_saturation", "almost_dim_tightness_search"])
def test_almost_dim_half_percent_low_fails(monkeypatch, check):
    original = bounds.almost_dim_pg

    def low(ns, d, eps):
        return [(pg * 0.995 if d >= 2 else pg, v) for pg, v in original(ns, d, eps)]

    monkeypatch.setattr(bounds, "almost_dim_pg", low)
    result = run_check(check)
    assert not result.passed, result.detail
    assert result.detail.startswith("almost_dim: ")


def test_targets_value_two_permille_low_fails(monkeypatch):
    original = bounds.targets_value
    monkeypatch.setattr(bounds, "targets_value", lambda targets, tol=1e-10: 0.998 * original(targets, tol))
    result = run_check("distrust_saturation")
    assert not result.passed, result.detail
    assert result.detail.startswith("distrust: ")


def test_dimension_lowered_by_1e7_fails_the_soundness_sweep(monkeypatch):
    # a dimension member at its bound has a certificate above the lowered
    # bound, so the sweep solves it and the oracle's value exceeds the
    # soundness slack
    original = bounds.bound_dimension

    def lowered(d, n):
        result = original(d, n)
        return dataclasses.replace(result, pg_bound=result.pg_bound * (1.0 - 1e-7))

    monkeypatch.setattr(bounds, "bound_dimension", lowered)
    result = run_check("soundness_sweep")
    assert not result.passed, result.detail
    assert result.detail.startswith("dimension: ")
