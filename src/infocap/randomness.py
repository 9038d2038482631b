"""Shared-randomness strategies.

A strategy is a weighted family of ensembles, one per value of the shared
random variable; the receiver conditions on that value.  The assumption on
the source can be required per branch (peak: every branch is a member) or
only on the branch average (average, ``check_average``).  Embedding the
branch label into a classical register turns any strategy into a single
ensemble with the same guessing probability, which is why
information-style restrictions are insensitive to shared randomness.  The
entanglement-assisted dimension is the one assumption whose bound fails
under averaging; ``ea_average_counterexample`` builds the explicit
witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import bounds
from .discrimination import DEFAULT_TOL, optimize_discrimination
from .ensembles import (
    Assumption,
    EADimension,
    MembershipReport,
    StateEnsemble,
    assumption_from_json,
    assumption_to_json,
    check_assumption,
    check_integer,
    ensemble_from_json,
    ensemble_to_json,
    slack_report,
)
from .errors import InfocapError, NonScalarParameterError, ParamOutOfRangeError
from .serialize import json_float, json_object

WEIGHT_TOL = 1e-12
AVERAGE_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class SRStrategy:
    """Branches (weight, ensemble, branch assumption) of one shared-randomness
    strategy.  Weights are finite and nonnegative and sum to 1; all
    branches share n and assumption kind."""

    branches: tuple[tuple[float, StateEnsemble, Assumption], ...]

    def __post_init__(self):
        if not self.branches:
            raise InfocapError("a strategy needs at least one branch")
        total = sum(q for q, _, _ in self.branches)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InfocapError(f"branch weights sum to {total}, expected 1")
        # a NaN weight passes the sum check, so this one must catch it
        if not all(0 <= q < math.inf for q, _, _ in self.branches):
            raise InfocapError("branch weights must be finite and nonnegative")
        n0 = self.branches[0][1].n
        if any(e.n != n0 for _, e, _ in self.branches):
            raise InfocapError("all branches must share the number of inputs n")
        kind0 = self.branches[0][2].kind
        if any(g.kind != kind0 for _, _, g in self.branches):
            raise InfocapError("all branch assumptions must share one kind")

    @property
    def n(self) -> int:
        return self.branches[0][1].n

    @property
    def kind(self) -> str:
        return self.branches[0][2].kind


def branch_values(s: SRStrategy, tol: float = DEFAULT_TOL) -> list[float]:
    """The optimal guessing value Pg(branch_l) of each branch, in order."""
    return [optimize_discrimination(e, tol=tol).value for _, e, _ in s.branches]


def mixture_guess_value(s: SRStrategy, tol: float = DEFAULT_TOL, values: list[float] | None = None) -> float:
    """Weighted branch-wise optimal guessing value: the receiver knows the
    branch, so the strategy value is sum_l q_l Pg(branch_l).  ``values``
    are the branch values if already solved, else branch_values(s, tol)."""
    values = branch_values(s, tol) if values is None else values
    return float(sum(q * v for (q, _, _), v in zip(s.branches, values)))


def embed_cq(s: SRStrategy) -> StateEnsemble:
    """Fold the shared randomness into the emitted states.

    Input x is mapped to the block-diagonal state  sum_l q_l |l><l| (x)
    rho_x^l, whose guessing probability equals the strategy's mixture
    value.
    """
    dims = [e.dim for _, e, _ in s.branches]
    total = sum(dims)
    n = s.n
    states = np.zeros((n, total, total), dtype=complex)
    offset = 0
    for (q, e, _), d in zip(s.branches, dims):
        states[:, offset : offset + d, offset : offset + d] = q * e.states
        offset += d
    return StateEnsemble(states)


def scalar_param(a: Assumption) -> float:
    """The scalar knob of an assumption, used for branch averaging."""
    return float(getattr(a, a.param))


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.allclose(a, b, atol=1e-12)
    return a == b


def check_average(s: SRStrategy, gamma_target: float) -> MembershipReport:
    """Average semantics: each branch satisfies its own parameter and the
    weighted parameters respect the target.

    For every kind but the overlap a larger parameter is a weaker
    constraint, so the branch average must not exceed the target; the
    overlap works the other way (a larger required overlap is stronger)
    and the average must not fall below it.  The kind's shared fields
    (distrust targets, almost-dimension d) must agree across branches.
    A non-finite ``gamma_target`` raises ParamOutOfRangeError.
    """
    if not math.isfinite(gamma_target):
        # a NaN slack after a number would never be the report's minimum
        raise ParamOutOfRangeError(f"gamma_target must be finite, got {gamma_target}")
    first = s.branches[0][2]
    for key in first.shared_fields:
        ref = getattr(first, key)
        if any(not _same_value(getattr(g, key), ref) for _, _, g in s.branches[1:]):
            raise NonScalarParameterError(f"averaging {first.kind} branches requires a fixed {key}")
    slacks = [check_assumption(e, g).worst_slack for _, e, g in s.branches]
    avg = sum(q * scalar_param(g) for q, _, g in s.branches)
    avg_slack = gamma_target - avg if first.larger_is_weaker else avg - gamma_target
    slacks.append(float(avg_slack + AVERAGE_SLACK))
    return slack_report(slacks)


def averaged_log_pg(s: SRStrategy, tol: float = DEFAULT_TOL, values: list[float] | None = None) -> float:
    """Alternative accounting that averages the log of the branch guessing
    values: log2(n) + sum_l q_l log2 Pg(branch_l), with ``values`` as in
    mixture_guess_value.  Read-only; it carries no membership semantics."""
    total = 0.0
    for (q, e, _), value in zip(s.branches, branch_values(s, tol) if values is None else values):
        total += q * np.log2(max(value, 1.0 / e.n))
    return float(np.log2(s.n) + total)


def ea_average_counterexample(tol: float = 1e-9) -> tuple[float, float]:
    """Average-parameter strategies beat the entanglement-assisted bound.

    With n = 30: a single qutrit dense-coding branch reaches 9/30, while
    mixing qubit dense coding (weight 2/3) with 5-dimensional dense coding
    (weight 1/3) keeps the average message dimension at 3 but reaches
    11/30.  Returns (peak_value, average_value).
    """
    n, witness = 30, bounds.WITNESSES[EADimension]
    peak = optimize_discrimination(witness(n, 3)[0], tol=tol).value
    branches = tuple((q, *witness(n, d)) for q, d in ((2.0 / 3.0, 2), (1.0 / 3.0, 5)))
    average = mixture_guess_value(SRStrategy(branches), tol=tol)
    return float(peak), float(average)


@dataclass(frozen=True)
class ConcavityReport:
    failures: int
    min_margin: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


_CONCAVITY_SLACK = 1e-10


def concavity_probe(
    f: Callable[[Any], float], draw: Callable[[np.random.Generator], Any], samples: int, seed: int
) -> ConcavityReport:
    """Sample parameter pairs g1, g2 = draw(rng), draw(rng) and a weight q,
    and test midpoint concavity
    f(q g1 + (1-q) g2) >= q f(g1) + (1-q) f(g2) - 1e-10;
    a non-finite margin counts as a failure, and a NaN one makes
    ``min_margin`` NaN.

    A parameter is a float or, for a joint probe over several parameters,
    an array; both mix by the same arithmetic.  ``samples`` must be an
    integer of at least 1 and ``seed`` one of at least 0; otherwise
    ParamOutOfRangeError is raised.
    """
    if check_integer(samples, "samples") < 1:
        raise ParamOutOfRangeError(f"samples must be >= 1, got {samples}")
    if check_integer(seed, "seed") < 0:
        raise ParamOutOfRangeError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    failures = 0
    min_margin = np.inf
    for _ in range(samples):
        g1, g2 = draw(rng), draw(rng)
        q = rng.uniform(0.0, 1.0)
        margin = f(q * g1 + (1.0 - q) * g2) - (q * f(g1) + (1.0 - q) * f(g2))
        min_margin = np.minimum(min_margin, margin)
        if not (math.isfinite(margin) and margin >= -_CONCAVITY_SLACK):
            failures += 1
    return ConcavityReport(failures=failures, min_margin=float(min_margin))


def strategy_to_json(s: SRStrategy) -> dict:
    return {
        "branches": [
            {"q": q, "ensemble": ensemble_to_json(e), "gamma": assumption_to_json(g)}
            for q, e, g in s.branches
        ]
    }


def strategy_from_json(obj) -> SRStrategy:
    """The strategy ``obj`` holds; a malformed one raises InfocapError."""
    branches = json_object(obj, ("branches",))["branches"]
    if not isinstance(branches, list):
        raise InfocapError(f"branches must be a JSON list, got {type(branches).__name__}")
    rows = [json_object(b, ("q", "ensemble", "gamma")) for b in branches]
    return SRStrategy(branches=tuple(
        (json_float(b["q"]), ensemble_from_json(b["ensemble"]), assumption_from_json(b["gamma"])) for b in rows
    ))
