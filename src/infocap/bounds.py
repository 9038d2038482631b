"""Closed-form capacity bounds for restricted ensembles.

Every bound is the largest guessing probability compatible with one
preparation assumption, together with the matching accessible information
in bits.  The deviation bound (``bound_eps``) is the minimum over mu >= -1
of the affine family (1+mu) P0 + h(eps, mu); in closed form it equals

    ( sqrt(P0 (1-eps)) + sqrt((1-P0) eps) )^2      for eps <= 1 - P0,

and 1 beyond that point, where the family minimum sits at mu = -1.  All
bounds are concave and nondecreasing in their slack parameter.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import linalg
from .discrimination import DEFAULT_TOL, optimize_discrimination
from .ensembles import (
    AlmostDim,
    Assumption,
    Dimension,
    Distrust,
    EADimension,
    StateEnsemble,
    UniformOverlap,
    Vacuum,
    almost_qubit_epsilon,
    assumption_to_json,
    basis_ensemble,
    check_unit_interval,
    circulant_ensemble,
    dense_coding_ensemble,
    ensemble_from_vectors,
    equiangular_ensemble,
)
from .errors import NonFiniteError, ParamOutOfRangeError, ZeroProjectionError


class Validity(str, Enum):
    VALID = "valid"
    TRIVIALLY_ONE = "trivially_one"


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A guessing-probability bound and its information value in bits."""

    pg_bound: float
    info_bits: float
    assumption: Assumption
    n: int
    validity: Validity
    note: str = ""

    def to_json(self) -> dict:
        return {
            "pg_bound": self.pg_bound,
            "info_bits": self.info_bits,
            "validity": self.validity.value,
            "assumption": assumption_to_json(self.assumption),
            "n": self.n,
        }


def clamp(pgs: Sequence[float], ns: Sequence[int]) -> list[tuple[float, float]]:
    """The emitted ``(pg_bound, info_bits)`` of each raw bound in ``pgs`` on
    the n inputs of its row in ``ns``: pg clamped to [1/n, 1], and log2(n pg)
    bits.

    The clamp would turn a NaN into 1/n, an unsound bound, so a non-finite
    ``pg`` raises NonFiniteError instead, at the first such row.
    """
    isfinite, log2 = math.isfinite, math.log2
    rows = []
    for raw, n in zip(pgs, ns):
        if not isfinite(raw):
            raise NonFiniteError(f"bound evaluated to {raw}")
        # min(1.0, max(1.0 / n, raw)) as comparisons: the same selections,
        # without two builtin calls per row
        low = 1.0 / n
        pg = raw if raw > low else low
        pg = pg if pg < 1.0 else 1.0
        rows.append((pg, log2(n * pg)))
    return rows


def _result(pg: float, assumption: Assumption, n: int, validity: Validity, note: str = "") -> BoundResult:
    # a NaN n would clamp to pg 1, and a fractional one give a bound for no
    # number of inputs; an integral n is stored as an int
    if not isinstance(n, numbers.Real) or not math.isfinite(n) or n % 1:
        raise ParamOutOfRangeError(f"n must be an integer, got {n}")
    [(pg, bits)] = clamp([pg], [n])
    return BoundResult(
        pg_bound=pg,
        info_bits=bits,
        assumption=assumption,
        n=int(n),
        validity=validity,
        note=note,
    )


# Each closed-form kind has one raw formula (ns, *params) -> [(pg, validity)]:
# the bound before the clamp, and its validity, for each n of the column ns
# at one parameter point.  bound_<kind> evaluates it on a one-element column
# and wraps the row in a BoundResult; the CLI evaluates a grid point's whole
# column of n at once.
#
# The formulas take n and d as Python ints, whose divisions and conversions
# raise OverflowError beyond the float range, so each one first rejects an n
# or d (or the square it forms) beyond that range.  A factor that does not
# depend on the row is computed once per call, and a min(1.0, x) is spelled
# ``x if x < 1.0 else 1.0``, the same selection without a call, so each row
# is bit for bit what the formula gives it on its own.
_FLOAT_MAX = sys.float_info.max


def _column(formula):
    """``formula`` with the error of the first failing row.

    A formula checks its parameters once and each condition on the rows over
    the whole column, in the order the checks apply to one row, so on one
    row it raises that row's error.  When a longer column fails, its rows
    are evaluated one at a time, so the error raised is the first failing
    row's.  An empty column has no rows and no error.
    """

    @functools.wraps(formula)
    def column(firsts, *params):
        if not firsts:
            return []
        try:
            return formula(firsts, *params)
        except ParamOutOfRangeError:
            for first in firsts:
                formula([first], *params)
            raise

    return column


@_column
def dimension_pg(ns: Sequence[int], d: float) -> list[tuple[float, Validity]]:
    """Raw form of ``bound_dimension``; ``d`` may be fractional, as in
    averaged-assumption arithmetic."""
    if d < 1 or min(ns) < 1:
        raise ParamOutOfRangeError("need d >= 1 and n >= 1")
    if d > _FLOAT_MAX or max(ns) > _FLOAT_MAX:
        raise ParamOutOfRangeError("need d and n within the float range")
    valid = Validity.VALID
    return [(pg if pg < 1.0 else 1.0, valid) for n in ns for pg in [d / n]]


def bound_dimension(d: int, n: int) -> BoundResult:
    """States in a d-dimensional space: pg <= d/n, so at most log2(d) bits."""
    [(pg, validity)] = dimension_pg([n], d)
    return _result(pg, Dimension(d=d), n, validity)


@_column
def ea_dimension_pg(ns: Sequence[int], d: float) -> list[tuple[float, Validity]]:
    """Raw form of ``bound_ea_dimension``."""
    if d < 1 or min(ns) < 1:
        raise ParamOutOfRangeError("need d >= 1 and n >= 1")
    square = d * d
    if square > _FLOAT_MAX or max(ns) > _FLOAT_MAX:
        raise ParamOutOfRangeError("need d**2 and n within the float range")
    valid = Validity.VALID
    return [(pg if pg < 1.0 else 1.0, valid) for n in ns for pg in [square / n]]


def bound_ea_dimension(d: int, n: int) -> BoundResult:
    """Entanglement-assisted d-dimensional messages: pg <= d^2/n (2 log2 d bits)."""
    [(pg, validity)] = ea_dimension_pg([n], d)
    return _result(pg, EADimension(d=d), n, validity)


@_column
def overlap_pg(ns: Sequence[int], a: float) -> list[tuple[float, Validity]]:
    """Raw form of ``bound_overlap``."""
    if min(ns) < 2:
        raise ParamOutOfRangeError("need n >= 2")
    largest = max(ns)
    if largest * largest > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n**2 within the float range")
    check_unit_interval(a, "overlap")
    root, valid = math.sqrt(1.0 - a), Validity.VALID
    return [(((n - 1) * root + math.sqrt((n - 1) * a + 1.0)) ** 2 / n**2, valid) for n in ns]


def bound_overlap(n: int, a: float) -> BoundResult:
    """Pure states with pairwise overlap at least ``a``:

        pg <= ((n-1) sqrt(1-a) + sqrt((n-1) a + 1))^2 / n^2,

    attained by the equiangular ensemble under the pretty good measurement.
    """
    [(pg, validity)] = overlap_pg([n], a)
    return _result(pg, UniformOverlap(a=a), n, validity)


def min_overlap_vacuum(n: int, omega: float) -> float:
    """Smallest pairwise overlap of n unit vectors that all have overlap
    sqrt(1-omega) with a common vacuum direction: 1 - n omega/(n-1).

    This is the least ``a`` keeping the bordered Gram matrix (equal
    off-diagonal block a, border column sqrt(1-omega)) positive
    semidefinite.
    """
    if n < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if omega < 0.0 or omega > (n - 1) / n + 1e-12:
        raise ParamOutOfRangeError(f"omega={omega} outside [0, (n-1)/n]")
    return 1.0 - n * omega / (n - 1)


@_column
def vacuum_pg(ns: Sequence[int], omega: float) -> list[tuple[float, Validity]]:
    """Raw form of ``bound_vacuum``."""
    if min(ns) < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if max(ns) > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n within the float range")
    check_unit_interval(omega, "omega")
    amplitude, valid, one = math.sqrt(1.0 - omega), Validity.VALID, Validity.TRIVIALLY_ONE
    return [
        (1.0, one) if omega > (n - 1) / n else ((math.sqrt(omega * (n - 1)) + amplitude) ** 2 / n, valid)
        for n in ns
    ]


def bound_vacuum(n: int, omega: float) -> BoundResult:
    """Vacuum-component restriction tr(H rho_x) <= omega:

        pg <= (sqrt(omega (n-1)) + sqrt(1-omega))^2 / n

    for omega <= (n-1)/n; beyond that the bound is trivially 1.
    """
    [(pg, validity)] = vacuum_pg([n], omega)
    return _result(pg, Vacuum(omega=omega), n, validity)


def h_func(eps: float, mu: float) -> float:
    """Residue weight h(eps, mu) = (sqrt(mu^2 + 4 eps (1+mu)) - mu) / 2."""
    if mu < -1.0:
        raise ParamOutOfRangeError("mu must be >= -1")
    check_unit_interval(eps, "eps")
    return (math.sqrt(mu * mu + 4.0 * eps * (1.0 + mu)) - mu) / 2.0


def lemma_check(phi: np.ndarray, pi: np.ndarray, mu: float, tol: float, h_scale: float = 1.0) -> bool:
    """Regression check of the operator inequality

        |phi><phi|  <=  (1+mu) sigma~ + h(eps, mu) 1,

    with sigma~ the renormalized projection of |phi><phi| onto ``pi`` and
    eps = 1 - <phi|pi|phi>.  Returns True when the smallest eigenvalue of
    the difference is >= -tol.  ``h_scale`` rescales h and exists only to
    drive negative-control tests.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    pi = np.asarray(pi, dtype=complex)
    proj = float((phi.conj() @ pi @ phi).real)
    if proj <= 1e-14:
        raise ZeroProjectionError("phi has no weight inside the projector")
    eps = min(1.0, max(0.0, 1.0 - proj))
    pphi = pi @ phi
    sigma = np.outer(pphi, pphi.conj()) / proj
    h = h_scale * h_func(eps, mu)
    dim = phi.shape[0]
    m = (1.0 + mu) * sigma + h * np.eye(dim) - np.outer(phi, phi.conj())
    return linalg.min_eigenvalue(m) >= -tol


def bound_eps(pg0: float, eps: float) -> float:
    """Deviation bound: best guessing value when each state keeps weight
    1-eps on a configuration whose ideal guessing value is ``pg0``.

        pg <= pg0 + (1-2 pg0) eps + 2 sqrt(pg0 (1-pg0)) sqrt(eps (1-eps))

    for eps <= 1-pg0, and trivially 1 beyond (the mu >= -1 family bottoms
    out at mu = -1 there).  Concave and nondecreasing in eps.
    """
    [(pg, _)] = deviation_pg([pg0], eps)
    return pg


@_column
def deviation_pg(pg0s: Sequence[float], eps: float) -> list[tuple[float, Validity]]:
    """The deviation bound ``bound_eps`` for each pg0 of the column, with its
    validity: trivially one past eps = 1 - pg0."""
    if not all(0.0 <= pg0 <= 1.0 for pg0 in pg0s):
        raise ParamOutOfRangeError("pg0 must lie in [0, 1]")
    check_unit_interval(eps, "eps")
    keep, valid, one = 1.0 - eps, Validity.VALID, Validity.TRIVIALLY_ONE
    # min(1.0, max(pg0, value)) of each row short of trivially one
    return [
        (1.0, one) if eps > 1.0 - pg0 else (pg if pg < 1.0 else 1.0, valid)
        for pg0 in pg0s
        for value in [(math.sqrt(pg0 * keep) + math.sqrt((1.0 - pg0) * eps)) ** 2]
        for pg in [value if value > pg0 else pg0]
    ]


@_column
def almost_dim_pg(ns: Sequence[int], d: float, eps: float) -> list[tuple[float, Validity]]:
    """Raw form of ``bound_almost_dim``: the deviation bound of the
    dimension value."""
    return deviation_pg([pg0 for pg0, _ in dimension_pg(ns, d)], eps)


def bound_almost_dim(d: int, n: int, eps: float) -> BoundResult:
    """Almost d-dimensional states, tr(rho_x Pi_d) >= 1-eps: the deviation
    bound applied to the dimension value d/n."""
    [(pg, validity)] = almost_dim_pg([n], d, eps)
    return _result(pg, AlmostDim(d=d, eps=eps), n, validity)


def targets_value(targets: StateEnsemble, tol: float = DEFAULT_TOL) -> float:
    """Certified upper bound on the guessing value of pure distrust targets:
    the ``pg0`` that the distrust bound feeds to ``deviation_pg``."""
    if not all(targets.pure_flags):
        raise ParamOutOfRangeError("distrust targets must be pure states")
    result = optimize_discrimination(targets, tol=tol)
    return float(min(1.0, max(result.value, result.certificate.certified_upper())))


def bound_distrust(targets: StateEnsemble, eps: float, tol: float = DEFAULT_TOL) -> BoundResult:
    """Distrust restriction: lab states have fidelity >= 1-eps with pure
    targets.  The deviation bound is applied to a certified upper bound on
    the targets' own guessing value, so the emitted number stays sound
    despite the numeric inner maximization.  Generally not tight unless the
    targets are themselves optimal for discrimination.
    """
    [(pg, validity)] = deviation_pg([targets_value(targets, tol)], eps)
    assumption = Distrust(targets=targets.state_vectors(), eps=eps)
    return _result(pg, assumption, targets.n, validity, note="not tight unless targets are optimal")


@_column
def coherent_pg(ns: Sequence[int], nbar: float) -> list[tuple[float, Validity]]:
    """Raw form of ``coherent_capacity``."""
    if nbar < 0.0:
        raise ParamOutOfRangeError("mean photon number must be >= 0")
    if not math.isfinite(nbar):
        # inf or NaN would reach the deviation bound as eps = NaN
        raise ParamOutOfRangeError(f"mean photon number must be finite, got {nbar}")
    if min(ns) < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if max(ns) > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n within the float range")
    return almost_dim_pg(ns, 2, almost_qubit_epsilon(nbar))


def coherent_assumption(nbar: float) -> AlmostDim:
    """The almost-qubit assumption that coherent states with mean photon
    number ``nbar`` satisfy."""
    return AlmostDim(d=2, eps=almost_qubit_epsilon(nbar))


def coherent_capacity(nbar: float, n: int) -> BoundResult:
    """Capacity of n phase-keyed coherent states with mean photon number
    ``nbar``: treat them as almost-qubits with deviation
    eps = 1 - exp(-nbar)(1 + nbar) and apply the almost-dimension bound."""
    [(pg, validity)] = coherent_pg([n], nbar)
    assumption = coherent_assumption(nbar)
    note = f"mean photon number {nbar:.9g} mapped to eps={assumption.eps:.9g}"
    return _result(pg, assumption, n, validity, note=note)


def _almost_dim_profile(n: int, d: int, eps: float) -> list[float]:
    # the circulant eigenvalues that spread each state's weight 1-eps evenly
    # over the first min(d, n) frequencies and eps over the rest; past
    # eps = 1 - d/n the profile is flat, an orthonormal basis
    head = min(d, n)
    tail = min(eps, 1.0 - head / n)
    eigenvalues = [(1.0 - tail) * n / head] * head
    if head < n:
        eigenvalues += [tail * n / (n - head)] * (n - head)
    return eigenvalues


def _almost_dim_witness(n: int, d: int, eps: float):
    ens = circulant_ensemble(_almost_dim_profile(n, d, eps))
    # the first min(d, n) frequencies are all kept, as the first coordinates
    projector = np.diag((np.arange(ens.dim) < d).astype(complex))
    return ens, AlmostDim(d=d, eps=eps, projector=projector)


def _vacuum_witness(n: int, omega: float):
    # the d = 1 profile, with frequency 0, basis vector 0, as the vacuum
    return circulant_ensemble(_almost_dim_profile(n, 1, omega)), Vacuum(omega=omega)


def _distrust_witness(n: int, d: int, eps: float):
    # the almost-dim witness, each state's target its normalized projection
    # onto the first d frequencies: fidelity at least 1-eps, and targets
    # forming a harmonic frame worth min(d, n)/n
    ens, witnessed = _almost_dim_witness(n, d, eps)
    anchored = ens.state_vectors() @ witnessed.projector.T
    targets = anchored / np.linalg.norm(anchored, axis=1, keepdims=True)
    return ens, Distrust(targets=targets, eps=eps)


# Each kind's saturating witness, keyed by assumption class: (n, *params) ->
# (ensemble, the assumption carrying the witness data), at every in-range
# point; check_assumption needs nothing else.  The params are the kind's
# CLI columns, but (d, eps) for distrust, whose witness defines its targets.
# Vacuum, almost-dim and distrust share one circulant eigenvalue profile.
WITNESSES = {
    Dimension: lambda n, d: (basis_ensemble(d, n), Dimension(d=d)),
    EADimension: lambda n, d: (dense_coding_ensemble(d, n), EADimension(d=d)),
    Vacuum: _vacuum_witness,
    UniformOverlap: lambda n, a: (equiangular_ensemble(n, a), UniformOverlap(a=a)),
    AlmostDim: _almost_dim_witness,
    Distrust: _distrust_witness,
}

# Each kind's bound, keyed like WITNESSES: (assumption, n, tol) -> BoundResult.
# tol is the distrust targets' oracle tolerance; that row ignores n (one input
# per target).  Rows call bound_<kind> by name, so a wrapper sees every call.
BOUNDS = {
    Dimension: lambda a, n, tol: bound_dimension(a.d, n),
    EADimension: lambda a, n, tol: bound_ea_dimension(a.d, n),
    Vacuum: lambda a, n, tol: bound_vacuum(n, a.omega),
    UniformOverlap: lambda a, n, tol: bound_overlap(n, a.a),
    AlmostDim: lambda a, n, tol: bound_almost_dim(a.d, n, a.eps),
    Distrust: lambda a, n, tol: bound_distrust(ensemble_from_vectors(a.targets), a.eps, tol),
}
