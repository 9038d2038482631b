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
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import linalg
from .discrimination import DEFAULT_TOL, DualCertificate, operator_certificate, optimize_discrimination
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
    check_integer,
    check_unit_interval,
    circulant_ensemble,
    dense_coding_ensemble,
    ensemble_from_vectors,
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


def _result(pg: float, assumption: Assumption, n: int, validity: Validity) -> BoundResult:
    # a NaN n would clamp to pg 1, and a fractional one give a bound for no
    # number of inputs; an integral n is stored as an int
    n = check_integer(n, "n")
    [(pg, bits)] = clamp([pg], [n])
    return BoundResult(pg_bound=pg, info_bits=bits, assumption=assumption, n=n, validity=validity)


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

    attained under the pretty good measurement by n states of real pairwise
    overlap a: the vacuum witness where ``min_overlap_vacuum(n, omega)`` = a.
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
    if check_integer(n, "n") < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if n > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n within the float range")
    if not 0.0 <= omega <= (n - 1) / n + 1e-12:
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
    if not -1.0 <= mu < math.inf:
        raise ParamOutOfRangeError(f"mu must be finite and >= -1, got {mu}")
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


def _min_norm_point(points: np.ndarray) -> np.ndarray:
    """The point of the convex hull of the rows of ``points`` nearest the
    origin, by Wolfe's finite algorithm (Math. Programming 11, 128 (1976)).

    The corral is a set of affinely independent rows and their convex
    weights.  Each major cycle adds the row that most lowers <x, p>; each
    minor cycle then takes the corral's affine minimizer, or, where one of
    its weights is not positive, steps towards it until a weight reaches 0
    and drops that row.  The loop stops when no row lowers <x, p> beyond
    rounding, or when a cycle fails to shorten x.
    """
    corral = [int(np.argmin(np.einsum("ij,ij->i", points, points)))]
    weights = np.ones(1)
    x = points[corral[0]]
    while True:
        j = int(np.argmin(points @ x))
        if j in corral or x @ x - points[j] @ x <= 1e-15:
            return x
        corral.append(j)
        weights = np.append(weights, 0.0)
        while True:
            base, rest = points[corral[0]], points[corral[1:]]
            tail = np.linalg.lstsq((rest - base).T, -base, rcond=None)[0]
            affine = np.concatenate(([1.0 - tail.sum()], tail))
            if affine.min() > 0.0:
                weights = affine
                break
            low = affine <= 0.0
            # the step at which the first such weight reaches 0; a zero gap,
            # a weight of 0 whose affine weight is 0 too, is a step of 0
            gap = weights[low] - affine[low]
            step = np.min(np.divide(weights[low], gap, out=np.zeros_like(gap), where=gap > 0.0))
            weights = (1.0 - step) * weights + step * affine
            keep = weights > 0.0
            keep[np.argmin(np.where(low, weights, np.inf))] = False
            corral = [i for i, k in zip(corral, keep) if k]
            weights = weights[keep]
        shorter = weights @ points[corral]
        if shorter @ shorter >= x @ x:
            return x
        x = shorter


def _qubit_certificate(targets: StateEnsemble) -> DualCertificate:
    """The optimal dual certificate of pure targets of dimension <= 2, from
    Bloch-sphere geometry (Deconinck & Terhal, PRA 81, 062304 (2010); Bae,
    New J. Phys. 15, 073037 (2013)).

    K = ((1+r) I + c.sigma)/(2n) lies above every rho_x/n iff r >= |r_x - c|
    for each Bloch vector r_x, so the least tr(K) = (1+r)/n has c the
    centre of the smallest ball around the r_x and r its radius.  For unit
    vectors that centre is the point of their convex hull nearest the
    origin.  The certificate checks K against the states, so a centre off
    by rounding only loosens its bound.
    """
    pad = 2 - targets.dim
    if pad:
        targets = StateEnsemble(np.pad(targets.states, ((0, 0), (0, pad), (0, pad))))
    rho = targets.states
    bloch = np.stack([2.0 * rho[:, 1, 0].real, 2.0 * rho[:, 1, 0].imag, (rho[:, 0, 0] - rho[:, 1, 1]).real], 1)
    c = _min_norm_point(bloch)
    radius = float(np.max(np.linalg.norm(bloch - c, axis=1)))
    k = np.array([[1.0 + radius + c[2], c[0] - 1j * c[1]], [c[0] + 1j * c[1], 1.0 + radius - c[2]]])
    return operator_certificate(targets, k / (2 * targets.n))


def targets_value(targets: StateEnsemble, tol: float = DEFAULT_TOL) -> float:
    """Certified upper bound on the guessing value of pure distrust targets:
    the ``pg0`` that the distrust bound feeds to ``deviation_pg``.

    Targets of dimension <= 2 take their exact value, certified, from
    Bloch-sphere geometry; ``tol`` is the oracle tolerance of targets of
    dimension >= 3.  The value is capped at dim/n, the dimension bound,
    which holds for every ensemble.
    """
    if not all(targets.pure_flags):
        raise ParamOutOfRangeError("distrust targets must be pure states")
    if targets.dim <= 2:
        value = _qubit_certificate(targets).certified_upper()
    else:
        result = optimize_discrimination(targets, tol=tol)
        value = max(result.value, result.certificate.certified_upper())
    return float(min(1.0, value, targets.dim / targets.n))


def bound_distrust(targets: StateEnsemble, eps: float, tol: float = DEFAULT_TOL) -> BoundResult:
    """Distrust restriction: lab states have fidelity >= 1-eps with pure
    targets.  The deviation bound is applied to a certified upper bound on
    the targets' own guessing value (``targets_value``: exact for targets of
    dimension <= 2, the oracle's at ``tol`` above, capped at dim/n), so the
    emitted number stays sound.  Generally not tight unless the targets are
    themselves optimal for discrimination.
    """
    [(pg, validity)] = deviation_pg([targets_value(targets, tol)], eps)
    assumption = Distrust(targets=targets.state_vectors(), eps=eps)
    return _result(pg, assumption, targets.n, validity)


@_column
def coherent_pg(ns: Sequence[int], nbar: float) -> list[tuple[float, Validity]]:
    """Raw form of ``coherent_capacity``."""
    eps = almost_qubit_epsilon(nbar)
    if min(ns) < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if max(ns) > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n within the float range")
    return almost_dim_pg(ns, 2, eps)


def coherent_assumption(nbar: float) -> AlmostDim:
    """The almost-qubit assumption that coherent states with mean photon
    number ``nbar`` satisfy."""
    return AlmostDim(d=2, eps=almost_qubit_epsilon(nbar))


def coherent_capacity(nbar: float, n: int) -> BoundResult:
    """Capacity of n phase-keyed coherent states with mean photon number
    ``nbar``: treat them as almost-qubits with deviation
    eps = 1 - exp(-nbar)(1 + nbar) and apply the almost-dimension bound."""
    [(pg, validity)] = coherent_pg([n], nbar)
    return _result(pg, coherent_assumption(nbar), n, validity)


def _circulant(n: int, d: int, eps: float, witnessed: Assumption):
    # the circulant witness at (n, d, eps), with ``witnessed``, whose
    # construction has checked the row's parameters: its eigenvalues spread
    # each state's weight 1-eps evenly over the first min(d, n) frequencies
    # and eps over the rest; past eps = 1 - d/n the profile is flat
    n = check_integer(n, "n")
    if n < 1:
        raise ParamOutOfRangeError(f"n must be >= 1, got {n}")
    head = min(int(d), n)
    tail = min(eps, 1.0 - head / n)
    eigenvalues = [(1.0 - tail) * n / head] * head
    if head < n:
        eigenvalues += [tail * n / (n - head)] * (n - head)
    return circulant_ensemble(eigenvalues), witnessed


def _almost_dim_witness(n: int, d: int, eps: float):
    ens, _ = _circulant(n, d, eps, AlmostDim(d=d, eps=eps))
    # the first min(d, n) frequencies are all kept, as the first coordinates
    projector = np.diag((np.arange(ens.dim) < d).astype(complex))
    return ens, AlmostDim(d=d, eps=eps, projector=projector)


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
# Every kind but EA-dimension takes the circulant witness at its (d, eps):
# dimension (d, 0), vacuum (1, omega), with frequency 0, basis vector 0, as
# the vacuum, overlap (1, (n-1)(1-a)/n), almost-dim and distrust (d, eps).
WITNESSES = {
    Dimension: lambda n, d: _circulant(n, d, 0.0, Dimension(d=d)),
    EADimension: lambda n, d: (dense_coding_ensemble(d, n), EADimension(d=d)),
    Vacuum: lambda n, omega: _circulant(n, 1, omega, Vacuum(omega=omega)),
    # the omega where min_overlap_vacuum(n, omega) = a; (n or 1) keeps an n
    # of 0 from dividing before _circulant refuses it
    UniformOverlap: lambda n, a: _circulant(n, 1, (n - 1) * (1.0 - a) / (n or 1), UniformOverlap(a=a)),
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
