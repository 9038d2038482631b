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

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .discrimination import optimize_discrimination
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


def clamp(pg: float, n: int) -> tuple[float, float]:
    """The emitted ``(pg_bound, info_bits)`` of a raw bound ``pg`` on n
    inputs: pg clamped to [1/n, 1], and log2(n pg) bits.

    The clamp would turn a NaN into 1/n, an unsound bound, so a non-finite
    ``pg`` raises NonFiniteError instead.
    """
    if not math.isfinite(pg):
        raise NonFiniteError(f"bound evaluated to {pg}")
    pg = min(1.0, max(1.0 / n, pg))
    return pg, math.log2(n * pg)


def _result(pg: float, assumption: Assumption, n: int, validity: Validity, note: str = "") -> BoundResult:
    pg, bits = clamp(pg, n)
    return BoundResult(
        pg_bound=pg,
        info_bits=bits,
        assumption=assumption,
        n=n,
        validity=validity,
        note=note,
    )


# Each closed-form kind has one raw formula (n, *params) -> (pg, validity),
# with pg before the clamp.  bound_<kind> wraps it in a BoundResult; the CLI
# evaluates grids and sweeps with the formula itself.
#
# The formulas take n and d as Python ints, whose divisions and conversions
# raise OverflowError beyond the float range, so each one first rejects an n
# or d (or the square it forms) beyond that range.
_FLOAT_MAX = sys.float_info.max


def dimension_pg(n: int, d: float) -> tuple[float, Validity]:
    """Raw form of ``bound_dimension``; ``d`` may be fractional, as in
    averaged-assumption arithmetic."""
    if d < 1 or n < 1:
        raise ParamOutOfRangeError("need d >= 1 and n >= 1")
    if d > _FLOAT_MAX or n > _FLOAT_MAX:
        raise ParamOutOfRangeError("need d and n within the float range")
    return min(1.0, d / n), Validity.VALID


def bound_dimension(d: int, n: int) -> BoundResult:
    """States in a d-dimensional space: pg <= d/n, so at most log2(d) bits."""
    pg, validity = dimension_pg(n, d)
    return _result(pg, Dimension(d=d), n, validity)


def ea_dimension_pg(n: int, d: float) -> tuple[float, Validity]:
    """Raw form of ``bound_ea_dimension``."""
    if d < 1 or n < 1:
        raise ParamOutOfRangeError("need d >= 1 and n >= 1")
    if d * d > _FLOAT_MAX or n > _FLOAT_MAX:
        raise ParamOutOfRangeError("need d**2 and n within the float range")
    return min(1.0, d * d / n), Validity.VALID


def bound_ea_dimension(d: int, n: int) -> BoundResult:
    """Entanglement-assisted d-dimensional messages: pg <= d^2/n (2 log2 d bits)."""
    pg, validity = ea_dimension_pg(n, d)
    return _result(pg, EADimension(d=d), n, validity)


def overlap_pg(n: int, a: float) -> tuple[float, Validity]:
    """Raw form of ``bound_overlap``."""
    if n < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if n * n > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n**2 within the float range")
    if not 0.0 <= a <= 1.0:
        raise ParamOutOfRangeError("overlap must lie in [0, 1]")
    pg = ((n - 1) * math.sqrt(1.0 - a) + math.sqrt((n - 1) * a + 1.0)) ** 2 / n**2
    return pg, Validity.VALID


def bound_overlap(n: int, a: float) -> BoundResult:
    """Pure states with pairwise overlap at least ``a``:

        pg <= ((n-1) sqrt(1-a) + sqrt((n-1) a + 1))^2 / n^2,

    attained by the equiangular ensemble under the pretty good measurement.
    """
    pg, validity = overlap_pg(n, a)
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


def vacuum_pg(n: int, omega: float) -> tuple[float, Validity]:
    """Raw form of ``bound_vacuum``."""
    if n < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if n > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n within the float range")
    if not 0.0 <= omega <= 1.0:
        raise ParamOutOfRangeError("omega must lie in [0, 1]")
    if omega > (n - 1) / n:
        return 1.0, Validity.TRIVIALLY_ONE
    return (math.sqrt(omega * (n - 1)) + math.sqrt(1.0 - omega)) ** 2 / n, Validity.VALID


def bound_vacuum(n: int, omega: float) -> BoundResult:
    """Vacuum-component restriction tr(H rho_x) <= omega:

        pg <= (sqrt(omega (n-1)) + sqrt(1-omega))^2 / n

    for omega <= (n-1)/n; beyond that the bound is trivially 1.
    """
    pg, validity = vacuum_pg(n, omega)
    return _result(pg, Vacuum(omega=omega), n, validity)


def h_func(eps: float, mu: float) -> float:
    """Residue weight h(eps, mu) = (sqrt(mu^2 + 4 eps (1+mu)) - mu) / 2."""
    if mu < -1.0:
        raise ParamOutOfRangeError("mu must be >= -1")
    if not 0.0 <= eps <= 1.0:
        raise ParamOutOfRangeError("eps must lie in [0, 1]")
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
    return linalg.min_eigenvalue(linalg.hermitize(m)) >= -tol


def bound_eps(pg0: float, eps: float) -> float:
    """Deviation bound: best guessing value when each state keeps weight
    1-eps on a configuration whose ideal guessing value is ``pg0``.

        pg <= pg0 + (1-2 pg0) eps + 2 sqrt(pg0 (1-pg0)) sqrt(eps (1-eps))

    for eps <= 1-pg0, and trivially 1 beyond (the mu >= -1 family bottoms
    out at mu = -1 there).  Concave and nondecreasing in eps.
    """
    if not 0.0 <= pg0 <= 1.0:
        raise ParamOutOfRangeError("pg0 must lie in [0, 1]")
    if not 0.0 <= eps <= 1.0:
        raise ParamOutOfRangeError("eps must lie in [0, 1]")
    if eps > 1.0 - pg0:
        return 1.0
    value = (math.sqrt(pg0 * (1.0 - eps)) + math.sqrt((1.0 - pg0) * eps)) ** 2
    return min(1.0, max(pg0, value))


def deviation_pg(pg0: float, eps: float) -> tuple[float, Validity]:
    """The deviation bound with its validity: trivially one past eps = 1 - pg0."""
    pg = bound_eps(pg0, eps)
    return pg, Validity.TRIVIALLY_ONE if eps > 1.0 - pg0 else Validity.VALID


def almost_dim_pg(n: int, d: float, eps: float) -> tuple[float, Validity]:
    """Raw form of ``bound_almost_dim``."""
    if d < 1 or n < 1:
        raise ParamOutOfRangeError("need d >= 1 and n >= 1")
    if d > _FLOAT_MAX or n > _FLOAT_MAX:
        raise ParamOutOfRangeError("need d and n within the float range")
    return deviation_pg(min(1.0, d / n), eps)


def bound_almost_dim(d: int, n: int, eps: float) -> BoundResult:
    """Almost d-dimensional states, tr(rho_x Pi_d) >= 1-eps: the deviation
    bound applied to the dimension value d/n."""
    pg, validity = almost_dim_pg(n, d, eps)
    return _result(pg, AlmostDim(d=d, eps=eps), n, validity)


def targets_value(targets: StateEnsemble, tol: float = 1e-10) -> float:
    """Certified upper bound on the guessing value of pure distrust targets:
    the ``pg0`` that the distrust bound feeds to ``deviation_pg``."""
    if not all(targets.pure_flags):
        raise ParamOutOfRangeError("distrust targets must be pure states")
    result = optimize_discrimination(targets, tol=tol)
    return float(min(1.0, max(result.value, result.certificate.certified_upper())))


def bound_distrust(targets: StateEnsemble, eps: float, tol: float = 1e-10) -> BoundResult:
    """Distrust restriction: lab states have fidelity >= 1-eps with pure
    targets.  The deviation bound is applied to a certified upper bound on
    the targets' own guessing value, so the emitted number stays sound
    despite the numeric inner maximization.  Generally not tight unless the
    targets are themselves optimal for discrimination.
    """
    pg, validity = deviation_pg(targets_value(targets, tol), eps)
    assumption = Distrust(targets=targets.state_vectors(), eps=eps)
    return _result(pg, assumption, targets.n, validity, note="not tight unless targets are optimal")


def coherent_pg(n: int, nbar: float) -> tuple[float, Validity]:
    """Raw form of ``coherent_capacity``."""
    if nbar < 0.0:
        raise ParamOutOfRangeError("mean photon number must be >= 0")
    if not math.isfinite(nbar):
        # inf or NaN would reach the deviation bound as eps = NaN
        raise ParamOutOfRangeError(f"mean photon number must be finite, got {nbar}")
    if n < 2:
        raise ParamOutOfRangeError("need n >= 2")
    if n > _FLOAT_MAX:
        raise ParamOutOfRangeError("need n within the float range")
    return almost_dim_pg(n, 2, almost_qubit_epsilon(nbar))


def coherent_assumption(nbar: float) -> AlmostDim:
    """The almost-qubit assumption that coherent states with mean photon
    number ``nbar`` satisfy."""
    return AlmostDim(d=2, eps=almost_qubit_epsilon(nbar))


def coherent_capacity(nbar: float, n: int) -> BoundResult:
    """Capacity of n phase-keyed coherent states with mean photon number
    ``nbar``: treat them as almost-qubits with deviation
    eps = 1 - exp(-nbar)(1 + nbar) and apply the almost-dimension bound."""
    pg, validity = coherent_pg(n, nbar)
    assumption = coherent_assumption(nbar)
    note = f"mean photon number {nbar:.9g} mapped to eps={assumption.eps:.9g}"
    return _result(pg, assumption, n, validity, note=note)
