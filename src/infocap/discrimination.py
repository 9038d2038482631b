"""Guessing probabilities for state ensembles.

Contains the pretty good measurement, the Helstrom two-state value, an
iterative fixed-point optimizer that serves as the numeric oracle for the
optimal guessing probability, and dual certificates that turn any POVM
into a certified upper bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ensembles import StateEnsemble
from .errors import DimensionMismatchError, InvalidPOVMError
from .serialize import matrix_from_json, matrix_to_json

POVM_PSD_SLACK = 1e-9
COMPLETENESS_TOL = 1e-8
CERT_SLACK = 1e-7
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True, eq=False)
class POVM:
    """A measurement: PSD elements summing to the identity."""

    elements: np.ndarray

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise InvalidPOVMError(f"elements must have shape (n, d, d), got {el.shape}")
        if not np.isfinite(el).all():
            raise InvalidPOVMError("elements must have finite entries")
        non_hermitian = linalg.hermitian_deviations(el) > 1e-8
        lowest = linalg.lowest_eigenvalues(linalg.hermitize(el))
        bad = np.flatnonzero(non_hermitian | (lowest < -POVM_PSD_SLACK))
        if bad.size:
            i = bad[0]
            if non_hermitian[i]:
                raise InvalidPOVMError(f"element {i} is not Hermitian")
            raise InvalidPOVMError(f"element {i} has eigenvalue {lowest[i]:.3e}")
        dev = float(np.linalg.norm(el.sum(axis=0) - np.eye(el.shape[1])))
        if dev > COMPLETENESS_TOL:
            raise InvalidPOVMError(f"completeness defect {dev:.3e} > {COMPLETENESS_TOL:.0e}")
        el = el.copy()
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


def uniform_povm(n: int, dim: int) -> POVM:
    """The trivial measurement {1/n, ..., 1/n}."""
    return POVM(np.stack([np.eye(dim, dtype=complex) / n] * n))


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Hermitian K with K >= rho_x / n for all x certifies tr(K) >= P_g.

    ``min_slack`` is the smallest eigenvalue of K - rho_x/n over x; the
    certificate is valid when it is >= -CERT_SLACK.
    """

    K: np.ndarray
    trace_value: float
    min_slack: float

    @property
    def is_valid(self) -> bool:
        return self.min_slack >= -CERT_SLACK

    def certified_upper(self) -> float:
        """Sound upper bound even with a slightly negative slack: shift K by
        |min_slack| times the identity."""
        dim = self.K.shape[0]
        return self.trace_value + dim * max(0.0, -self.min_slack)


@dataclass(frozen=True, eq=False)
class GuessingResult:
    value: float
    povm: POVM
    iterations: int
    converged: bool
    certificate: DualCertificate = field(repr=False, default=None)


def guess_value(e: StateEnsemble, m: POVM) -> float:
    """Average success probability (1/n) sum_x tr(rho_x N_x) of a POVM."""
    if m.dim != e.dim:
        raise DimensionMismatchError(f"POVM dim {m.dim} != ensemble dim {e.dim}")
    if m.n != e.n:
        raise DimensionMismatchError(f"POVM has {m.n} outcomes for {e.n} states")
    raw = complex(np.einsum("xij,xji->", e.states, m.elements)) / e.n
    if abs(raw.imag) > 1e-10:
        raise InvalidPOVMError(f"imaginary residue {raw.imag:.3e} in the success probability")
    return float(min(1.0, max(0.0, raw.real)))


def pgm(e: StateEnsemble) -> POVM:
    """Pretty good measurement N_x = S^(-1/2) rho_x S^(-1/2), S = sum rho_x.

    On the kernel of S the completeness deficit is split equally across the
    elements so the POVM is complete on the full space.
    """
    return POVM(_pgm_elements(e))


def _pgm_elements(e: StateEnsemble) -> np.ndarray:
    # the elements of pgm(e), exactly Hermitian and not yet validated
    s = linalg.hermitize(e.states.sum(axis=0))
    s_isqrt = linalg._inv_sqrt_hermitized(s)
    elements = s_isqrt @ e.states @ s_isqrt
    deficit = np.eye(e.dim, dtype=complex) - elements.sum(axis=0)
    elements = linalg.hermitize(elements + deficit / e.n)
    if linalg.lowest_eigenvalues(elements).min() < -1e-12:
        # ill-conditioned S^(-1/2) can leave tiny negative eigenvalues
        elements = _repair_elements(elements)
    return elements


def helstrom_two(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Optimal guessing value for two equiprobable states:
    1/2 + ||rho1 - rho2||_tr / 4."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimensionMismatchError("states must share a dimension")
    diff = linalg.hermitize(rho1 - rho2)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return 0.5 + trace_norm / 4.0


def _repair_elements(elements: np.ndarray) -> np.ndarray:
    """Project elements onto the PSD cone and restore completeness by a
    congruence with (sum)^(-1/2).

    Clipping can only add PSD corrections, so the clipped sum is >= the
    identity and the congruence is well conditioned; congruence preserves
    positivity exactly.  Used when inverse-square-root amplification near
    the kernel cutoff leaves tiny negative eigenvalues in a fixed-point
    iterate.
    """
    w, v = np.linalg.eigh(linalg.hermitize(elements))
    projected = (v * np.clip(w, 0.0, None)[:, None, :]) @ linalg.dagger(v)
    clipped = np.where((w[:, 0] >= 0.0)[:, None, None], elements, projected)
    total = linalg.hermitize(clipped.sum(axis=0))
    tisq = linalg._inv_sqrt_hermitized(total)
    return linalg.hermitize(tisq @ clipped @ tisq)


def dual_certificate(e: StateEnsemble, m: POVM) -> DualCertificate:
    """Dual operator K = (1/2) sum_x (rho~_x N_x + N_x rho~_x) for a POVM.

    At an optimal measurement K majorizes every rho~_x = rho_x/n and tr(K)
    equals the guessing value; for suboptimal POVMs the slack reveals it.
    """
    rt = e.states / e.n
    k = linalg.hermitize(np.einsum("xij,xjk->ik", rt, m.elements))
    # K and the stored states are exactly Hermitian, so each K - rho_x/n is too
    slack = linalg.lowest_eigenvalues(k - rt).min()
    return DualCertificate(K=k, trace_value=float(np.trace(k).real), min_slack=float(slack))


def optimize_discrimination(
    e: StateEnsemble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GuessingResult:
    """Numeric oracle for the optimal guessing probability.

    Fixed-point iteration N_x <- T^(-1/2) r_x N_x r_x T^(-1/2) with
    r_x = rho_x/n and T = sum_y r_y N_y r_y, started from the pretty good
    measurement; the value is nondecreasing along the iteration.
    Convergence is declared when the accompanying dual certificate has
    gap <= 10*tol.

    The ensemble is validated at construction and the result's POVM once,
    at the end.  In between the loop trusts its own iterates: T and every
    iterate are hermitized as they are built, so T^(-1/2) and the
    eigenvalue tests skip the Hermiticity checks, which could not fire.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    rt = e.states / e.n
    eye = np.eye(e.dim, dtype=complex)
    elements = _pgm_elements(e)
    value = float(np.einsum("xij,xji->", rt, elements).real)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = rt @ elements @ rt
        t = linalg.hermitize(g.sum(axis=0))
        t_isqrt = linalg._inv_sqrt_hermitized(t)
        new = t_isqrt @ g @ t_isqrt
        deficit = eye - new.sum(axis=0)
        new = linalg.hermitize(new + deficit / e.n)
        new_value = float(np.einsum("xij,xji->", rt, new).real)
        if new_value < value - 1e-12:
            # the pseudo-inverse truncation can cost more value than the
            # ascent step gains when a state has near-kernel spectrum; the
            # previous iterate is then the numerical fixed point.  Rejecting
            # the step keeps the returned value sequence nondecreasing.
            break
        elements = new
        increment = new_value - value
        value = max(value, new_value)
        if increment < tol:
            break
    if linalg.lowest_eigenvalues(elements).min() < -1e-12:
        elements = _repair_elements(elements)
    povm = POVM(elements)
    value = guess_value(e, povm)
    cert = dual_certificate(e, povm)
    gap = cert.trace_value - value
    return GuessingResult(
        value=value,
        povm=povm,
        iterations=iterations,
        converged=bool(gap <= 10.0 * tol),
        certificate=cert,
    )


def accessible_information(n: int, pg: float) -> float:
    """Information carried by an n-state ensemble with guessing value pg,
    in bits: log2(n) + log2(pg).

    Values of pg below 1/n (possible through numerical slack) are clamped
    to 1/n with a RuntimeWarning so the information never goes negative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if pg < 1.0 / n:
        warnings.warn(
            f"guessing value {pg} below the trivial 1/{n}; clamping", RuntimeWarning
        )
        pg = 1.0 / n
    pg = min(pg, 1.0)
    return math.log2(n * pg)


def povm_to_json(m: POVM) -> dict:
    return {"n": m.n, "dim": m.dim, "elements": [matrix_to_json(x) for x in m.elements]}


def povm_from_json(obj: dict) -> POVM:
    m = POVM(np.stack([matrix_from_json(x) for x in obj["elements"]]))
    if m.n != int(obj["n"]) or m.dim != int(obj["dim"]):
        raise DimensionMismatchError("declared n/dim do not match the element list")
    return m
