"""Guessing probabilities for state ensembles.

Contains the pretty good measurement, an iterative fixed-point optimizer
that serves as the numeric oracle for the optimal guessing probability,
and dual certificates that turn any POVM into a certified upper bound.

The PGM is the oracle's first step on the states' low-rank factors,
described at ``optimize_discrimination``.  Both build their POVM's
elements as Gram matrices, PSD and complete by construction, and ``POVM``
validates them once.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ensembles import StateEnsemble, check_integer
from .errors import DimensionMismatchError, InvalidPOVMError, ParamOutOfRangeError
from .serialize import stack_from_json, to_json

POVM_PSD_SLACK = 1e-9
COMPLETENESS_TOL = 1e-8
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True, eq=False)
class POVM:
    """A measurement: PSD elements summing to the identity; stores their Hermitian part."""

    elements: np.ndarray

    def __post_init__(self):
        el = linalg.hermitian_stack(self.elements, "element", 1e-8, POVM_PSD_SLACK,
                                    InvalidPOVMError, InvalidPOVMError)
        dev = float(np.linalg.norm(el.sum(axis=0) - np.eye(el.shape[1])))
        if dev > COMPLETENESS_TOL:
            raise InvalidPOVMError(f"completeness defect {dev:.3e} > {COMPLETENESS_TOL:.0e}")
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Dual operator K; ``min_slack`` is the smallest eigenvalue of K - rho_x/n
    over x.  ``certified_upper()``, not tr(K), bounds P_g from above, and a
    value is certified to ``tol`` iff that bound lies within ``tol`` above it.
    """

    K: np.ndarray
    trace_value: float
    min_slack: float

    def certified_upper(self) -> float:
        """Sound upper bound even with a slightly negative slack: shift K by
        |min_slack| times the identity.  A NaN slack gives a NaN bound,
        which certifies nothing."""
        dim = self.K.shape[0]
        # np.minimum propagates NaN, where max(0.0, -nan) would give 0.0
        return self.trace_value - dim * float(np.minimum(self.min_slack, 0.0))

    def gap(self, value: float) -> float:
        return self.certified_upper() - value

    def certifies(self, value: float, tol: float) -> bool:
        return self.gap(value) <= tol


@dataclass(frozen=True, eq=False)
class GuessingResult:
    value: float
    povm: POVM
    iterations: int
    converged: bool
    certificate: DualCertificate = field(repr=False)


def _check_fits(e: StateEnsemble, m: POVM) -> None:
    if m.dim != e.dim:
        raise DimensionMismatchError(f"POVM dim {m.dim} != ensemble dim {e.dim}")
    if m.n != e.n:
        raise DimensionMismatchError(f"POVM has {m.n} outcomes for {e.n} states")


def guess_value(e: StateEnsemble, m: POVM) -> float:
    """Average success probability (1/n) sum_x tr(rho_x N_x) of a POVM."""
    _check_fits(e, m)
    raw = complex(np.einsum("xij,xji->", e.states, m.elements)) / e.n
    return float(min(1.0, max(0.0, raw.real)))


def pgm(e: StateEnsemble) -> POVM:
    """Pretty good measurement N_x = S^(-1/2) rho_x S^(-1/2), S = sum rho_x.

    On the kernel P of S each element gets P/n, so the POVM is complete on
    the full space.  The elements are built as Gram matrices, PSD and
    complete by construction (``_elements``).
    """
    fac = _factor(e.states)
    # the POVM of the step from g_x = n I, where T = S
    g = e.n * np.eye(fac[0].shape[2])
    _, v, f = _step(fac, g)
    return POVM(_elements(fac, g, v, f))


def _factor(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors a, shape (n, d, r), with a_x a_x^dag = rho_x/n, then their
    concatenation [a_0 ... a_{n-1}] and its adjoint.

    r is the largest numerical rank of a state, counting the eigenvalues
    above d eps_mach times its largest; a state of lower rank is padded
    with zero columns.
    """
    n, d, _ = states.shape
    w, v = np.linalg.eigh(states / n)
    w = np.where(w > d * np.finfo(float).eps * w[:, -1:], w, 0.0)
    r = int(np.count_nonzero(w, axis=1).max())
    a = v[:, :, -r:] * np.sqrt(w[:, None, -r:])
    acat = _cat(a)
    return a, acat, linalg.dagger(acat)


def _cat(b: np.ndarray) -> np.ndarray:
    # a stack (n, k, r) as the k x nr matrix [b_0 ... b_{n-1}]
    return b.transpose(1, 0, 2).reshape(b.shape[1], -1)


def _split(m: np.ndarray, n: int) -> np.ndarray:
    # the inverse of _cat
    return m.reshape(m.shape[0], n, -1).transpose(1, 0, 2)


def _step(fac: tuple, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One fixed-point step on the blocks g (see ``optimize_discrimination``):
    the next blocks, and (v, f) with T^(-1/2) = v diag(f) v^dag.  T is one
    d x nr x d product."""
    a, acat, acat_h = fac
    n = a.shape[0]
    v, f = linalg._inv_sqrt_eig(_cat(a @ g) @ acat_h)
    va = linalg.dagger(v) @ acat
    # C_x is the Gram matrix of T^(-1/4) v^dag a_x
    b = _split(np.sqrt(f)[:, None] * va, n)
    c = linalg.dagger(b) @ b
    new = c @ g @ c
    if not f[0]:
        k = _split(va[f == 0], n)
        new = new + linalg.dagger(k) @ k / n
    return new, v, f


def _elements(fac: tuple, g: np.ndarray, v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The POVM of the step from ``g`` with T's (v, f), PSD and complete by
    construction: elements q_x q_x^dag + P/n.

    Each block is factored as g_x = l_x l_x^dag, its negative rounding
    clipped, h_x = T^(-1/2) a_x l_x and q_x = S^(-1/2) h_x with
    S = sum_x h_x h_x^dag.  The q_x q_x^dag sum to the projector onto S's
    support, and P projects onto its kernel.
    """
    a = fac[0]
    n = a.shape[0]
    w, u = np.linalg.eigh(g)
    l = u * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    h = (v * f) @ linalg.dagger(v) @ _cat(a @ l)
    vs, fs = linalg._inv_sqrt_eig(h @ linalg.dagger(h))
    q = _split((vs * fs) @ linalg.dagger(vs) @ h, n)
    p = vs[:, fs == 0]
    return q @ linalg.dagger(q) + p @ linalg.dagger(p) / n


def dual_certificate(e: StateEnsemble, m: POVM) -> DualCertificate:
    """Dual operator K = (1/2) sum_x (rho~_x N_x + N_x rho~_x) for a POVM.

    At an optimal measurement K majorizes every rho~_x = rho_x/n and tr(K)
    equals the guessing value; for suboptimal POVMs the slack reveals it.
    """
    _check_fits(e, m)
    return operator_certificate(e, linalg.hermitize(np.einsum("xij,xjk->ik", e.states / e.n, m.elements)))


def operator_certificate(e: StateEnsemble, k: np.ndarray) -> DualCertificate:
    """The dual certificate of an exactly Hermitian operator ``k`` for
    ``e``: its trace and the smallest eigenvalue of k - rho_x/n over x.
    Its ``certified_upper()`` bounds P_g from above for every such ``k``."""
    # k and the stored states are exactly Hermitian, so each k - rho_x/n is too
    slack = linalg.lowest_eigenvalues(k - e.states / e.n).min()
    return DualCertificate(K=k, trace_value=float(np.trace(k).real), min_slack=float(slack))


def optimize_discrimination(
    e: StateEnsemble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GuessingResult:
    """Numeric oracle for the optimal guessing probability.

    Fixed-point iteration N_x <- T^(-1/2) r_x N_x r_x T^(-1/2) with
    r_x = rho_x/n and T = sum_y r_y N_y r_y, started from the pretty good
    measurement; the value is nondecreasing along the iteration.  The
    result is ``converged`` iff its certificate certifies the value to
    ``tol``.  ``tol`` must be positive and finite and ``max_iter`` an
    integer of at least 1; otherwise ParamOutOfRangeError is raised.

    The loop works on the states' factors, rho_x/n = a_x a_x^dag with a_x
    of shape (d, r) and r the largest numerical rank of a state.  An
    iterate is held as its r x r blocks G_x = a_x^dag N_x a_x, so a step is
    G_x <- C_x G_x C_x with C_x = a_x^dag T^(-1/2) a_x, plus a_x^dag P a_x / n
    where T = sum_y a_y G_y a_y^dag has a kernel P, and the value is
    sum_x tr G_x.  The loop starts at G_x = n I, where T = S: that step is
    the PGM, and ``iterations`` counts the steps after it.  A step costs
    O(n d^2 r + d^3), against O(n d^3) for the d x d elements, built once,
    for the last accepted step.

    The ensemble is validated at construction and the result's POVM once,
    at the end.  In between the loop trusts its own iterates: it skips the
    Hermiticity checks, and the eigendecomposition of T reads one triangle.
    """
    if not 0.0 < tol < math.inf:
        raise ParamOutOfRangeError(f"tol must be positive and finite, got {tol}")
    if check_integer(max_iter, "max_iter") < 1:
        raise ParamOutOfRangeError(f"max_iter must be >= 1, got {max_iter}")
    fac = _factor(e.states)
    # step 0, from g_x = n I, is the PGM's and is always taken
    g = e.n * np.eye(fac[0].shape[2])
    value = -math.inf
    for iterations in range(max_iter + 1):
        new, v, f = _step(fac, g)
        new_value = float(np.einsum("xii->", new).real)
        if new_value < value - 1e-12:
            # the pseudo-inverse truncation can cost more value than the
            # ascent step gains when a state has near-kernel spectrum; the
            # previous iterate is then the numerical fixed point.  Rejecting
            # the step keeps the returned value sequence nondecreasing.
            break
        last = (g, v, f)
        g = new
        increment = new_value - value
        value = max(value, new_value)
        if increment < tol:
            break
    povm = POVM(_elements(fac, *last))
    value = guess_value(e, povm)
    cert = dual_certificate(e, povm)
    return GuessingResult(
        value=value,
        povm=povm,
        iterations=iterations,
        converged=cert.certifies(value, tol),
        certificate=cert,
    )


def accessible_information(n: int, pg: float) -> float:
    """Information carried by an n-state ensemble with guessing value pg,
    in bits: log2(n) + log2(pg).

    Values of pg outside [1/n, 1] (possible through numerical slack) are
    clamped into it with a RuntimeWarning, so the information stays within
    [0, log2(n)].
    """
    if check_integer(n, "n") < 1:
        raise ParamOutOfRangeError("n must be >= 1")
    if n > sys.float_info.max:
        raise ParamOutOfRangeError("need n within the float range")
    if not math.isfinite(pg):
        raise ParamOutOfRangeError(f"pg must be finite, got {pg}")
    if not 1.0 / n <= pg <= 1.0:
        warnings.warn(f"guessing value {pg} outside [1/{n}, 1]; clamping", RuntimeWarning)
        pg = min(max(pg, 1.0 / n), 1.0)
    return math.log2(n * pg)


def povm_to_json(m: POVM) -> dict:
    return {"n": m.n, "dim": m.dim, "elements": to_json(m.elements)}


def povm_from_json(obj: dict) -> POVM:
    return stack_from_json(obj, "elements", POVM)
