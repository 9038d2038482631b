"""State ensembles, preparation assumptions and membership checks.

An ensemble is ``n`` density matrices of a common dimension with a uniform
prior 1/n hard-coded; all capacity results here assume uniform inputs.
Constructors build the standard extremal families: computational bases,
dense-coding orbits of a maximally entangled state, equiangular sets and
the circulant ensembles of a Gram spectrum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import linalg
from .errors import (
    CutoffTooSmallError,
    DimensionMismatchError,
    GramNotPSDError,
    InfocapError,
    MissingContextError,
    MixedStateOverlapError,
    ParamOutOfRangeError,
)
from .serialize import from_json, json_float, json_number, json_object, stack_from_json, to_json

TRACE_TOL = 1e-10
PURITY_TOL = 1e-8
MEMBERSHIP_SLACK = 1e-8


@dataclass(frozen=True, eq=False)
class StateEnsemble:
    """n density matrices (dim x dim) with uniform prior 1/n.

    ``states`` has shape (n, dim, dim).  Validation enforces Hermiticity,
    positivity within linalg.PSD_SLACK and unit trace within TRACE_TOL.
    ``pure_flags`` says which states are pure; it is computed, not passed.
    """

    states: np.ndarray
    pure_flags: tuple[bool, ...] = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.states, dtype=complex)
        # the Hermitian part is stored, so later operators built from the
        # states are Hermitian however far within the tolerance the input was
        states = linalg.hermitian_stack(
            raw, "state", 100 * linalg.HERMITIAN_TOL, linalg.PSD_SLACK,
            InfocapError, DimensionMismatchError,
        )
        traces = np.trace(raw, axis1=1, axis2=2)
        off_trace = np.flatnonzero(np.abs(traces - 1.0) > TRACE_TOL)
        if off_trace.size:
            i = off_trace[0]
            raise InfocapError(f"state {i} has trace {complex(traces[i])}, expected 1")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        purities = np.einsum("xij,xji->x", states, states).real
        object.__setattr__(self, "pure_flags", tuple(bool(p >= 1.0 - PURITY_TOL) for p in purities))

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_vectors(self) -> np.ndarray:
        """Top eigenvectors, phase-fixed; meaningful for pure states only."""
        # the stored states are exactly Hermitian, so eigh needs no check
        tops = np.linalg.eigh(self.states)[1][:, :, -1]
        vecs = np.empty((self.n, self.dim), dtype=complex)
        for i, v in enumerate(tops):
            k = int(np.argmax(np.abs(v)))
            phase = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
            vecs[i] = v / phase
        return vecs


def ensemble_from_vectors(vectors: np.ndarray) -> StateEnsemble:
    """Pure-state ensemble from unit vectors given as rows."""
    vectors = np.asarray(vectors, dtype=complex)
    states = np.einsum("xi,xj->xij", vectors, vectors.conj())
    return StateEnsemble(states)


# ---------------------------------------------------------------------------
# Assumptions
# ---------------------------------------------------------------------------


def _as_is(value):
    return value


def check_unit_interval(x: float, label: str) -> None:
    """Raise ParamOutOfRangeError unless 0 <= x <= 1; NaN fails."""
    if not 0.0 <= x <= 1.0:
        raise ParamOutOfRangeError(f"{label} must lie in [0, 1]")


def _integer_d(d, what: str) -> int:
    # a fractional or non-finite d would be recorded as some integer
    # dimension whose bound is not d/n; an integral d is stored as an int
    if not isinstance(d, numbers.Real) or d % 1:
        raise ParamOutOfRangeError(f"d must be an integer, got {d}")
    if d < 1:
        raise ParamOutOfRangeError(f"{what} must be >= 1")
    return int(d)


class _Field(NamedTuple):
    """One JSON field of an assumption; ``key`` is also the dataclass field.
    A scalar field must be a JSON number.  An optional field is left out of
    the JSON when its value is None."""

    key: str
    decode: Callable = json_number
    encode: Callable = _as_is
    optional: bool = False


def matrix_from_json(obj: list) -> np.ndarray:
    """The complex matrix a JSON field holds as rows of [re, im] pairs."""
    return from_json(obj, 2)


class Assumption:
    """A preparation assumption: the set of ensembles it allows.

    Each kind is defined once, by its subclass: ``kind`` names it in files,
    ``json_fields`` lists its JSON fields in serialized order, ``param`` is
    the scalar that shared-randomness branches average, ``larger_is_weaker``
    says whether a larger ``param`` allows more ensembles, the
    ``shared_fields`` must agree across averaged branches, and
    ``membership`` checks an ensemble against the assumption.
    """

    kind: ClassVar[str]
    json_fields: ClassVar[tuple[_Field, ...]]
    param: ClassVar[str]
    larger_is_weaker: ClassVar[bool] = True
    shared_fields: ClassVar[tuple[str, ...]] = ()

    def membership(self, e, vacuum_vector, subsystem_dims, pg) -> MembershipReport:
        """Membership of ``e``, given the context keywords of check_assumption."""
        raise NotImplementedError


@dataclass(frozen=True)
class Dimension(Assumption):
    d: int

    kind = "dimension"
    json_fields = (_Field("d"),)
    param = "d"

    def __post_init__(self):
        object.__setattr__(self, "d", _integer_d(self.d, "dimension"))

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        d = self.d
        if e.dim <= d:
            return slack_report([0.0] * e.n, note="ambient dimension within bound")
        avg = e.states.mean(axis=0)
        w = np.linalg.eigvalsh(avg)[::-1]
        # joint support must fit in d dimensions: the (d+1)-th eigenvalue of
        # the average state must vanish
        slack = -float(w[d])
        return slack_report([slack], note="slack is minus the (d+1)-th eigenvalue of the average state")


@dataclass(frozen=True)
class EADimension(Assumption):
    d: int

    kind = "ea_dimension"
    json_fields = (_Field("d"),)
    param = "d"

    def __post_init__(self):
        object.__setattr__(self, "d", _integer_d(self.d, "message dimension"))

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        d = self.d
        if subsystem_dims is None:
            if e.dim == d * d:
                subsystem_dims = (d, d)
            elif e.dim % d == 0:
                subsystem_dims = (d, e.dim // d)
            else:
                raise MissingContextError(
                    f"cannot infer a message x receiver split of dimension {e.dim}; "
                    "pass subsystem_dims"
                )
        da, db = subsystem_dims
        if da * db != e.dim:
            raise DimensionMismatchError(f"subsystem dims {subsystem_dims} do not match dim {e.dim}")
        margs = [linalg.partial_trace(rho, (da, db), trace_out=0) for rho in e.states]
        mean = sum(margs) / e.n
        slacks = [-float(np.max(np.abs(m - mean))) for m in margs]
        note = "necessary conditions only: constant receiver marginal"
        if all(e.pure_flags):
            # Schmidt number <= d per pure state: the (d+1)-th eigenvalue of
            # the reduced state must vanish
            for m in margs:
                w = np.linalg.eigvalsh(m)[::-1]
                slacks.append(-float(w[d]) if d < len(w) else 0.0)
            note += " and Schmidt number"
        return slack_report(slacks, note=note)


@dataclass(frozen=True)
class Vacuum(Assumption):
    omega: float

    kind = "vacuum"
    json_fields = (_Field("omega", json_float),)
    param = "omega"

    def __post_init__(self):
        check_unit_interval(self.omega, "omega")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        # the vacuum is basis vector 0 unless one is given
        v = np.eye(e.dim, dtype=complex)[0] if vacuum_vector is None else vacuum_vector
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != e.dim:
            raise DimensionMismatchError("vacuum vector dimension does not match the ensemble")
        weights = np.einsum("i,xij,j->x", v.conj(), e.states, v).real
        return slack_report([float(self.omega - (1.0 - w)) for w in weights])


@dataclass(frozen=True)
class UniformOverlap(Assumption):
    a: float

    kind = "uniform_overlap"
    json_fields = (_Field("a", json_float),)
    param = "a"
    # a larger required overlap is a stronger constraint
    larger_is_weaker = False

    def __post_init__(self):
        check_unit_interval(self.a, "overlap")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        if not all(e.pure_flags):
            raise MixedStateOverlapError("overlap membership is defined for pure ensembles only")
        # |<psi_x|psi_y>| = sqrt(tr rho_x rho_y) for pure states
        g = np.einsum("xij,yji->xy", e.states, e.states).real
        ov = np.sqrt(np.clip(g, 0.0, None))
        slacks = [float(ov[x, y] - self.a) for x in range(e.n) for y in range(x + 1, e.n)]
        return slack_report(slacks if slacks else [0.0])


@dataclass(frozen=True, eq=False)
class AlmostDim(Assumption):
    d: int
    eps: float
    projector: np.ndarray | None = None

    kind = "almost_dim"
    json_fields = (
        _Field("d"),
        _Field("eps", json_float),
        # a lambda, so a wrapper on this module's matrix_from_json sees the call
        _Field("projector", lambda obj: matrix_from_json(obj), to_json, optional=True),
    )
    param = "eps"
    shared_fields = ("d",)

    def __post_init__(self):
        object.__setattr__(self, "d", _integer_d(self.d, "dimension"))
        check_unit_interval(self.eps, "eps")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        if self.projector is not None:
            note = "supplied projector"
            pi = np.asarray(self.projector, dtype=complex)
        else:
            # heuristic witness: top-d eigenspace of the average state gives
            # a sound sufficient check of the existential projector (the
            # mean of exactly Hermitian states is exactly Hermitian)
            v = np.linalg.eigh(e.states.mean(axis=0))[1][:, ::-1][:, : self.d]
            pi = v @ v.conj().T
            note = "top-d eigenspace of the average state"
        if pi.shape != (e.dim, e.dim):
            raise DimensionMismatchError("projector dimension does not match the ensemble")
        weights = np.einsum("ij,xji->x", pi, e.states).real
        return slack_report([float(w - (1.0 - self.eps)) for w in weights], note=note)


@dataclass(frozen=True, eq=False)
class Distrust(Assumption):
    """Target unit vectors as rows of ``targets``."""

    targets: np.ndarray
    eps: float

    kind = "distrust"
    json_fields = (_Field("eps", json_float), _Field("targets", matrix_from_json, to_json))
    param = "eps"
    shared_fields = ("targets",)

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=complex)
        if t.ndim != 2:
            raise ParamOutOfRangeError("targets must be an (n, dim) array of unit vectors")
        norms = np.linalg.norm(t, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-10:
            raise ParamOutOfRangeError("target vectors must be normalized within 1e-10")
        check_unit_interval(self.eps, "eps")
        object.__setattr__(self, "targets", t.copy())

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        t = self.targets
        if t.shape[0] != e.n:
            raise DimensionMismatchError("one target per state is required")
        if t.shape[1] > e.dim:
            raise DimensionMismatchError("targets live in a larger space than the lab states")
        if t.shape[1] < e.dim:
            t = np.pad(t, ((0, 0), (0, e.dim - t.shape[1])))
        fid = np.einsum("xi,xij,xj->x", t.conj(), e.states, t).real
        return slack_report([float(f - (1.0 - self.eps)) for f in fid])


@dataclass(frozen=True)
class Information(Assumption):
    alpha: float

    kind = "information"
    json_fields = (_Field("alpha", json_float),)
    param = "alpha"

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise ParamOutOfRangeError("alpha must be finite and >= 0")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        if pg is None:
            raise MissingContextError(
                "information membership needs a precomputed guessing probability (pg)"
            )
        return slack_report([float(2.0**self.alpha / e.n - pg)])


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a membership check.

    ``worst_slack`` is the most-violated constraint margin (negative means
    violated); ``detail`` carries per-state (or per-pair) slacks.
    """

    satisfied: bool
    worst_slack: float
    detail: tuple[float, ...]
    note: str = ""


def slack_report(slacks: list[float], note: str = "") -> MembershipReport:
    """The report of constraint margins ``slacks``: satisfied unless one falls
    below -MEMBERSHIP_SLACK."""
    worst = min(slacks) if slacks else 0.0
    return MembershipReport(
        satisfied=bool(worst >= -MEMBERSHIP_SLACK),
        worst_slack=float(worst),
        detail=tuple(float(s) for s in slacks),
        note=note,
    )


_KINDS = {
    cls.kind: cls
    for cls in (Dimension, EADimension, Vacuum, UniformOverlap, AlmostDim, Distrust, Information)
}


def check_assumption(
    e: StateEnsemble,
    a: Assumption,
    *,
    vacuum_vector: np.ndarray | None = None,
    subsystem_dims: tuple[int, int] | None = None,
    pg: float | None = None,
) -> MembershipReport:
    """Check whether an ensemble belongs to the set an assumption allows.

    Context keywords: ``vacuum_vector`` names the vacuum for Vacuum
    (basis vector 0 when left out); ``subsystem_dims`` optionally fixes
    the message x receiver split for EADimension; ``pg`` supplies a
    precomputed guessing probability for Information.
    """
    return a.membership(e, vacuum_vector, subsystem_dims, pg)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def basis_ensemble(d: int, n: int) -> StateEnsemble:
    """n pure states cycling through the computational basis of C^d."""
    if d < 1 or n < 1:
        raise ParamOutOfRangeError("d and n must be >= 1")
    vecs = np.zeros((n, d), dtype=complex)
    for x in range(n):
        vecs[x, x % d] = 1.0
    return ensemble_from_vectors(vecs)


def _shift_op(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=complex)
    for k in range(d):
        x[(k + 1) % d, k] = 1.0
    return x


def _clock_op(d: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def dense_coding_ensemble(d: int, n: int) -> StateEnsemble:
    """Dense-coding orbit of the maximally entangled state on C^d x C^d.

    State x applies the Weyl operator X^j Z^k to the second factor, with
    (j, k) = divmod(x mod d^2, d); for n > d^2 the orbit repeats.  All
    states share the maximally mixed marginal on the second factor.
    """
    if d < 1 or n < 1:
        raise ParamOutOfRangeError("d and n must be >= 1")
    phi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        phi[k * d + k] = 1.0 / math.sqrt(d)
    shift, clock = _shift_op(d), _clock_op(d)
    xpow = [np.linalg.matrix_power(shift, j) for j in range(d)]
    zpow = [np.linalg.matrix_power(clock, k) for k in range(d)]
    eye = np.eye(d, dtype=complex)
    vecs = np.empty((n, d * d), dtype=complex)
    for x in range(n):
        j, k = divmod(x % (d * d), d)
        vecs[x] = np.kron(eye, xpow[j] @ zpow[k]) @ phi
    return ensemble_from_vectors(vecs)


def equal_overlap_gram(n: int, a: float, border: float | None = None) -> np.ndarray:
    """The real Gram matrix (1-a) I + a J of n unit vectors with pairwise
    overlap ``a``.  With a ``border``, one more unit vector follows them,
    with overlap ``border`` to each (the bordered Gram matrix)."""
    size = n if border is None else n + 1
    gram = np.ones((size, size))
    gram[:n, :n] = (1.0 - a) * np.eye(n) + a * np.ones((n, n))
    if border is not None:
        gram[:n, n] = gram[n, :n] = border
    return gram


def equiangular_ensemble(n: int, a: float) -> StateEnsemble:
    """n pure states with constant real pairwise overlap ``a``.

    The Gram matrix is ``equal_overlap_gram(n, a)``; its rank sets the
    dimension.
    """
    if n < 2:
        raise ParamOutOfRangeError("need n >= 2 states")
    if a < -1.0 / (n - 1) - 1e-12 or a > 1.0 + 1e-12:
        raise GramNotPSDError(f"overlap {a} outside [-1/(n-1), 1] for n={n}")
    return ensemble_from_vectors(linalg.vectors_from_gram(equal_overlap_gram(n, a)))


def circulant_ensemble(eigenvalues) -> StateEnsemble:
    """The n pure states psi_x = sum_k sqrt(lam_k/n) w^(xk) e_k, w = e^(2 pi i/n),
    whose Gram matrix is circulant with eigenvalues ``eigenvalues``.

    There is one coordinate for each k with lam_k > 0, in increasing k.  The
    states are geometrically uniform, so the pretty good measurement is
    optimal for them and pg = (sum_k sqrt(lam_k))^2 / n^2 (Ban, Kurokawa,
    Momose & Hirota 1997; Eldar & Forney 2001).  The eigenvalues must be
    finite and >= 0 and sum to n within n TRACE_TOL, so that each state has
    unit trace; otherwise ParamOutOfRangeError is raised.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or not lam.size or not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
        raise ParamOutOfRangeError("eigenvalues must be a nonempty list of finite numbers >= 0")
    n = lam.size
    if not abs(lam.sum() - n) <= n * TRACE_TOL:
        raise ParamOutOfRangeError(f"eigenvalues must sum to n = {n}, got {lam.sum()}")
    kept = np.flatnonzero(lam > 0.0)
    # x k reduced mod n keeps the phase angles below 2 pi
    phases = np.exp(2j * np.pi * (np.outer(np.arange(n), kept) % n) / n)
    return ensemble_from_vectors(phases * np.sqrt(lam[kept] / n))


def coherent_state(alpha_mag: float, phase: float, cutoff: int) -> np.ndarray:
    """Truncated Fock-space coherent state, renormalized to unit norm.

    Photon-number probabilities are Poisson with mean |alpha|^2; the mass
    above ``cutoff`` must not exceed 1e-12.
    """
    if alpha_mag < 0.0:
        raise ParamOutOfRangeError("alpha magnitude must be >= 0")
    if cutoff < 1:
        raise ParamOutOfRangeError("cutoff must be a positive integer")
    nbar = alpha_mag * alpha_mag
    # Poisson tail mass above the cutoff
    term = math.exp(-nbar)
    cdf = term
    for k in range(1, cutoff + 1):
        term *= nbar / k
        cdf += term
    tail = max(0.0, 1.0 - cdf)
    if tail > 1e-12:
        raise CutoffTooSmallError(f"Poisson tail mass {tail:.3e} above cutoff {cutoff}")
    alpha = alpha_mag * complex(math.cos(phase), math.sin(phase))
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-nbar / 2.0)
    for k in range(1, cutoff + 1):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    return amps / np.linalg.norm(amps)


def almost_qubit_epsilon(nbar: float) -> float:
    """Weight of a coherent state outside span{|0>, |1>} at mean photon
    number ``nbar``: 1 - exp(-nbar) (1 + nbar).  Monotone increasing."""
    if nbar < 0.0:
        raise ParamOutOfRangeError("mean photon number must be >= 0")
    return 1.0 - math.exp(-nbar) * (1.0 + nbar)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def ensemble_to_json(e: StateEnsemble) -> dict:
    return {"n": e.n, "dim": e.dim, "states": to_json(e.states)}


def ensemble_from_json(obj: dict) -> StateEnsemble:
    return stack_from_json(obj, "states", StateEnsemble)


def assumption_to_json(a: Assumption) -> dict:
    out = {"kind": a.kind}
    for f in a.json_fields:
        value = getattr(a, f.key)
        if value is not None:
            out[f.key] = f.encode(value)
    return out


def assumption_from_json(obj) -> Assumption:
    """The assumption ``obj`` holds; a malformed one raises InfocapError."""
    kind = json_object(obj, ("kind",))["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InfocapError(f"unknown assumption kind {kind!r:.40}")
    json_object(obj, tuple(f.key for f in cls.json_fields if not f.optional))
    return cls(**{f.key: f.decode(obj[f.key]) for f in cls.json_fields if f.key in obj})
