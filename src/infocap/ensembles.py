"""State ensembles, preparation assumptions and membership checks.

An ensemble is ``n`` density matrices of a common dimension with a uniform
prior 1/n hard-coded; all capacity results here assume uniform inputs.
Constructors build the standard extremal families: computational bases,
dense-coding orbits of a maximally entangled state and the circulant
ensembles of a Gram spectrum, which ``bounds.WITNESSES`` takes for every
kind but EA-dimension.
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
    InfocapError,
    MissingContextError,
    MixedStateOverlapError,
    ParamOutOfRangeError,
)
from .serialize import from_json, json_float, json_number, json_object, stack_from_json, to_json

TRACE_TOL = 1e-10
PURITY_TOL = 1e-8
MEMBERSHIP_SLACK = 1e-8
UNIT_TOL = 1e-10  # max |norm - 1| of a distrust target or a vacuum vector
PROJECTOR_TOL = 1e-8  # entrywise tolerance of a supplied almost-dim projector


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
    if vectors.ndim != 2:
        raise DimensionMismatchError(f"vectors must be an (n, dim) array, got shape {vectors.shape}")
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


def check_integer(x, label: str) -> int:
    """``x`` as an int; ParamOutOfRangeError unless it is an integral real
    number (a fraction, NaN and an infinity fail)."""
    if isinstance(x, numbers.Integral):
        return int(x)
    if not isinstance(x, numbers.Real) or not math.isfinite(x) or x % 1:
        raise ParamOutOfRangeError(f"{label} must be an integer, got {x}")
    return int(x)


def _integer_d(d, what: str) -> int:
    # a fractional or non-finite d would be recorded as some integer
    # dimension whose bound is not d/n; an integral d is stored as an int
    d = check_integer(d, "d")
    if d < 1:
        raise ParamOutOfRangeError(f"{what} must be >= 1")
    return d


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

    A kind whose constraint is per-state weight defines ``anchors``
    instead of ``membership``: state x must keep weight at least
    1 - ``param`` inside its anchor projector.
    """

    kind: ClassVar[str]
    json_fields: ClassVar[tuple[_Field, ...]]
    param: ClassVar[str]
    larger_is_weaker: ClassVar[bool] = True
    shared_fields: ClassVar[tuple[str, ...]] = ()

    def anchors(self, e, vacuum_vector) -> np.ndarray | None:
        """The (n, dim, dim) stack of ``e``'s per-state anchor projectors, or
        None for a kind with no anchors."""
        return None

    def membership(self, e, vacuum_vector, subsystem_dims, pg) -> MembershipReport:
        """Membership of ``e``, given the context keywords of check_assumption."""
        weights = np.einsum("xij,xji->x", self.anchors(e, vacuum_vector), e.states).real
        floor = 1.0 - getattr(self, self.param)
        return slack_report([float(w - floor) for w in weights])


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
            return slack_report([0.0] * e.n)
        avg = e.states.mean(axis=0)
        w = np.linalg.eigvalsh(avg)[::-1]
        # joint support must fit in d dimensions: the (d+1)-th eigenvalue of
        # the average state must vanish
        slack = -float(w[d])
        return slack_report([slack])


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
        # necessary conditions only: a constant receiver marginal and, for
        # pure states, Schmidt number at most d
        margs = [linalg.partial_trace(rho, (da, db), trace_out=0) for rho in e.states]
        mean = sum(margs) / e.n
        slacks = [-float(np.max(np.abs(m - mean))) for m in margs]
        if all(e.pure_flags):
            # Schmidt number <= d per pure state: the (d+1)-th eigenvalue of
            # the reduced state must vanish
            for m in margs:
                w = np.linalg.eigvalsh(m)[::-1]
                slacks.append(-float(w[d]) if d < len(w) else 0.0)
        return slack_report(slacks)


@dataclass(frozen=True)
class Vacuum(Assumption):
    omega: float

    kind = "vacuum"
    json_fields = (_Field("omega", json_float),)
    param = "omega"

    def __post_init__(self):
        check_unit_interval(self.omega, "omega")

    def anchors(self, e, vacuum_vector):
        # the vacuum is basis vector 0 unless one is given
        v = np.eye(e.dim, dtype=complex)[0] if vacuum_vector is None else vacuum_vector
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != e.dim:
            raise DimensionMismatchError("vacuum vector dimension does not match the ensemble")
        if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
            raise ParamOutOfRangeError(f"vacuum vector must be finite and normalized within {UNIT_TOL:.0e}")
        return np.broadcast_to(np.outer(v, v.conj()), (e.n, e.dim, e.dim))


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


def _projector(p, d: int) -> np.ndarray:
    """A copy of ``p``, which must be a finite square Hermitian idempotent
    matrix of trace at most ``d``, each within PROJECTOR_TOL."""
    p = np.array(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or not p.size or not np.isfinite(p).all():
        raise ParamOutOfRangeError(f"projector must be a finite nonempty square matrix, got shape {p.shape}")
    if not max(np.max(np.abs(p - p.conj().T)), np.max(np.abs(p @ p - p))) <= PROJECTOR_TOL:
        raise ParamOutOfRangeError(f"projector must be Hermitian and idempotent within {PROJECTOR_TOL:.0e}")
    if not np.trace(p).real <= d + PROJECTOR_TOL:
        raise ParamOutOfRangeError(f"projector has trace {np.trace(p).real:.9g}, above d = {d}")
    return p


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
        if self.projector is not None:
            object.__setattr__(self, "projector", _projector(self.projector, self.d))

    def anchors(self, e, vacuum_vector):
        if self.projector is not None:
            pi = self.projector
        else:
            # heuristic witness: top-d eigenspace of the average state gives
            # a sound sufficient check of the existential projector (the
            # mean of exactly Hermitian states is exactly Hermitian)
            v = np.linalg.eigh(e.states.mean(axis=0))[1][:, ::-1][:, : self.d]
            pi = v @ v.conj().T
        if pi.shape != (e.dim, e.dim):
            raise DimensionMismatchError("projector dimension does not match the ensemble")
        return np.broadcast_to(pi, (e.n, e.dim, e.dim))


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
        if t.ndim != 2 or not t.size:
            raise ParamOutOfRangeError("targets must be a nonempty (n, dim) array of unit vectors")
        norms = np.linalg.norm(t, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= UNIT_TOL:
            raise ParamOutOfRangeError(f"target vectors must be normalized within {UNIT_TOL:.0e}")
        check_unit_interval(self.eps, "eps")
        object.__setattr__(self, "targets", t.copy())

    def anchors(self, e, vacuum_vector):
        t = self.targets
        if t.shape[0] != e.n:
            raise DimensionMismatchError("one target per state is required")
        if t.shape[1] > e.dim:
            raise DimensionMismatchError("targets live in a larger space than the lab states")
        if t.shape[1] < e.dim:
            t = np.pad(t, ((0, 0), (0, e.dim - t.shape[1])))
        return t[:, :, None] * t.conj()[:, None, :]


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
        if not math.isfinite(pg):
            raise ParamOutOfRangeError(f"pg must be finite, got {pg}")
        return slack_report([float(2.0**self.alpha / e.n - pg)])


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a membership check.

    ``worst_slack`` is the most-violated constraint margin (negative means
    violated).
    """

    satisfied: bool
    worst_slack: float


def slack_report(slacks: list[float]) -> MembershipReport:
    """The report of constraint margins ``slacks``: satisfied unless one falls
    below -MEMBERSHIP_SLACK."""
    worst = min(slacks) if slacks else 0.0
    return MembershipReport(satisfied=bool(worst >= -MEMBERSHIP_SLACK), worst_slack=float(worst))


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
    d, n = check_integer(d, "d"), check_integer(n, "n")
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
    d, n = check_integer(d, "d"), check_integer(n, "n")
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
    nbar = alpha_mag * alpha_mag
    # an infinite nbar would make the tail mass NaN, which passes its test
    if not (alpha_mag >= 0.0 and nbar < math.inf):
        raise ParamOutOfRangeError(f"alpha magnitude must be >= 0 with a finite square, got {alpha_mag}")
    if not math.isfinite(phase):
        raise ParamOutOfRangeError(f"phase must be finite, got {phase}")
    if check_integer(cutoff, "cutoff") < 1:
        raise ParamOutOfRangeError("cutoff must be a positive integer")
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
    if not math.isfinite(nbar):
        # inf or NaN would give eps = NaN
        raise ParamOutOfRangeError(f"mean photon number must be finite, got {nbar}")
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
    keys = {"kind"} | {f.key for f in cls.json_fields}
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise InfocapError(f"unknown field {unknown[0]!r:.40} for kind {kind}")
    return cls(**{f.key: f.decode(obj[f.key]) for f in cls.json_fields if f.key in obj})
