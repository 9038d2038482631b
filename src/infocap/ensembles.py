"""State ensembles, preparation assumptions and membership checks.

An ensemble is ``n`` density matrices of a common dimension with a uniform
prior 1/n hard-coded; all capacity results here assume uniform inputs.
Constructors build the standard extremal families: computational bases,
dense-coding orbits of a maximally entangled state, equiangular sets,
vacuum-centred cones and almost-qudit states with small out-of-subspace
tails.
"""

from __future__ import annotations

import math
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
    OmegaOutOfRangeError,
    ParamOutOfRangeError,
)
from .serialize import (
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)

TRACE_TOL = 1e-10
PURITY_TOL = 1e-8
MEMBERSHIP_SLACK = 1e-8


@dataclass(frozen=True, eq=False)
class StateEnsemble:
    """n density matrices (dim x dim) with uniform prior 1/n.

    ``states`` has shape (n, dim, dim).  Validation enforces Hermiticity,
    positivity within linalg.PSD_SLACK and unit trace within TRACE_TOL.
    """

    states: np.ndarray
    pure_flags: tuple[bool, ...] = field(default=())

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise DimensionMismatchError(f"states must have shape (n, d, d), got {states.shape}")
        if states.shape[0] < 1:
            raise InfocapError("an ensemble needs at least one state")
        if not np.isfinite(states).all():
            raise InfocapError("states must have finite entries")
        dev = linalg.hermitian_deviations(states)
        traces = np.trace(states, axis1=1, axis2=2)
        # the Hermitian part is stored, so later operators built from the
        # states are Hermitian however far within the tolerance the input was
        herm = linalg.hermitize(states)
        lowest = linalg.lowest_eigenvalues(herm)
        non_hermitian = dev > 100 * linalg.HERMITIAN_TOL
        off_trace = np.abs(traces - 1.0) > TRACE_TOL
        bad = np.flatnonzero(non_hermitian | off_trace | (lowest < -linalg.PSD_SLACK))
        if bad.size:
            i = bad[0]
            if non_hermitian[i]:
                raise InfocapError(f"state {i} deviates from Hermiticity by {dev[i]:.3e}")
            if off_trace[i]:
                raise InfocapError(f"state {i} has trace {complex(traces[i])}, expected 1")
            raise InfocapError(f"state {i} has eigenvalue {lowest[i]:.3e}")
        states = herm
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        if not self.pure_flags:
            purities = np.einsum("xij,xji->x", states, states).real
            object.__setattr__(
                self, "pure_flags", tuple(bool(p >= 1.0 - PURITY_TOL) for p in purities)
            )

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_vectors(self) -> np.ndarray:
        """Top eigenvectors, phase-fixed; meaningful for pure states only."""
        vecs = np.empty((self.n, self.dim), dtype=complex)
        for i, rho in enumerate(self.states):
            dec = linalg.hermitian_eig(rho)
            v = dec.eigenvectors[:, 0]
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


class _Field(NamedTuple):
    """One JSON field of an assumption; ``key`` is also the dataclass field.
    An optional field is left out of the JSON when its value is None."""

    key: str
    decode: Callable
    encode: Callable = _as_is
    optional: bool = False


def _vectors_from_json(obj: list) -> np.ndarray:
    return np.stack([vector_from_json(t) for t in obj])


def _vectors_to_json(vectors: np.ndarray) -> list:
    return [vector_to_json(t) for t in vectors]


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
    json_fields = (_Field("d", int),)
    param = "d"

    def __post_init__(self):
        if self.d < 1:
            raise ParamOutOfRangeError("dimension must be >= 1")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        d = self.d
        if e.dim <= d:
            return _report([0.0] * e.n, note="ambient dimension within bound")
        avg = linalg.hermitize(e.states.mean(axis=0))
        w = np.linalg.eigvalsh(avg)[::-1]
        # joint support must fit in d dimensions: the (d+1)-th eigenvalue of
        # the average state must vanish
        slack = -float(w[d])
        return _report([slack], note="slack is minus the (d+1)-th eigenvalue of the average state")


@dataclass(frozen=True)
class EADimension(Assumption):
    d: int

    kind = "ea_dimension"
    json_fields = (_Field("d", int),)
    param = "d"

    def __post_init__(self):
        if self.d < 1:
            raise ParamOutOfRangeError("message dimension must be >= 1")

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
                w = np.linalg.eigvalsh(linalg.hermitize(m))[::-1]
                slacks.append(-float(w[d]) if d < len(w) else 0.0)
            note += " and Schmidt number"
        return _report(slacks, note=note)


@dataclass(frozen=True)
class Vacuum(Assumption):
    omega: float

    kind = "vacuum"
    json_fields = (_Field("omega", float),)
    param = "omega"

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ParamOutOfRangeError("omega must lie in [0, 1]")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        if vacuum_vector is None:
            raise MissingContextError("vacuum membership needs a designated vacuum vector")
        v = np.asarray(vacuum_vector, dtype=complex).reshape(-1)
        if v.shape[0] != e.dim:
            raise DimensionMismatchError("vacuum vector dimension does not match the ensemble")
        weights = np.einsum("i,xij,j->x", v.conj(), e.states, v).real
        return _report([float(self.omega - (1.0 - w)) for w in weights])


@dataclass(frozen=True)
class UniformOverlap(Assumption):
    a: float

    kind = "uniform_overlap"
    json_fields = (_Field("a", float),)
    param = "a"
    # a larger required overlap is a stronger constraint
    larger_is_weaker = False

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ParamOutOfRangeError("overlap must lie in [0, 1]")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        if not all(e.pure_flags):
            raise MixedStateOverlapError("overlap membership is defined for pure ensembles only")
        # |<psi_x|psi_y>| = sqrt(tr rho_x rho_y) for pure states
        g = np.einsum("xij,yji->xy", e.states, e.states).real
        ov = np.sqrt(np.clip(g, 0.0, None))
        slacks = [float(ov[x, y] - self.a) for x in range(e.n) for y in range(x + 1, e.n)]
        return _report(slacks if slacks else [0.0])


@dataclass(frozen=True, eq=False)
class AlmostDim(Assumption):
    d: int
    eps: float
    projector: np.ndarray | None = None

    kind = "almost_dim"
    json_fields = (
        _Field("d", int),
        _Field("eps", float),
        # a lambda, so a wrapper on this module's matrix_from_json sees the call
        _Field("projector", lambda obj: matrix_from_json(obj), matrix_to_json, optional=True),
    )
    param = "eps"
    shared_fields = ("d",)

    def __post_init__(self):
        if self.d < 1:
            raise ParamOutOfRangeError("dimension must be >= 1")
        if not 0.0 <= self.eps <= 1.0:
            raise ParamOutOfRangeError("eps must lie in [0, 1]")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        if self.projector is not None:
            note = "supplied projector"
            pi = np.asarray(self.projector, dtype=complex)
        else:
            # heuristic witness: top-d eigenspace of the average state gives
            # a sound sufficient check of the existential projector
            dec = linalg.hermitian_eig(e.states.mean(axis=0))
            v = dec.eigenvectors[:, : self.d]
            pi = v @ v.conj().T
            note = "top-d eigenspace of the average state"
        if pi.shape != (e.dim, e.dim):
            raise DimensionMismatchError("projector dimension does not match the ensemble")
        weights = np.einsum("ij,xji->x", pi, e.states).real
        return _report([float(w - (1.0 - self.eps)) for w in weights], note=note)


@dataclass(frozen=True, eq=False)
class Distrust(Assumption):
    """Target unit vectors as rows of ``targets``."""

    targets: np.ndarray
    eps: float

    kind = "distrust"
    json_fields = (_Field("eps", float), _Field("targets", _vectors_from_json, _vectors_to_json))
    param = "eps"
    shared_fields = ("targets",)

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=complex)
        if t.ndim != 2:
            raise ParamOutOfRangeError("targets must be an (n, dim) array of unit vectors")
        norms = np.linalg.norm(t, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ParamOutOfRangeError("target vectors must be normalized within 1e-10")
        if not 0.0 <= self.eps <= 1.0:
            raise ParamOutOfRangeError("eps must lie in [0, 1]")
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
        return _report([float(f - (1.0 - self.eps)) for f in fid])


@dataclass(frozen=True)
class Information(Assumption):
    alpha: float

    kind = "information"
    json_fields = (_Field("alpha", float),)
    param = "alpha"

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ParamOutOfRangeError("alpha must be >= 0")

    def membership(self, e, vacuum_vector, subsystem_dims, pg):
        if pg is None:
            raise MissingContextError(
                "information membership needs a precomputed guessing probability (pg)"
            )
        return _report([float(2.0**self.alpha / e.n - pg)])


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


def _report(slacks: list[float], note: str = "") -> MembershipReport:
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

    Context keywords: ``vacuum_vector`` is required for Vacuum;
    ``subsystem_dims`` optionally fixes the message x receiver split for
    EADimension; ``pg`` supplies a precomputed guessing probability for
    Information.
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


def equiangular_ensemble(n: int, a: float) -> StateEnsemble:
    """n pure states with constant real pairwise overlap ``a``.

    The Gram matrix is (1-a) I + a J; its rank sets the dimension.
    """
    if n < 2:
        raise ParamOutOfRangeError("need n >= 2 states")
    if a < -1.0 / (n - 1) - 1e-12 or a > 1.0 + 1e-12:
        raise GramNotPSDError(f"overlap {a} outside [-1/(n-1), 1] for n={n}")
    gram = (1.0 - a) * np.eye(n) + a * np.ones((n, n))
    return ensemble_from_vectors(linalg.vectors_from_gram(gram))


def _rotate_last_to_first_axis(vectors: np.ndarray) -> np.ndarray:
    """Apply a common unitary sending the last row to e_0 (positive phase)."""
    u = vectors[-1]
    dim = vectors.shape[1]
    basis = np.eye(dim, dtype=complex)
    basis[:, 0] = u
    q, _ = np.linalg.qr(basis)
    # QR may flip the first column's phase relative to u
    phase = complex(q[:, 0].conj() @ u)
    q[:, 0] *= phase / abs(phase)
    return vectors @ q.conj()


def vacuum_cone_ensemble(n: int, omega: float) -> tuple[StateEnsemble, np.ndarray]:
    """n pure states on the boundary of the cone of angle arccos(sqrt(1-omega))
    around a common vacuum direction, with minimal equal pairwise overlap.

    Returns (ensemble, vacuum_vector); the vacuum is rotated onto e_0.  Each
    state has vacuum amplitude sqrt(1-omega) and the pairwise overlaps equal
    1 - n*omega/(n-1), the smallest value compatible with positivity of the
    bordered Gram matrix.
    """
    if n < 2:
        raise ParamOutOfRangeError("need n >= 2 states")
    if omega < 0.0 or omega > (n - 1) / n + 1e-12:
        raise OmegaOutOfRangeError(
            f"omega={omega} outside [0, (n-1)/n]; beyond that bound the "
            "guessing probability is trivially 1 and the cone is undefined"
        )
    a = 1.0 - n * omega / (n - 1)
    gram = np.empty((n + 1, n + 1))
    gram[:n, :n] = (1.0 - a) * np.eye(n) + a * np.ones((n, n))
    gram[:n, n] = math.sqrt(1.0 - omega)
    gram[n, :n] = math.sqrt(1.0 - omega)
    gram[n, n] = 1.0
    vectors = linalg.vectors_from_gram(gram)
    vectors = _rotate_last_to_first_axis(vectors)
    vacuum = vectors[-1].copy()
    return ensemble_from_vectors(vectors[:n]), vacuum


def almost_qudit_ensemble(d: int, n: int, eps: float) -> tuple[StateEnsemble, np.ndarray]:
    """n pure states with weight exactly 1-eps inside a fixed d-dim subspace.

    States are sqrt(1-eps) |e_{x mod d}> plus sqrt(eps) times mutually
    orthogonal tail vectors.  Returns (ensemble, projector onto the
    d-dimensional subspace).
    """
    if d < 1 or n < 1 or d > n:
        raise ParamOutOfRangeError("need 1 <= d <= n")
    if not 0.0 <= eps <= 1.0:
        raise ParamOutOfRangeError("eps must lie in [0, 1]")
    dim = d + n
    vecs = np.zeros((n, dim), dtype=complex)
    for x in range(n):
        vecs[x, x % d] = math.sqrt(1.0 - eps)
        vecs[x, d + x] = math.sqrt(eps)
    projector = np.zeros((dim, dim), dtype=complex)
    projector[:d, :d] = np.eye(d)
    return ensemble_from_vectors(vecs), projector


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
    return {
        "n": e.n,
        "dim": e.dim,
        "states": [matrix_to_json(rho) for rho in e.states],
    }


def ensemble_from_json(obj: dict) -> StateEnsemble:
    states = np.stack([matrix_from_json(s) for s in obj["states"]])
    e = StateEnsemble(states)
    if e.n != int(obj["n"]) or e.dim != int(obj["dim"]):
        raise DimensionMismatchError("declared n/dim do not match the state list")
    return e


def assumption_to_json(a: Assumption) -> dict:
    out = {"kind": a.kind}
    for f in a.json_fields:
        value = getattr(a, f.key)
        if value is not None:
            out[f.key] = f.encode(value)
    return out


def assumption_from_json(obj: dict) -> Assumption:
    kind = obj["kind"]
    cls = _KINDS.get(kind)
    if cls is None:
        raise InfocapError(f"unknown assumption kind {kind!r}")
    return cls(
        **{f.key: f.decode(obj[f.key]) for f in cls.json_fields if not f.optional or f.key in obj}
    )
