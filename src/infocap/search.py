"""Seeded tightness searches over restricted ensembles.

For one assumption the search runs a fixed number of restarts: restart 0
evaluates a constructed seed, later restarts perturb the seed and project
back onto the constraint surface (components renormalized so the defining
inequality holds with equality), and every candidate is refined by the
discrimination oracle.  The report compares the best value found against
the kind's closed-form bound in ``bounds.BOUNDS``.

Seeds: the vacuum, overlap and almost-dimension seeds are the kinds'
witnesses in ``bounds.WITNESSES``, which saturate the bound at every
parameter point.  The distrust seed attaches orthogonal tails of weight
eps to the user's targets; it is feasible but generally not optimal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bounds import BOUNDS, WITNESSES, BoundResult
from .discrimination import DEFAULT_TOL, optimize_discrimination
from .ensembles import (
    AlmostDim,
    Assumption,
    Distrust,
    StateEnsemble,
    UniformOverlap,
    Vacuum,
    check_assumption,
    ensemble_from_vectors,
    equal_overlap_gram,
)
from .errors import ParamOutOfRangeError
from .linalg import vectors_from_gram

_SIGMAS = (0.02, 0.05, 0.1, 0.2)
# the oracle's iteration cap for each restart
MAX_ITER = 2000


@dataclass(frozen=True)
class RestartOutcome:
    index: int
    value: float
    converged: bool
    feasible: bool


@dataclass(frozen=True, eq=False)
class SearchReport:
    assumption: Assumption
    n: int
    seed: int
    bound: BoundResult
    best_value: float
    restarts: tuple[RestartOutcome, ...]

    @property
    def gap(self) -> float:
        return self.bound.pg_bound - self.best_value

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "bound": self.bound.to_json(),
            "best_value": self.best_value,
            "gap": self.gap,
            "restarts": [asdict(r) for r in self.restarts],
        }


def _normalize_within(
    v: np.ndarray, proj: np.ndarray, sign: int, rng: np.random.Generator
) -> np.ndarray:
    """Unit vector along the projection of v onto proj (sign=+1) or its
    complement (sign=-1); draws a random direction in that subspace when
    the projection vanishes."""
    part = proj @ v if sign > 0 else v - proj @ v
    norm = np.linalg.norm(part)
    while norm < 1e-12:
        r = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        part = proj @ r if sign > 0 else r - proj @ r
        norm = np.linalg.norm(part)
    return part / norm


def _split_and_rescale(
    v: np.ndarray, proj: np.ndarray, weight: float, rng: np.random.Generator
) -> np.ndarray:
    """Rescale the component of v inside a projector to norm sqrt(weight)
    and the complement to sqrt(1-weight), so the defining constraint holds
    with equality."""
    inside = _normalize_within(v, proj, +1, rng)
    rank = float(np.trace(proj).real)
    if weight >= 1.0 - 1e-15 or rank >= v.shape[0] - 1e-9:
        # no tail weight requested, or no complement to put it in
        return inside
    outside = _normalize_within(v, proj, -1, rng)
    return np.sqrt(weight) * inside + np.sqrt(1.0 - weight) * outside


def distrust_seed(targets: np.ndarray, eps: float) -> np.ndarray:
    n, dim_t = targets.shape
    vectors = np.zeros((n, dim_t + n), dtype=complex)
    vectors[:, :dim_t] = np.sqrt(1.0 - eps) * targets
    for x in range(n):
        vectors[x, dim_t + x] = np.sqrt(eps)
    return vectors


def _project_overlap(gram: np.ndarray, a: float, n: int) -> np.ndarray:
    """Blend a perturbed Gram toward the equiangular one until every
    pairwise overlap magnitude is at least ``a``: by t = 1 at the latest,
    where the blend is the equiangular Gram, whose overlaps are ``a``."""
    eq = equal_overlap_gram(n, a)
    off = ~np.eye(n, dtype=bool)
    for t in np.linspace(0.0, 1.0, 21):
        g = (1.0 - t) * gram + t * eq
        if np.min(np.abs(g[off])) >= a - 1e-12:
            break
    return g


@dataclass(frozen=True, eq=False)
class _Plan:
    """One search: the assumption searched (with any witness filled in), the
    saturating seed (one row per input) and the membership context.

    The constraint surface a perturbed seed is projected back onto is data:
    state x keeps weight ``weight`` inside its anchor projector
    ``anchors[x]``.  Overlap has no anchors, since its constraint is
    pairwise: its perturbed Gram matrix is blended toward the equiangular
    one until every pairwise overlap is at least ``weight``.
    """

    assumption: Assumption
    seed_vectors: np.ndarray
    anchors: np.ndarray | None
    weight: float
    membership_aux: dict


def _vacuum_plan(a, n) -> _Plan:
    ens, _, aux = WITNESSES[Vacuum](n, a.omega)
    vacuum = aux["vacuum_vector"]
    anchors = np.broadcast_to(np.outer(vacuum, vacuum.conj()), (n, ens.dim, ens.dim))
    return _Plan(a, ens.state_vectors(), anchors, 1.0 - a.omega, aux)


def _overlap_plan(a, n) -> _Plan:
    ens, _, aux = WITNESSES[UniformOverlap](n, a.a)
    return _Plan(a, ens.state_vectors(), None, a.a, aux)


def _almost_dim_plan(a, n) -> _Plan:
    ens, witnessed, aux = WITNESSES[AlmostDim](n, a.d, a.eps)
    anchors = np.broadcast_to(witnessed.projector, (n, ens.dim, ens.dim))
    return _Plan(witnessed, ens.state_vectors(), anchors, 1.0 - a.eps, aux)


def _distrust_plan(a, n) -> _Plan:
    targets = a.targets
    seed_vectors = distrust_seed(targets, a.eps)
    padded = np.zeros((n, seed_vectors.shape[1]), dtype=complex)
    padded[:, : targets.shape[1]] = targets
    anchors = padded[:, :, None] * padded.conj()[:, None, :]
    return _Plan(a, seed_vectors, anchors, 1.0 - a.eps, {})


# The searchable kinds, keyed by assumption class: the plan builder
# (assumption, n) -> _Plan, and the largest state dimension on n
# inputs, in the kind's seed or in its saturating construction.
SEARCHES = {
    Vacuum: (_vacuum_plan, lambda a, n: n),
    UniformOverlap: (_overlap_plan, lambda a, n: n),
    AlmostDim: (_almost_dim_plan, lambda a, n: n),
    Distrust: (_distrust_plan, lambda a, n: a.targets.shape[1] + n),
}
# n states of dimension dim are a stack of dim x dim complex128 matrices,
# 16 n dim**2 bytes, on which the oracle then works; a larger stack than
# this is refused before it is built
MAX_STATE_STACK_BYTES = 2**28


def _search_row(assumption: Assumption):
    if type(assumption) not in SEARCHES:
        raise ParamOutOfRangeError(f"search does not support assumption {assumption!r}")
    return SEARCHES[type(assumption)]


def check_state_stack(assumption: Assumption, n: int) -> None:
    """Raise ParamOutOfRangeError if the n states that a search, or a
    saturating construction, under ``assumption`` builds would take more
    than MAX_STATE_STACK_BYTES, or if its kind has no search."""
    _, state_dim = _search_row(assumption)
    dim = state_dim(assumption, n)
    size = 16 * n * dim * dim
    if size > MAX_STATE_STACK_BYTES:
        raise ParamOutOfRangeError(
            f"kind {assumption.kind} with n={n} needs {n} states of dimension {dim} ({size} bytes),"
            f" over the limit of {MAX_STATE_STACK_BYTES} bytes"
        )


def _candidate(plan: _Plan, restart: int, rng: np.random.Generator) -> StateEnsemble:
    """Restart 0 is the seed; a later restart perturbs it and projects it
    back onto the plan's constraint surface."""
    if restart == 0:
        return ensemble_from_vectors(plan.seed_vectors)
    sigma = _SIGMAS[(restart - 1) % len(_SIGMAS)]
    shape = plan.seed_vectors.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    perturbed = plan.seed_vectors + sigma * noise
    if plan.anchors is None:
        vecs = np.stack([v / np.linalg.norm(v) for v in perturbed])
        g = _project_overlap(vecs.conj() @ vecs.T, plan.weight, shape[0])
        return ensemble_from_vectors(vectors_from_gram(g))
    vecs = np.empty_like(perturbed)
    for x in range(shape[0]):
        vecs[x] = _split_and_rescale(perturbed[x], plan.anchors[x], plan.weight, rng)
    return ensemble_from_vectors(vecs)


def tightness_search(
    assumption: Assumption,
    n: int | None = None,
    *,
    restarts: int = 16,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SearchReport:
    """Search for the best guessing value inside one assumption set.

    ``n`` is required, except for Distrust, whose n is the number of its
    targets (an ``n`` given with them must equal it).  ``restarts`` must
    be at least 1, ``seed`` at least 0, and the states must fit
    ``check_state_stack``; otherwise ParamOutOfRangeError is raised,
    before anything is built.

    Deterministic for a fixed ``seed``: restart k draws from a generator
    seeded with seed + k.
    """
    make_plan, _ = _search_row(assumption)
    # a distrust search has one input per target
    count = assumption.targets.shape[0] if isinstance(assumption, Distrust) else n
    if count is not None:
        check_state_stack(assumption, count)
    if n not in (None, count):
        raise ParamOutOfRangeError(f"n must equal the {count} targets for a distrust search, got {n}")
    if count is None:
        raise ParamOutOfRangeError(f"{assumption.kind} search needs n")
    n = count
    if restarts < 1:
        raise ParamOutOfRangeError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ParamOutOfRangeError(f"seed must be >= 0, got {seed}")
    # the bound checks its parameters before the seed does
    bound = BOUNDS[type(assumption)](assumption, n, tol)
    plan = make_plan(assumption, n)
    outcomes: list[RestartOutcome] = []
    best = 0.0
    for k in range(restarts):
        rng = np.random.default_rng(seed + k)
        cand = _candidate(plan, k, rng)
        if not check_assumption(cand, plan.assumption, **plan.membership_aux).satisfied:
            outcomes.append(RestartOutcome(index=k, value=0.0, converged=False, feasible=False))
            continue
        res = optimize_discrimination(cand, tol=tol, max_iter=MAX_ITER)
        outcomes.append(
            RestartOutcome(index=k, value=res.value, converged=res.converged, feasible=True)
        )
        best = max(best, res.value)
    return SearchReport(
        assumption=plan.assumption,
        n=n,
        seed=seed,
        bound=bound,
        best_value=best,
        restarts=tuple(outcomes),
    )
