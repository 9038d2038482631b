"""Seeded tightness searches over restricted ensembles.

For one assumption the search runs a fixed number of restarts: restart 0
evaluates a constructed seed, later restarts perturb it (rescaling each
state to keep weight exactly 1 - param inside the anchor projector that
the assumption's ``anchors`` names; overlap has no anchors, and its
candidates are only normalized), and a candidate that ``check_assumption``
finds a member is refined by the discrimination oracle; any other is reported
infeasible.  The report compares the best value found against the kind's
closed-form bound in ``bounds.BOUNDS``.

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
)
from .errors import ParamOutOfRangeError

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


def distrust_seed(targets: np.ndarray, eps: float) -> np.ndarray:
    n, dim_t = targets.shape
    vectors = np.zeros((n, dim_t + n), dtype=complex)
    vectors[:, :dim_t] = np.sqrt(1.0 - eps) * targets
    for x in range(n):
        vectors[x, dim_t + x] = np.sqrt(eps)
    return vectors


def _witness_seed(witness) -> tuple[np.ndarray, Assumption]:
    ens, searched = witness
    return ens.state_vectors(), searched


# The searchable kinds, keyed by assumption class: the seed builder, shaped
# like a bounds.WITNESSES row, (assumption, n) -> (seed vectors, one row per
# input; the assumption searched, with any witness data), and the largest
# state dimension on n inputs, in the seed or the saturating construction.
SEARCHES = {
    Vacuum: (lambda a, n: _witness_seed(WITNESSES[Vacuum](n, a.omega)), lambda a, n: n),
    UniformOverlap: (lambda a, n: _witness_seed(WITNESSES[UniformOverlap](n, a.a)), lambda a, n: n),
    AlmostDim: (lambda a, n: _witness_seed(WITNESSES[AlmostDim](n, a.d, a.eps)), lambda a, n: n),
    Distrust: (lambda a, n: (distrust_seed(a.targets, a.eps), a), lambda a, n: a.targets.shape[1] + n),
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


def _perturbed(
    seed_vectors: np.ndarray, anchors: np.ndarray | None, floor: float, restart: int, rng: np.random.Generator
) -> StateEnsemble:
    """The seed perturbed for ``restart`` >= 1, each state rescaled to keep
    weight exactly ``floor`` inside its anchor, and the rest in the anchor's
    complement; with no anchors, only normalized."""
    sigma = _SIGMAS[(restart - 1) % len(_SIGMAS)]
    shape = seed_vectors.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    perturbed = seed_vectors + sigma * noise
    if anchors is None:
        return ensemble_from_vectors(perturbed / np.linalg.norm(perturbed, axis=1, keepdims=True))
    vecs = np.empty_like(perturbed)
    for x, (v, anchor) in enumerate(zip(perturbed, anchors)):
        # Gaussian noise has a nonzero part in every nonzero subspace, so
        # neither part below has norm 0
        part = anchor @ v
        vecs[x] = inside = part / np.linalg.norm(part)
        # a floor of 1, or a full-rank anchor, leaves no weight outside
        if floor < 1.0 - 1e-15 and np.trace(anchor).real < shape[1] - 1e-9:
            # each part is normalized before it is scaled, the order in
            # which the pinned search digests were written
            rest = v - part
            vecs[x] = np.sqrt(floor) * inside + np.sqrt(1.0 - floor) * (rest / np.linalg.norm(rest))
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
    make_seed, _ = _search_row(assumption)
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
    seed_vectors, searched = make_seed(assumption, n)
    seed_ensemble = ensemble_from_vectors(seed_vectors)
    # the anchors that membership reads are the ones the perturbed states keep
    anchors = searched.anchors(seed_ensemble, None)
    floor = 1.0 - getattr(searched, searched.param)
    outcomes: list[RestartOutcome] = []
    best = 0.0
    for k in range(restarts):
        rng = np.random.default_rng(seed + k)
        cand = seed_ensemble if k == 0 else _perturbed(seed_vectors, anchors, floor, k, rng)
        if not check_assumption(cand, searched).satisfied:
            outcomes.append(RestartOutcome(index=k, value=0.0, converged=False, feasible=False))
            continue
        res = optimize_discrimination(cand, tol=tol, max_iter=MAX_ITER)
        outcomes.append(
            RestartOutcome(index=k, value=res.value, converged=res.converged, feasible=True)
        )
        best = max(best, res.value)
    return SearchReport(n=n, seed=seed, bound=bound, best_value=best, restarts=tuple(outcomes))
