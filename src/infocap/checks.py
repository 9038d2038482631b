"""Built-in reference checks.

Every check pins one headline result of the library at its stated
tolerance: saturation of each closed-form bound by its matching
construction, the reference counterexample values, algebraic identities,
soundness sweeps over random restricted ensembles, and byte-level
determinism of the command-line tools.  The same registry backs both the
``infocap paper-numbers`` command and the acceptance test suite.

Every comparison of a value with its bound is one-sided: a value more than
``SOUND_SLACK`` above its bound is unsound, and a witness's value more than
``TIGHT_LIMIT`` below its bound (or below an exact reference value) is not
tight; ``_judge`` makes both tests.  A two-sided ``|value - bound|`` test
could not tell the two apart.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds, linalg
from .discrimination import (
    DEFAULT_TOL,
    accessible_information,
    dual_certificate,
    guess_value,
    optimize_discrimination,
    pgm,
)
from .ensembles import (
    AlmostDim,
    Dimension,
    Distrust,
    EADimension,
    Information,
    StateEnsemble,
    UniformOverlap,
    Vacuum,
    check_assumption,
    ensemble_from_vectors,
    equal_overlap_gram,
)
from .randomness import (
    SRStrategy,
    check_average,
    concavity_probe,
    ea_average_counterexample,
    embed_cq,
    mixture_guess_value,
    scalar_param,
)
from .search import distrust_seed, tightness_search


SOUND_SLACK = 1e-9
TIGHT_LIMIT = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


# ---------------------------------------------------------------------------
# random members of each assumption set, shaped like bounds.WITNESSES rows:
# (ensemble, assumption) pairs
# ---------------------------------------------------------------------------


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unit vector in C^dim."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _maybe_mix(rng: np.random.Generator, vectors: np.ndarray) -> StateEnsemble:
    """Pure ensemble from row vectors or, half the time, a pairwise mixture
    of them (stays inside every linear constraint set)."""
    states = np.einsum("xi,xj->xij", vectors, vectors.conj())
    if rng.uniform() < 0.5 and len(vectors) > 1:
        lam = rng.uniform(0.6, 1.0, size=len(vectors))
        partner = rng.permutation(len(vectors))
        states = lam[:, None, None] * states + (1 - lam)[:, None, None] * states[partner]
    return StateEnsemble(states)


def _member_dimension(rng: np.random.Generator):
    d = int(rng.integers(1, 5))
    n = int(rng.integers(2, 7))
    vecs = np.stack([random_unit(rng, d) for _ in range(n)])
    e = _maybe_mix(rng, vecs)
    return e, Dimension(d=d)


def _member_ea_dimension(rng: np.random.Generator):
    d = int(rng.integers(2, 4))
    n = int(rng.integers(d * d + 1, 3 * d * d))
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / math.sqrt(d)
    vecs = np.stack([np.kron(_random_unitary(rng, d), np.eye(d)) @ phi for _ in range(n)])
    e = ensemble_from_vectors(vecs)
    return e, EADimension(d=d)


def _member_vacuum(rng: np.random.Generator):
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(2, 5))
    omega = rng.uniform(0.0, 0.9 * (n - 1) / n)
    # the vacuum is basis vector 0
    vecs = np.zeros((n, dim), dtype=complex)
    for x in range(n):
        w = rng.uniform(0.0, omega)
        vecs[x, 0] = math.sqrt(1.0 - w)
        vecs[x, 1:] = math.sqrt(w) * random_unit(rng, dim - 1)
    e = _maybe_mix(rng, vecs)
    return e, Vacuum(omega=omega)


def _member_overlap(rng: np.random.Generator):
    n = int(rng.integers(2, 6))
    a = rng.uniform(0.05, 0.95)
    raw = np.abs(rng.standard_normal((n, n)))  # nonnegative rows keep W >= 0
    w = raw @ raw.T
    dnorm = np.sqrt(np.diag(w))
    w = w / np.outer(dnorm, dnorm)
    gram = a * np.ones((n, n)) + (1.0 - a) * w
    np.fill_diagonal(gram, 1.0)
    e = ensemble_from_vectors(linalg.vectors_from_gram(gram))
    return e, UniformOverlap(a=a)


def _member_almost_dim(rng: np.random.Generator):
    d = int(rng.integers(1, 4))
    n = int(rng.integers(d, 7)) if d > 1 else int(rng.integers(2, 7))
    eps = rng.uniform(0.0, 0.5)
    dim = d + n
    proj = np.zeros((dim, dim), dtype=complex)
    proj[:d, :d] = np.eye(d)
    vecs = np.empty((n, dim), dtype=complex)
    for x in range(n):
        beta = rng.uniform(1.0 - eps, 1.0)
        head = np.zeros(dim, dtype=complex)
        head[:d] = random_unit(rng, d)
        tail = np.zeros(dim, dtype=complex)
        tail[d:] = random_unit(rng, n)
        vecs[x] = math.sqrt(beta) * head + math.sqrt(1.0 - beta) * tail
    e = _maybe_mix(rng, vecs)
    return e, AlmostDim(d=d, eps=eps, projector=proj)


def _member_distrust(rng: np.random.Generator):
    n = int(rng.integers(2, 5))
    dim_t = int(rng.integers(2, 4))
    eps = rng.uniform(0.0, 0.4)
    targets = np.stack([random_unit(rng, dim_t) for _ in range(n)])
    dim = dim_t + n

    def lab(x):
        beta = rng.uniform(1.0 - eps, 1.0)
        v = np.zeros(dim, dtype=complex)
        v[:dim_t] = math.sqrt(beta) * targets[x]
        v[dim_t + x] = math.sqrt(1.0 - beta)
        return np.outer(v, v.conj())

    # the fidelity floor is per state with its own target, so mixtures must
    # stay within one x: blend two independent member draws for the same x
    states = []
    for x in range(n):
        if rng.uniform() < 0.5:
            lam = rng.uniform(0.0, 1.0)
            states.append(lam * lab(x) + (1.0 - lam) * lab(x))
        else:
            states.append(lab(x))
    return StateEnsemble(np.stack(states)), Distrust(targets=targets, eps=eps)


# two-branch average-parameter strategies built from saturating members:
# each builder maps (rng, branch weights) to (strategy, the bound as a
# function of the average parameter)


def _witness_strategy(cls, weights, points):
    """The strategy of witnesses of ``cls`` at ``points``."""
    return SRStrategy(tuple((w, *bounds.WITNESSES[cls](*point)) for w, point in zip(weights, points)))


def _average_dimension(rng: np.random.Generator, weights: tuple[float, float]):
    n = int(rng.integers(4, 7))
    ds = [int(rng.integers(1, 5)) for _ in range(2)]
    strategy = _witness_strategy(Dimension, weights, [(n, d) for d in ds])
    # the averaged d is fractional, which only the raw formula accepts
    return strategy, lambda avg: bounds.dimension_pg([n], avg)[0][0]


def _average_vacuum(rng: np.random.Generator, weights: tuple[float, float]):
    n = int(rng.integers(2, 6))
    omegas = [float(rng.uniform(0.0, (n - 1) / n)) for _ in range(2)]
    strategy = _witness_strategy(Vacuum, weights, [(n, w) for w in omegas])
    return strategy, lambda avg: bounds.bound_vacuum(n, avg).pg_bound


def _average_overlap(rng: np.random.Generator, weights: tuple[float, float]):
    n = int(rng.integers(2, 6))
    overlaps = [float(rng.uniform(0.05, 0.95)) for _ in range(2)]
    strategy = _witness_strategy(UniformOverlap, weights, [(n, a) for a in overlaps])
    return strategy, lambda avg: bounds.bound_overlap(n, avg).pg_bound


def _average_almost_dim(rng: np.random.Generator, weights: tuple[float, float]):
    d, n = 2, 4
    epss = [float(rng.uniform(0.0, 0.4)) for _ in range(2)]
    strategy = _witness_strategy(AlmostDim, weights, [(n, d, eps) for eps in epss])
    return strategy, lambda avg: bounds.bound_almost_dim(d, n, avg).pg_bound


def _average_distrust(rng: np.random.Generator, weights: tuple[float, float]):
    n, dim_t = 3, 2
    targets = np.stack([random_unit(rng, dim_t) for _ in range(n)])
    epss = [float(rng.uniform(0.0, 0.4)) for _ in range(2)]
    branches = tuple(
        (w, ensemble_from_vectors(distrust_seed(targets, eps)), Distrust(targets=targets, eps=eps))
        for w, eps in zip(weights, epss)
    )
    bound = lambda avg: bounds.bound_distrust(ensemble_from_vectors(targets), avg).pg_bound
    return SRStrategy(branches), bound


# per assumption class, in the order the checks draw from their rngs: the
# member sampler and the average-strategy builder (None where no average
# bound holds: the entanglement-assisted dimension counterexample)
_SAMPLERS = {
    Dimension: (_member_dimension, _average_dimension),
    EADimension: (_member_ea_dimension, None),
    Vacuum: (_member_vacuum, _average_vacuum),
    UniformOverlap: (_member_overlap, _average_overlap),
    AlmostDim: (_member_almost_dim, _average_almost_dim),
    Distrust: (_member_distrust, _average_distrust),
}


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _judge(rows, tight: float | None = TIGHT_LIMIT) -> tuple[bool, str]:
    """The verdict on ``rows`` of (kind, value, bound): each value at most
    SOUND_SLACK above its bound and, unless ``tight`` is None, at most
    ``tight`` below it; a NaN value fails.  The detail names the kind of the
    row furthest past, or nearest to, a limit."""
    over = [value - bound for _, value, bound in rows]
    past = [o - SOUND_SLACK if tight is None else max(o - SOUND_SLACK, -o - tight) for o in over]
    worst = max(range(len(rows)), key=past.__getitem__)
    detail = f"{rows[worst][0]}: max value - bound = {max(over):.2e}"
    if tight is not None:
        detail += f", max bound - value = {-min(over):.2e}"
    return all(p <= 0.0 for p in past), detail


# A saturation measure maps (grid point, witness ensemble, its oracle result,
# the bound there) to a number whose largest value over a grid is checked.


def _info_excess(point, e, res, bound) -> float:
    # d = 1 values can sit one ulp below 1/n; the clamp is expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return accessible_information(e.n, res.value) - bound.info_bits


def _pgm_deficit(point, e, res, bound) -> float:
    return bound.pg_bound - guess_value(e, pgm(e))


def _bordered_gram_eig(point, e, res, bound) -> float:
    # zero when min_overlap_vacuum is the least overlap keeping it PSD; past
    # omega = (n-1)/n the witness stays the orthonormal basis of (n-1)/n
    n, omega = point
    omega = min(omega, (n - 1) / n)
    gram = equal_overlap_gram(n, bounds.min_overlap_vacuum(n, omega), border=math.sqrt(1.0 - omega))
    return abs(linalg.min_eigenvalue(gram))


def _saturation(cls, grid, *measures) -> Callable[[], tuple[bool, str]]:
    """The check that the witness of ``cls`` in bounds.WITNESSES attains its
    bound in bounds.BOUNDS at each point (n, *params) of ``grid``: the
    witness is a member of its assumption, its oracle value is judged
    against the bound, and each measure (label, function, limit) stays
    within its limit."""

    def check() -> tuple[bool, str]:
        rows = []
        worst = [-math.inf] * len(measures)
        for point in grid:
            e, assumption = bounds.WITNESSES[cls](*point)
            report = check_assumption(e, assumption)
            if not report.satisfied:
                return False, f"{cls.kind}: witness at {point} not a member (slack {report.worst_slack:.2e})"
            res = optimize_discrimination(e, tol=1e-12)
            at = bounds.BOUNDS[cls](assumption, point[0], DEFAULT_TOL)
            rows.append((cls.kind, res.value, at.pg_bound))
            worst = [max(w, f(point, e, res, at)) for w, (_, f, _) in zip(worst, measures)]
        ok, detail = _judge(rows)
        return ok and all(w <= m[2] for w, m in zip(worst, measures)), (
            detail + "".join(f", max {m[0]} = {w:.2e}" for w, m in zip(worst, measures)))

    return check


def _check_ea_counterexample() -> tuple[bool, str]:
    peak, average = ea_average_counterexample(tol=1e-10)
    cap = bounds.bound_ea_dimension(3, 30).pg_bound
    ok, detail = _judge([("peak", peak, 9.0 / 30.0), ("average", average, 11.0 / 30.0)])
    return ok and average > cap, f"{detail}; average {average:.6f} > bound at avg dim {cap:.6f}"


def _check_helstrom_pairs() -> tuple[bool, str]:
    rng = np.random.default_rng(20240501)
    rows = []
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        v1, v2 = random_unit(rng, dim), random_unit(rng, dim)
        a = abs(np.vdot(v1, v2))
        helstrom = (1.0 + math.sqrt(max(0.0, 1.0 - a * a))) / 2.0
        res = optimize_discrimination(ensemble_from_vectors(np.stack([v1, v2])), tol=1e-12)
        rows.append(("helstrom", res.value, helstrom))
    return _judge(rows)


def _random_lemma_triple(rng: np.random.Generator):
    dim = int(rng.integers(2, 7))
    rank = int(rng.integers(1, dim))
    u = _random_unitary(rng, dim)
    pi = u[:, :rank] @ u[:, :rank].conj().T
    phi = random_unit(rng, dim)
    mu = rng.uniform(-1.0 + 1e-6, 4.0)
    return phi, pi, mu


def _check_lemma() -> tuple[bool, str]:
    rng = np.random.default_rng(20240502)
    triples = [_random_lemma_triple(rng) for _ in range(1000)]
    holds = sum(bounds.lemma_check(phi, pi, mu, tol=1e-9) for phi, pi, mu in triples)
    fails = sum(
        not bounds.lemma_check(phi, pi, mu, tol=1e-9, h_scale=0.5)
        for phi, pi, mu in triples
    )
    ok = holds == 1000 and fails > 950
    return ok, f"{holds}/1000 hold, negative control fails {fails}/1000"


def _check_deviation_vacuum_identity() -> tuple[bool, str]:
    worst = 0.0
    for n in range(2, 52):
        for omega in np.linspace(0.0, (n - 1) / n, 50):
            omega = float(omega)
            diff = abs(bounds.bound_eps(1.0 / n, omega) - bounds.bound_vacuum(n, omega).pg_bound)
            worst = max(worst, diff)
    return worst <= 1e-12, f"max |deviation bound at pg0=1/n - vacuum bound| = {worst:.2e}"


def _check_almost_dim_search() -> tuple[bool, str]:
    reports = [tightness_search(AlmostDim(d=2, eps=eps), n=4, restarts=16, seed=0) for eps in (0.01, 0.05, 0.1)]
    ok, detail = _judge([("almost_dim", r.best_value, r.bound.pg_bound) for r in reports], tight=1e-3)
    return ok, f"{detail} over eps in {{0.01, 0.05, 0.1}}"


def _check_soundness_sweep() -> tuple[bool, str]:
    # Each member is judged on its oracle value.  Its PGM's certified upper
    # bound is at least the optimum: a member whose certificate passes is
    # sound unsolved, with the certificate as its row; the others are solved.
    rng = np.random.default_rng(20240503)
    rows = []
    solved = 0
    for cls, (sampler, _) in _SAMPLERS.items():
        for _ in range(1000):
            e, assumption = sampler(rng)
            report = check_assumption(e, assumption)
            if not report.satisfied:
                return False, f"{cls.kind} sampler produced a non-member (slack {report.worst_slack:.2e})"
            bound = bounds.BOUNDS[cls](assumption, e.n, 1e-9).pg_bound
            row = (cls.kind, dual_certificate(e, pgm(e)).certified_upper(), bound)
            if not _judge([row], tight=None)[0]:
                solved += 1
                row = (cls.kind, optimize_discrimination(e, tol=1e-7, max_iter=150).value, bound)
            rows.append(row)
    ok, detail = _judge(rows, tight=None)
    return ok, (f"{detail}; {solved} of {1000 * len(_SAMPLERS)} members solved,"
                " the rest decided by their PGM certificate")


def _uniform(rng: np.random.Generator) -> float:
    return rng.uniform(0.0, 1.0)


# the concavity probes, (label, seed, bound as a function of the averaged
# parameter, sampler of that parameter): vacuum and overlap at n = 4, the
# deviation bound at pg0 = 1/2, and almost_dim at n = 5, jointly in a
# fractional d and eps
_CONCAVITY_PROBES = (
    ("vacuum", 11, lambda w: bounds.bound_vacuum(4, w).pg_bound, _uniform),
    ("overlap", 12, lambda a: bounds.bound_overlap(4, a).pg_bound, _uniform),
    ("eps", 13, lambda eps: bounds.bound_eps(0.5, eps), _uniform),
    ("almost_dim", 14, lambda g: bounds.bound_eps(min(1.0, g[0] / 5), g[1]),
     lambda rng: np.array([rng.uniform(1.0, 5), rng.uniform(0.0, 1.0)])),
)


def _check_concavity_and_average() -> tuple[bool, str]:
    probes = {label: concavity_probe(f, draw, 1000, seed) for label, seed, f, draw in _CONCAVITY_PROBES}
    bad = [label for label, p in probes.items() if not p.passed]
    if bad:
        return False, f"concavity probe failed for {bad}"
    rng = np.random.default_rng(20240504)
    rows = []
    for cls, (_, builder) in _SAMPLERS.items():
        if builder is None:
            continue
        for _ in range(100):
            q = float(rng.uniform(0.2, 0.8))
            strategy, cap = builder(rng, (q, 1.0 - q))
            avg = sum(w * scalar_param(g) for w, _, g in strategy.branches)
            rep = check_average(strategy, avg)
            if not rep.satisfied:
                return False, f"{cls.kind} average strategy failed membership"
            rows.append((cls.kind, mixture_guess_value(strategy, tol=1e-9), cap(avg)))
    ok, detail = _judge(rows, tight=None)
    min_margin = min(p.min_margin for p in probes.values())
    return ok, f"{detail} over the mixtures; probes pass (min margin {min_margin:.2e})"


def _check_cq_embedding() -> tuple[bool, str]:
    rng = np.random.default_rng(20240505)
    worst = 0.0
    for _ in range(100):
        n = 3
        n_branches = int(rng.integers(2, 4))
        raw = rng.uniform(0.2, 1.0, size=n_branches)
        weights = raw / raw.sum()
        branches = []
        for b in range(n_branches):
            dim = int(rng.integers(2, 4))
            vecs = np.stack([random_unit(rng, dim) for _ in range(n)])
            branches.append((float(weights[b]), ensemble_from_vectors(vecs), Information(alpha=1.0)))
        strategy = SRStrategy(tuple(branches))
        mixture = mixture_guess_value(strategy, tol=1e-11)
        embedded = optimize_discrimination(embed_cq(strategy), tol=1e-11, max_iter=5000).value
        worst = max(worst, abs(mixture - embedded))
    return worst <= 1e-6, f"max |embedded - mixture| = {worst:.2e}"


def _check_cli_determinism() -> tuple[bool, str]:
    import tempfile
    from pathlib import Path

    from click.testing import CliRunner

    from .cli import main

    runs = {
        "search": ["search", "almost-dim", "--d", "2", "--n", "4", "--eps", "0.05",
                   "--restarts", "4", "--seed", "7"],
        "sweep": ["sweep", "vacuum", "--n", "4", "--start", "0", "--stop", "0.75",
                  "--points", "20", "--with-oracle"],
    }
    runner = CliRunner()
    same = {}
    with tempfile.TemporaryDirectory() as tmp:
        # each command runs twice into its own files, whose bytes must match
        for name, args in runs.items():
            outputs = []
            for tag in ("a", "b"):
                path = Path(tmp) / f"{name}_{tag}"
                result = runner.invoke(main, [*args, "--output", str(path)])
                if result.exit_code != 0:
                    return False, f"{name} exited {result.exit_code}: {result.output}"
                outputs.append(path.read_bytes())
            same[name] = outputs[0] == outputs[1]
    return all(same.values()), f"search byte-identical: {same['search']}, sweep byte-identical: {same['sweep']}"


# the almost-dim and distrust witnesses attain their bounds whether or not
# d divides n
_SECTOR_GRID = [(n, d, eps)
                for d, n in ((2, 4), (2, 6), (3, 6), (2, 8), (3, 9), (2, 3), (2, 5), (3, 4), (3, 5))
                for eps in (0.0, 0.01, 0.05, 0.1, 0.2, 0.3)]

_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "dimension_saturation": _saturation(
        Dimension, [(n, d) for d in range(1, 5) for n in range(1, 13)],
        ("info excess", _info_excess, SOUND_SLACK)),
    "ea_dimension_saturation": _saturation(
        EADimension, [(n, d) for d in (2, 3) for n in (d * d, 2 * d * d, 30)],
        ("info excess", _info_excess, SOUND_SLACK)),
    "ea_average_counterexample": _check_ea_counterexample,
    "overlap_pgm_closed_form": _saturation(
        UniformOverlap, [(n, float(a)) for n in range(2, 7) for a in np.linspace(0.0, 1.0, 21)],
        ("bound - pgm", _pgm_deficit, 1e-10)),
    "helstrom_reduction": _check_helstrom_pairs,
    "vacuum_saturation": _saturation(
        Vacuum, [(n, float(w)) for n in range(2, 7) for w in [*np.linspace(0.0, (n - 1) / n, 11), 0.9, 1.0]],
        ("|min eig|", _bordered_gram_eig, 1e-9)),
    "almost_dim_saturation": _saturation(AlmostDim, _SECTOR_GRID),
    "distrust_saturation": _saturation(Distrust, _SECTOR_GRID),
    "operator_lemma_regression": _check_lemma,
    "deviation_vacuum_identity": _check_deviation_vacuum_identity,
    "almost_dim_tightness_search": _check_almost_dim_search,
    "soundness_sweep": _check_soundness_sweep,
    "concavity_and_average_sr": _check_concavity_and_average,
    "cq_embedding": _check_cq_embedding,
    "cli_determinism": _check_cli_determinism,
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str) -> CheckResult:
    start = time.perf_counter()
    passed, detail = _CHECKS[name]()
    return CheckResult(
        name=name, passed=passed, detail=detail, elapsed_s=time.perf_counter() - start
    )
