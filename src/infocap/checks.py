"""Built-in reference checks.

Every check pins one headline result of the library at its stated
tolerance: saturation of each closed-form bound by its matching
construction, the reference counterexample values, algebraic identities,
soundness sweeps over random restricted ensembles, and byte-level
determinism of the command-line tools.  The same registry backs both the
``infocap paper-numbers`` command and the acceptance test suite.
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
    accessible_information,
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
    basis_ensemble,
    check_assumption,
    dense_coding_ensemble,
    ensemble_from_vectors,
    equiangular_ensemble,
    vacuum_cone_ensemble,
)
from .randomness import (
    SRStrategy,
    check_average,
    concavity_probe,
    ea_average_counterexample,
    embed_cq,
    mixture_guess_value,
)
from .search import almost_dim_seed, distrust_seed, tightness_search


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


# ---------------------------------------------------------------------------
# random members of each assumption set
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
    return e, Dimension(d=d), bounds.bound_dimension(d, n), {}


def _member_ea_dimension(rng: np.random.Generator):
    d = int(rng.integers(2, 4))
    n = int(rng.integers(d * d + 1, 3 * d * d))
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / math.sqrt(d)
    vecs = np.stack([np.kron(_random_unitary(rng, d), np.eye(d)) @ phi for _ in range(n)])
    e = ensemble_from_vectors(vecs)
    return e, EADimension(d=d), bounds.bound_ea_dimension(d, n), {"subsystem_dims": (d, d)}


def _member_vacuum(rng: np.random.Generator):
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(2, 5))
    omega = rng.uniform(0.0, 0.9 * (n - 1) / n)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    vecs = np.empty((n, dim), dtype=complex)
    for x in range(n):
        w = rng.uniform(0.0, omega)
        tail = np.zeros(dim, dtype=complex)
        tail[1:] = random_unit(rng, dim - 1)
        vecs[x] = math.sqrt(1.0 - w) * vac + math.sqrt(w) * tail
    e = _maybe_mix(rng, vecs)
    return e, Vacuum(omega=omega), bounds.bound_vacuum(n, omega), {"vacuum_vector": vac}


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
    return e, UniformOverlap(a=a), bounds.bound_overlap(n, a), {}


def _member_almost_dim(rng: np.random.Generator):
    d = int(rng.integers(1, 4))
    n = int(rng.integers(d, 7)) if d > 1 else int(rng.integers(2, 7))
    n = max(n, d)
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
    assumption = AlmostDim(d=d, eps=eps, projector=proj)
    return e, assumption, bounds.bound_almost_dim(d, n, eps), {}


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
    e = StateEnsemble(np.stack(states))
    target_ensemble = ensemble_from_vectors(targets)
    bound = bounds.bound_distrust(target_ensemble, eps, tol=1e-9)
    return e, Distrust(targets=targets, eps=eps), bound, {}


_MEMBER_SAMPLERS = {
    "dimension": _member_dimension,
    "ea_dimension": _member_ea_dimension,
    "vacuum": _member_vacuum,
    "uniform_overlap": _member_overlap,
    "almost_dim": _member_almost_dim,
    "distrust": _member_distrust,
}


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_dimension_saturation() -> tuple[bool, str]:
    worst_pg, worst_info = 0.0, -1.0
    for d in range(1, 5):
        for n in range(1, 13):
            res = optimize_discrimination(basis_ensemble(d, n), tol=1e-12)
            target = min(1.0, d / n)
            worst_pg = max(worst_pg, abs(res.value - target))
            # d = 1 values can sit one ulp below 1/n; the clamp is expected
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                info = accessible_information(n, res.value)
            worst_info = max(worst_info, info - math.log2(d))
    ok = worst_pg <= 1e-8 and worst_info <= 1e-9
    return ok, f"max |pg - d/n| = {worst_pg:.2e}, max info excess = {worst_info:.2e}"


def _check_ea_dimension_saturation() -> tuple[bool, str]:
    worst_pg, worst_info = 0.0, -1.0
    for d in (2, 3):
        for n in (d * d, 2 * d * d, 30):
            res = optimize_discrimination(dense_coding_ensemble(d, n), tol=1e-12)
            target = min(1.0, d * d / n)
            worst_pg = max(worst_pg, abs(res.value - target))
            info = accessible_information(n, res.value)
            worst_info = max(worst_info, info - 2.0 * math.log2(d))
    ok = worst_pg <= 1e-6 and worst_info <= 1e-6
    return ok, f"max |pg - d^2/n| = {worst_pg:.2e}, max info excess = {worst_info:.2e}"


def _check_ea_counterexample() -> tuple[bool, str]:
    peak, average = ea_average_counterexample(tol=1e-10)
    cap = bounds.bound_ea_dimension(3, 30).pg_bound
    ok = (
        abs(peak - 0.3) <= 1e-6
        and abs(average - 11.0 / 30.0) <= 1e-6
        and average > cap
        and average - peak >= 2.0 / 30.0 - 1e-6
    )
    return ok, f"peak = {peak:.6f}, average = {average:.6f}, bound at avg dim = {cap:.6f}"


def _check_overlap_closed_form() -> tuple[bool, str]:
    worst_pgm, worst_oracle = 0.0, -1.0
    for n in range(2, 7):
        for a in np.linspace(0.0, 1.0, 21):
            e = equiangular_ensemble(n, float(a))
            cap = bounds.bound_overlap(n, float(a)).pg_bound
            worst_pgm = max(worst_pgm, abs(guess_value(e, pgm(e)) - cap))
            res = optimize_discrimination(e, tol=1e-12)
            worst_oracle = max(worst_oracle, res.value - cap)
    ok = worst_pgm <= 1e-10 and worst_oracle <= 1e-8
    return ok, f"max |pgm - bound| = {worst_pgm:.2e}, max oracle excess = {worst_oracle:.2e}"


def _check_helstrom_pairs() -> tuple[bool, str]:
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        v1, v2 = random_unit(rng, dim), random_unit(rng, dim)
        a = abs(np.vdot(v1, v2))
        expected = (1.0 + math.sqrt(max(0.0, 1.0 - a * a))) / 2.0
        res = optimize_discrimination(ensemble_from_vectors(np.stack([v1, v2])), tol=1e-12)
        worst = max(worst, abs(res.value - expected))
    return worst <= 1e-8, f"max |oracle - helstrom| = {worst:.2e}"


def _check_vacuum_saturation() -> tuple[bool, str]:
    worst_val, worst_eig = 0.0, 0.0
    for n in range(2, 7):
        for omega in np.linspace(0.0, (n - 1) / n, 11):
            omega = float(omega)
            e, _ = vacuum_cone_ensemble(n, omega)
            cap = bounds.bound_vacuum(n, omega).pg_bound
            res = optimize_discrimination(e, tol=1e-12)
            worst_val = max(worst_val, abs(res.value - cap))
            a = bounds.min_overlap_vacuum(n, omega)
            gram = np.empty((n + 1, n + 1))
            gram[:n, :n] = (1.0 - a) * np.eye(n) + a * np.ones((n, n))
            gram[:n, n] = gram[n, :n] = math.sqrt(1.0 - omega)
            gram[n, n] = 1.0
            worst_eig = max(worst_eig, abs(linalg.min_eigenvalue(gram)))
    ok = worst_val <= 1e-6 and worst_eig <= 1e-9
    return ok, f"max |oracle - bound| = {worst_val:.2e}, max |min eig| = {worst_eig:.2e}"


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
    worst = 0.0
    for eps in (0.01, 0.05, 0.1):
        rep = tightness_search(AlmostDim(d=2, eps=eps), n=4, restarts=16, seed=0, tol=1e-10)
        worst = max(worst, rep.gap)
    return worst <= 1e-3, f"max bound - best = {worst:.2e} over eps in {{0.01, 0.05, 0.1}}"


def _check_soundness_sweep(samples_per_assumption: int = 1000) -> tuple[bool, str]:
    rng = np.random.default_rng(20240503)
    worst = -1.0
    worst_kind = ""
    for kind, sampler in _MEMBER_SAMPLERS.items():
        for _ in range(samples_per_assumption):
            e, assumption, bound, aux = sampler(rng)
            report = check_assumption(e, assumption, **aux)
            if not report.satisfied:
                return False, f"{kind} sampler produced a non-member (slack {report.worst_slack:.2e})"
            res = optimize_discrimination(e, tol=1e-7, max_iter=150)
            excess = res.value - bound.pg_bound
            if excess > worst:
                worst, worst_kind = excess, kind
    return worst <= 1e-6, f"max oracle - bound = {worst:.2e} ({worst_kind})"


def _average_strategy(rng: np.random.Generator, kind: str):
    """Two-branch average-parameter strategy built from saturating members,
    returning (strategy, average parameter, bound at the average, aux)."""
    q = float(rng.uniform(0.2, 0.8))
    weights = (q, 1.0 - q)
    if kind == "dimension":
        n = int(rng.integers(4, 7))
        ds = [int(rng.integers(1, 5)) for _ in range(2)]
        branches = tuple(
            (w, basis_ensemble(d, n), Dimension(d=d)) for w, d in zip(weights, ds)
        )
        avg = sum(w * d for w, d in zip(weights, ds))
        # the averaged d is fractional, which only the raw formula accepts
        return SRStrategy(branches), avg, bounds.dimension_pg(n, avg)[0], None
    if kind == "vacuum":
        n = int(rng.integers(2, 6))
        omegas = [float(rng.uniform(0.0, (n - 1) / n)) for _ in range(2)]
        built = [vacuum_cone_ensemble(n, w) for w in omegas]
        branches = tuple(
            (wgt, ens, Vacuum(omega=om)) for wgt, (ens, _), om in zip(weights, built, omegas)
        )
        aux = [{"vacuum_vector": vac} for _, vac in built]
        avg = sum(w * om for w, om in zip(weights, omegas))
        return SRStrategy(branches), avg, bounds.bound_vacuum(n, avg).pg_bound, aux
    if kind == "uniform_overlap":
        n = int(rng.integers(2, 6))
        overlaps = [float(rng.uniform(0.05, 0.95)) for _ in range(2)]
        branches = tuple(
            (w, equiangular_ensemble(n, a), UniformOverlap(a=a))
            for w, a in zip(weights, overlaps)
        )
        avg = sum(w * a for w, a in zip(weights, overlaps))
        return SRStrategy(branches), avg, bounds.bound_overlap(n, avg).pg_bound, None
    if kind == "almost_dim":
        d, n = 2, 4
        epss = [float(rng.uniform(0.0, 0.4)) for _ in range(2)]
        branches = []
        for w, eps in zip(weights, epss):
            vecs, proj = almost_dim_seed(d, n, eps)
            branches.append(
                (w, ensemble_from_vectors(vecs), AlmostDim(d=d, eps=eps, projector=proj))
            )
        avg = sum(w * eps for w, eps in zip(weights, epss))
        return SRStrategy(tuple(branches)), avg, bounds.bound_almost_dim(d, n, avg).pg_bound, None
    if kind == "distrust":
        n, dim_t = 3, 2
        targets = np.stack([random_unit(rng, dim_t) for _ in range(n)])
        epss = [float(rng.uniform(0.0, 0.4)) for _ in range(2)]
        branches = tuple(
            (w, ensemble_from_vectors(distrust_seed(targets, eps)), Distrust(targets=targets, eps=eps))
            for w, eps in zip(weights, epss)
        )
        avg = sum(w * eps for w, eps in zip(weights, epss))
        bound = bounds.bound_distrust(ensemble_from_vectors(targets), avg, tol=1e-10).pg_bound
        return SRStrategy(branches), avg, bound, None
    raise ValueError(kind)


def _check_concavity_and_average(strategies_per_kind: int = 100) -> tuple[bool, str]:
    probes = [
        concavity_probe("vacuum", 1000, seed=11, n=4),
        concavity_probe("overlap", 1000, seed=12, n=4),
        concavity_probe("eps", 1000, seed=13, pg0=0.5),
        concavity_probe("almost_dim", 1000, seed=14, n=5),
    ]
    if any(not p.passed for p in probes):
        bad = [p.bound_id for p in probes if not p.passed]
        return False, f"concavity probe failed for {bad}"
    rng = np.random.default_rng(20240504)
    worst = -1.0
    worst_kind = ""
    for kind in ("dimension", "vacuum", "uniform_overlap", "almost_dim", "distrust"):
        for _ in range(strategies_per_kind):
            strategy, avg, cap, aux = _average_strategy(rng, kind)
            rep = check_average(strategy, avg, aux=aux)
            if not rep.satisfied:
                return False, f"{kind} average strategy failed membership"
            excess = mixture_guess_value(strategy, tol=1e-9) - cap
            if excess > worst:
                worst, worst_kind = excess, kind
    min_margin = min(p.min_margin for p in probes)
    return (
        worst <= 1e-6,
        f"probes pass (min margin {min_margin:.2e}); max mixture - bound = {worst:.2e} ({worst_kind})",
    )


def _check_cq_embedding(strategies: int = 100) -> tuple[bool, str]:
    rng = np.random.default_rng(20240505)
    worst = 0.0
    for _ in range(strategies):
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

    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for tag in ("a", "b"):
            path = Path(tmp) / f"search_{tag}.json"
            result = runner.invoke(
                main,
                [
                    "search", "almost-dim", "--d", "2", "--n", "4", "--eps", "0.05",
                    "--restarts", "4", "--seed", "7", "--output", str(path),
                ],
            )
            if result.exit_code != 0:
                return False, f"search exited {result.exit_code}: {result.output}"
            outputs.append(path.read_bytes())
        search_same = outputs[0] == outputs[1]
        outputs = []
        for tag in ("a", "b"):
            path = Path(tmp) / f"sweep_{tag}.csv"
            result = runner.invoke(
                main,
                [
                    "sweep", "vacuum", "--n", "4", "--start", "0", "--stop", "0.75",
                    "--points", "20", "--with-oracle", "--output", str(path),
                ],
            )
            if result.exit_code != 0:
                return False, f"sweep exited {result.exit_code}: {result.output}"
            outputs.append(path.read_bytes())
        sweep_same = outputs[0] == outputs[1]
    ok = search_same and sweep_same
    return ok, f"search byte-identical: {search_same}, sweep byte-identical: {sweep_same}"


_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "dimension_saturation": _check_dimension_saturation,
    "ea_dimension_saturation": _check_ea_dimension_saturation,
    "ea_average_counterexample": _check_ea_counterexample,
    "overlap_pgm_closed_form": _check_overlap_closed_form,
    "helstrom_reduction": _check_helstrom_pairs,
    "vacuum_saturation": _check_vacuum_saturation,
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


def run_all() -> list[CheckResult]:
    return [run_check(name) for name in CHECK_NAMES]
