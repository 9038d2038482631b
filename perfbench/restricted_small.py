"""restricted-small: the soundness-sweep traffic behind `paper-numbers`.

Seeded members of all six assumption kinds at dim <= 9, built through the
public constructors inside each op.  A sweep op checks membership,
evaluates the kind's closed-form bound and runs the oracle with the sweep's
settings (tol 1e-7, 150 iterations).  A fixed share of ops is a 16-restart
tightness search, another a shared-randomness strategy whose mixture value
is compared with the oracle on its classical-register embedding.

The oracle's iteration count varies several-fold between random members,
so seed-drawn members would make a run's work depend on the seed.  Members
are drawn once from a fixed base family, with the same (kind, n, dim) mix in
every round; the seed turns each by a random unitary that preserves its
assumption's structure (the vacuum vector, the almost-dimension subspace,
the message x receiver split, the targets) and relabels its inputs.
Membership, bounds and iteration counts are invariant under both, so every
seed sees new numbers but the same work.  Shared-randomness strategies get
one unitary per branch.  Search parameters come from the seed directly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from common import haar_unitary, random_unit
from harness import Op, Outcome, Workload, fmt17, is_finite, solver_summary

SWEEP_TOL, SWEEP_MAX_ITER = 1e-7, 150      # as in the soundness_sweep check
SWEEP_SLACK = 1e-6                         # soundness_sweep tolerance
SR_TOL, SR_MAX_ITER, SR_SLACK = 1e-11, 5000, 1e-6  # as in the cq_embedding check
SEARCH_RESTARTS = 16
BASE_SEED = 20240503
SWEEP_BLOCKS, SEARCHES, STRATEGIES = 2, 8, 4  # per round

SIZES = {
    "dimension": [(d, n) for d in (1, 2, 3, 4) for n in range(2, 7)],
    "ea_dimension": [(2, n) for n in range(5, 12)] + [(3, n) for n in (10, 14, 18, 22, 26)],
    "vacuum": [(n, dim) for n in range(2, 6) for dim in (2, 3, 4)],
    "uniform_overlap": [(n, 0) for n in range(2, 6) for _ in range(3)],
    "almost_dim": [(d, n) for d in (1, 2, 3) for n in range(max(2, d), 7)],
    "distrust": [(n, dim_t) for n in (2, 3, 4) for dim_t in (2, 3) for _ in range(2)],
}
TINY_SIZES = {kind: sizes[:1] for kind, sizes in SIZES.items()}


def _mixtures(base, vectors):
    """Pairwise mixtures of the rows' projectors, which stay inside every
    linear constraint set."""
    states = np.einsum("xi,xj->xij", vectors, vectors.conj())
    lam = base.uniform(0.6, 1.0, size=len(vectors))[:, None, None]
    return lam * states + (1 - lam) * states[base.permutation(len(vectors))]


def _block_unitary(rng, sizes):
    """Haar-random unitary acting on consecutive blocks of the given sizes."""
    u = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    offset = 0
    for size in sizes:
        u[offset:offset + size, offset:offset + size] = haar_unitary(rng, size)
        offset += size
    return u


def _turned(ic, rng, vectors, states, u):
    """Builder of the ensemble turned by u with relabelled inputs: from the
    vectors when `states` is None, else from the mixed states."""
    perm = rng.permutation(len(vectors))
    if states is None:
        v = vectors[perm] @ u.T
        return lambda: ic.ensembles.ensemble_from_vectors(v)
    turned = u @ states[perm] @ u.conj().T
    return lambda: ic.ensembles.StateEnsemble(turned)


def _member(ic, rng, base, kind, size, mixed):
    """(build ensemble, build assumption, membership context, build bound).

    The member is drawn from `base`; `rng` turns it by a unitary that
    preserves the assumption's structure and relabels the inputs.
    """
    E, B = ic.ensembles, ic.bounds
    if kind == "dimension":
        d, n = size
        vecs = np.stack([random_unit(base, d) for _ in range(n)])
        states = _mixtures(base, vecs) if mixed else None
        return (_turned(ic, rng, vecs, states, haar_unitary(rng, d)), lambda: E.Dimension(d=d), {},
                lambda: B.bound_dimension(d, n))
    if kind == "ea_dimension":
        d, n = size
        phi = np.zeros(d * d, dtype=complex)
        phi[:: d + 1] = 1.0 / math.sqrt(d)
        vecs = np.stack([np.kron(haar_unitary(base, d), np.eye(d)) @ phi for _ in range(n)])
        u = np.kron(haar_unitary(rng, d), haar_unitary(rng, d))
        return (_turned(ic, rng, vecs, None, u), lambda: E.EADimension(d=d),
                {"subsystem_dims": (d, d)}, lambda: B.bound_ea_dimension(d, n))
    if kind == "vacuum":
        n, dim = size
        omega = base.uniform(0.0, 0.9 * (n - 1) / n)
        vac = np.zeros(dim, dtype=complex)
        vac[0] = 1.0
        vecs = np.empty((n, dim), dtype=complex)
        for x in range(n):
            w = base.uniform(0.0, omega)
            vecs[x, 0] = math.sqrt(1.0 - w)
            vecs[x, 1:] = math.sqrt(w) * random_unit(base, dim - 1)
        states = _mixtures(base, vecs) if mixed else None
        u = _block_unitary(rng, (1, dim - 1))
        u[0, 0] = 1.0  # the vacuum vector stays put
        return (_turned(ic, rng, vecs, states, u), lambda: E.Vacuum(omega=omega),
                {"vacuum_vector": vac}, lambda: B.bound_vacuum(n, omega))
    if kind == "uniform_overlap":
        n, _ = size
        a = base.uniform(0.05, 0.95)
        raw = np.abs(base.standard_normal((n, n)))  # nonnegative rows keep the Gram >= 0
        w = raw @ raw.T
        w = w / np.sqrt(np.outer(np.diag(w), np.diag(w)))
        gram = a * np.ones((n, n)) + (1.0 - a) * w
        np.fill_diagonal(gram, 1.0)
        # relabel the inputs and rephase the vectors: overlap magnitudes stay
        perm = rng.permutation(n)
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
        gram = np.outer(phases, phases.conj()) * gram[np.ix_(perm, perm)]
        return (lambda: E.ensemble_from_vectors(ic.linalg.vectors_from_gram(gram)),
                lambda: E.UniformOverlap(a=a), {}, lambda: B.bound_overlap(n, a))
    if kind == "almost_dim":
        d, n = size
        eps = base.uniform(0.0, 0.5)
        dim = d + n
        proj = np.zeros((dim, dim), dtype=complex)
        proj[:d, :d] = np.eye(d)
        vecs = np.empty((n, dim), dtype=complex)
        for x in range(n):
            beta = base.uniform(1.0 - eps, 1.0)
            vecs[x, :d] = math.sqrt(beta) * random_unit(base, d)
            vecs[x, d:] = math.sqrt(1.0 - beta) * random_unit(base, n)
        states = _mixtures(base, vecs) if mixed else None
        return (_turned(ic, rng, vecs, states, _block_unitary(rng, (d, n))),
                lambda: E.AlmostDim(d=d, eps=eps, projector=proj), {},
                lambda: B.bound_almost_dim(d, n, eps))
    # distrust: each lab state keeps fidelity >= 1-eps with its own target;
    # mixtures blend two draws for the same input
    n, dim_t = size
    eps = base.uniform(0.0, 0.4)
    targets = np.stack([random_unit(base, dim_t) for _ in range(n)])
    dim = dim_t + n

    def lab(x):
        beta = base.uniform(1.0 - eps, 1.0)
        v = np.zeros(dim, dtype=complex)
        v[:dim_t] = math.sqrt(beta) * targets[x]
        v[dim_t + x] = math.sqrt(1.0 - beta)
        return np.outer(v, v.conj())

    states = []
    for x in range(n):
        if mixed:
            lam = base.uniform()
            states.append(lam * lab(x) + (1.0 - lam) * lab(x))
        else:
            states.append(lab(x))
    perm = rng.permutation(n)
    u = _block_unitary(rng, (dim_t, n))
    turned = u @ np.stack(states)[perm] @ u.conj().T
    targets = targets[perm] @ u[:dim_t, :dim_t].T
    return (lambda: E.StateEnsemble(turned), lambda: E.Distrust(targets=targets, eps=eps), {},
            lambda: B.bound_distrust(E.ensemble_from_vectors(targets), eps, tol=1e-9))


def _sweep_op(ic, kind, label, member) -> Op:
    build_e, build_a, aux, build_bound = member

    def run(tracer):
        e = build_e()
        report = ic.ensembles.check_assumption(e, build_a(), **aux)
        bound = build_bound()
        res = ic.discrimination.optimize_discrimination(e, tol=SWEEP_TOL, max_iter=SWEEP_MAX_ITER)
        return report, bound, res

    def check(out):
        report, bound, res = out
        upper = res.certificate.certified_upper()
        problems = []
        if not report.satisfied:
            problems.append(f"non-member (worst slack {report.worst_slack:.3e})")
        if not is_finite(res.value, upper, bound.pg_bound):
            problems.append("non-finite value or bound")
        elif res.value > bound.pg_bound + SWEEP_SLACK:
            problems.append(f"oracle {res.value!r} exceeds bound {bound.pg_bound!r}")
        digest = fmt17((kind, report.worst_slack, bound.pg_bound, bound.info_bits,
                        res.value, res.iterations, upper))
        return Outcome(problems, digest, [(kind, res.iterations, upper - res.value, res.converged, SWEEP_TOL)])

    return Op(label, run, check)


def _search_op(ic, rng, index) -> Op:
    kind = ("vacuum", "overlap", "almost_dim", "distrust")[index % 4]
    E = ic.ensembles
    seed = int(rng.integers(0, 2**31))
    n = 3 + index % 2
    if kind == "vacuum":
        omega = rng.uniform(0.05, 0.9 * (n - 1) / n)
        build = lambda: E.Vacuum(omega=omega)
    elif kind == "overlap":
        a = rng.uniform(0.1, 0.9)
        build = lambda: E.UniformOverlap(a=a)
    elif kind == "almost_dim":
        n, eps = 4, rng.uniform(0.01, 0.2)
        build = lambda: E.AlmostDim(d=2, eps=eps)
    else:
        targets = np.stack([random_unit(rng, 2) for _ in range(3)])
        eps = rng.uniform(0.01, 0.3)
        n = None
        build = lambda: E.Distrust(targets=targets, eps=eps)

    def run(tracer):
        return ic.search.tightness_search(build(), n, restarts=SEARCH_RESTARTS, seed=seed)

    def check(rep):
        problems = []
        if not is_finite(rep.best_value, rep.bound.pg_bound):
            problems.append("non-finite search result")
        elif rep.best_value > rep.bound.pg_bound + SWEEP_SLACK:
            problems.append(f"best {rep.best_value!r} exceeds bound {rep.bound.pg_bound!r}")
        if not any(r.feasible for r in rep.restarts):
            problems.append("no feasible restart")
        return Outcome(problems, fmt17(rep.to_json()))

    return Op(f"search:{kind}#{index}", run, check)


def _strategy_op(ic, rng, base, index) -> Op:
    n = 3
    n_branches = 2 + index % 2
    raw = base.uniform(0.2, 1.0, size=n_branches)
    weights = [float(w) for w in raw / raw.sum()]
    perm = rng.permutation(n)
    vectors = []
    for dim in base.integers(2, 4, size=n_branches):
        v = np.stack([random_unit(base, int(dim)) for _ in range(n)])
        vectors.append(v[perm] @ haar_unitary(rng, int(dim)).T)

    def run(tracer):
        E, R = ic.ensembles, ic.randomness
        s = R.SRStrategy(tuple((w, E.ensemble_from_vectors(v), E.Information(alpha=1.0))
                               for w, v in zip(weights, vectors)))
        mixture = R.mixture_guess_value(s, tol=SR_TOL)
        embedded = ic.discrimination.optimize_discrimination(R.embed_cq(s), tol=SR_TOL, max_iter=SR_MAX_ITER)
        return mixture, embedded

    def check(out):
        mixture, res = out
        upper = res.certificate.certified_upper()
        problems = []
        if not is_finite(mixture, res.value):
            problems.append("non-finite strategy value")
        elif abs(mixture - res.value) > SR_SLACK:
            problems.append(f"|mixture - embedded| = {abs(mixture - res.value):.3e}")
        solve = ("sr_embedded", res.iterations, upper - res.value, res.converged, SR_TOL)
        return Outcome(problems, fmt17((mixture, res.value, res.iterations, upper)), [solve])

    return Op(f"strategy#{index}", run, check)


def build(ic, seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    base = np.random.default_rng(BASE_SEED)
    sizes = TINY_SIZES if tiny else SIZES
    blocks, searches, strategies = (1, 1, 1) if tiny else (SWEEP_BLOCKS, SEARCHES, STRATEGIES)
    ops = []
    for block in range(blocks):
        for kind, kind_sizes in sizes.items():
            for k, size in enumerate(kind_sizes):
                member = _member(ic, rng, base, kind, size, mixed=(k + block) % 2 == 1)
                ops.append(_sweep_op(ic, kind, f"sweep:{kind}{size}#{block}", member))
    ops += [_search_op(ic, rng, i) for i in range(searches)]
    ops += [_strategy_op(ic, rng, base, i) for i in range(strategies)]
    warm = _sweep_op(ic, "dimension", "warmup", _member(ic, rng, base, "dimension", (2, 3), mixed=False))
    return Workload(ops=ops, warmup=warm)


def kind_metrics(solves: list[tuple]) -> dict[str, float]:
    """Exact solver counts per assumption kind of the sweep ops (zero on
    workloads without them)."""
    out = {}
    for kind in SIZES:
        summary = solver_summary([s for s in solves if s[0] == kind])
        for key in ("iterations_p50", "iterations_max", "certified_frac", "false_converged_frac"):
            out[f"sweep.{kind}.{key}"] = float(summary[key])
    return out
