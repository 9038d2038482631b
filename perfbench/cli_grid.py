"""cli-grid: what users run without heavy oracle work.

`infocap bound` grids for all seven kinds, as CSV and as JSON, with 10^4
rows for each closed-form kind; `sweep coherent`; and a small share of
`sweep --with-oracle` and `search`, so that closed-form evaluation and
output formatting carry the time and the oracle stays a minor part.  Grid
values come from the seed; grid sizes are fixed.  The distrust targets are
a fixed base set turned by a seed-drawn unitary, which leaves the oracle's
iteration count on them unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import haar_unitary, invoke_cli, random_unit, take_output, write_json
from harness import Op, Outcome, Workload, is_finite

BASE_SEED = 20240505
SAMPLED_ROWS = 20
SOUND_SLACK = 1e-6


def _floats(rng, count, lo, hi):
    # repr round-trips, so the CLI parses exactly the floats the check uses
    return [float(repr(float(x))) for x in rng.uniform(lo, hi, size=count)]


def _ints(rng, count, lo, hi):
    return [int(x) for x in rng.choice(np.arange(lo, hi), size=count, replace=False)]


def _grid(rng, kind, tiny):
    """(CLI options, expected rows as (params, n), direct bound call)."""
    m = 3 if tiny else 100
    if kind in ("dimension", "ea-dimension"):
        ds, ns = _ints(rng, m, 1, 400), _ints(rng, m, 1, 20000)
        fn = "bound_dimension" if kind == "dimension" else "bound_ea_dimension"
        return ({"--d": ds, "--n": ns}, [((d,), n) for d in ds for n in ns],
                lambda B, p, n: getattr(B, fn)(p[0], n))
    if kind == "vacuum":
        ws, ns = _floats(rng, m, 0.0, 1.0), _ints(rng, m, 2, 20000)
        return ({"--omega": ws, "--n": ns}, [((w,), n) for w in ws for n in ns],
                lambda B, p, n: B.bound_vacuum(n, p[0]))
    if kind == "overlap":
        avals, ns = _floats(rng, m, 0.0, 1.0), _ints(rng, m, 2, 20000)
        return ({"--a": avals, "--n": ns}, [((a,), n) for a in avals for n in ns],
                lambda B, p, n: B.bound_overlap(n, p[0]))
    if kind == "almost-dim":
        ds = _ints(rng, 2 if tiny else 10, 1, 64)
        es = _floats(rng, 2 if tiny else 40, 0.0, 1.0)
        ns = _ints(rng, 2 if tiny else 25, 1, 5000)
        return ({"--d": ds, "--eps": es, "--n": ns}, [((d, e), n) for d in ds for e in es for n in ns],
                lambda B, p, n: B.bound_almost_dim(p[0], n, p[1]))
    if kind == "coherent":
        nbs, ns = _floats(rng, m, 0.0, 10.0), _ints(rng, m, 2, 20000)
        return ({"--nbar": nbs, "--n": ns}, [((nb,), n) for nb in nbs for n in ns],
                lambda B, p, n: B.coherent_capacity(p[0], n))
    raise ValueError(kind)


def _fmt(p) -> str:
    return f"{p:.9g}" if isinstance(p, float) else str(p)


def _bound_op(ic, rng, kind, fmt, workdir, tiny, targets_path=None) -> Op:
    if kind == "distrust":
        eps = _floats(rng, 2 if tiny else 8, 0.0, 0.5)
        opts = {"--eps": eps, "--n": [3], "--targets": [str(targets_path)]}
        rows = [((e,), 3) for e in eps]

        # the CLI rebuilds the targets from the file's top eigenvectors
        vectors = ic.ensembles.ensemble_from_json(json.loads(targets_path.read_text())).state_vectors()
        direct = lambda B, p, n: B.bound_distrust(ic.ensembles.ensemble_from_vectors(vectors), p[0])
    else:
        opts, rows, direct = _grid(rng, kind, tiny)
    out = workdir / f"bound-{kind}.{fmt}"
    argv = ["bound", kind, "--format", fmt, "--output", str(out)]
    for flag, values in opts.items():
        for v in values:
            argv += [flag, repr(v) if isinstance(v, float) else str(v)]
    sample = sorted(rng.choice(len(rows), size=min(len(rows), 2 if kind == "distrust" else SAMPLED_ROWS),
                               replace=False))

    def run(tracer):
        return invoke_cli(ic, tracer, argv)

    def check(code):
        data = take_output(out)
        if code != 0 or data is None:
            return Outcome([f"exit code {code}, output {'missing' if data is None else 'present'}"], "")
        problems = []
        if fmt == "csv":
            lines = data.decode().splitlines()[1:]
            if len(lines) != len(rows):
                problems.append(f"{len(lines)} rows, expected {len(rows)}")
            got = lambda i: lines[i].split(",")[-4:]
        else:
            payload = json.loads(data)
            if len(payload) != len(rows):
                problems.append(f"{len(payload)} rows, expected {len(rows)}")
            got = lambda i: [str(payload[i]["n"]), _fmt(payload[i]["pg_bound"]),
                             _fmt(payload[i]["info_bits"]), payload[i]["validity"]]
        if not problems:
            for i in sample:
                params, n = rows[int(i)]
                r = direct(ic.bounds, params, n)
                want = [str(r.n), _fmt(r.pg_bound), _fmt(r.info_bits), r.validity.value]
                if got(int(i)) != want:
                    problems.append(f"row {int(i)}: {got(int(i))} != direct {want}")
                    break
        return Outcome(problems, data.hex(), bytes_out=len(data))

    return Op(f"bound:{kind}:{fmt}", run, check)


def _sweep_op(ic, rng, workdir, tiny, with_oracle) -> Op:
    if with_oracle:
        n, points = 4, 4 if tiny else 20
        kind, start, stop = "vacuum", 0.0, float(repr(rng.uniform(0.5, 0.7)))
        bound = lambda x: ic.bounds.bound_vacuum(n, x)
    else:
        n, points = int(rng.integers(2, 64)), 10 if tiny else 2000
        kind, start, stop = "coherent", 0.0, float(repr(rng.uniform(2.0, 10.0)))
        bound = lambda x: ic.bounds.coherent_capacity(x, n)
    out = workdir / f"sweep-{kind}.csv"
    argv = ["sweep", kind, "--n", str(n), "--start", repr(start), "--stop", repr(stop),
            "--points", str(points), "--output", str(out)] + (["--with-oracle"] if with_oracle else [])
    axis = np.linspace(start, stop, points)
    sample = sorted(rng.choice(points, size=min(points, SAMPLED_ROWS), replace=False))

    def run(tracer):
        return invoke_cli(ic, tracer, argv)

    def check(code):
        data = take_output(out)
        if code != 0 or data is None:
            return Outcome([f"exit code {code}, output {'missing' if data is None else 'present'}"], "")
        lines = [line.split(",") for line in data.decode().splitlines()[1:]]
        problems = [] if len(lines) == points else [f"{len(lines)} rows, expected {points}"]
        for i in ([] if problems else sample):
            r = bound(float(axis[i]))
            if lines[i][1:3] != [_fmt(r.pg_bound), _fmt(r.info_bits)]:
                problems.append(f"row {i}: {lines[i]} != direct {r.pg_bound!r}")
                break
        if with_oracle and not problems:
            for row in lines:
                oracle, pg = float(row[3]), float(row[1])
                if not is_finite(oracle) or oracle > pg + SOUND_SLACK:
                    problems.append(f"oracle value {row[3]} against bound {row[1]}")
                    break
        return Outcome(problems, data.hex(), bytes_out=len(data))

    return Op(f"sweep:{kind}", run, check)


def _search_op(ic, rng, workdir) -> Op:
    out = workdir / "search.json"
    eps = float(repr(rng.uniform(0.01, 0.2)))
    argv = ["search", "almost-dim", "--d", "2", "--n", "4", "--eps", repr(eps), "--restarts", "4",
            "--seed", str(int(rng.integers(0, 2**31))), "--output", str(out)]

    def run(tracer):
        return invoke_cli(ic, tracer, argv)

    def check(code):
        data = take_output(out)
        if code != 0 or data is None:
            return Outcome([f"exit code {code}"], "")
        rep = json.loads(data)
        best, pg = rep["best_value"], rep["bound"]["pg_bound"]
        ok = is_finite(best, pg) and best <= pg + SOUND_SLACK
        return Outcome([] if ok else [f"best {best!r} against bound {pg!r}"], data.hex(), bytes_out=len(data))

    return Op("search:almost-dim", run, check)


def build(ic, seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    base = np.random.default_rng(BASE_SEED)
    targets = np.stack([random_unit(base, 2) for _ in range(3)]) @ haar_unitary(rng, 2).T
    targets_path = workdir / "targets.json"
    write_json(targets_path, ic.ensembles.ensemble_to_json(ic.ensembles.ensemble_from_vectors(targets)))
    ops = []
    for kind in ("dimension", "ea-dimension", "vacuum", "overlap", "almost-dim", "coherent", "distrust"):
        for fmt in ("csv", "json"):
            ops.append(_bound_op(ic, rng, kind, fmt, workdir, tiny, targets_path))
    ops.append(_sweep_op(ic, rng, workdir, tiny, with_oracle=False))
    ops.append(_sweep_op(ic, rng, workdir, tiny, with_oracle=True))
    ops.append(_search_op(ic, rng, workdir))
    warmup = _bound_op(ic, rng, "dimension", "csv", workdir, tiny=True)
    return Workload(ops=ops, warmup=warmup)
