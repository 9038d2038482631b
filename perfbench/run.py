"""infocap benchmark runner.

    python3 perfbench/run.py --workload oracle-mid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; infocap is imported from its sources in
src/.  One process, one closed-loop caller, INFOCAP_THREADS unset (the
serial default path) and BLAS threads capped at the usable CPUs.  Inputs
come from --seed alone.  Every op's output is checked and digested.

The last line of standard output is the result object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics from a run that
alternates untraced and traced rounds.  The line before it is a report
with the environment, output digest, the ungated fail_frac and
certified_frac, and solver counts.
Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = {"oracle-mid": "oracle_mid", "restricted-small": "restricted_small", "cli-grid": "cli_grid"}
SETUP_REPS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for checking the harness itself")
    return p.parse_args(argv)


def _pin_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; numpy reads these
    variables when it loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        raw = os.environ.get(var, "")
        os.environ[var] = raw if raw.isdigit() and 0 < int(raw) <= ncpu else str(ncpu)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "infocap" / "__init__.py").is_file():
        print(f"error: infocap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    infocap_threads = os.environ.pop("INFOCAP_THREADS", None)
    _pin_blas_threads()
    import harness  # numpy loads with the workload modules, after the thread cap

    sys.path.insert(0, str(ROOT / "src"))
    workload = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    run = harness.Run()
    try:
        setup_s, ic, wl = harness.setup(workload.build, args.seed, args.tiny, workdir, SETUP_REPS, run)
        tracer = harness.measure(wl.ops, ic, args.seconds, bool(args.trace), run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [w / 1e9 for w in run.walls_ns]
    lat_ms = [x / 1e6 for x in run.latencies_ns]
    tail_ms, tail_pct, n_ops = harness.tail(lat_ms)
    digests = sorted(set(run.digests))
    solves = run.solves
    summary = harness.solver_summary(solves)
    report = {
        "environment": harness.environment(ROOT, args.workload, args.seed),
        "round_walls_s": [round(w / 1e9, 4) for w in run.walls_ns],
        "traced_round_walls_s": [round(w / 1e9, 4) for w in run.traced_walls_ns],
        "ops_per_round": len(wl.ops),
        "op_tail": {"percentile": tail_pct, "ops": n_ops},
        # measured but not gated: fail_frac is the result line's failed/attempted,
        # certified_frac covers the oracle results the ops' outputs expose
        "fail_frac": _metric(run.failed / run.attempted, "ratio") | {"base": run.attempted},
        "certified_frac": _metric(summary["certified_frac"] if solves else None, "ratio")
        | {"base": len(solves)},
        "digest": digests[0] if len(digests) == 1 else digests,
        "solver": summary,
        "solver_by_kind": {kind: harness.solver_summary([s for s in solves if s[0] == kind])
                           for kind in sorted({s[0] for s in solves})},
    }
    if infocap_threads is not None:
        report["environment"]["INFOCAP_THREADS_unset_from"] = infocap_threads
    if args.trace:
        from restricted_small import kind_metrics
        from spans import layer_metrics

        values = layer_metrics(tracer, len(run.traced_walls_ns)) | kind_metrics(solves)
        metrics = {name: _metric(value, harness.unit_of(name)) for name, value in values.items()}
        metrics["cli.bytes_out"] = _metric(statistics.median(run.bytes_out), "count")
        overhead = (statistics.median(run.traced_walls_ns) - statistics.median(run.walls_ns)) / 1e9
        metrics["tracing_overhead_s"] = _metric(overhead, "s")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        report["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": len(tracer)}
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "op_p50_ms": _metric(statistics.median(lat_ms), "ms"),
            "op_tail_ms": _metric(tail_ms, "ms"),
            "peak_rss_mb": _metric(harness.peak_rss_mb(), "MB"),
        }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0 and len(digests) == 1,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
