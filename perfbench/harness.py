"""Closed-loop round runner, statistics and the result line.

A workload is a fixed list of ops (one round).  The runner repeats the
round with one caller until the run's time is spent, times every op, checks
every output, and digests every output so that rounds (and runs) of one
commit can be compared byte for byte.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace
from typing import Any, Callable

from spans import NullTracer, Tracer, patch_list

INFOCAP_MODULES = ("linalg", "ensembles", "serialize", "discrimination", "bounds",
                   "search", "randomness", "cli")
MAX_REPORTED_FAILURES = 5
MIN_ROUNDS = 3  # a traced run needs both kinds of round; medians need three


@dataclass
class Outcome:
    """What a check found in one op's output."""

    problems: list[str]
    digest: str
    solves: list[tuple] = field(default_factory=list)  # (kind, iterations, gap, converged, tol)
    bytes_out: int = 0


@dataclass
class Op:
    label: str
    run: Callable[[Any], Any]  # tracer -> raw output
    check: Callable[[Any], Outcome]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op


def fmt17(obj) -> str:
    """Canonical text of nested outputs with floats printed as .17g."""
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{fmt17(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(fmt17(v) for v in obj) + "]"
    return str(obj)


def is_finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def load_infocap() -> SimpleNamespace:
    """Import infocap afresh (its modules only; numpy and click stay loaded)."""
    for name in [m for m in sys.modules if m == "infocap" or m.startswith("infocap.")]:
        del sys.modules[name]
    top = importlib.import_module("infocap")
    mods = {name: importlib.import_module(f"infocap.{name}") for name in INFOCAP_MODULES}
    return SimpleNamespace(top=top, **mods)


class Run:
    """Counters and samples of one benchmark process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies_ns: list[int] = []        # untraced rounds only
        self.walls_ns: list[int] = []            # per untraced round: sum of op latencies
        self.traced_walls_ns: list[int] = []
        self.digests: list[str] = []             # per round
        self.solves: list[tuple] = []
        self.bytes_out: list[int] = []           # per round
        self._first_round: list[str] | None = None

    def _fail(self, op: Op, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {op.label}: {message}", file=sys.stderr)

    def execute(self, op: Op, tracer) -> tuple[int, Outcome | None]:
        """Run and check one op; returns (latency ns, outcome or None on failure)."""
        self.attempted += 1
        t0 = perf_counter_ns()
        try:
            raw = op.run(tracer)
        except Exception:  # an op that raises is a counted failure, not a crash
            latency = perf_counter_ns() - t0
            self._fail(op, traceback.format_exc(limit=3))
            return latency, None
        latency = perf_counter_ns() - t0
        try:
            outcome = op.check(raw)
        except Exception:
            self._fail(op, "check raised: " + traceback.format_exc(limit=3))
            return latency, None
        if outcome.problems:
            self._fail(op, "; ".join(outcome.problems))
            return latency, None
        return latency, outcome

    def round(self, ops: list[Op], tracer) -> None:
        traced = isinstance(tracer, Tracer)
        digests, total, nbytes = [], 0, 0
        for op in ops:
            tracer.op_id = self.attempted
            latency, outcome = self.execute(op, tracer)
            total += latency
            digest = outcome.digest if outcome else "failed"
            digests.append(digest)
            if outcome:
                nbytes += outcome.bytes_out
                self.solves.extend(outcome.solves)
            if not traced:
                self.latencies_ns.append(latency)
        if self._first_round is None:
            self._first_round = digests
        else:
            for op, now, first in zip(ops, digests, self._first_round):
                if now != first and "failed" not in (now, first):
                    self._fail(op, "output differs from the first round of this run")
        (self.traced_walls_ns if traced else self.walls_ns).append(total)
        self.bytes_out.append(nbytes)
        self.digests.append(hashlib.sha256("\n".join(digests).encode()).hexdigest())


def setup(build: Callable, seed: int, tiny: bool, workdir: Path, reps: int, run: Run):
    """Set up `reps` times (fresh infocap import, inputs, files, one warm-up op).

    Returns (median set-up seconds, infocap namespace, workload) of the last rep.
    """
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        ic = load_infocap()
        wl = build(ic, seed, tiny, workdir)
        run.execute(wl.warmup, NullTracer())
        times.append(perf_counter() - t0)
    return statistics.median(times), ic, wl


def measure(ops: list[Op], ic, seconds: float, trace: bool, run: Run) -> Tracer | None:
    """Repeat the round for about `seconds`, at least MIN_ROUNDS times: a
    round starts only if at least half of it fits.  With tracing, untraced and traced rounds alternate, so
    both see the same machine state."""
    tracer = Tracer() if trace else None
    entries = patch_list(ic) if trace else None
    null = NullTracer()
    start = perf_counter()
    spent: list[float] = []
    while True:
        gc.collect()  # start every round with no garbage from the previous one
        t0 = perf_counter()
        use_trace = trace and len(spent) % 2 == 1
        if use_trace:
            tracer.install(entries)
            try:
                run.round(ops, tracer)
            finally:
                tracer.uninstall()
        else:
            run.round(ops, null)
        spent.append(perf_counter() - t0)
        if len(spent) >= MIN_ROUNDS and perf_counter() - start + max(spent[-2:]) / 2 > seconds:
            return tracer


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count): the highest order statistic with at least
    ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    m = max(1, n - 10)
    return xs[m - 1], 100.0 * m / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "INFOCAP_THREADS": os.environ.get("INFOCAP_THREADS"),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if ".row_us." in metric:
        return "us"
    if "frac" in metric:
        return "ratio"
    if "gap" in metric:
        return "probability"
    return "count"


def solver_summary(solves: list[tuple]) -> dict:
    """Exact counts over oracle results: iterations, certified and falsely
    converged shares.  A result is certified when certified_upper - value <= tol."""
    if not solves:
        return {"calls": 0, "iterations_p50": 0, "iterations_max": 0,
                "certified_frac": 0.0, "false_converged_frac": 0.0}
    iters = [s[1] for s in solves]
    certified = [s[2] <= s[4] for s in solves]
    false_conv = [s[3] and not c for s, c in zip(solves, certified)]
    return {
        "calls": len(solves),
        "iterations_p50": statistics.median(iters),
        "iterations_max": max(iters),
        "certified_frac": sum(certified) / len(solves),
        "false_converged_frac": sum(false_conv) / len(solves),
    }
