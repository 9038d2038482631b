"""In-memory span tracing around calls into infocap's public functions.

The tracer wraps module attributes (the names callers look up at call
time) in span-recording functions, so infocap itself is measured from the
outside and stays unchanged.  A span is (name, start, end, parent, op id);
names are "<layer>.<function>" where the layer is one of LAYERS.  Spans
live in flat arrays while the benchmark runs and are written out at the end.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter_ns

LAYERS = ("linalg", "ensembles", "serialize", "discrimination", "bounds", "search", "randomness", "cli")


def _oracle_record(args, kwargs, result):
    """(iterations, certified gap, converged, tol) of one oracle call."""
    tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-10)
    gap = result.certificate.certified_upper() - result.value
    return (result.iterations, gap, result.converged, tol)


def _search_record(args, kwargs, result):
    return (len(result.restarts),)


def patch_list(ic):
    """(owner, attribute, span name, record hook) for every traced call site.

    Callers that imported a function by name hold their own reference, so
    each such namespace is patched separately.
    """
    oracle = ("optimize_discrimination", "discrimination.optimize_discrimination", _oracle_record)
    search = ("tightness_search", "search.tightness_search", _search_record)
    bound_names = {
        "bound_dimension": "bounds.dimension",
        "bound_ea_dimension": "bounds.ea_dimension",
        "bound_vacuum": "bounds.vacuum",
        "bound_overlap": "bounds.overlap",
        "bound_almost_dim": "bounds.almost_dim",
        "coherent_capacity": "bounds.coherent",
        "bound_distrust": "bounds.distrust",
    }
    entries = [
        (ic.linalg, "mat_inv_sqrt", "linalg.mat_inv_sqrt", None),
        (ic.ensembles.StateEnsemble, "__post_init__", "ensembles.StateEnsemble", None),
        (ic.ensembles, "check_assumption", "ensembles.check_assumption", None),
        (ic.ensembles, "matrix_from_json", "serialize.matrix_from_json", None),
        (ic.discrimination, "pgm", "discrimination.pgm", None),
        (ic.discrimination, "dual_certificate", "discrimination.dual_certificate", None),
        (ic.discrimination, *oracle),
        (ic.bounds, *oracle),
        (ic.search, *oracle),
        (ic.search, *search),
        (ic.search, "check_assumption", "ensembles.check_assumption", None),
        (ic.randomness, *oracle),
        (ic.randomness, "mixture_guess_value", "randomness.mixture_guess_value", None),
        (ic.randomness, "embed_cq", "randomness.embed_cq", None),
        (ic.cli, *oracle),
        (ic.cli, *search),
        (ic.cli, "ensemble_from_json", "serialize.ensemble_from_json", None),
    ]
    for attr, name in bound_names.items():
        entries.append((ic.bounds, attr, name, None))
        if hasattr(ic.search, attr):
            entries.append((ic.search, attr, name, None))
    return entries


class NullTracer:
    """Untraced rounds: spans cost one function call."""

    op_id = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans of traced rounds; `install` wraps the call sites, `uninstall`
    restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.records: dict[int, tuple] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name, fn, record):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                self.records[idx] = record(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, entries) -> None:
        for owner, attr, name, record in entries:
            orig = getattr(owner, attr)
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, record))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path) -> None:
        """One JSON array per span: [name, start ns, end ns, parent index, op id]."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(f'["{names[n]}",{s},{e},{p},{o}]\n'
                          for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op))

def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


BOUND_KINDS = ("dimension", "ea_dimension", "vacuum", "overlap", "almost_dim", "coherent", "distrust")


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer numbers from the spans of `rounds` traced rounds.

    Per-call figures are medians of inclusive span durations; `<layer>.self_ms`
    is the layer's self time (span minus its child spans) per round.
    """
    count = len(tr)
    parent = tr.parent
    names = [tr.names[n] for n in tr.name]
    layer_ids = [LAYERS.index(n.split(".", 1)[0]) for n in tr.names]
    layers = [layer_ids[n] for n in tr.name]
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    child_ns = [0] * count
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)
        if parent[i] >= 0:
            child_ns[parent[i]] += dur[i]

    def p50_ms(name):
        return _median(dur[i] for i in by_name.get(name, ())) / 1e6

    def outside(ancestor, layer_names):
        """Per span named `ancestor`: its duration minus that of its top-most
        descendants in the given layers."""
        left = {i: dur[i] for i in by_name.get(ancestor, ())}
        wanted = {LAYERS.index(name) for name in layer_names}
        for k in range(count) if left else ():
            if layers[k] in wanted and (parent[k] < 0 or layers[parent[k]] not in wanted):
                a = parent[k]
                while a >= 0 and a not in left:
                    a = parent[a]
                if a >= 0:
                    left[a] -= dur[k]
        return left

    out: dict[str, float] = {}
    oracle = by_name.get("discrimination.optimize_discrimination", [])
    fixed_ns = [0] * count  # pgm and certificate time inside each oracle call
    for name in ("discrimination.pgm", "discrimination.dual_certificate"):
        for k in by_name.get(name, ()):
            if parent[k] >= 0:
                fixed_ns[parent[k]] += dur[k]
    out["discrimination.oracle_ms"] = p50_ms("discrimination.optimize_discrimination")
    out["discrimination.pgm_ms"] = p50_ms("discrimination.pgm")
    out["discrimination.certificate_ms"] = p50_ms("discrimination.dual_certificate")
    per_iter = []
    for i in oracle:
        rec = tr.records.get(i)
        if rec and rec[0] > 0:
            per_iter.append((dur[i] - fixed_ns[i]) / rec[0])
    out["discrimination.iter_ms"] = _median(per_iter) / 1e6
    recs = [tr.records[i] for i in oracle if i in tr.records]
    iters = [r[0] for r in recs]
    gaps = [r[1] for r in recs]
    certified = [r[1] <= r[3] for r in recs]
    out["discrimination.iterations_p50"] = _median(iters)
    out["discrimination.iterations_max"] = float(max(iters, default=0))
    out["discrimination.certified_gap_p50"] = _median(gaps)
    out["discrimination.certified_gap_max"] = float(max(gaps, default=0.0))
    out["discrimination.certified_frac"] = sum(certified) / len(recs) if recs else 0.0
    out["discrimination.false_converged_frac"] = (
        sum(r[2] and not c for r, c in zip(recs, certified)) / len(recs) if recs else 0.0)

    pgm_spans = set(by_name.get("discrimination.pgm", ()))
    out["linalg.inv_sqrt_ms"] = _median(
        dur[i] for i in by_name.get("linalg.mat_inv_sqrt", ()) if parent[i] in pgm_spans) / 1e6
    out["ensembles.validate_ms"] = p50_ms("ensembles.StateEnsemble")
    out["ensembles.membership_ms"] = p50_ms("ensembles.check_assumption")
    out["serialize.load_ms"] = p50_ms("serialize.ensemble_from_json")
    for kind in BOUND_KINDS:
        rows = [dur[i] for i in by_name.get(f"bounds.{kind}", ())
                if parent[i] < 0 or LAYERS[layers[parent[i]]] != "bounds"]
        out[f"bounds.row_us.{kind}"] = sum(rows) / len(rows) / 1e3 if rows else 0.0
    cli = outside("cli.main", ("bounds", "discrimination"))
    out["cli.overhead_ms"] = sum(cli.values()) / len(cli) / 1e6 if cli else 0.0
    restarts = [left / tr.records[i][0]
                for i, left in outside("search.tightness_search", ("bounds",)).items()
                if tr.records.get(i, (0,))[0]]
    out["search.restart_ms"] = _median(restarts) / 1e6
    out["randomness.mixture_ms"] = p50_ms("randomness.mixture_guess_value")
    out["randomness.embed_ms"] = p50_ms("randomness.embed_cq")

    self_ns = [0] * len(LAYERS)
    for i in range(count):
        self_ns[layers[i]] += dur[i] - child_ns[i]
    for lid, name in enumerate(LAYERS):
        out[f"{name}.self_ms"] = self_ns[lid] / max(1, rounds) / 1e6
    return out
