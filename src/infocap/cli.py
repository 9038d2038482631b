"""Command-line front end.

Subcommands: bound (closed-form bounds over parameter grids), oracle
(discrimination oracle on an ensemble file), certify (dual certificate for
an ensemble and POVM pair), search (seeded tightness search), sweep
(plot-ready CSV along one parameter axis), paper-numbers (built-in
reference checks) and sr-demo (shared-randomness demonstration).

Exit codes: 0 success, 1 check or convergence failure (or a non-finite
result), 2 parameter-domain error, 3 file error.  Commands raise an
InfocapError for every error; the group maps it to its exit code through
one table, ``_EXIT_CODES``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import click
import numpy as np

from . import bounds
from .discrimination import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, dual_certificate, guess_value, optimize_discrimination, povm_from_json,
)
from .ensembles import (
    AlmostDim,
    Assumption,
    Dimension,
    Distrust,
    EADimension,
    UniformOverlap,
    Vacuum,
    assumption_to_json,
    ensemble_from_json,
    ensemble_from_vectors,
)
from .errors import FileFaultError, InfocapError, NonFiniteError, ParamOutOfRangeError
from .randomness import ea_average_counterexample
from .search import SEARCHES, check_state_stack, tightness_search

# a sweep holds its whole axis and CSV text in memory before it writes
MAX_SWEEP_POINTS = 2**20


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise FileFaultError(f"cannot write {output}: {exc}") from exc
    else:
        click.echo(text, nl=False)


def _json_text(obj) -> str:
    """Indented JSON text of ``obj``; a non-finite number in it raises
    NonFiniteError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(str(exc)) from exc


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _load(path: str, decode: Callable, what: str):
    """``decode`` applied to the JSON document in the file at ``path``.
    A file that cannot be read or decoded raises FileFaultError."""
    try:
        with open(path) as fh:
            return decode(json.load(fh))
    except OSError as exc:
        raise FileFaultError(f"cannot read {path}: {exc}") from exc
    # malformed JSON, the loaders' InfocapError and LinAlgError are all
    # ValueErrors; JSON nested deeper than the parser's recursion limit is
    # a RecursionError
    except (ValueError, RecursionError) as exc:
        raise FileFaultError(f"invalid {what} file {path}: {exc}") from exc


def _target_vectors(obj: dict) -> np.ndarray:
    e = ensemble_from_json(obj)
    if not all(e.pure_flags):
        raise InfocapError("targets must be pure states")
    return e.state_vectors()


# the exit code of an InfocapError: that of the first class it is an instance of
_EXIT_CODES = ((FileFaultError, 3), (NonFiniteError, 1), (InfocapError, 2))


class _Main(click.Group):
    """The command group.  An InfocapError from any command ends in one
    ``error:`` line on stderr and the exit code ``_EXIT_CODES`` gives it."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InfocapError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))


@click.group(cls=_Main)
def main():
    """Capacity bounds and discrimination oracles for restricted quantum
    state ensembles."""


@dataclass(frozen=True)
class _Kind:
    """What the CLI knows about one assumption kind.

    ``columns`` are its parameter options, in grid and CSV column order.
    ``formula`` maps (ns, *params) to the raw bound and its validity for
    each n of the column ns (see ``bounds``); for a kind with ``targets``
    the column holds the targets' certified guessing value instead of n.
    ``assumption`` builds the recorded assumption from the columns (and
    ``targets``) as keywords.
    ``sweep_axis`` names the column `sweep` varies; --with-oracle takes its
    ensembles from the row of ``assumption`` in ``bounds.WITNESSES``, and
    `search` supports the kinds whose ``assumption`` has a row in
    ``search.SEARCHES``.  ``targets`` says whether the kind takes a targets
    file.
    """

    columns: tuple[str, ...]
    formula: Callable[..., list[tuple[float, bounds.Validity]]]
    assumption: Callable[..., Assumption]
    sweep_axis: str | None = None
    targets: bool = False

    @property
    def options(self) -> tuple[str, ...]:
        """The parameter options the kind takes."""
        return self.columns + (("targets",) if self.targets else ())


# grids and sweeps run the raw formulas of `bounds`, not the bound_*
# wrappers, so no BoundResult is built for a row
_KINDS = {
    "dimension": _Kind(("d",), bounds.dimension_pg, Dimension),
    "ea-dimension": _Kind(("d",), bounds.ea_dimension_pg, EADimension),
    "vacuum": _Kind(("omega",), bounds.vacuum_pg, Vacuum, sweep_axis="omega"),
    "overlap": _Kind(("a",), bounds.overlap_pg, UniformOverlap, sweep_axis="a"),
    "almost-dim": _Kind(("d", "eps"), bounds.almost_dim_pg, AlmostDim, sweep_axis="eps"),
    "coherent": _Kind(("nbar",), bounds.coherent_pg, bounds.coherent_assumption, sweep_axis="nbar"),
    "distrust": _Kind(("eps",), bounds.deviation_pg, Distrust, targets=True),
}


# A grid point's rows come as the column of n, the formula's (pg, validity)
# and the clamped (pg_bound, info_bits) of each row.  A Validity is a str,
# whose text a concatenation takes without an enum lookup.
def _csv_rows(kind: str, params: tuple, ns, rows, clamped) -> list[str]:
    """CSV lines of one grid point's rows."""
    head = ",".join([kind, *[_fmt9(p) if isinstance(p, float) else str(p) for p in params]])
    return [f"{head},{n},{pg:.9g},{bits:.9g}," + v for n, (_, v), (pg, bits) in zip(ns, rows, clamped)]


def _json_rows(assumption: Assumption, params: dict, ns, rows, clamped) -> list[str]:
    """One grid point's rows as the elements of json.dumps(all rows, indent=2)
    renders them, keys in the order assumption, params, pg_bound, info_bits,
    validity, n.  The rows carry Python floats, whose repr is json's."""
    point = {"assumption": assumption_to_json(assumption), "params": params}
    # the point's object one level in, up to its closing brace
    head = "  " + _json_text(point)[:-2].replace("\n", "\n  ")
    return [
        f'{head},\n    "pg_bound": {pg!r},\n    "info_bits": {bits!r},\n    "validity": "'
        + v + f'",\n    "n": {n}\n  }}'
        for n, (_, v), (pg, bits) in zip(ns, rows, clamped)
    ]


# the parameter options, in --help order, with their types and help texts
_PARAM_OPTIONS = {
    "d": (int, "Dimension parameter"),
    "omega": (float, "Vacuum deviation"),
    "a": (float, "Pairwise overlap"),
    "eps": (float, "Deviation parameter"),
    "nbar": (float, "Mean photon number"),
    "targets": (str, "Target ensemble JSON (distrust)"),
}
_SEARCH_KINDS = [k for k, spec in _KINDS.items() if spec.assumption in SEARCHES]


def _param_options(kinds, repeatable: bool):
    """Decorator adding the parameter options that some of ``kinds`` take,
    all but --targets repeatable if ``repeatable``.  The command receives
    them as keywords it leaves to ``_kind_params``."""
    def decorate(f):
        # click lists options in the reverse order of decoration
        for name, (type_, text) in reversed(_PARAM_OPTIONS.items()):
            multiple = repeatable and name != "targets"
            if any(name in _KINDS[k].options for k in kinds):
                f = click.option(f"--{name}", type=type_, multiple=multiple,
                                 help=f"{text} (repeatable)." if multiple else f"{text}.")(f)
        return f
    return decorate


def _kind_params(kind: str, names: tuple[str, ...]) -> dict:
    """The values of the current command's parameter options ``names``, by
    name.  Another parameter option given on the command line, or one of
    ``names`` without a value, raises ParamOutOfRangeError."""
    ctx = click.get_current_context()
    foreign = [f"--{name}" for name in _PARAM_OPTIONS if name in ctx.params and name not in names
               and ctx.get_parameter_source(name) is not click.core.ParameterSource.DEFAULT]
    if foreign:
        raise ParamOutOfRangeError(f"kind {kind} does not take {' or '.join(foreign)}")
    missing = [f"--{name}" for name in names if ctx.params[name] in (None, ())]
    if missing:
        raise ParamOutOfRangeError(f"kind {kind} needs {' and '.join(missing)}")
    return {name: ctx.params[name] for name in names}


@main.command()
@click.argument("kind", type=click.Choice(list(_KINDS)))
@click.option("--n", "n_values", type=int, multiple=True, required=True, help="Number of inputs (repeatable).")
@_param_options(_KINDS, repeatable=True)
@click.option("--output", "-o", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv")
def bound(kind, n_values, output, fmt, **_):
    """Evaluate the closed-form bound for one assumption over a grid."""
    spec = _KINDS[kind]
    options = _kind_params(kind, spec.options)
    grid = [options[c] for c in spec.columns]
    if spec.targets:
        targets = _load(options["targets"], _target_vectors, "targets")
        if any(n != len(targets) for n in n_values):
            # the row count n of a targets kind is the number of targets
            raise ParamOutOfRangeError(f"--n must equal the {len(targets)} targets for kind {kind}")
        # one row per parameter point, with n the number of targets,
        # whose oracle runs once for the whole grid
        ensemble = ensemble_from_vectors(targets)
        ns, firsts = [ensemble.n], [bounds.targets_value(ensemble)]
        extra = {"targets": ensemble.state_vectors()}
    else:
        ns = firsts = n_values
        extra = {}
    # every row is computed before anything is written, so a bad grid
    # point leaves no output; each grid point's rows are one column over n
    lines = []
    for params in itertools.product(*grid):
        rows = spec.formula(firsts, *params)
        clamped = bounds.clamp([pg for pg, _ in rows], ns)
        if fmt == "csv":
            lines += _csv_rows(kind, params, ns, rows, clamped)
        else:
            named = dict(zip(spec.columns, params))
            lines += _json_rows(spec.assumption(**named, **extra), named, ns, rows, clamped)
    if fmt == "csv":
        header = ",".join(["assumption", *spec.columns, "n", "pg_bound", "info_bits", "validity"])
        _emit("\n".join([header, *lines]) + "\n", output)
    else:
        _emit("[\n" + ",\n".join(lines) + "\n]\n", output)


@main.command()
@click.argument("ensemble_file", type=str)
@click.option("--tol", type=float, default=DEFAULT_TOL)
@click.option("--max-iter", type=int, default=DEFAULT_MAX_ITER)
@click.option("--output", "-o", type=str, default=None)
def oracle(ensemble_file, tol, max_iter, output):
    """Run the discrimination oracle on an ensemble file; exit 0 iff the
    dual certificate closes the gap."""
    e = _load(ensemble_file, ensemble_from_json, "ensemble")
    res = optimize_discrimination(e, tol=tol, max_iter=max_iter)
    cert = res.certificate
    payload = {
        "value": res.value,
        "certified_upper": cert.certified_upper(),
        "gap": cert.trace_value - res.value,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    _emit(_json_text(payload) + "\n", output)
    sys.exit(0 if res.converged else 1)


@main.command()
@click.argument("ensemble_file", type=str)
@click.argument("povm_file", type=str)
@click.option("--output", "-o", type=str, default=None)
def certify(ensemble_file, povm_file, output):
    """Evaluate a POVM on an ensemble and emit its dual certificate; exit 0
    iff the certificate is valid."""
    e = _load(ensemble_file, ensemble_from_json, "ensemble")

    def measured(obj):
        # a POVM that does not fit the ensemble is an invalid POVM file
        m = povm_from_json(obj)
        return m, guess_value(e, m)

    m, value = _load(povm_file, measured, "POVM")
    cert = dual_certificate(e, m)
    payload = {
        "guess_value": value,
        "trace_value": cert.trace_value,
        "min_slack": cert.min_slack,
        "valid": cert.is_valid,
        "certified_upper": cert.certified_upper(),
    }
    _emit(_json_text(payload) + "\n", output)
    sys.exit(0 if cert.is_valid else 1)


@main.command()
@click.argument("kind", type=click.Choice(_SEARCH_KINDS))
@click.option("--n", type=int, default=None)
@_param_options(_SEARCH_KINDS, repeatable=False)
@click.option("--restarts", type=int, default=16)
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=DEFAULT_TOL)
@click.option("--output", "-o", type=str, default=None)
def search(kind, n, restarts, seed, tol, output, **_):
    """Seeded tightness search: best achievable value vs the bound."""
    spec = _KINDS[kind]
    # the assumption's fields are named like the options that set them
    params = _kind_params(kind, spec.options)
    if spec.targets:
        params["targets"] = _load(params["targets"], _target_vectors, "targets")
    report = tightness_search(spec.assumption(**params), n, restarts=restarts, seed=seed, tol=tol)
    _emit(_json_text(report.to_json()) + "\n", output)


@main.command()
@click.argument("kind", type=click.Choice([k for k, spec in _KINDS.items() if spec.sweep_axis]))
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, default=2, help="Subspace dimension (almost-dim only).")
@click.option("--start", type=float, required=True)
@click.option("--stop", type=float, required=True)
@click.option("--points", type=int, required=True)
@click.option("--with-oracle", is_flag=True, default=False)
@click.option("--tol", type=float, default=DEFAULT_TOL)
@click.option("--output", "-o", type=str, default=None)
def sweep(kind, n, start, stop, points, with_oracle, tol, output, **_):
    """Sweep the assumption's scalar parameter and emit plot-ready CSV."""
    spec = _KINDS[kind]
    fixed = _kind_params(kind, tuple(c for c in spec.columns if c != spec.sweep_axis))
    if points < 1:
        raise ParamOutOfRangeError("need at least one grid point")
    if points > MAX_SWEEP_POINTS:
        raise ParamOutOfRangeError(f"--points must be at most {MAX_SWEEP_POINTS}, got {points}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParamOutOfRangeError(f"need a finite --start and --stop, got {start} and {stop}")
    witness = bounds.WITNESSES.get(spec.assumption)
    if with_oracle and witness is None:
        raise ParamOutOfRangeError(f"kind {kind} has no saturating construction for --with-oracle")
    axis = np.linspace(start, stop, points)
    header = [spec.sweep_axis, "pg_bound", "info_bits"]
    if with_oracle:
        header.append("oracle_value")
    lines = [",".join(header)]
    for x in axis:
        x = float(x)
        params = [x if c == spec.sweep_axis else fixed[c] for c in spec.columns]
        [(pg, _)] = spec.formula([n], *params)
        [(pg, bits)] = bounds.clamp([pg], [n])
        row = [_fmt9(x), _fmt9(pg), _fmt9(bits)]
        if with_oracle:
            # the row's bound has checked n and the parameters
            check_state_stack(spec.assumption(**dict(zip(spec.columns, params))), n)
            row.append(_fmt9(optimize_discrimination(witness(n, *params)[0], tol=tol).value))
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", output)


@main.command(name="paper-numbers")
@click.option("--only", type=str, default=None, help="Comma-separated subset of check names.")
def paper_numbers(only):
    """Run the built-in reference checks and print one pass/fail line each;
    exit 0 iff all pass."""
    from .checks import CHECK_NAMES, run_check

    names = list(CHECK_NAMES)
    if only is not None:
        wanted = [s.strip() for s in only.split(",") if s.strip()]
        unknown = [w for w in wanted if w not in CHECK_NAMES]
        if unknown:
            raise ParamOutOfRangeError(f"unknown checks {unknown}")
        if not wanted:
            # running no check would report that all passed
            raise ParamOutOfRangeError("--only names no check")
        names = wanted
    all_ok = True
    for name in names:
        result = run_check(name)
        status = "PASS" if result.passed else "FAIL"
        click.echo(f"{status}  {name}  ({result.elapsed_s:.1f}s)  {result.detail}")
        all_ok = all_ok and result.passed
    sys.exit(0 if all_ok else 1)


@main.command(name="sr-demo")
@click.option("--tol", type=float, default=1e-9)
@click.option("--strategy", "strategy_file", type=str, default=None,
              help="Analyze a strategy JSON file instead of the built-in demo.")
def sr_demo(tol, strategy_file):
    """Shared-randomness demonstration: averaging the entanglement-assisted
    dimension beats its peak-parameter bound.  With --strategy, report the
    mixture value, its classical-register embedding and the log-averaged
    information of the given strategy."""
    if strategy_file:
        from .randomness import averaged_log_pg, branch_values, embed_cq, mixture_guess_value, strategy_from_json

        s = _load(strategy_file, strategy_from_json, "strategy")
        # each branch is solved once, for both accountings
        values = branch_values(s, tol=tol)
        mixture = mixture_guess_value(s, values=values)
        embedded = optimize_discrimination(embed_cq(s), tol=tol).value
        averaged = averaged_log_pg(s, values=values)
        click.echo(f"branches: {len(s.branches)}, n = {s.n}, kind = {s.kind}")
        click.echo(f"mixture guessing value:            {mixture:.9f}")
        click.echo(f"embedded-ensemble guessing value:  {embedded:.9f}")
        click.echo(f"log-averaged information (bits):   {averaged:.9f}")
        return
    peak, average = ea_average_counterexample(tol=tol)
    cap = bounds.bound_ea_dimension(3, 30).pg_bound
    click.echo(f"single entanglement-assisted qutrit branch (n=30): Pg = {peak:.6f}")
    click.echo(f"bound at message dimension 3:                     Pg <= {cap:.6f}")
    click.echo("average-dimension mixture (qubit 2/3, 5-dim 1/3):  Pg = "
               f"{average:.6f}")
    click.echo(f"excess over the peak-parameter bound: {average - cap:+.6f}")
