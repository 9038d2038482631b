import dataclasses
import hashlib
import json
import math
import random
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from infocap import (
    Vacuum, basis_ensemble, cli, ensemble_from_vectors, ensemble_to_json, optimize_discrimination, pgm, search,
)
from infocap.bounds import WITNESSES, Validity
from infocap.cli import main
from infocap.discrimination import povm_to_json
from infocap.errors import FileFaultError, NonFiniteError, ParamOutOfRangeError

from conftest import random_pure_ensemble, uniform_povm


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestBound:
    def test_vacuum_reference_row(self, runner):
        result = runner.invoke(main, ["bound", "vacuum", "--n", "4", "--omega", "0.1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "assumption,omega,n,pg_bound,info_bits,validity"
        fields = lines[1].split(",")
        assert fields[0] == "vacuum"
        assert abs(float(fields[3]) - 0.559808) <= 1e-6

    def test_dimension(self, runner):
        result = runner.invoke(main, ["bound", "dimension", "--d", "2", "--n", "4"])
        assert result.exit_code == 0
        assert float(result.output.strip().splitlines()[1].split(",")[3]) == 0.5

    def test_ea_dimension_reference(self, runner):
        result = runner.invoke(main, ["bound", "ea-dimension", "--d", "3", "--n", "30"])
        assert result.exit_code == 0
        assert abs(float(result.output.strip().splitlines()[1].split(",")[4 - 1]) - 0.3) <= 1e-9

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["bound", "vacuum", "--n", "4", "--omega", "0.1", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload[0]["validity"] == "valid"
        assert abs(payload[0]["pg_bound"] - 0.5598076211353316) <= 1e-15

    def test_grid_rows(self, runner):
        result = runner.invoke(
            main,
            ["bound", "almost-dim", "--d", "2", "--n", "4", "--n", "8",
             "--eps", "0.0", "--eps", "0.1"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "assumption,d,eps,n,pg_bound,info_bits,validity"
        assert len(lines) == 5

    def test_parameter_error_exits_2(self, runner):
        result = runner.invoke(main, ["bound", "vacuum", "--n", "4", "--omega", "1.5"])
        assert result.exit_code == 2

    def test_missing_parameter_exits_2(self, runner):
        result = runner.invoke(main, ["bound", "vacuum", "--n", "4"])
        assert result.exit_code == 2

    def test_bad_later_grid_point_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "grid.json"
        result = runner.invoke(
            main, ["bound", "vacuum", "--omega", "0.2", "--omega", "1.5", "--n", "4",
                   "--format", "json", "--output", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr == "error: omega must lie in [0, 1]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["dimension", "--d", "1" + "0" * 400, "--n", "4"], "need d and n within the float range"),
            (["almost-dim", "--d", "1" + "0" * 400, "--eps", "0.1", "--n", "4"],
             "need d and n within the float range"),
            # d**2 / n would overflow although d itself is a float-sized int
            (["ea-dimension", "--d", "1" + "0" * 200, "--n", "4"],
             "need d**2 and n within the float range"),
        ],
        ids=["dimension", "almost-dim", "ea-dimension"],
    )
    def test_huge_d_exits_2(self, runner, args, message):
        result = runner.invoke(main, ["bound", *args])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["dimension", "--d", "2"], "need d and n within the float range"),
            (["vacuum", "--omega", "0.1"], "need n within the float range"),
            (["coherent", "--nbar", "1"], "need n within the float range"),
            (["overlap", "--a", "0.5"], "need n**2 within the float range"),
        ],
        ids=["dimension", "vacuum", "coherent", "overlap"],
    )
    def test_huge_n_exits_2(self, runner, args, message):
        result = runner.invoke(main, ["bound", *args, "--n", "1" + "0" * 400])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("nbar", ["inf", "nan"])
    def test_non_finite_nbar_exits_2(self, runner, nbar):
        # it used to reach the deviation bound as eps = NaN and blame eps
        result = runner.invoke(main, ["bound", "coherent", "--nbar", nbar, "--n", "4"])
        assert result.exit_code == 2
        assert result.stderr == f"error: mean photon number must be finite, got {nbar}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_bound_exits_1(self, runner, tmp_path, monkeypatch, fmt):
        # the clamp to [1/n, 1] would print a NaN bound as 1/n
        nan_formula = lambda ns, omega: [(math.nan, Validity.VALID) for _ in ns]
        spec = dataclasses.replace(cli._KINDS["vacuum"], formula=nan_formula)
        monkeypatch.setitem(cli._KINDS, "vacuum", spec)
        out = tmp_path / f"grid.{fmt}"
        result = runner.invoke(
            main, ["bound", "vacuum", "--omega", "0.1", "--n", "4", "--format", fmt, "-o", str(out)]
        )
        assert result.exit_code == 1
        assert result.stderr == "error: bound evaluated to nan\n"
        assert not out.exists()


_TARGET_VECTORS = [[1, 0], [0, 1], [1, 0]]
_TARGETS_JSON = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


def _row(assumption, params, pg_bound, info_bits, validity, n):
    return {"assumption": assumption, "params": params, "pg_bound": pg_bound,
            "info_bits": info_bits, "validity": validity, "n": n}


# (grid options, CSV text, JSON rows): every bound kind on a small grid, with
# the embedded assumption dicts in their serialized key order
_BOUND_GRIDS = {
    "dimension": (
        ["--d", "2", "--d", "3", "--n", "4", "--n", "9"],
        "assumption,d,n,pg_bound,info_bits,validity\n"
        "dimension,2,4,0.5,1,valid\n"
        "dimension,2,9,0.222222222,1,valid\n"
        "dimension,3,4,0.75,1.5849625,valid\n"
        "dimension,3,9,0.333333333,1.5849625,valid\n",
        [
            _row({"kind": "dimension", "d": 2}, {"d": 2}, 0.5, 1.0, "valid", 4),
            _row({"kind": "dimension", "d": 2}, {"d": 2}, 0.2222222222222222, 1.0, "valid", 9),
            _row({"kind": "dimension", "d": 3}, {"d": 3}, 0.75, 1.584962500721156, "valid", 4),
            _row({"kind": "dimension", "d": 3}, {"d": 3}, 0.3333333333333333, 1.584962500721156,
                 "valid", 9),
        ],
    ),
    "ea-dimension": (
        ["--d", "2", "--n", "3", "--n", "30"],
        "assumption,d,n,pg_bound,info_bits,validity\n"
        "ea-dimension,2,3,1,1.5849625,valid\n"
        "ea-dimension,2,30,0.133333333,2,valid\n",
        [
            _row({"kind": "ea_dimension", "d": 2}, {"d": 2}, 1.0, 1.584962500721156, "valid", 3),
            _row({"kind": "ea_dimension", "d": 2}, {"d": 2}, 0.13333333333333333, 2.0, "valid", 30),
        ],
    ),
    "vacuum": (
        ["--omega", "0.1", "--omega", "0.9", "--n", "4"],
        "assumption,omega,n,pg_bound,info_bits,validity\n"
        "vacuum,0.1,4,0.559807621,1.16300303,valid\n"
        "vacuum,0.9,4,1,2,trivially_one\n",
        [
            _row({"kind": "vacuum", "omega": 0.1}, {"omega": 0.1}, 0.5598076211353316,
                 1.1630030327867855, "valid", 4),
            _row({"kind": "vacuum", "omega": 0.9}, {"omega": 0.9}, 1.0, 2.0, "trivially_one", 4),
        ],
    ),
    "overlap": (
        ["--a", "0.0", "--a", "0.5", "--n", "3"],
        "assumption,a,n,pg_bound,info_bits,validity\n"
        "overlap,0,3,1,1.5849625,valid\n"
        "overlap,0.5,3,0.888888889,1.4150375,valid\n",
        [
            _row({"kind": "uniform_overlap", "a": 0.0}, {"a": 0.0}, 1.0, 1.584962500721156,
                 "valid", 3),
            _row({"kind": "uniform_overlap", "a": 0.5}, {"a": 0.5}, 0.8888888888888891,
                 1.415037499278844, "valid", 3),
        ],
    ),
    "almost-dim": (
        ["--d", "2", "--eps", "0.0", "--eps", "0.1", "--n", "4", "--n", "8"],
        "assumption,d,eps,n,pg_bound,info_bits,validity\n"
        "almost-dim,2,0,4,0.5,1,valid\n"
        "almost-dim,2,0,8,0.25,1,valid\n"
        "almost-dim,2,0.1,4,0.8,1.67807191,valid\n"
        "almost-dim,2,0.1,8,0.559807621,2.16300303,valid\n",
        [
            _row({"kind": "almost_dim", "d": 2, "eps": 0.0}, {"d": 2, "eps": 0.0},
                 0.5000000000000001, 1.0000000000000002, "valid", 4),
            _row({"kind": "almost_dim", "d": 2, "eps": 0.0}, {"d": 2, "eps": 0.0}, 0.25, 1.0,
                 "valid", 8),
            _row({"kind": "almost_dim", "d": 2, "eps": 0.1}, {"d": 2, "eps": 0.1},
                 0.7999999999999999, 1.6780719051126376, "valid", 4),
            _row({"kind": "almost_dim", "d": 2, "eps": 0.1}, {"d": 2, "eps": 0.1},
                 0.5598076211353316, 2.1630030327867855, "valid", 8),
        ],
    ),
    "coherent": (
        ["--nbar", "0.5", "--nbar", "2", "--n", "8"],
        "assumption,nbar,n,pg_bound,info_bits,validity\n"
        "coherent,0.5,8,0.543195607,2.11954372,valid\n"
        "coherent,2,8,0.972289709,2.95945816,valid\n",
        [
            _row({"kind": "almost_dim", "d": 2, "eps": 0.09020401043104986}, {"nbar": 0.5},
                 0.5431956069063056, 2.119543716948383, "valid", 8),
            _row({"kind": "almost_dim", "d": 2, "eps": 0.5939941502901619}, {"nbar": 2.0},
                 0.9722897094375442, 2.9594581573113232, "valid", 8),
        ],
    ),
    "distrust": (
        ["--eps", "0.05", "--eps", "0.5", "--n", "3"],
        "assumption,eps,n,pg_bound,info_bits,validity\n"
        "distrust,0.05,3,0.855480467,1.35976932,valid\n"
        "distrust,0.5,3,1,1.5849625,trivially_one\n",
        [
            _row({"kind": "distrust", "eps": 0.05, "targets": _TARGETS_JSON}, {"eps": 0.05},
                 0.8554804667656326, 1.359769319786267, "valid", 3),
            _row({"kind": "distrust", "eps": 0.5, "targets": _TARGETS_JSON}, {"eps": 0.5}, 1.0,
                 1.584962500721156, "trivially_one", 3),
        ],
    ),
}


@pytest.mark.parametrize("kind", list(_BOUND_GRIDS))
def test_bound_output_pinned(runner, tmp_path, kind):
    options, csv_text, json_rows = _BOUND_GRIDS[kind]
    if kind == "distrust":
        targets = ensemble_from_vectors(np.array(_TARGET_VECTORS, dtype=complex))
        options = [*options, "--targets", write_json(tmp_path / "t.json", ensemble_to_json(targets))]
    csv = runner.invoke(main, ["bound", kind, *options])
    assert csv.exit_code == 0
    assert csv.output == csv_text
    js = runner.invoke(main, ["bound", kind, *options, "--format", "json"])
    assert js.exit_code == 0
    assert js.output == json.dumps(json_rows, indent=2) + "\n"


def _digest_grids():
    """Seeded `bound` grids of a few hundred rows per kind, with edge points:
    d > n, n = 1, omega = (n-1)/n, a in {0, 1}, eps = 1 - d/n, nbar = 0."""
    rng = random.Random(20261018)
    ints = lambda count, lo, hi: rng.sample(range(lo, hi), count)
    floats = lambda count, lo, hi: [rng.uniform(lo, hi) for _ in range(count)]
    ns = [2, 3, 4, 7, *ints(12, 8, 300)]
    return {
        "dimension": {"--d": [1, 2, 3, *ints(9, 4, 400)], "--n": [1, 2, 3, *ints(17, 4, 300)]},
        "ea-dimension": {"--d": [1, 2, 3, *ints(9, 4, 60)], "--n": [1, 2, 3, *ints(17, 4, 300)]},
        "vacuum": {"--omega": [0.0, 1.0, *[(n - 1) / n for n in ns[:4]], *floats(9, 0.0, 1.0)],
                   "--n": ns},
        "overlap": {"--a": [0.0, 1.0, *floats(13, 0.0, 1.0)], "--n": ns},
        "almost-dim": {"--d": [1, 2, 3, 5], "--n": [1, 2, 4, 7, 9, *ints(3, 10, 300)],
                       "--eps": [0.0, 1.0, 1 - 1 / 2, 1 - 2 / 7, 1 - 3 / 7, 1 - 5 / 9,
                                 *floats(4, 0.0, 1.0)]},
        "coherent": {"--nbar": [0.0, *floats(14, 0.0, 10.0)], "--n": ns},
        "distrust": {"--eps": [0.0, 1.0, *floats(98, 0.0, 1.0)], "--n": [3]},
    }


# sha256 of the CSV and JSON output of each grid above
_GRID_DIGESTS = {
    "dimension": ("fe1565570418cfaa0bd5078ec61b64ec73053b8cc63d4a6acefd9c8e43d7b922",
                  "6a9ecd77ef8975b8096cbd5a9a3ed0e9b153a68ba2185f12bc8cdc9aa6ca6e8c"),
    "ea-dimension": ("51b2f5725b78ea82c37d7f1744a9b2f9fbae1f6678dd901be3dd52e4a4c8989a",
                     "3a507447fda88d2ae704dc08dd19bed0a941a7c74c78584994f1b9d0af454228"),
    "vacuum": ("38939a5b956bae36740717dbd14a89e9a881495ca47935696ad3bcb3b1a56d65",
               "609195154630c2792bebc6d2f62b7bd52ed356af4ea9a214ec2ca32426f7e9cb"),
    "overlap": ("2c0d387a7cb0ecc0ef4264c7c9b5157df53839525bf6d7098068fdcb5ad15d8f",
                "7d1bbc167d356efcf244024578266dbb253f4c0a110959426cc30f021cd99b15"),
    "almost-dim": ("9e8a2d35e2f0e327258352ea6736d3f97a9d18b94b8b6d9a0f7931f7574ca66d",
                   "0a44ce86cae2c2a65cc7ca1623c707524de83b5de612d56765b98f48fe2b05a4"),
    "coherent": ("3d45f1a4478c9ec941e3462b761bf7d46ee349a938d058c6afeff8f64a4996a6",
                 "adaa5391c59169c047be73a4db330e3b8a3d744a431a982e906c2a725b830488"),
    "distrust": ("acf4ea7baed9e735fed02194a4a6c2466330d83780bdd3e97b9af0824941af3d",
                 "d3f84f4c2ca28c9c39303f6bb76299ba6cd93d8bbbd691634d6aee346064e3fa"),
}


@pytest.mark.parametrize("kind", list(_GRID_DIGESTS))
def test_bound_grid_digests(runner, tmp_path, kind):
    grid = _digest_grids()[kind]
    argv = ["bound", kind, *[arg for flag, values in grid.items() for v in values for arg in (flag, repr(v))]]
    if kind == "distrust":
        targets = ensemble_from_vectors(np.array(_TARGET_VECTORS, dtype=complex))
        argv += ["--targets", write_json(tmp_path / "t.json", ensemble_to_json(targets))]
    csv = runner.invoke(main, argv)
    assert csv.exit_code == 0
    out = tmp_path / "grid.json"
    js = runner.invoke(main, [*argv, "--format", "json", "--output", str(out)])
    assert js.exit_code == 0
    digests = hashlib.sha256(csv.stdout_bytes).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == _GRID_DIGESTS[kind]


# a grid whose rows fail on different checks reports the first failing row,
# in grid-point order and then --n order (messages captured at the commit
# that evaluated grids row by row)
_ERROR_PRECEDENCE = [
    (["dimension", "--d", "2", "--n", "5", "--n", "0"], "need d >= 1 and n >= 1"),
    (["vacuum", "--omega", "2", "--n", "5", "--n", "1"], "omega must lie in [0, 1]"),
    (["vacuum", "--omega", "0.2", "--n", "1", "--n", "5"], "need n >= 2"),
    (["dimension", "--d", "3", "--n", "4", "--n", "1" + "0" * 400, "--n", "0"],
     "need d and n within the float range"),
    (["almost-dim", "--d", "2", "--n", "4", "--n", "0", "--eps", "1.5"], "eps must lie in [0, 1]"),
    (["coherent", "--nbar", "1", "--n", "1"], "need n >= 2"),
]


@pytest.mark.parametrize("args, message", _ERROR_PRECEDENCE, ids=[str(i) for i in range(len(_ERROR_PRECEDENCE))])
def test_bound_error_precedence_pinned(runner, args, message):
    result = runner.invoke(main, ["bound", *args])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("n_options", [["--n", "99", "--n", "5"], ["--n", "3", "--n", "4"]])
def test_distrust_n_other_than_target_count_exits_2(runner, tmp_path, n_options):
    targets = ensemble_from_vectors(np.array(_TARGET_VECTORS, dtype=complex))
    path = write_json(tmp_path / "t.json", ensemble_to_json(targets))
    result = runner.invoke(main, ["bound", "distrust", *n_options, "--eps", "0.1", "--targets", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--n must equal the 3 targets" in result.stderr


class _Doc(NamedTuple):
    """A JSON document that a command reads from a file."""

    obj: object


def _write_args(tmp_path, args):
    """argv with every _Doc in ``args`` written to a file and replaced by its path."""
    return [
        write_json(tmp_path / f"{i}.json", a.obj) if isinstance(a, _Doc) else a
        for i, a in enumerate(args)
    ]


_BASIS_STATES = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
# entries that are not [re, im] pairs of two JSON numbers, each in place of
# the first state's [1, 0]; read by parts, the first two would pass as 1
_BAD_PAIRS = {
    "three_component_pair": [1, 0, 7],
    "bool_pair": [True, False],
    "string_pair": ["1", 0],
    "null_pair": [None, 0],
    "object_pair": {"re": 1, "im": 0},
}


def _stack_faults(key):
    """Stack files with one fault each, keyed by fault."""
    def stack(matrices, n=2, dim=2):
        return {"n": n, "dim": dim, key: matrices}

    return {
        "ragged_matrix": stack([[[[1, 0], [0, 0]], [[0, 0]]], _BASIS_STATES[1]]),
        "two_sizes": stack([_BASIS_STATES[0], [[[1, 0]]]]),
        "re_only_pair": stack([[[[1], [0, 0]], [[0, 0], [0, 0]]], _BASIS_STATES[1]]),
        **{fault: stack([[[p, [0, 0]], [[0, 0], [0, 0]]], _BASIS_STATES[1]]) for fault, p in _BAD_PAIRS.items()},
        "empty": stack([], n=0),
        "n_not_a_number": stack(_BASIS_STATES, n="x"),
        "pairs_nested_too_deep": stack([[[[p] for p in row] for row in m] for m in _BASIS_STATES]),
        "non_hermitian": stack([[[[1, 0], [1, 0]], [[0, 0], [0, 0]]], _BASIS_STATES[1]]),
        "declared_n": stack(_BASIS_STATES, n=3),
        "declared_dim": stack(_BASIS_STATES, dim=3),
    }


# the fault a file error names, for the faults the README lists by name
_FAULT_TEXTS = {
    "non_hermitian": "deviates from Hermiticity",
    "declared_n": "declared n/dim do not match",
    "declared_dim": "declared n/dim do not match",
    "mixed_targets": "targets must be pure states",
    "q_nan": "branch weights must be finite",
    "misspelt_projector": "unknown field 'projecter' for kind almost_dim",
    "field_of_another_kind": "unknown field 'd' for kind vacuum",
    "projector_rank_above_d": "projector has trace 2, above d = 1",
    "projector_not_idempotent": "projector must be Hermitian and idempotent",
}


def _strategy(gamma, q=1.0):
    ensemble = {"n": 2, "dim": 2, "states": _BASIS_STATES}
    return {"branches": [{"q": q, "ensemble": ensemble, "gamma": gamma}]}


_STRATEGY_FAULTS = {
    "q_not_a_number": _strategy({"kind": "dimension", "d": 2}, q="x"),
    "q_nan": _strategy({"kind": "dimension", "d": 2}, q=math.nan),
    "d_not_a_number": _strategy({"kind": "dimension", "d": "two"}),
    "ragged_targets": _strategy({"kind": "distrust", "eps": 0.1, "targets": [[[1, 0], [0, 0]], [[1, 0]]]}),
    "one_element_projector_pair": _strategy(
        {"kind": "almost_dim", "d": 1, "eps": 0.1, "projector": [[[1], [0, 0]], [[0, 0], [0, 0]]]}
    ),
    # a misspelt field once fell back to the heuristic projector, and a
    # field of another kind was dropped
    "misspelt_projector": _strategy(
        {"kind": "almost_dim", "d": 1, "eps": 0.1, "projecter": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    ),
    "field_of_another_kind": _strategy({"kind": "vacuum", "omega": 0.1, "d": 3}),
    # a projector of rank 2 at d = 1, and one that is not idempotent, once
    # decided membership as given
    "projector_rank_above_d": _strategy(
        {"kind": "almost_dim", "d": 1, "eps": 0.1, "projector": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    ),
    "projector_not_idempotent": _strategy(
        {"kind": "almost_dim", "d": 2, "eps": 0.1, "projector": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}
    ),
}


def _malformed_cases():
    good_ensemble = _Doc({"n": 2, "dim": 2, "states": _BASIS_STATES})
    good_povm = _Doc({"n": 2, "dim": 2, "elements": _BASIS_STATES})
    for fault, obj in _stack_faults("states").items():
        yield f"oracle-{fault}", ["oracle", _Doc(obj)]
        yield f"certify_ensemble-{fault}", ["certify", _Doc(obj), good_povm]
        yield f"bound_targets-{fault}", ["bound", "distrust", "--n", "2", "--eps", "0.1", "--targets", _Doc(obj)]
    for fault, obj in _stack_faults("elements").items():
        yield f"certify_povm-{fault}", ["certify", good_ensemble, _Doc(obj)]
    mixed = _Doc({"n": 2, "dim": 2, "states": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]] * 2})
    yield "bound_targets-mixed_targets", ["bound", "distrust", "--n", "2", "--eps", "0.1", "--targets", mixed]
    for fault, obj in _STRATEGY_FAULTS.items():
        yield f"sr_demo-{fault}", ["sr-demo", "--strategy", _Doc(obj)]


@pytest.mark.parametrize("case, args", list(_malformed_cases()), ids=[case for case, _ in _malformed_cases()])
def test_malformed_file_exits_3(runner, tmp_path, case, args):
    result = runner.invoke(main, _write_args(tmp_path, args))
    assert result.exit_code == 3, result.exception
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert _FAULT_TEXTS.get(case.split("-", 1)[1], "") in result.stderr
    assert result.stdout == ""


# files whose declared n or scalar field is no JSON number of the right
# kind, or whose document is not the object a loader expects; the first
# was read as n = 2 and solved
_FIELD_FAULTS = {
    "oracle-n_fraction": ["oracle", _Doc({"n": 2.5, "dim": 2, "states": _BASIS_STATES})],
    "oracle-top_level_list": ["oracle", _Doc([_BASIS_STATES])],
    "sr_demo-branches_int": ["sr-demo", "--strategy", _Doc({"branches": 3})],
    "sr_demo-omega_null": ["sr-demo", "--strategy", _Doc(_strategy({"kind": "vacuum", "omega": None}))],
    "sr_demo-kind_list": ["sr-demo", "--strategy", _Doc(_strategy({"kind": ["dimension"], "d": 2}))],
}


@pytest.mark.parametrize("case", _FIELD_FAULTS)
def test_malformed_field_exits_3(runner, tmp_path, case):
    result = runner.invoke(main, _write_args(tmp_path, _FIELD_FAULTS[case]))
    assert result.exit_code == 3, result.exception
    assert result.stderr.startswith("error: invalid ") and result.stderr.count("\n") == 1
    assert result.stdout == ""


_KEYS = ["n", "dim", "states", "elements", "branches", "q", "ensemble", "gamma", "kind", "d", "eps",
         "targets", "projector", "omega", "a", "alpha"]
_JSON_DOCS = st.recursive(
    st.none() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["dimension", "almost_dim", "distrust", "information", "vacuum"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.sampled_from(_KEYS), children),
    max_leaves=30,
)


@settings(deadline=None, max_examples=60)
@given(doc=_JSON_DOCS)
def test_arbitrary_json_never_raises(doc):
    good_ensemble = _Doc({"n": 2, "dim": 2, "states": _BASIS_STATES})
    doc = _Doc(doc)
    for args in (["oracle", doc], ["certify", good_ensemble, doc], ["sr-demo", "--strategy", doc]):
        with tempfile.TemporaryDirectory() as tmp:
            result = CliRunner().invoke(main, _write_args(Path(tmp), args))
        assert result.exit_code in (0, 1, 3)
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception


_ENSEMBLE_DOC = _Doc({"n": 2, "dim": 2, "states": _BASIS_STATES})
_QUBIT_TARGETS = _Doc(ensemble_to_json(ensemble_from_vectors(np.array([[1, 0], [0, 1], [0.6, 0.8]], dtype=complex))))
_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


def _option_floats(low, high):
    """nan, +-inf, +-0, a negative float or one in [low, high]."""
    return _SPECIAL_FLOATS | st.floats(-10.0, -1e-12) | st.floats(low, high)


_TOLS = _option_floats(1e-9, 1e-3)
_UNIT = _option_floats(0.0, 1.0)
_INTS = st.integers(-3, 12)


_PARAM_STRATEGIES = {"d": _INTS, "omega": _UNIT, "a": _UNIT, "eps": _UNIT, "nbar": _option_floats(0.0, 5.0)}


def _takes(kind):
    """The parameter options a kind takes: its columns and, if it has
    targets, --targets."""
    spec = cli._KINDS[kind]
    return spec.columns + (("targets",) if spec.targets else ())


@st.composite
def _option_argv(draw):
    """argv of one command with drawn option values; each valid run is cheap
    (a tolerance >= 1e-9, at most 12 points and 4 restarts).  A command gets
    its kind's parameter options and, in some draws, one the kind does not
    take."""
    def opt(name, values):
        return f"--{name}={draw(values)!r}"

    def params(names, taken):
        # the parameter options ``names``, and sometimes one other of ``taken``
        foreign = [name for name in taken if name not in names]
        if foreign and draw(st.integers(0, 3)) == 0:
            names = [*names, draw(st.sampled_from(foreign))]
        return [arg for name in names
                for arg in (["--targets", _QUBIT_TARGETS] if name == "targets" else [opt(name, _PARAM_STRATEGIES[name])])]

    command = draw(st.sampled_from(["oracle", "search", "sweep", "bound", "sr-demo"]))
    if command == "oracle":
        return ["oracle", _ENSEMBLE_DOC, opt("tol", _TOLS), opt("max-iter", _INTS)]
    if command == "sr-demo":
        return ["sr-demo", opt("tol", _TOLS)]
    if command == "search":
        kind = draw(st.sampled_from(["vacuum", "overlap", "almost-dim", "distrust"]))
        taken = ["d", "omega", "a", "eps", "targets"]
        return ["search", kind, opt("n", _INTS), *params(_takes(kind), taken),
                opt("restarts", st.integers(-3, 4)), opt("tol", _TOLS), opt("seed", st.integers(0, 5))]
    if command == "sweep":
        kind = draw(st.sampled_from(["vacuum", "overlap", "almost-dim", "coherent"]))
        spec = cli._KINDS[kind]
        fixed = [c for c in spec.columns if c != spec.sweep_axis]
        axis = _option_floats(0.0, 2.0)
        oracle = ["--with-oracle"] if kind != "coherent" and draw(st.booleans()) else []
        return ["sweep", kind, opt("n", _INTS), *params(fixed, ["d"]), opt("start", axis), opt("stop", axis),
                opt("points", _INTS), opt("tol", _TOLS), *oracle]
    kind = draw(st.sampled_from(list(cli._KINDS)))
    return ["bound", kind, opt("n", _INTS), *params(_takes(kind), [*_PARAM_STRATEGIES, "targets"]),
            "--format", draw(st.sampled_from(["csv", "json"]))]


@settings(deadline=None, max_examples=100)
@given(args=_option_argv())
def test_arbitrary_option_values_never_raise(args):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # numpy's warnings on nan or inf arithmetic would reach the user's stderr
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, _write_args(Path(tmp), args))
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code == 2:
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert result.stdout == ""


# a valid value of each parameter option, and the options each command has
_OPTION_VALUES = {"d": "3", "omega": "0.1", "a": "0.5", "eps": "0.1", "nbar": "1", "targets": _QUBIT_TARGETS}
_COMMAND_OPTIONS = {
    "bound": list(_OPTION_VALUES),
    "search": ["d", "omega", "a", "eps", "targets"],
    "sweep": ["d"],
}


def _option_args(names):
    return [arg for name in names for arg in (f"--{name}", _OPTION_VALUES[name])]


# (command argv without parameter options, the kind's own parameter options)
_VALID_RUNS = {
    **{("bound", kind): (["bound", kind, "--n", "3"], _takes(kind)) for kind in cli._KINDS},
    **{("search", kind): (["search", kind, "--n", "3", "--restarts", "1"], _takes(kind))
       for kind in ["vacuum", "overlap", "almost-dim", "distrust"]},
    **{("sweep", kind): (["sweep", kind, "--n", "4", "--start", "0", "--stop", "0.5", "--points", "2"], ())
       for kind in ["vacuum", "overlap", "coherent"]},
}
_FOREIGN_OPTIONS = [
    (command, kind, name)
    for (command, kind), (_, own) in _VALID_RUNS.items()
    for name in _COMMAND_OPTIONS[command]
    if name not in own
]


@pytest.mark.parametrize("command, kind, option", _FOREIGN_OPTIONS,
                         ids=[f"{c}-{k}-{o}" for c, k, o in _FOREIGN_OPTIONS])
def test_option_the_kind_does_not_take_exits_2(runner, tmp_path, command, kind, option):
    argv, own = _VALID_RUNS[command, kind]
    argv = _write_args(tmp_path, [*argv, *_option_args(own)])
    valid = runner.invoke(main, argv)
    assert valid.exit_code == 0, valid.output
    # a foreign --targets names a missing file: options are checked before any file is read
    value = str(tmp_path / "missing.json") if option == "targets" else _OPTION_VALUES[option]
    result = runner.invoke(main, [*argv, f"--{option}", value])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: kind {kind} does not take --{option}\n"
    assert result.stdout == ""


_TOL_COMMANDS = {
    "oracle": ["oracle", _ENSEMBLE_DOC],
    "sweep": ["sweep", "vacuum", "--n", "4", "--start", "0", "--stop", "0.5", "--points", "3", "--with-oracle"],
    "search": ["search", "vacuum", "--n", "3", "--omega", "0.2", "--restarts", "2"],
    "sr_demo": ["sr-demo"],
}


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", list(_TOL_COMMANDS.values()), ids=list(_TOL_COMMANDS))
def test_tol_out_of_range_exits_2(runner, tmp_path, command, tol):
    result = runner.invoke(main, _write_args(tmp_path, [*command, f"--tol={tol}"]))
    assert result.exit_code == 2, result.exception
    assert result.stderr == f"error: tol must be positive and finite, got {float(tol)}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("error, code", [(FileFaultError, 3), (NonFiniteError, 1), (ParamOutOfRangeError, 2)])
def test_exit_code_table(runner, tmp_path, monkeypatch, error, code):
    def fail(e, **kw):
        raise error("message")

    monkeypatch.setattr(cli, "optimize_discrimination", fail)
    result = runner.invoke(main, _write_args(tmp_path, ["oracle", _ENSEMBLE_DOC]))
    assert result.exit_code == code
    assert result.stderr == "error: message\n"
    assert result.stdout == ""


@pytest.mark.parametrize("args", [["bound", "vacuum", "--n", "4", "--omega", "0.1"], ["oracle", _ENSEMBLE_DOC]],
                         ids=["bound", "oracle"])
def test_output_in_missing_directory_exits_3(runner, tmp_path, args):
    out = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, [*_write_args(tmp_path, args), "--output", str(out)])
    assert result.exit_code == 3, result.exception
    assert result.stderr.startswith(f"error: cannot write {out}: ") and result.stderr.count("\n") == 1
    assert result.stdout == ""


class TestOracle:
    def test_max_iter_zero_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, _write_args(tmp_path, ["oracle", _ENSEMBLE_DOC, "--max-iter", "0"]))
        assert result.exit_code == 2
        assert result.stderr == "error: max_iter must be >= 1, got 0\n"
        assert result.stdout == ""

    def test_basis_ensemble_file(self, runner, tmp_path):
        path = write_json(tmp_path / "e.json", ensemble_to_json(basis_ensemble(3, 3)))
        result = runner.invoke(main, ["oracle", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["value"] - 1.0) <= 1e-9
        assert payload["converged"]

    def test_uncertified_value_exits_1(self, runner, tmp_path):
        # the vacuum witness at omega = 1e-12: the iteration stops at the
        # PGM's kernel cutoff, 1e-6 below the certified bound
        path = write_json(tmp_path / "e.json", ensemble_to_json(WITNESSES[Vacuum](2, 1e-12)[0]))
        result = runner.invoke(main, ["oracle", path])
        assert result.exit_code == 1, result.stderr
        payload = json.loads(result.stdout)
        assert not payload["converged"]
        assert payload["gap"] == payload["certified_upper"] - payload["value"]
        assert abs(payload["gap"] - 1e-6) <= 1e-9

    def test_invalid_file_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["oracle", str(bad)])
        assert result.exit_code == 3

    def test_too_deeply_nested_file_exits_3(self, runner, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        result = runner.invoke(main, ["oracle", str(deep)])
        assert result.exit_code == 3, result.exception
        assert result.stderr.startswith(f"error: invalid ensemble file {deep}: ") and result.stderr.count("\n") == 1
        assert result.stdout == ""

    def test_invalid_ensemble_exits_3(self, runner, tmp_path):
        path = write_json(tmp_path / "e.json", {"n": 1, "dim": 2, "states": [[[[2, 0], [0, 0]], [[0, 0], [0, 0]]]]})
        result = runner.invoke(main, ["oracle", path])
        assert result.exit_code == 3

    def test_states_within_hermiticity_tolerance_are_solved(self, runner, tmp_path):
        # accepted by the ensemble check (1e-10) but not Hermitian within 1e-12
        obj = ensemble_to_json(basis_ensemble(2, 2))
        obj["states"][0][0][1] = [5e-11, 0.0]
        path = write_json(tmp_path / "e.json", obj)
        result = runner.invoke(main, ["oracle", path])
        assert result.exit_code == 0, result.stderr
        assert abs(json.loads(result.stdout)["value"] - 1.0) <= 1e-9

    def test_non_finite_value_exits_1(self, runner, tmp_path, monkeypatch):
        solve = cli.optimize_discrimination
        monkeypatch.setattr(cli, "optimize_discrimination",
                            lambda e, **kw: dataclasses.replace(solve(e, **kw), value=math.nan))
        path = write_json(tmp_path / "e.json", ensemble_to_json(basis_ensemble(2, 2)))
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["oracle", path, "--output", str(out)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_nan_ensemble_exits_3(self, runner, tmp_path):
        obj = ensemble_to_json(basis_ensemble(2, 2))
        obj["states"][1][0][1] = [float("nan"), 0.0]
        path = write_json(tmp_path / "e.json", obj)
        result = runner.invoke(main, ["oracle", path, "--max-iter", "50"])
        assert result.exit_code == 3
        assert result.stdout == ""


class TestCertify:
    def test_optimal_povm_certifies(self, runner, tmp_path):
        e = basis_ensemble(2, 2)
        epath = write_json(tmp_path / "e.json", ensemble_to_json(e))
        mpath = write_json(tmp_path / "m.json", povm_to_json(pgm(e)))
        result = runner.invoke(main, ["certify", epath, mpath])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["valid"]
        assert abs(payload["trace_value"] - 1.0) <= 1e-9

    def test_uniform_povm_fails_certification(self, runner, tmp_path):
        e = basis_ensemble(2, 2)
        epath = write_json(tmp_path / "e.json", ensemble_to_json(e))
        mpath = write_json(tmp_path / "m.json", povm_to_json(uniform_povm(2, 2)))
        result = runner.invoke(main, ["certify", epath, mpath])
        assert result.exit_code == 1

    def test_uncertified_oracle_povm_exits_1(self, runner, tmp_path):
        # the oracle's POVM for four pure qubits: its slack of -8.6e-10 would
        # pass a tolerance of 1e-7, but its certified gap is 1.7e-9
        e = random_pure_ensemble(np.random.default_rng(5), 4, 2)
        epath = write_json(tmp_path / "e.json", ensemble_to_json(e))
        mpath = write_json(tmp_path / "m.json", povm_to_json(optimize_discrimination(e).povm))
        result = runner.invoke(main, ["certify", epath, mpath])
        assert result.exit_code == 1, result.stderr
        payload = json.loads(result.stdout)
        assert not payload["valid"]
        assert -1e-9 < payload["min_slack"] < 0.0
        assert 1e-9 < payload["certified_upper"] - payload["guess_value"] < 2e-9

    def test_povm_within_hermiticity_tolerance_certifies(self, runner, tmp_path):
        # within the POVM check's 1e-8 of Hermitian; the raw element would
        # leave an imaginary part of 1.25e-9 in the success probability
        e = ensemble_from_vectors(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
        obj = ensemble_to_json(e)
        epath = write_json(tmp_path / "e.json", obj)
        povm = {"n": 2, "dim": 2, "elements": obj["states"]}
        povm["elements"][0][0][1][1] += 5e-9
        result = runner.invoke(main, ["certify", epath, write_json(tmp_path / "m.json", povm)])
        assert result.exit_code == 0, result.stderr
        assert abs(json.loads(result.stdout)["guess_value"] - 1.0) <= 1e-12


class TestSearch:
    def test_vacuum_search(self, runner):
        result = runner.invoke(
            main,
            ["search", "vacuum", "--n", "3", "--omega", "0.2", "--restarts", "3", "--seed", "0"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["gap"] <= 1e-6

    def test_missing_param_exits_2(self, runner):
        result = runner.invoke(main, ["search", "vacuum", "--n", "3"])
        assert result.exit_code == 2

    def test_missing_n_exits_2(self, runner):
        result = runner.invoke(main, ["search", "vacuum", "--omega", "0.2"])
        assert result.exit_code == 2
        assert result.stderr == "error: vacuum search needs n\n"

    def test_zero_restarts_exits_2(self, runner):
        result = runner.invoke(main, ["search", "vacuum", "--n", "3", "--omega", "0.2", "--restarts", "0"])
        assert result.exit_code == 2
        assert result.stderr == "error: restarts must be >= 1, got 0\n"
        assert result.stdout == ""

    def test_negative_seed_exits_2(self, runner):
        result = runner.invoke(
            main, ["search", "vacuum", "--n", "3", "--omega", "0.1", "--restarts", "2", "--seed", "-1"]
        )
        assert result.exit_code == 2, result.exception
        assert result.stderr == "error: seed must be >= 0, got -1\n"
        assert result.stdout == ""

    def test_distrust_n_other_than_target_count_exits_2(self, runner, tmp_path):
        args = _write_args(tmp_path, ["search", "distrust", "--n", "99", "--eps", "0.1", "--targets", _QUBIT_TARGETS])
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr == "error: n must equal the 3 targets for a distrust search, got 99\n"
        assert result.stdout == ""


class TestSweep:
    def test_row_count_and_header(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "vacuum", "--n", "4", "--start", "0", "--stop", "0.75", "--points", "50"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "omega,pg_bound,info_bits"
        assert len(lines) == 51

    def test_overlap_endpoints(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "overlap", "--n", "3", "--start", "0", "--stop", "1", "--points", "11"],
        )
        lines = result.output.strip().splitlines()
        first = float(lines[1].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert first == pytest.approx(1.0, abs=1e-9)
        assert last == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_coherent_info_monotone(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "coherent", "--n", "8", "--start", "0", "--stop", "1", "--points", "21"],
        )
        lines = result.output.strip().splitlines()[1:]
        info = [float(line.split(",")[2]) for line in lines]
        assert np.all(np.diff(info) >= -1e-12)

    def test_oracle_column(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "vacuum", "--n", "3", "--start", "0", "--stop", "0.5", "--points", "5",
             "--with-oracle"],
        )
        lines = result.output.strip().splitlines()
        assert lines[0].endswith(",oracle_value")
        for line in lines[1:]:
            bound_value, oracle_value = float(line.split(",")[1]), float(line.split(",")[3])
            assert abs(bound_value - oracle_value) <= 1e-6

    def test_uncertified_row_exits_1_after_the_csv(self, runner):
        # the oracle stops 1e-6 below the certified bound on this row
        result = runner.invoke(
            main,
            ["sweep", "vacuum", "--n", "2", "--start", "1e-12", "--stop", "1e-12", "--points", "1",
             "--with-oracle"],
        )
        assert result.exit_code == 1
        assert result.stdout == "omega,pg_bound,info_bits,oracle_value\n1e-12,0.500001,2.8853872e-06,0.5\n"
        assert result.stderr == ""

    def test_oracle_without_construction_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "coherent", "--n", "8", "--start", "0", "--stop", "1", "--points", "2",
             "--with-oracle"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "kind coherent has no saturating construction" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            # omega past (n-1)/n = 2/3, where the bound is trivially 1
            ["vacuum", "--n", "3", "--start", "0.5", "--stop", "0.9", "--points", "5"],
            # d = 3 does not divide n = 5
            ["almost-dim", "--n", "5", "--d", "3", "--start", "0", "--stop", "0.5", "--points", "6"],
        ],
        ids=["vacuum", "almost_dim"],
    )
    def test_oracle_meets_the_bound_at_every_point(self, runner, argv):
        result = runner.invoke(main, ["sweep", *argv, "--with-oracle"])
        assert result.exit_code == 0, result.stderr
        rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
        assert len(rows) == int(argv[argv.index("--points") + 1])
        for row in rows:
            assert abs(float(row[1]) - float(row[3])) <= 1e-9

    @pytest.mark.parametrize("start", ["inf", "-inf", "nan"])
    def test_non_finite_axis_exits_2(self, runner, start):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runner.invoke(
                main, ["sweep", "vacuum", "--n", "4", f"--start={start}", "--stop", "0.5", "--points", "3"]
            )
        assert result.exit_code == 2, result.exception
        assert result.stderr == f"error: need a finite --start and --stop, got {float(start)} and 0.5\n"


# sha256 of the stdout of the README's bound-only sweeps, captured at the
# commit that evaluated them with scalar formulas
_SWEEP_DIGESTS = {
    "vacuum": (["--n", "4", "--start", "0", "--stop", "0.75", "--points", "41"],
               "c3f26a4a8557c171ef6cf62688d5dae50e21de043f061f6b672dea3ec2934ada"),
    "overlap": (["--n", "4", "--start", "0", "--stop", "1", "--points", "41"],
                "977f1d4e78b86fb914e2e3a116a81bfc76abf4d7a78e8c4601acd919ef652944"),
    "almost-dim": (["--n", "4", "--d", "2", "--start", "0", "--stop", "0.5", "--points", "41"],
                   "57615e7d42c598cf3fb0e57ce195e4ec22ddbc7e872ddf78f07dbd39af851201"),
    "coherent": (["--n", "4", "--start", "0", "--stop", "2", "--points", "41"],
                 "3568a5902d47d152192acb948d3a202fbc7705524c5ce2c75d07a1b8909f03b5"),
}


@pytest.mark.parametrize("kind", list(_SWEEP_DIGESTS))
def test_sweep_output_pinned(runner, kind):
    options, digest = _SWEEP_DIGESTS[kind]
    result = runner.invoke(main, ["sweep", kind, *options])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# sha256 of the stdout of a search of each kind and of the README's
# --with-oracle sweeps, captured before the search plans and state
# dimensions moved into one table keyed by assumption class; the vacuum and
# almost-dim searches' digests since their seeds became the circulant
# witnesses, with n-dimensional states, and since a restart's `converged`
# reads the certified gap; the distrust search's since qubit targets take
# their exact value from Bloch-sphere geometry; the overlap search's since
# its seed became the circulant witness; all four searches' since the oracle
# iterates on the states' factors, which moves their values by at most
# 1.6e-15 and no flag.  The search JSON
# carries oracle values at full double precision, so these digests hold
# for one numpy/BLAS build (x86-64, numpy's bundled OpenBLAS).
_ORACLE_DIGESTS = {
    "search-vacuum": (["search", "vacuum", "--n", "4", "--omega", "0.1", "--restarts", "16", "--seed", "0"],
                      "271e1a5cd2c9bca481b4a754fcebd97445405953d7db399c838e94afcbf23d95"),
    "search-overlap": (["search", "overlap", "--n", "4", "--a", "0.3", "--restarts", "16", "--seed", "0"],
                       "23a24ff6bf0e27bef29d19d375de19dfc9404ab31cea661906a704499ba77f32"),
    "search-almost-dim": (["search", "almost-dim", "--d", "2", "--n", "4", "--eps", "0.05", "--restarts", "16",
                           "--seed", "0"],
                          "8c39330395f560e71e2ca1ef7d1c990d8e19bc30b3bb4184e14d96e5f5991f30"),
    "search-distrust": (["search", "distrust", "--eps", "0.1", "--targets", _QUBIT_TARGETS, "--restarts", "16",
                         "--seed", "0"],
                        "4dc753e70697651c4319b45f06f3348c33d0e9ca89504e7d4629ae9bdeb90216"),
    "sweep-vacuum": (["sweep", "vacuum", "--n", "4", "--start", "0", "--stop", "0.75", "--points", "41",
                      "--with-oracle"],
                     "546f160e0130a32f6b543bf4a4ed99fce71a52f29cb508b1643bdcd6dce078c4"),
    "sweep-overlap": (["sweep", "overlap", "--n", "4", "--start", "0", "--stop", "1", "--points", "41",
                       "--with-oracle"],
                      "6875b301aebb2b5b1001e4ea7b619d06353ffb26f8ea0372cbe6bc9f8e823a08"),
    "sweep-almost-dim": (["sweep", "almost-dim", "--n", "4", "--d", "2", "--start", "0", "--stop", "0.5",
                          "--points", "41", "--with-oracle"],
                         "02892e415b132eb03a8c12653d9ff3dae12a4897dcaf78f40c5758988a01db4a"),
}


@pytest.mark.parametrize("case", list(_ORACLE_DIGESTS))
def test_oracle_output_pinned(runner, tmp_path, case):
    argv, digest = _ORACLE_DIGESTS[case]
    result = runner.invoke(main, _write_args(tmp_path, argv))
    assert result.exit_code == 0, result.stderr
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "vacuum", "--n", "1000", "--omega", "0.1", "--restarts", "1"],
        ["sweep", "vacuum", "--n", "1000", "--start", "0.5", "--stop", "0.5", "--points", "1", "--with-oracle"],
    ],
    ids=["search", "sweep"],
)
def test_state_stack_over_limit_exits_2(runner, argv):
    # 1000 states of dimension 1000 take 14.9 GiB; the refusal comes before
    # any of it is allocated
    tracemalloc.start()
    try:
        result = runner.invoke(main, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.exception
    assert result.stderr == (
        "error: kind vacuum with n=1000 needs 1000 states of dimension 1000 (16000000000 bytes),"
        f" over the limit of {search.MAX_STATE_STACK_BYTES} bytes\n"
    )
    assert result.stdout == ""
    assert peak < 2**20


def test_sweep_points_over_limit_exits_2(runner):
    # a 10^12-point axis would take 8 TB; the refusal comes before it is built
    tracemalloc.start()
    try:
        result = runner.invoke(
            main, ["sweep", "coherent", "--n", "4", "--start", "0", "--stop", "1", "--points", "1000000000000"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.exception
    assert result.stderr == f"error: --points must be at most {cli.MAX_SWEEP_POINTS}, got 1000000000000\n"
    assert result.stdout == ""
    assert peak < 2**20


def _many_qubit_targets(count):
    angles = np.linspace(0.0, math.pi, count, endpoint=False)
    vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(complex)
    return _Doc(ensemble_to_json(ensemble_from_vectors(vectors)))


@pytest.mark.parametrize(
    ("argv", "stderr"),
    [
        (["search", "vacuum", "--n", "1000", "--omega", "0.1", "--restarts", "0"],
         "error: kind vacuum with n=1000 needs 1000 states of dimension 1000 (16000000000 bytes),"
         " over the limit of 268435456 bytes\n"),
        # a distrust search has n = 2 000, the number of its targets
        (["search", "distrust", "--n", "2", "--eps", "0.1", "--targets", _many_qubit_targets(2000)],
         "error: kind distrust with n=2000 needs 2000 states of dimension 2002 (128256128000 bytes),"
         " over the limit of 268435456 bytes\n"),
    ],
    ids=["before_restarts", "before_n"],
)
def test_state_stack_error_precedence_pinned(runner, tmp_path, argv, stderr):
    # the state-stack refusal comes before the --restarts and --n checks
    result = runner.invoke(main, _write_args(tmp_path, argv))
    assert result.exit_code == 2, result.exception
    assert result.stderr == stderr
    assert result.stdout == ""


class TestReferenceChecks:
    def test_single_check_passes(self, runner):
        result = runner.invoke(main, ["paper-numbers", "--only", "deviation_vacuum_identity"])
        assert result.exit_code == 0
        assert result.output.startswith("PASS")

    def test_unknown_check_exits_2(self, runner):
        result = runner.invoke(main, ["paper-numbers", "--only", "nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("only", ["", ",", " , "])
    def test_no_check_named_exits_2(self, runner, only):
        result = runner.invoke(main, ["paper-numbers", "--only", only])
        assert result.exit_code == 2
        assert result.stderr == "error: --only names no check\n"
        assert result.stdout == ""


class TestSRDemo:
    def test_prints_counterexample(self, runner):
        result = runner.invoke(main, ["sr-demo", "--tol", "1e-8"])
        assert result.exit_code == 0
        assert "0.366667" in result.output
        assert "0.300000" in result.output

    def test_strategy_file(self, runner, tmp_path):
        from infocap import Dimension, SRStrategy, strategy_to_json

        s = SRStrategy(
            branches=(
                (0.5, basis_ensemble(2, 2), Dimension(d=2)),
                (0.5, basis_ensemble(2, 2), Dimension(d=2)),
            )
        )
        path = write_json(tmp_path / "s.json", strategy_to_json(s))
        result = runner.invoke(main, ["sr-demo", "--strategy", path])
        assert result.exit_code == 0
        assert "mixture guessing value" in result.output
        assert "1.000000000" in result.output

    def test_strategy_solves_each_branch_once(self, runner, tmp_path, monkeypatch):
        from infocap import Dimension, SRStrategy, randomness, strategy_to_json

        s = SRStrategy(
            branches=(
                (0.3, basis_ensemble(2, 4), Dimension(d=2)),
                (0.7, basis_ensemble(3, 4), Dimension(d=3)),
            )
        )
        path = write_json(tmp_path / "s.json", strategy_to_json(s))
        solved = []
        for module in (cli, randomness):
            def counted(e, *args, _solve=module.optimize_discrimination, **kwargs):
                solved.append(e.dim)
                return _solve(e, *args, **kwargs)

            monkeypatch.setattr(module, "optimize_discrimination", counted)
        result = runner.invoke(main, ["sr-demo", "--strategy", path])
        assert result.exit_code == 0
        # one solve per branch, and one of the embedded 5-dimensional ensemble
        assert sorted(solved) == [2, 3, 5]
