import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner

from infocap import basis_ensemble, cli, ensemble_from_vectors, ensemble_to_json, pgm, uniform_povm
from infocap.bounds import Validity
from infocap.cli import main
from infocap.discrimination import povm_to_json


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
        nan_formula = lambda n, omega: (math.nan, Validity.VALID)
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


@pytest.mark.parametrize("n_options", [["--n", "99", "--n", "5"], ["--n", "3", "--n", "4"]])
def test_distrust_n_other_than_target_count_exits_2(runner, tmp_path, n_options):
    targets = ensemble_from_vectors(np.array(_TARGET_VECTORS, dtype=complex))
    path = write_json(tmp_path / "t.json", ensemble_to_json(targets))
    result = runner.invoke(main, ["bound", "distrust", *n_options, "--eps", "0.1", "--targets", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--n must equal the 3 targets" in result.stderr


class TestOracle:
    def test_basis_ensemble_file(self, runner, tmp_path):
        path = write_json(tmp_path / "e.json", ensemble_to_json(basis_ensemble(3, 3)))
        result = runner.invoke(main, ["oracle", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["value"] - 1.0) <= 1e-9
        assert payload["converged"]

    def test_invalid_file_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["oracle", str(bad)])
        assert result.exit_code == 3

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

    def test_oracle_without_construction_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "coherent", "--n", "8", "--start", "0", "--stop", "1", "--points", "2",
             "--with-oracle"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "kind coherent has no saturating construction" in result.stderr

    def test_oracle_past_vacuum_construction_exits_2(self, runner):
        # the vacuum cone saturates the bound only up to omega = (n-1)/n = 2/3
        result = runner.invoke(
            main,
            ["sweep", "vacuum", "--n", "3", "--start", "0.5", "--stop", "0.9", "--points", "5",
             "--with-oracle"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "no saturating vacuum construction at omega=0.7" in result.stderr


class TestReferenceChecks:
    def test_single_check_passes(self, runner):
        result = runner.invoke(main, ["paper-numbers", "--only", "deviation_vacuum_identity"])
        assert result.exit_code == 0
        assert result.output.startswith("PASS")

    def test_unknown_check_exits_2(self, runner):
        result = runner.invoke(main, ["paper-numbers", "--only", "nope"])
        assert result.exit_code == 2


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
