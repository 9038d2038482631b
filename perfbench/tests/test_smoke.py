"""Tiny-size runs of every workload, checking the harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))


def _run(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_follows_the_contract(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    env = report["environment"]
    assert env["workload"] == workload and env["seed"] == 1 and env["INFOCAP_THREADS"] is None
    assert isinstance(report["digest"], str)


def test_same_seed_gives_the_same_digest():
    digests = {json.loads(_run("restricted-small", 0, seed=7).stdout.splitlines()[-2])["report"]["digest"]
               for _ in range(2)}
    assert len(digests) == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("cli-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_highest_order_statistic_with_ten_above():
    from harness import tail

    value, pct, n = tail([float(x) for x in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)


def test_self_time_subtracts_child_spans():
    from spans import Tracer, layer_metrics

    tr = Tracer()
    outer = tr._open("cli.main")
    inner = tr._open("bounds.dimension")
    tr._close(inner)
    tr._close(outer)
    tr.start[outer], tr.end[outer] = 0, 10_000_000
    tr.start[inner], tr.end[inner] = 2_000_000, 5_000_000
    out = layer_metrics(tr, rounds=1)
    assert out["cli.self_ms"] == pytest.approx(7.0)
    assert out["bounds.self_ms"] == pytest.approx(3.0)
    assert out["cli.overhead_ms"] == pytest.approx(7.0)
    assert out["bounds.row_us.dimension"] == pytest.approx(3000.0)
