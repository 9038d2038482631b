"""Run one workload on several seeds and print each metric's median and
quartile spread (IQR as a share of the median), as used to judge whether
the benchmark is steady.

    python3 perfbench/spread.py --workload cli-grid --seeds 1-10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    digests = set()
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
        elapsed = time.perf_counter() - t0
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        digests.add((seed, str(report["digest"])))
        print(f"seed {seed} ({elapsed:.1f}s): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median={med:.6g} iqr/median={share:.4f}")
    for seed, digest in sorted(digests):
        print(f"digest seed {seed}: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
