"""oracle-mid: `infocap oracle FILE --tol 1e-10` on random rank-2 mixed
ensembles at the mid sizes where the oracle's O(n d^4) kernels dominate.

The oracle's iteration count varies several-fold between random ensembles,
so seed-drawn ensembles would make a run's work depend on the seed.  One
base ensemble per shape is drawn once; every op is a copy of it turned by a
seed-drawn Haar unitary with its inputs relabelled.  The fixed-point
iteration is covariant under both, so every seed sees new numbers but the
same iteration counts, and copies of one shape cost the same.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import haar_unitary, invoke_cli, take_output, write_json
from harness import Op, Outcome, Workload, is_finite

BASE_SEED = 20240512
TOL = 1e-10
# (n, dim): copies per round; ROADMAP item 2 names (20, 9) and (32, 16).  The
# (32, 16) op takes 7-10 s, so a run holds three or four rounds: 48-64 ops.
# With these counts the median op sits inside the (16, 8) copies and the tail
# op (ten ops above it) near the middle of the (20, 9) copies, so neither
# flips between ops of different cost from run to run.
COPIES = {(16, 8): 10, (20, 9): 5, (32, 16): 1}
TINY_COPIES = {(4, 2): 1, (6, 3): 1}
WARMUP_SHAPE = (8, 4)


def _rank2_states(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((n, dim, 2)) + 1j * rng.standard_normal((n, dim, 2))
    s = g @ np.conj(np.transpose(g, (0, 2, 1)))
    return s / np.trace(s, axis1=1, axis2=2).real[:, None, None]


def _oracle_op(ic, path: Path, out: Path, label: str) -> Op:
    # reference values the oracle output must respect, from the file the CLI reads
    e = ic.ensembles.ensemble_from_json(json.loads(path.read_text()))
    pgm_value = ic.discrimination.guess_value(e, ic.discrimination.pgm(e))
    n = e.n

    def run(tracer):
        return invoke_cli(ic, tracer, ["oracle", str(path), "--tol", repr(TOL), "--output", str(out)])

    def check(code):
        data = take_output(out)
        problems = []
        if code not in (0, 1):
            problems.append(f"exit code {code}")
        if data is None:
            return Outcome(problems + ["no output"], "")
        res = json.loads(data)
        value, upper = res["value"], res["certified_upper"]
        if not is_finite(value, upper, res["gap"], res["iterations"]):
            problems.append(f"non-finite output {res}")
        elif not 1.0 / n <= value <= 1.0:
            problems.append(f"value {value!r} outside [1/n, 1]")
        elif value > upper:
            problems.append(f"value {value!r} above certified_upper {upper!r}")
        elif value < pgm_value - 1e-12:
            problems.append(f"value {value!r} below the PGM value {pgm_value!r}")
        solve = ("oracle", res["iterations"], upper - value, res["converged"], TOL)
        return Outcome(problems, f"{code}:{data.hex()}", [solve] if not problems else [], len(data))

    return Op(label, run, check)


def build(ic, seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    copies = {WARMUP_SHAPE: 1, **(TINY_COPIES if tiny else COPIES)}
    ops = []
    for (n, dim), count in copies.items():
        base = _rank2_states(np.random.default_rng([BASE_SEED, n, dim]), n, dim)
        for k in range(count):
            u = haar_unitary(rng, dim)
            states = u @ base[rng.permutation(n)] @ u.conj().T
            states = (states + np.conj(np.transpose(states, (0, 2, 1)))) / 2.0
            e = ic.ensembles.StateEnsemble(states)
            path = workdir / f"ensemble-{n}x{dim}-{k}.json"
            write_json(path, ic.ensembles.ensemble_to_json(e))
            ops.append(_oracle_op(ic, path, workdir / f"oracle-{n}x{dim}-{k}.out", f"oracle({n},{dim})#{k}"))
    return Workload(ops=ops[1:], warmup=ops[0])

