"""Helpers shared by the workloads: in-process CLI calls and random inputs."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def invoke_cli(ic, tracer, argv: list[str]) -> int:
    """Run `infocap <argv>` in this process, as the console script does, and
    return its exit code."""
    try:
        tracer.call("cli.main", ic.cli.main.main, args=argv, prog_name="infocap")
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else code if isinstance(code, int) else 1
    return 0


def take_output(path: Path) -> bytes | None:
    """Read and remove a file the CLI wrote, so a later round cannot see it."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
