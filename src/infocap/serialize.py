"""JSON encoding of complex vectors and matrices.

Matrices are nested row-major lists of [re, im] pairs; vectors are flat
lists of [re, im] pairs.  A stack of matrices is stored under one key of
an object that declares the stack's length ``n`` and matrix size ``dim``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionMismatchError


def matrix_to_json(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(obj: list) -> np.ndarray:
    rows = [[complex(p[0], p[1]) for p in row] for row in obj]
    return np.asarray(rows, dtype=complex)


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in v]


def vector_from_json(obj: list) -> np.ndarray:
    return np.asarray([complex(p[0], p[1]) for p in obj], dtype=complex)


def stack_from_json(obj: dict, key: str, build: Callable):
    """``build`` applied to the matrix stack ``obj[key]``, whose result must
    have the ``n`` and ``dim`` that ``obj`` declares.

    Malformed input raises a ValueError (an InfocapError from ``build``, or
    numpy's error for ragged lists), a KeyError, TypeError or IndexError,
    or an OverflowError for a number beyond the float range.
    """
    built = build(np.asarray([matrix_from_json(m) for m in obj[key]], dtype=complex))
    if built.n != int(obj["n"]) or built.dim != int(obj["dim"]):
        raise DimensionMismatchError(f"declared n/dim do not match the {key} list")
    return built
