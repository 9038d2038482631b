"""JSON codec of complex arrays: nested lists of ``[re, im]`` pairs, one
list level per axis.  A stack of matrices is stored under one key of an
object that declares the stack's length ``n`` and matrix size ``dim``.

The file loaders read every object and scalar through ``json_object``,
``json_number`` and ``json_float``, so a malformed document raises
InfocapError and nothing else.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, InfocapError


def to_json(a: np.ndarray) -> list:
    """Nested lists of [re, im] pairs of Python floats, one level per axis of ``a``."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def from_json(obj, axes: int) -> np.ndarray:
    """The complex array with ``axes`` axes that ``obj`` holds as nested lists
    of [re, im] pairs.

    Anything else raises InfocapError: a pair that is not exactly two JSON
    numbers (bool, string and null are not numbers), lists nested to another
    depth, ragged or empty rows, or an integer beyond the float range.
    """
    shape = []
    level = [obj]
    # one pass per list level: all lists, all of one nonzero length
    for _ in range(axes + 1):
        if set(map(type, level)) != {list} or len(set(map(len, level))) != 1 or not level[0]:
            raise InfocapError(f"expected {axes} levels of equal-length nonempty lists of [re, im] pairs")
        shape.append(len(level[0]))
        level = list(chain.from_iterable(level))
    if shape[-1] != 2 or not set(map(type, level)) <= {int, float}:
        raise InfocapError("[re, im] pairs must hold exactly two numbers")
    try:
        return np.array(level, dtype=float).view(complex).reshape(shape[:-1])
    except OverflowError:
        raise InfocapError("[re, im] pair holds an integer beyond the float range") from None


def json_object(obj, keys: tuple[str, ...]) -> dict:
    """``obj``, which must be a JSON object holding every key in ``keys``."""
    if not isinstance(obj, dict):
        raise InfocapError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InfocapError(f"missing field {missing[0]!r}")
    return obj


def json_number(value, integer: bool = False):
    """``value``, which must be a JSON number, or a JSON integer if
    ``integer``; a bool is neither."""
    if type(value) not in ((int,) if integer else (int, float)):
        raise InfocapError(f"expected a JSON {'integer' if integer else 'number'}, got {value!r:.40}")
    return value


def json_float(value) -> float:
    """The JSON number ``value`` as a float."""
    try:
        return float(json_number(value))
    except OverflowError:
        raise InfocapError("integer beyond the float range") from None


def stack_from_json(obj, key: str, build: Callable):
    """``build`` applied to the matrix stack ``obj[key]``, whose result must
    have the ``n`` and ``dim`` that ``obj`` declares as JSON integers.
    Malformed input raises InfocapError, from here, the codec or ``build``.
    """
    obj = json_object(obj, ("n", "dim", key))
    n, dim = json_number(obj["n"], integer=True), json_number(obj["dim"], integer=True)
    built = build(from_json(obj[key], 3))
    if built.n != n or built.dim != dim:
        raise DimensionMismatchError(f"declared n/dim do not match the {key} list")
    return built
