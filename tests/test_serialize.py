import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infocap import AlmostDim, Distrust, pgm
from infocap.checks import random_unit
from infocap.discrimination import povm_from_json, povm_to_json
from infocap.ensembles import assumption_from_json, assumption_to_json, ensemble_from_json, ensemble_to_json
from infocap.errors import InfocapError
from infocap.serialize import from_json, to_json

from conftest import random_pure_ensemble

_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, np.nan, np.inf, -np.inf, 1.5, -1e300]


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).tobytes()


class TestRoundtrip:
    @settings(deadline=None, max_examples=100)
    @given(
        a=hnp.arrays(
            complex,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
            elements=st.complex_numbers(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.sampled_from([complex(x, y) for x in _SPECIAL for y in _SPECIAL]),
        )
    )
    def test_bit_for_bit(self, a):
        back = from_json(to_json(a), a.ndim)
        assert back.shape == a.shape
        assert _bits(back) == _bits(a)

    def test_special_values_bit_for_bit(self):
        # the real and imaginary parts of every pair of special values
        a = np.array([[complex(x, y) for y in _SPECIAL] for x in _SPECIAL])
        back = from_json(to_json(a), 2)
        assert _bits(back) == _bits(a)
        assert np.signbit(back.real[1]).all() and np.signbit(back.imag[:, 1]).all()

    def test_integers_read_as_floats(self):
        np.testing.assert_array_equal(from_json([[1, 0], [0, -2]], 1), np.array([1.0, -2.0j]))


def _pairs(a):
    """The per-element encoding the codec replaced: one Python loop per axis."""
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs(row) for row in a]


class TestSameText:
    # every file infocap writes keeps its bytes
    def test_ensemble_and_povm(self, rng):
        e = random_pure_ensemble(rng, 5, 3)
        expected = {"n": 5, "dim": 3, "states": _pairs(e.states)}
        assert json.dumps(ensemble_to_json(e)) == json.dumps(expected)
        m = pgm(e)
        expected = {"n": 5, "dim": 3, "elements": _pairs(m.elements)}
        assert json.dumps(povm_to_json(m)) == json.dumps(expected)

    def test_projector_and_targets(self, rng):
        v = np.stack([random_unit(rng, 3) for _ in range(2)])
        projector = np.linalg.qr(v.T)[0] @ np.linalg.qr(v.T)[0].conj().T
        a = AlmostDim(d=2, eps=0.1, projector=projector)
        expected = {"kind": "almost_dim", "d": 2, "eps": 0.1, "projector": _pairs(projector)}
        assert json.dumps(assumption_to_json(a)) == json.dumps(expected)
        targets = np.stack([random_unit(rng, 3) for _ in range(4)])
        a = Distrust(targets=targets, eps=0.2)
        expected = {"kind": "distrust", "eps": 0.2, "targets": _pairs(targets)}
        assert json.dumps(assumption_to_json(a)) == json.dumps(expected)


# Each row replaces one matrix of a valid file: a 1 x 1 matrix with a
# malformed entry, or a matrix with rows of unequal length.
_MALFORMED = {
    "three_components": [[[1.0, 0.0, 7.0]]],
    "one_component": [[[1.0]]],
    "bools": [[[True, False]]],
    "string": [[["1.0", 0.0]]],
    "null": [[[None, 0.0]]],
    "object": [[{"re": 1.0, "im": 0.0}]],
    "ragged_rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
}
_VALID = [[[1.0, 0.0]]]


def _docs(m):
    """The file of each loader, with ``m`` as its first complex matrix."""
    return {
        "ensemble": (ensemble_from_json, {"n": 2, "dim": 1, "states": [m, [[[1.0, 0.0]]]]}),
        "povm": (povm_from_json, {"n": 2, "dim": 1, "elements": [m, [[[0.0, 0.0]]]]}),
        "projector": (assumption_from_json, {"kind": "almost_dim", "d": 1, "eps": 0.1, "projector": m}),
        "targets": (assumption_from_json, {"kind": "distrust", "eps": 0.1, "targets": m}),
    }


class TestMalformedPairs:
    @pytest.mark.parametrize("loader", list(_docs(_VALID)))
    @pytest.mark.parametrize("fault", _MALFORMED)
    def test_loaders_raise(self, fault, loader):
        decode, doc = _docs(_MALFORMED[fault])[loader]
        with pytest.raises(InfocapError):
            decode(doc)

    @pytest.mark.parametrize("loader", list(_docs(_VALID)))
    def test_valid_documents_load(self, loader):
        decode, doc = _docs(_VALID)[loader]
        decode(doc)

    @pytest.mark.parametrize(
        "obj, axes",
        [([[1.0, 0.0]], 2), ([[[1.0, 0.0]]], 1), ([], 1), ([[]], 1), ([[10**400, 0]], 1), ([1.0, 0.0], 1)],
        ids=["too_shallow", "too_deep", "empty", "empty_pair", "beyond_float", "bare_pair"],
    )
    def test_from_json_shapes(self, obj, axes):
        with pytest.raises(InfocapError):
            from_json(obj, axes)
