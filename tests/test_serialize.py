import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infocap import AlmostDim, Dimension, Distrust, pgm
from infocap.checks import random_unit
from infocap.discrimination import povm_from_json, povm_to_json
from infocap.ensembles import assumption_from_json, assumption_to_json, ensemble_from_json, ensemble_to_json
from infocap.errors import InfocapError
from infocap.randomness import strategy_from_json
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


_STATES = [[[[1.0, 0.0]]]]
_DIMENSION = {"kind": "dimension", "d": 1}


def _branch(**fields):
    return {"q": 1.0, "ensemble": {"n": 1, "dim": 1, "states": _STATES}, "gamma": _DIMENSION, **fields}


# Documents that are malformed apart from their [re, im] pairs, each with the
# loader it goes to: every one raises InfocapError, and no other error
_FAULTY_DOCS = {
    "stack_empty_object": (ensemble_from_json, {}),
    "stack_list": (ensemble_from_json, [_STATES]),
    "stack_no_states": (ensemble_from_json, {"n": 1, "dim": 1}),
    "stack_n_string": (ensemble_from_json, {"n": "x", "dim": 1, "states": _STATES}),
    "stack_n_numeric_string": (ensemble_from_json, {"n": "1", "dim": 1, "states": _STATES}),
    "stack_n_fraction": (ensemble_from_json, {"n": 1.5, "dim": 1, "states": _STATES}),
    "stack_n_integral_float": (ensemble_from_json, {"n": 1.0, "dim": 1, "states": _STATES}),
    "stack_n_bool": (ensemble_from_json, {"n": True, "dim": 1, "states": _STATES}),
    "stack_n_infinite": (ensemble_from_json, {"n": float("inf"), "dim": 1, "states": _STATES}),
    "stack_dim_null": (ensemble_from_json, {"n": 1, "dim": None, "states": _STATES}),
    "povm_list": (povm_from_json, [1]),
    "assumption_list": (assumption_from_json, ["vacuum"]),
    "assumption_no_kind": (assumption_from_json, {"omega": 0.1}),
    "assumption_missing_field": (assumption_from_json, {"kind": "vacuum"}),
    "assumption_null_field": (assumption_from_json, {"kind": "vacuum", "omega": None}),
    "assumption_string_field": (assumption_from_json, {"kind": "vacuum", "omega": "0.1"}),
    "assumption_bool_d": (assumption_from_json, {"kind": "dimension", "d": True}),
    "assumption_beyond_float": (assumption_from_json, {"kind": "information", "alpha": 10**400}),
    "assumption_list_kind": (assumption_from_json, {"kind": ["vacuum"], "omega": 0.1}),
    "assumption_object_kind": (assumption_from_json, {"kind": {}, "omega": 0.1}),
    "strategy_list": (strategy_from_json, [_branch()]),
    "strategy_no_branches": (strategy_from_json, {}),
    "strategy_branches_int": (strategy_from_json, {"branches": 3}),
    "strategy_branch_int": (strategy_from_json, {"branches": [3]}),
    "strategy_branch_no_q": (strategy_from_json, {"branches": [{"ensemble": _branch()["ensemble"], "gamma": _DIMENSION}]}),
    "strategy_q_string": (strategy_from_json, {"branches": [_branch(q="1")]}),
    "strategy_q_beyond_float": (strategy_from_json, {"branches": [_branch(q=10**400)]}),
    "strategy_gamma_list": (strategy_from_json, {"branches": [_branch(gamma=[_DIMENSION])]}),
}


class TestLoaderFaults:
    @pytest.mark.parametrize("fault", _FAULTY_DOCS)
    def test_loaders_raise_infocap_error(self, fault):
        decode, doc = _FAULTY_DOCS[fault]
        with pytest.raises(InfocapError):
            decode(doc)

    def test_the_table_reaches_every_loader(self):
        assert {decode for decode, _ in _FAULTY_DOCS.values()} == {
            ensemble_from_json, povm_from_json, assumption_from_json, strategy_from_json
        }

    def test_valid_documents_load(self):
        assert strategy_from_json({"branches": [_branch()]}).n == 1
        # an integral float is a JSON number, which Dimension stores as an int
        assert assumption_from_json({"kind": "dimension", "d": 2.0}) == Dimension(d=2)
        assert ensemble_from_json({"n": 1, "dim": 1, "states": _STATES}).dim == 1
