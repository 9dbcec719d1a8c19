import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from somlogic import jsonio


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_round_trip_exact(x):
    s = jsonio.canonical_dumps(x)
    assert json.loads(s) == x
    assert isinstance(json.loads(s), float)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_serialisation_deterministic(x):
    assert jsonio.canonical_dumps(x) == jsonio.canonical_dumps(x)


def test_keys_sorted():
    s = jsonio.canonical_dumps({"b": 1, "a": 2, "c": [{"z": 0, "y": 1}]})
    assert s == '{"a":2,"b":1,"c":[{"y":1,"z":0}]}'


def test_scalar_forms():
    assert jsonio.canonical_dumps([True, False, None, 3, "x"]) == '[true,false,null,3,"x"]'
    assert jsonio.canonical_dumps(0.1) == "0.10000000000000001"
    assert jsonio.canonical_dumps(1.0) == "1.0"
    assert jsonio.canonical_dumps(-0.0) == "-0.0"
    assert jsonio.canonical_dumps(1e17) == "1e+17"


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        jsonio.canonical_dumps(math.inf)
    with pytest.raises(ValueError):
        jsonio.canonical_dumps(math.nan)


def test_inf_token_round_trip():
    assert jsonio.encode_float(math.inf) == "inf"
    assert jsonio.encode_float(0.25) == 0.25


def test_dump_load_file(tmp_path):
    doc = {"w": [0.1, 2.0, -3.5e-12], "n": None, "s": "hi"}
    p = tmp_path / "doc.json"
    jsonio.dump_file(p, doc)
    assert jsonio.load_file(p) == doc
    first = p.read_bytes()
    jsonio.dump_file(p, jsonio.load_file(p))
    assert p.read_bytes() == first


def test_unserialisable_type():
    with pytest.raises(TypeError):
        jsonio.canonical_dumps({"x": {1, 2}})
    with pytest.raises(TypeError):
        jsonio.canonical_dumps({3: "non-string key"})


class _Str(str):
    pass


def _via_general_chain(obj):
    """``obj`` with every str, float, list and dict key rewritten as a
    subclass or sibling type (a str subclass, numpy's float64, a tuple), so
    the writer reaches each value through its general chain rather than the
    exact-type dispatch."""
    if type(obj) is str:
        return _Str(obj)
    if type(obj) is float:
        return np.float64(obj)
    if type(obj) is list:
        return tuple(_via_general_chain(v) for v in obj)
    if type(obj) is dict:
        return {_Str(k): _via_general_chain(v) for k, v in obj.items()}
    return obj


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
def test_exact_types_write_the_bytes_of_the_general_chain(obj):
    assert jsonio.canonical_dumps(obj) == jsonio.canonical_dumps(_via_general_chain(obj))


def test_strings_are_escaped_as_by_json_dumps():
    s = 'é\n"\\\x00\U0001f600'
    assert jsonio.canonical_dumps([s, {s: 0}]) == f"[{json.dumps(s)},{{{json.dumps(s)}:0}}]"


def test_refused_value_leaves_no_file(tmp_path):
    p = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="non-finite float"):
        jsonio.dump_file(p, {"w": [1.0, math.nan]})
    with pytest.raises(TypeError, match="cannot serialise set"):
        jsonio.dump_file(p, {"w": {1}})
    assert not p.exists()
