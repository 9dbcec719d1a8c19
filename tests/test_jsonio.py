import json
import math

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
