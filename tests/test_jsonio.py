import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given
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


def _types(obj):
    """``obj`` with every value replaced by its exact type, keys kept."""
    if type(obj) is dict:
        return {k: _types(v) for k, v in obj.items()}
    if type(obj) is list:
        return [_types(v) for v in obj]
    return type(obj)


def test_dump_load_file(tmp_path):
    doc = {
        "w": [0.1, 2.0, -3.5e-12, -0.0, 5e-324, -sys.float_info.max, 1e17],
        "n": None, "b": [True, False], "s": "hi \u00e9\n\"\U0001f600",
        "i": [0, -7, 2**63 - 1, -2**63, 2**64 - 1],
        "d": {"": [], "z": {}, "a": [[1, 2.5], {"k": "v"}]},
    }
    p = tmp_path / "doc.json"
    jsonio.dump_file(p, doc)
    loaded = jsonio.load_file(p)
    assert loaded == doc
    # Every value comes back as the builtin type it was written from, so
    # the writer takes its exact-type dispatch on the reloaded document
    # and writes the same bytes.
    assert _types(loaded) == _types(doc)
    first = p.read_bytes()
    assert (jsonio.canonical_dumps(loaded) + "\n").encode() == first
    jsonio.dump_file(p, loaded)
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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
@example([0.0, -0.0])
@example([5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308])
@example([sys.float_info.max, -sys.float_info.max, 1e17, 0.1])
def test_written_floats_read_back_bit_for_bit(tmp_path_factory, xs):
    # json.loads is the reference reader: both parsers must agree on the
    # writer's text, and both must give every double back exactly.
    p = tmp_path_factory.mktemp("floats") / "doc.json"
    jsonio.dump_file(p, {"w": xs})
    got = jsonio.load_file(p)["w"]
    ref = json.loads(p.read_text(encoding="utf-8"))["w"]
    assert all(type(v) is float for v in got)
    assert list(map(_bits, got)) == list(map(_bits, xs)) == list(map(_bits, ref))


@pytest.mark.parametrize("text", [
    "[NaN]", "[Infinity]", "[-Infinity]", "[1e400]", "[-1e400]", "[1" + "0" * 400 + "]",
    '["\\ud800"]',
])
def test_load_file_refuses_what_json_loads_accepts(tmp_path, text):
    p = tmp_path / "doc.json"
    p.write_text(text, encoding="utf-8")
    json.loads(text)
    with pytest.raises(json.JSONDecodeError):
        jsonio.load_file(p)


def test_integers_past_int64_and_uint64_read_as_floats(tmp_path):
    inside = [2**64 - 1, -2**63]
    outside = [2**64, 2**64 + 5, -2**63 - 1, 10**30 + 1]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(inside + outside), encoding="utf-8")
    got = jsonio.load_file(p)
    assert got == inside + list(map(float, outside))
    assert [type(v) for v in got] == [int] * len(inside) + [float] * len(outside)


_N = jsonio.MAX_DEPTH


def _deep_after(prefix):
    """``prefix``, which opens one array, then ``MAX_DEPTH`` nested arrays,
    and where level ``MAX_DEPTH + 1`` opens: the run's last bracket."""
    return prefix + "[" * _N + "]" * _N + "]", len(prefix) + _N - 1


@pytest.mark.parametrize("text, deep_at", [
    pytest.param("[" * _N + "]" * _N, None, id="max-depth arrays"),
    pytest.param("[" * (_N + 1) + "]" * (_N + 1), _N, id="one array more"),
    pytest.param('{"a":' * (_N + 1) + "0" + "}" * (_N + 1), 5 * _N, id="one object more"),
    # Refused for its depth before orjson reads that it never ends.
    pytest.param("[" * (_N + 1), _N, id="unclosed"),
    # Brackets inside strings open and close nothing.
    pytest.param('["' + "[" * (_N + 1) + '", 0]', None, id="opening brackets in a string"),
    pytest.param(*_deep_after('["' + "]" * (_N + 1) + '", '), id="closing brackets in a string"),
    # An escaped quote does not end its string; a quote after an escaped
    # backslash does.
    pytest.param(*_deep_after('["\\"' + "]" * (_N + 1) + '", '), id="escaped quote"),
    pytest.param(*_deep_after('["\\\\", '), id="escaped backslash"),
    pytest.param('["\\\\\\"' + "[" * (_N + 1) + '"]', None, id="escaped backslash and quote"),
])
def test_nesting_deeper_than_max_depth_is_refused(tmp_path, text, deep_at):
    p = tmp_path / "doc.json"
    p.write_text(text, encoding="utf-8")
    if deep_at is None:
        jsonio.load_file(p)
        return
    with pytest.raises(json.JSONDecodeError, match=f"nested deeper than {_N} levels") as refused:
        jsonio.load_file(p)
    assert refused.value.pos == deep_at
