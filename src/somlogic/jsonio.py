"""Deterministic JSON serialisation for snapshot files.

All artefacts this package writes (map snapshots, model snapshots, reports)
go through :func:`canonical_dumps` so that identical in-memory state always
produces byte-identical files.  Rules:

* dict keys are emitted in sorted order, list order is preserved,
* floats are written with 17 significant digits, which round-trips any IEEE
  double exactly through ``json.loads``,
* a float that would print as a bare integer gets a trailing ``.0`` so the
  reader gets a float back, not an int,
* non-finite floats are rejected; callers encode them explicitly (the model
  snapshot stores an infinite relative distance as the string ``"inf"``).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

__all__ = ["canonical_dumps", "dump_file", "load_file", "encode_float"]

INF_TOKEN = "inf"


def encode_float(x: float) -> float | str:
    """Map a possibly-infinite distance value to its JSON form."""
    if math.isinf(x):
        return INF_TOKEN
    return float(x)


def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float reached the JSON writer; encode it first")
    s = format(x, ".17g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _write(obj: Any, out: list[str]) -> None:
    # Nearly every value has one of these exact types.  Anything else, a
    # subclass among them (bool, numpy's float64, a str subclass), takes
    # the general chain, which raises every error the writer raises.
    # ``encode_basestring_ascii`` is the encoder that
    # ``json.dumps(s, ensure_ascii=True)`` ends up calling.
    t = type(obj)
    if t is float:
        out.append(_float_repr(obj))
    elif t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is list:
        _write_array(obj, out)
    elif t is dict:
        _write_object(obj, out)
    elif t is int:
        out.append(str(obj))
    else:
        _write_general(obj, out)


def _write_general(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, (list, tuple)):
        _write_array(obj, out)
    elif isinstance(obj, dict):
        _write_object(obj, out)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__} canonically")


def _write_array(items, out: list[str]) -> None:
    out.append("[")
    for i, item in enumerate(items):
        if i:
            out.append(",")
        _write(item, out)
    out.append("]")


def _write_object(obj: dict, out: list[str]) -> None:
    out.append("{")
    for i, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
        if i:
            out.append(",")
        out.append(encode_basestring_ascii(key))
        out.append(":")
        _write(obj[key], out)
    out.append("}")


def canonical_dumps(obj: Any) -> str:
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def dump_file(path, obj: Any) -> None:
    """Write ``obj`` canonically to ``path``; a value the writer refuses
    raises before the file is opened, so it leaves no partial file."""
    text = canonical_dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_file(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
